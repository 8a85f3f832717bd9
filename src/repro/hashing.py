"""Process-stable hashing: the one home of FNV-1a and splitmix64.

Python's builtin ``hash()`` is salted per process (PYTHONHASHSEED) for
str/bytes, so any RNG seeded from it — or any address derived from it —
differs between two runs of the *same* seeded simulation.  That breaks the
bit-reproducibility the whole clock/seed discipline exists for, and it is
exactly what the :mod:`repro.check` determinism lint's ``salted-hash`` rule
flags.  Everything in the simulator that needs "a number from a name" goes
through this module instead:

* :func:`fnv1a64` — bytes → 64 bits (hashed/per-PoP address bindings, BGP
  tiebreaks, the HRW weights below); fed 64-bit words instead of bytes,
  the same recurrence is the per-flow hash
  (:func:`repro.sockets.lookup.flow_hash_tuple`, and its numpy
  vectorisation in :mod:`repro.flow.backend`);
* :func:`splitmix64` — the avalanche finalizer rendezvous (HRW) weights
  need, since raw FNV of similar names ("s7"/"s8") gives correlated
  weights that skew the argmax (ECMP fan-out, edge-cache home nodes);
* :func:`stable_hash` — a tuple of simple values → 64 bits, for seeds.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = [
    "FNV_OFFSET",
    "FNV_PRIME",
    "MASK64",
    "fnv1a64",
    "splitmix64",
    "stable_hash",
]

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: Iterable[int]) -> int:
    """64-bit FNV-1a over ``data``: tiny, dependency-free, run-stable.

    ``data`` is normally ``bytes``; any iterable of ints below 2**64 works
    the same way, one xor-multiply round per item — the flow hash feeds
    64-bit words."""
    h, prime, mask = FNV_OFFSET, FNV_PRIME, MASK64
    for unit in data:
        h = ((h ^ unit) * prime) & mask
    return h


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer: full avalanche over 64 bits."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def stable_hash(*parts: object) -> int:
    """A deterministic 64-bit hash of a tuple of simple values.

    Accepts strings, ints, floats, bools and ``None``; each part is folded
    into the digest with a type tag so ``("1",)`` and ``(1,)`` differ.
    Unlike ``hash()``, the result is identical in every process and on
    every platform, making it safe for RNG seeding and synthetic address
    derivation.
    """
    return fnv1a64(
        "".join(f"{type(part).__name__}:{part!r};" for part in parts).encode("utf-8")
    )
