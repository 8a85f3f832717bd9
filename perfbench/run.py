"""The repository benchmark: one command for the wire-DNS and flow workloads.

Run from the repository root::

    python3 perfbench/run.py --workload dns-wire --seed 1 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Workloads: ``dns-wire``, ``flow-warm``, ``flow-mint-churn`` (or ``all``,
which runs each in a fresh interpreter so that no workload's memory peak
or leftover state reaches the next).  ``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that gives the per-layer metrics and writes its spans
to ``.perfbench/`` at the repository root.  Metric names, units and
bounds are those of ``BENCHMARK.json``; ``README.md`` next to this file
says what each one measures and which end-to-end metric each layer
should move.

The report lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when an answer or flow check found a wrong output.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dns-wire", "flow-warm", "flow-mint-churn")


def _parse(argv: list[str], run_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(workload: str, args: argparse.Namespace):
    trace_path = (ROOT / ".perfbench" / f"trace-{workload}-seed{args.seed}.jsonl"
                  if args.trace else None)
    if workload == "dns-wire":
        from dnswire import run_dns_wire

        return run_dns_wire(args.seed, args.seconds, bool(args.trace), trace_path)
    from flowpath import run_flows

    return run_flows(workload, args.seed, args.seconds, bool(args.trace), trace_path)


def _metrics(result, specs: list[dict]) -> tuple[dict, list[str]]:
    """The reported metrics, in ``BENCHMARK.json`` order, and the names of
    per-layer metrics this workload does not reach (reported as 0)."""
    values = dict(result.metrics)
    values["ok_share"] = 1.0 - result.fail_share
    values["fail_share"] = result.fail_share
    out, unreached = {}, []
    for spec in specs:
        name = spec["name"]
        if name not in values:
            unreached.append(name)
        out[name] = {"value": values.get(name, 0.0), "unit": spec["unit"]}
    return out, unreached


def _print_report(workload, args, result, metrics, unreached) -> None:
    print(f"== {workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    rows = [(name, value, unit) for name, value, unit in result.report]
    rows += [(name, m["value"], m["unit"]) for name, m in metrics.items()
             if name not in unreached and name != "fail_share"]
    rows.append(("fail_share", result.fail_share,
                 f"share ({result.failed} of {result.attempted})"))
    for name, value, unit in rows:
        print(f"   {name:<34} {value:>14.6g}  {unit}")
    if unreached:
        print(f"   not reached by this workload (reported as 0): {', '.join(unreached)}")
    for note in result.notes:
        print(f"   note: {note}")


def _run_each(args: argparse.Namespace) -> int:
    """``--workload all``: each workload in a child interpreter, one after
    the other; their reports are passed through and their JSON lines
    merged, each metric under ``<workload>:<name>``."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        with subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            try:
                stdout, _ = child.communicate()
            except BaseException:
                child.terminate()  # so that it stops its own pool workers
                child.wait()
                raise
        lines = stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {workload} gave no result (exit {child.returncode})",
                  file=sys.stderr)
            return child.returncode or 1
        summary["correct"] &= result["correct"] and child.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(
            {f"{workload}:{name}": m for name, m in result["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str]) -> int:
    # A terminated run unwinds, so every pool it started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, spec["run_seconds"])
    if args.workload == "all":
        return _run_each(args)
    sys.path.insert(0, str(ROOT / "src"))
    specs = spec["per_layer" if args.trace else "end_to_end"]

    result = _run(args.workload, args)
    metrics, unreached = _metrics(result, specs)
    if not args.trace and unreached:
        raise RuntimeError(f"{args.workload} did not measure {unreached}")
    _print_report(args.workload, args, result, metrics, unreached)
    correct = result.wrong == 0 and result.failed < result.attempted
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
