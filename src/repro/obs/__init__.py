"""repro.obs — sim-clock-aware metrics and tracing.

One registry over every stats surface (:mod:`repro.obs.metrics`,
:mod:`repro.obs.adapters`), structured span traces along the dispatch and
mitigation paths (:mod:`repro.obs.trace`), and JSON/Prometheus exporters
with snapshot diffing (:mod:`repro.obs.export`).  Front door:
``python -m repro metrics``.
"""

from .adapters import (
    DISPATCH_LATENCY_BUCKETS,
    time_lookup_path,
    watch_cache_node_stats,
    watch_cache_stats,
    watch_cdn,
    watch_datacenter_load,
    watch_ecmp,
    watch_fault_timeline,
    watch_lookup_path,
    watch_policy_engine,
    watch_resolver_stats,
    watch_serve,
    watch_sklookup,
)
from .export import diff_snapshots, render_diff, to_json, to_prometheus
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    bucket_label,
)
from .trace import SpanEvent, TraceRecorder

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "DEFAULT_BUCKETS",
    "bucket_label",
    "TraceRecorder",
    "SpanEvent",
    "to_json",
    "to_prometheus",
    "diff_snapshots",
    "render_diff",
    "watch_cache_stats",
    "watch_ecmp",
    "watch_resolver_stats",
    "watch_sklookup",
    "watch_lookup_path",
    "time_lookup_path",
    "DISPATCH_LATENCY_BUCKETS",
    "watch_fault_timeline",
    "watch_policy_engine",
    "watch_cache_node_stats",
    "watch_datacenter_load",
    "watch_cdn",
    "watch_serve",
]
