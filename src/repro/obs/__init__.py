"""``repro.obs`` — span-level consensus observability.

The subsystem instruments the consensus hot path end to end:

* :mod:`repro.obs.recorder` — the :class:`SpanRecorder` replicas and the
  simulated network write block-lifecycle marks, epoch events, and
  per-message delay samples into.  Recording is strictly additive: it
  never touches the RNG streams, the scheduler, or the
  fingerprint-bearing :class:`~repro.sim.tracing.Trace` counters, so a
  seeded run produces byte-identical fingerprints with observability on
  or off (the inertness guarantee; see DESIGN.md "Observability").
* :mod:`repro.obs.metrics` — a dependency-free registry of counters and
  gauges, and fixed-bucket histograms.
* :mod:`repro.obs.analyze` — assembles recorded marks into per-block
  lifecycles, phase-latency breakdowns, epoch-change timelines,
  straggler detection, and Δ-headroom analysis.
* :mod:`repro.obs.export` — the run file (``trace.jsonl``: recording
  plus wire snapshot) with its one writer and reader, and the
  Chrome-trace (Perfetto-compatible) view derived from it.
* :mod:`repro.obs.wire` — wire-level bandwidth accounting: the
  :class:`WireAccountant` taps every send in the simulated network and
  the real transport, attributing bytes to link, message class, protocol
  phase, δ/Δ size class, and block height/epoch, with a telescoping-sum
  validated snapshot that feeds the
  ``python -m repro.obs wire|bandwidth|chunks|queues`` drill-downs.
* ``python -m repro.obs`` — the trace-analysis CLI ("why was this block
  slow"); see :mod:`repro.obs.__main__`.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .recorder import (
    BLOCK_MILESTONES,
    MARK_CERTIFY,
    MARK_COMMIT,
    MARK_HEADER,
    MARK_PAYLOAD,
    MARK_PROPOSE,
    MARK_VOTE,
    MARK_WINDOW,
    MsgSample,
    ObsEvent,
    SpanRecorder,
)
from .analyze import ObsSummary, summarize_recording
from .export import (
    read_jsonl,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .wire import (
    SIZE_HISTOGRAM_BOUNDS,
    WIRE_PHASE_NAMES,
    QueueSample,
    WireAccountant,
    classify_phase,
    validate_wire_snapshot,
)

__all__ = [
    "BLOCK_MILESTONES",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MARK_CERTIFY",
    "MARK_COMMIT",
    "MARK_HEADER",
    "MARK_PAYLOAD",
    "MARK_PROPOSE",
    "MARK_VOTE",
    "MARK_WINDOW",
    "MetricsRegistry",
    "MsgSample",
    "ObsEvent",
    "ObsSummary",
    "QueueSample",
    "SIZE_HISTOGRAM_BOUNDS",
    "SpanRecorder",
    "WIRE_PHASE_NAMES",
    "WireAccountant",
    "classify_phase",
    "read_jsonl",
    "summarize_recording",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_wire_snapshot",
    "write_chrome_trace",
    "write_jsonl",
]
