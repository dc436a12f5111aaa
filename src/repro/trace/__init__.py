"""Hash-table activity traces: the simulator input of paper Section 4.

* :mod:`~repro.trace.events` — the event model (activations, cycles,
  sections).
* :mod:`~repro.trace.recorder` — record traces from live Rete runs.
* :mod:`~repro.trace.format` — the Figure 4-1-style text format.
* :mod:`~repro.trace.cache` — content-addressed on-disk trace cache.
* :mod:`~repro.trace.validate` — structural validation.
* :mod:`~repro.trace.transform` — trace-level unsharing, dummy nodes and
  copy-and-constraint (paper Section 5.2).
"""

from .cache import (cache_dir, cache_enabled, cache_stats, cached_trace,
                    clear_cache, format_cache_stats, invalidate,
                    module_source, set_cache_enabled, source_fingerprint,
                    trace_key)
from .events import (KIND_JOIN, KIND_NEGATIVE, KIND_TERMINAL, LEFT, RIGHT,
                     ActivationStats, CycleKeyIndex, CycleTrace, IdleRun,
                     SectionTrace, TraceActivation, TraceEntry,
                     iter_cycles, materialize)
from .format import (TRACE_FORMAT_VERSION, FileTraceStream, TraceFormatError,
                     dump_entries, dump_trace, dumps_trace, load_trace,
                     loads_trace, read_trace, save_entries, save_trace)
from .recorder import TraceRecorder, record_program
from .transform import (copy_and_constraint_trace, insert_dummy_nodes,
                        unshare_trace)
from .validate import TraceValidationError, validate_cycle, validate_trace

__all__ = [
    "KIND_JOIN", "KIND_NEGATIVE", "KIND_TERMINAL", "LEFT", "RIGHT",
    "ActivationStats", "CycleKeyIndex", "CycleTrace", "IdleRun",
    "SectionTrace", "TraceActivation", "TraceEntry", "iter_cycles",
    "materialize",
    "TRACE_FORMAT_VERSION", "FileTraceStream", "TraceFormatError",
    "dump_entries", "dump_trace", "dumps_trace", "load_trace",
    "loads_trace", "read_trace", "save_entries", "save_trace",
    "cache_dir", "cache_enabled", "cache_stats", "cached_trace",
    "clear_cache", "format_cache_stats", "invalidate", "module_source",
    "set_cache_enabled", "source_fingerprint", "trace_key",
    "TraceRecorder", "record_program",
    "copy_and_constraint_trace", "insert_dummy_nodes", "unshare_trace",
    "TraceValidationError", "validate_cycle", "validate_trace",
]
