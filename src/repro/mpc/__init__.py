"""Discrete-event simulation of production-system match on a
message-passing computer (paper Sections 3.2, 4 and 5).

Typical use::

    from repro.mpc import simulate, simulate_base, speedup
    from repro.mpc import OverheadModel, RoundRobinMapping

    base = simulate_base(trace)
    run = simulate(trace, n_procs=16,
                   overheads=OverheadModel(send_us=5, recv_us=3))
    print(speedup(base, run))
"""

from .config import (OVERHEADS, MappingFactory, RunConfig,
                     SupervisePolicy)
from .costmodel import (DEFAULT_COSTS, TABLE_5_1, ZERO_OVERHEADS, CostModel,
                        OverheadModel, table_5_1_rows)
from .faults import (DEFAULT_PROTOCOL, DeliveryPlan, FailStop, FaultModel,
                     ProtocolModel, StallWindow, plan_delivery)
from .mapping import (DEFAULT_N_BUCKETS, BucketMapping, ExplicitMapping,
                      RandomMapping, RoundRobinMapping, greedy_assignment,
                      greedy_mapping)
from .metrics import (CycleResult, SimResult, SparseProcArray, speedup,
                      speedup_series)
from .machines import (DEFAULT_QUEUE_ACCESS_US, simulate_dedicated_alpha,
                       simulate_master_copy, simulate_pairs,
                       simulate_replicated, simulate_shared_bus)
from .simulator import (BucketWorkCache, GreedyMappingFactory, bucket_work,
                        compute_search_costs, iter_cycle_results, simulate,
                        simulate_base, simulate_config)
from .termination import (TerminationScheme, apply_termination,
                          detection_delay, termination_overhead_fraction)
from ..obs.spans import (CATEGORIES, CONTROL, NETWORK, Span, chrome_trace,
                         timeline_jsonl, write_chrome_trace,
                         write_timeline_jsonl)
from .timeline import (GANTT_LEGEND, CycleTimeline, Envelope, Timeline,
                       TimelineRecorder, gantt, gantt_section)
from .attribution import (IDLE_CATEGORIES, CycleAttribution,
                          SectionAttribution, attribute_cycle,
                          attribute_timeline, critical_path,
                          format_attribution)
from .sweep import (DEFAULT_LOSS_RATES, DEFAULT_PROC_COUNTS,
                    SCALE_PROC_COUNTS, DegradationCurve, SpeedupCurve,
                    fault_sweep, format_curves, format_degradation,
                    overhead_sweep, speedup_curve, speedup_loss,
                    total_time_us)

__all__ = [
    "DEFAULT_COSTS", "TABLE_5_1", "ZERO_OVERHEADS", "CostModel",
    "OverheadModel", "table_5_1_rows",
    "DEFAULT_PROTOCOL", "DeliveryPlan", "FailStop", "FaultModel",
    "ProtocolModel", "StallWindow", "plan_delivery",
    "DEFAULT_LOSS_RATES", "DegradationCurve", "fault_sweep",
    "format_degradation",
    "DEFAULT_N_BUCKETS", "BucketMapping", "ExplicitMapping",
    "RandomMapping", "RoundRobinMapping", "greedy_assignment",
    "greedy_mapping",
    "CycleResult", "SimResult", "SparseProcArray", "speedup",
    "speedup_series",
    "OVERHEADS", "MappingFactory", "RunConfig", "SupervisePolicy",
    "BucketWorkCache", "GreedyMappingFactory",
    "bucket_work", "compute_search_costs", "iter_cycle_results",
    "simulate", "simulate_base", "simulate_config",
    "DEFAULT_PROC_COUNTS", "SCALE_PROC_COUNTS", "SpeedupCurve",
    "format_curves", "overhead_sweep", "speedup_curve", "speedup_loss",
    "total_time_us",
    "simulate_master_copy", "simulate_replicated", "simulate_pairs",
    "DEFAULT_QUEUE_ACCESS_US", "simulate_shared_bus",
    "simulate_dedicated_alpha",
    "TerminationScheme", "apply_termination", "detection_delay",
    "termination_overhead_fraction",
    "CATEGORIES", "CONTROL", "GANTT_LEGEND", "NETWORK", "CycleTimeline",
    "Envelope", "Span", "Timeline", "TimelineRecorder", "chrome_trace",
    "gantt", "gantt_section", "timeline_jsonl", "write_chrome_trace",
    "write_timeline_jsonl",
    "IDLE_CATEGORIES", "CycleAttribution", "SectionAttribution",
    "attribute_cycle", "attribute_timeline", "critical_path",
    "format_attribution",
]
