"""The simulator backend: ``run()`` over the discrete-event engine.

:class:`SimExecutor` is the reference backend — it calls
:func:`repro.mpc.simulate_config` unchanged, so its counters and
timings are bit-identical to a direct ``simulate_config`` call (the
executor layer adds nothing to the model).  The per-cycle fire sets
are the reachable terminals of each cycle's compiled table, the
instantiations the simulator delivers to control.
"""

from __future__ import annotations

import time

from ..mpc.config import RunConfig
from ..mpc.simulator import simulate_config
from ..trace.events import SectionTrace
from .base import RunHandle, RunResult
from .plan import expected_fires


class SimExecutor:
    """Backend ``sim``: the discrete-event simulator behind ``run()``."""

    name = "sim"

    def submit(self, trace: SectionTrace,
               config: RunConfig) -> RunHandle:
        if config.live_trace:
            raise ValueError(
                "the sim backend has no live execution to trace; use "
                "backend 'actors' with --trace-live (or 'repro "
                "profile' for modeled timelines)")

        def thunk() -> RunResult:
            start = time.perf_counter()
            result = simulate_config(trace, config)
            wall_s = time.perf_counter() - start
            return RunResult(backend=self.name, result=result,
                             fires=expected_fires(trace),
                             wall_s=wall_s)
        return RunHandle(thunk)
