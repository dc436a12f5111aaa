"""Self-test of the open-loop load generator in ``load.py``.

Run from the root of a checkout::

    python3 bench/selftest.py

Two checks, exit 1 if either fails:

* at 50 sessions/s the client-side p50 latency (timed from the
  scheduled send, stamped by a done-callback) is within 2 ms of the
  server's own ``served.session_latency_s`` p50, so the load generator
  adds no artefact of its own;
* a generator stalled for 100 ms is flagged as stalled.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import reset_registry  # noqa: E402

from load import run_rung  # noqa: E402
from workloads import LIVE_CONFIG, ServedOpen  # noqa: E402

#: Allowed gap between the client-side and the server's p50 (ms).
P50_AGREEMENT_MS = 2.0


def main() -> int:
    served = ServedOpen(seed=0)
    failures = 0
    try:
        reset_registry()
        rung = run_rung(served.server, served.windows * 6, LIVE_CONFIG,
                        rate=50, seed=0)
        gap = abs(rung.latency(0.5) - rung.server_p50_ms)
        ok = gap <= P50_AGREEMENT_MS and not rung.generator_stalled
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} client p50 "
              f"{rung.latency(0.5):.3f} ms vs server p50 "
              f"{rung.server_p50_ms:.3f} ms (gap {gap:.3f} ms, limit "
              f"{P50_AGREEMENT_MS} ms); generator late p99 "
              f"{rung.late_p99_ms:.3f} ms")

        stalled_once = []

        def stalling_sleep(seconds: float) -> None:
            if not stalled_once:
                stalled_once.append(True)
                seconds += 0.1
            time.sleep(seconds)

        rung = run_rung(served.server, served.windows * 3, LIVE_CONFIG,
                        rate=50, seed=1, sleep=stalling_sleep)
        ok = rung.generator_stalled
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} a 100 ms generator stall is "
              f"flagged (late p99 {rung.late_p99_ms:.1f} ms)")
    finally:
        served.close()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
