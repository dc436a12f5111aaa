"""Shared test configuration: hypothesis profiles and tier markers.

Three profiles, selected with ``HYPOTHESIS_PROFILE`` (default ``ci``):

* ``ci`` — the PR gate: moderate example counts, no deadline (CI
  runners stall unpredictably; a wall-clock deadline makes good tests
  flaky without making bad ones fail).
* ``dev`` — quick local iteration.
* ``nightly`` — the scheduled deep run: several times the examples,
  still no deadline.

Property tests should NOT carry their own ``@settings`` decorators for
example counts or deadlines — the profile is the single knob.  A test
may still use ``@settings`` for semantic options (e.g. suppressing a
specific health check).

Flight-recorder post-mortems (``flight-*.jsonl``, written on any typed
executor error) go to a session temporary directory, never the working
directory; tests that inspect dumps point ``REPRO_FLIGHT_DIR`` at their
own ``tmp_path``.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=60, deadline=None)
settings.register_profile("dev", max_examples=20, deadline=None)
settings.register_profile("nightly", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(autouse=True, scope="session")
def _flight_dumps_in_tmp(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FLIGHT_DIR",
                     str(tmp_path_factory.mktemp("flight")))
        yield
