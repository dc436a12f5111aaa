"""Structured logging for the harness: one hierarchy, one knob.

Every module already logs under ``repro.*`` via
``logging.getLogger(__name__)``; this module adds the piece the CLI
needs — a configurator mapping ``--quiet`` / ``-v`` / ``-vv`` onto the
``repro`` logger — and a tiny helper for ``event key=value`` structured
messages, so warnings (supervisor give-ups, shed sessions,
non-monotone degradation curves) come out of one formatter instead of
scattered ``print(..., file=sys.stderr)`` calls.

Without :func:`configure_logging` nothing changes: the stdlib's
last-resort handler still prints WARNING+ messages to stderr, so
library users see problems but no chatter.
"""

from __future__ import annotations

import logging
import sys
from typing import IO, Optional

#: Marker attribute identifying the handler we installed (so repeated
#: configuration reconfigures instead of stacking handlers).
_HANDLER_FLAG = "_repro_obs_handler"

_FORMAT = "%(levelname)s %(name)s: %(message)s"


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy.

    ``get_logger("exec.served")`` and ``get_logger("repro.exec.served")``
    return the same logger; modules inside the package keep using
    ``logging.getLogger(__name__)``, which is equivalent.
    """
    if not name.startswith("repro"):
        name = f"repro.{name}" if name else "repro"
    return logging.getLogger(name)


def verbosity_level(verbose: int = 0, quiet: bool = False) -> int:
    """Map the CLI's ``-v`` count / ``--quiet`` flag onto a log level."""
    if quiet:
        return logging.ERROR
    if verbose <= 0:
        return logging.WARNING
    if verbose == 1:
        return logging.INFO
    return logging.DEBUG


def configure_logging(verbose: int = 0, quiet: bool = False,
                      stream: Optional[IO[str]] = None) -> int:
    """Install (or retune) the ``repro`` stderr handler; returns level.

    Idempotent: calling again adjusts the existing handler's level and
    stream rather than adding a second one, so tests and repeated CLI
    invocations in one process stay clean.
    """
    level = verbosity_level(verbose, quiet)
    root = logging.getLogger("repro")
    root.setLevel(level)
    handler = next((h for h in root.handlers
                    if getattr(h, _HANDLER_FLAG, False)), None)
    if handler is None:
        handler = logging.StreamHandler(stream or sys.stderr)
        setattr(handler, _HANDLER_FLAG, True)
        handler.setFormatter(logging.Formatter(_FORMAT))
        root.addHandler(handler)
    elif stream is not None:
        try:
            handler.setStream(stream)
        except ValueError:
            # setStream flushes the old stream first; if the host
            # (e.g. a test harness) already closed it, just swap.
            handler.stream = stream
    handler.setLevel(level)
    return level


def log_event(logger: logging.Logger, event: str, *,
              level: int = logging.INFO, **fields) -> None:
    """Log ``event key=value ...`` with lazy formatting.

    Floats are compacted with ``%g``; strings containing spaces are
    repr-quoted so lines stay grep- and machine-friendly.
    """
    if not logger.isEnabledFor(level):
        return
    parts = [event]
    for key, value in fields.items():
        if isinstance(value, float):
            text = f"{value:g}"
        elif isinstance(value, str) and (" " in value or not value):
            text = repr(value)
        else:
            text = str(value)
        parts.append(f"{key}={text}")
    logger.log(level, "%s", " ".join(parts))
