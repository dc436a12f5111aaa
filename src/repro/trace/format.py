"""Text serialization of section traces, modelled on the paper's
Figure 4-1 simulator input.

The format is line-oriented and lossless::

    #repro-trace 1
    section rubik-good-speedups
    cycle 1
    a 1 - 17 join right + k n:3 s:red : 4 5
    a 4 1 23 join left + k s:red :
    ...

Fields of an ``a`` line: act-id, parent-id (``-`` for roots), node-id,
kind, side, tag, then ``k`` followed by the bucket-key values
(type-tagged, percent-escaped), then ``:`` followed by the successor
act-ids.  Values are tagged ``n:`` (number) or ``s:`` (symbol) so that
``1`` and ``"1"`` survive the round trip.

Two extensions serve the large-scale path (DESIGN §4.4):

* an ``idle <start> <count>`` line stands for *count* consecutive empty
  cycles (an :class:`~repro.trace.events.IdleRun`), so a million-cycle
  idle stretch is one line instead of a million ``cycle`` headers.
  :func:`dump_trace` never emits it for materialized sections — only
  :func:`dump_entries` does — and both readers accept it.
* :class:`FileTraceStream` reads a trace file *lazily*, one cycle in
  memory at a time, and is re-iterable — the streaming counterpart of
  :func:`read_trace` for traces too large to materialize.
"""

from __future__ import annotations

import io
import sys
from typing import Iterable, Iterator, Optional, TextIO
from urllib.parse import quote, unquote

from ..ops5.values import Value
from ..rete.hashing import BucketKey
from .events import (VALID_KINDS, VALID_SIDES, VALID_TAGS, CycleTrace,
                     IdleRun, SectionTrace, TraceActivation, TraceEntry)

#: Version of the on-disk trace format.  Bump when the serialization
#: changes shape; the header line carries it.
TRACE_FORMAT_VERSION = 1

_MAGIC = f"#repro-trace {TRACE_FORMAT_VERSION}"


class TraceFormatError(Exception):
    """Raised when a trace file is malformed."""


def _encode_value(value: Value) -> str:
    if isinstance(value, bool):
        raise TraceFormatError("boolean values are not OPS5 atoms")
    if isinstance(value, int):
        return f"n:{value}"
    if isinstance(value, float):
        return f"n:{value!r}"
    # Percent-encode everything outside [A-Za-z0-9_.~-]: whitespace of any
    # flavour would break field splitting, and this keeps the format ASCII.
    return f"s:{quote(value, safe='')}"


def _decode_value(text: str) -> Value:
    if len(text) < 2 or text[1] != ":":
        raise TraceFormatError(f"bad value field {text!r}")
    tag, body = text[0], text[2:]
    if tag == "n":
        try:
            return int(body)
        except ValueError:
            try:
                return float(body)
            except ValueError:
                raise TraceFormatError(f"bad number {body!r}") from None
    if tag == "s":
        # Interned: a million-activation file repeats the same few
        # hundred symbols; one shared str per symbol instead of one per
        # occurrence (DESIGN §4.4, columnar recorded cycles).
        return sys.intern(unquote(body))
    raise TraceFormatError(f"unknown value tag {tag!r}")


def _write_cycle(cycle: CycleTrace, stream: TextIO) -> None:
    stream.write(f"cycle {cycle.index}\n")
    for act in cycle:
        parent = "-" if act.parent_id is None else str(act.parent_id)
        values = " ".join(_encode_value(v) for v in act.key.values)
        successors = " ".join(str(s) for s in act.successors)
        stream.write(
            f"a {act.act_id} {parent} {act.node_id} {act.kind} "
            f"{act.side} {act.tag} k {values} : {successors}".rstrip()
            + "\n")


def dump_trace(trace: SectionTrace, stream: TextIO) -> None:
    """Write *trace* to *stream* in the text format."""
    stream.write(_MAGIC + "\n")
    stream.write(f"section {trace.name}\n")
    for cycle in trace:
        _write_cycle(cycle, stream)


def dump_entries(name: str, entries: Iterable[TraceEntry],
                 stream: TextIO) -> None:
    """Write a trace-entry stream (cycles and idle runs) to *stream*.

    The streaming counterpart of :func:`dump_trace`: consumes entries
    one at a time (nothing is materialized) and writes each
    :class:`~repro.trace.events.IdleRun` as a single ``idle`` line.
    """
    stream.write(_MAGIC + "\n")
    stream.write(f"section {name}\n")
    for entry in entries:
        if isinstance(entry, IdleRun):
            stream.write(f"idle {entry.start_index} {entry.count}\n")
        else:
            _write_cycle(entry, stream)


def save_entries(name: str, entries: Iterable[TraceEntry], path) -> None:
    """Write a trace-entry stream to the file at *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        dump_entries(name, entries, fh)


def dumps_trace(trace: SectionTrace) -> str:
    """Serialize *trace* to a string."""
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


def load_trace(stream: TextIO) -> SectionTrace:
    """Parse a trace from *stream*; inverse of :func:`dump_trace`."""
    lines = [ln.rstrip("\n") for ln in stream]
    if not lines or lines[0].strip() != _MAGIC:
        raise TraceFormatError(
            f"missing magic header {_MAGIC!r}")
    index = 1
    if index >= len(lines) or not lines[index].startswith("section "):
        raise TraceFormatError("missing 'section <name>' line")
    name = lines[index][len("section "):]
    trace = SectionTrace(name=name)
    current: CycleTrace | None = None
    for line_no, line in enumerate(lines[index + 1:], start=index + 2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("cycle "):
            try:
                cycle_index = int(stripped.split()[1])
            except (IndexError, ValueError):
                raise TraceFormatError(
                    f"line {line_no}: bad cycle header {stripped!r}")
            current = CycleTrace(index=cycle_index)
            trace.cycles.append(current)
            continue
        if stripped.startswith("a "):
            if current is None:
                raise TraceFormatError(
                    f"line {line_no}: activation before any cycle header")
            current.add(_parse_activation(stripped, line_no))
            continue
        if stripped.startswith("idle "):
            for cycle in _parse_idle(stripped, line_no).cycles():
                trace.cycles.append(cycle)
            current = None
            continue
        raise TraceFormatError(f"line {line_no}: unrecognised {stripped!r}")
    return trace


def _parse_idle(line: str, line_no: int) -> IdleRun:
    fields = line.split()
    try:
        start, count = int(fields[1]), int(fields[2])
        if len(fields) != 3:
            raise ValueError("expected 'idle <start> <count>'")
        return IdleRun(start_index=start, count=count)
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(f"line {line_no}: {exc}") from None


def loads_trace(text: str) -> SectionTrace:
    """Parse a trace from a string."""
    return load_trace(io.StringIO(text))


def _parse_activation(line: str, line_no: int) -> TraceActivation:
    fields = line.split()
    # a <id> <parent> <node> <kind> <side> <tag> k <vals...> : <succs...>
    try:
        if fields[7] != "k":
            raise ValueError("expected 'k' marker")
        colon = fields.index(":", 7)
        act_id = int(fields[1])
        parent_id = None if fields[2] == "-" else int(fields[2])
        node_id = int(fields[3])
        kind, side, tag = fields[4], fields[5], fields[6]
        values = tuple(_decode_value(f) for f in fields[8:colon])
        successors = tuple(int(f) for f in fields[colon + 1:])
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(f"line {line_no}: {exc}") from None
    if kind not in VALID_KINDS:
        raise TraceFormatError(f"line {line_no}: bad kind {kind!r}")
    if side not in VALID_SIDES:
        raise TraceFormatError(f"line {line_no}: bad side {side!r}")
    if tag not in VALID_TAGS:
        raise TraceFormatError(f"line {line_no}: bad tag {tag!r}")
    return TraceActivation(
        act_id=act_id, parent_id=parent_id, node_id=node_id, kind=kind,
        side=side, tag=tag, key=BucketKey(node_id, values),
        successors=successors)


def save_trace(trace: SectionTrace, path) -> None:
    """Write *trace* to the file at *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        dump_trace(trace, fh)


def read_trace(path) -> SectionTrace:
    """Read a trace from the file at *path*."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_trace(fh)


class FileTraceStream:
    """Lazy, re-iterable reader of a trace file.

    Holds one cycle in memory at a time — a million-activation file
    streams through the simulator at O(largest cycle) memory.  Each
    ``__iter__`` call reopens the file, so the stream can feed every
    point of a sweep.  Picklable: only the path travels.

    ``idle`` lines come out as :class:`~repro.trace.events.IdleRun`
    markers; pass ``coalesce_idle=True`` to also merge runs of adjacent
    *explicit* empty cycles into markers (the round-compression engine
    does that itself, so the default leaves cycles as written).
    """

    def __init__(self, path, coalesce_idle: bool = False) -> None:
        self.path = path
        self.coalesce_idle = coalesce_idle
        self.name = self._read_name()
        self._total: Optional[int] = None

    def _read_name(self) -> str:
        with open(self.path, "r", encoding="utf-8") as fh:
            magic = fh.readline().rstrip("\n")
            if magic.strip() != _MAGIC:
                raise TraceFormatError(f"missing magic header {_MAGIC!r}")
            section = fh.readline().rstrip("\n")
            if not section.startswith("section "):
                raise TraceFormatError("missing 'section <name>' line")
            return section[len("section "):]

    def __iter__(self) -> Iterator[TraceEntry]:
        pending: Optional[IdleRun] = None
        for entry in self._parse():
            if not self.coalesce_idle:
                yield entry
                continue
            empty = isinstance(entry, IdleRun) or len(entry) == 0
            if empty:
                start = entry.start_index if isinstance(entry, IdleRun) \
                    else entry.index
                count = entry.count if isinstance(entry, IdleRun) else 1
                if pending is not None and pending.end_index == start:
                    pending = IdleRun(pending.start_index,
                                      pending.count + count)
                else:
                    if pending is not None:
                        yield pending
                    pending = IdleRun(start, count)
                continue
            if pending is not None:
                yield pending
                pending = None
            yield entry
        if pending is not None:
            yield pending

    def _parse(self) -> Iterator[TraceEntry]:
        with open(self.path, "r", encoding="utf-8") as fh:
            fh.readline()  # magic (validated in __init__)
            fh.readline()  # section name
            current: Optional[CycleTrace] = None
            line_no = 2
            for line in fh:
                line_no += 1
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if stripped.startswith("cycle "):
                    if current is not None:
                        yield current
                    try:
                        index = int(stripped.split()[1])
                    except (IndexError, ValueError):
                        raise TraceFormatError(
                            f"line {line_no}: bad cycle header "
                            f"{stripped!r}") from None
                    current = CycleTrace(index=index)
                    continue
                if stripped.startswith("a "):
                    if current is None:
                        raise TraceFormatError(
                            f"line {line_no}: activation before any "
                            f"cycle header")
                    current.add(_parse_activation(stripped, line_no))
                    continue
                if stripped.startswith("idle "):
                    if current is not None:
                        yield current
                        current = None
                    yield _parse_idle(stripped, line_no)
                    continue
                raise TraceFormatError(
                    f"line {line_no}: unrecognised {stripped!r}")
            if current is not None:
                yield current

    def total_activations(self) -> int:
        """Activation count (one counting pass on first call, cached)."""
        if self._total is None:
            total = 0
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("a "):
                        total += 1
            self._total = total
        return self._total

    def __getstate__(self):
        return {"path": self.path, "coalesce_idle": self.coalesce_idle,
                "name": self.name, "_total": self._total}

    def __setstate__(self, state):
        self.path = state["path"]
        self.coalesce_idle = state["coalesce_idle"]
        self.name = state["name"]
        self._total = state["_total"]
