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

Both readers run one parser, which appends each ``a`` line's columns to
a :class:`~repro.trace.events.TraceBuilder` (``a`` lines may come in
any act-id order; successor lists are kept as written).  A file whose
parent links disagree with its successor lists raises
:class:`~repro.trace.validate.TraceValidationError` with the
validator's problems rather than compiling into a different cycle.
"""

from __future__ import annotations

import io
import sys
from typing import Dict, Iterable, Iterator, Optional, TextIO, Tuple
from urllib.parse import quote, unquote

from ..ops5.values import Value
from .events import (TAG_CODES, VALID_KINDS, VALID_SIDES, VALID_TAGS,
                     CycleTrace, IdleRun, SectionTrace, TraceBuilder,
                     TraceEntry, iter_cycles)

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


#: Tag byte -> the ``kind side tag`` fields of an ``a`` line.
_FIELDS = {code: " ".join(triple) for triple, code in TAG_CODES.items()}


def _write_cycle(cycle: CycleTrace, stream: TextIO) -> None:
    stream.write(f"cycle {cycle.index}\n")
    for act_id, parent, code, key, kids in cycle.key_index().rows():
        parent = "-" if parent is None else str(parent)
        values = " ".join(_encode_value(v) for v in key.values)
        successors = " ".join(str(s) for s in kids)
        stream.write(
            f"a {act_id} {parent} {key.node_id} {_FIELDS[code]} "
            f"k {values} : {successors}".rstrip() + "\n")


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
    """Parse a trace from *stream*; inverse of :func:`dump_trace`.
    ``idle`` lines become their empty cycles."""
    name = _read_header(stream)
    return SectionTrace(name=name,
                        cycles=list(iter_cycles(_entries(stream, name))))


def _read_header(stream: TextIO) -> str:
    """Check the magic line and return the section name."""
    if stream.readline().strip() != _MAGIC:
        raise TraceFormatError(f"missing magic header {_MAGIC!r}")
    section = stream.readline().rstrip("\n")
    if not section.startswith("section "):
        raise TraceFormatError("missing 'section <name>' line")
    return section[len("section "):]


def _entries(stream: TextIO, name: str) -> Iterator[TraceEntry]:
    """The cycles and idle runs of the lines after the header, each
    cycle compiled when the next entry starts.

    Each cycle gets its own builder: its key memo then spells every key
    as that cycle's rows do (``n:1`` and ``n:1.0`` in different cycles
    stay apart), and a stream holds one cycle's keys at a time.
    """
    builder: Optional[TraceBuilder] = None  # of the open cycle
    lines: Dict[int, int] = {}  # act id -> line number, in that cycle
    for line_no, line in enumerate(stream, start=3):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("a "):
            if builder is None:
                raise TraceFormatError(
                    f"line {line_no}: activation before any cycle header")
            act_id, parent, node, code, values, successors = \
                _parse_activation(stripped, line_no)
            if act_id in lines:
                raise TraceFormatError(
                    f"line {line_no}: duplicate act_id {act_id} in cycle "
                    f"{index} (first on line {lines[act_id]})")
            lines[act_id] = line_no
            builder.add(parent, code, node, values, act_id, successors)
            continue
        if builder is not None and stripped.startswith(("cycle ", "idle ")):
            yield builder.end_cycle()
            builder = None
        if stripped.startswith("cycle "):
            try:
                index = int(stripped.split()[1])
            except (IndexError, ValueError):
                raise TraceFormatError(
                    f"line {line_no}: bad cycle header {stripped!r}"
                ) from None
            builder = TraceBuilder(name)
            builder.new_cycle(index)
            lines = {}
            continue
        if stripped.startswith("idle "):
            yield _parse_idle(stripped, line_no)
            continue
        raise TraceFormatError(f"line {line_no}: unrecognised {stripped!r}")
    if builder is not None:
        yield builder.end_cycle()


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


def _parse_activation(line: str, line_no: int
                      ) -> Tuple[int, Optional[int], int, int, tuple, tuple]:
    """An ``a`` line's act id, parent id, node id, tag byte, key values
    and successors."""
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
    return (act_id, parent_id, node_id, TAG_CODES[kind, side, tag], values,
            successors)


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
    point of a sweep.  Picklable: only the path travels.  ``idle``
    lines come out as :class:`~repro.trace.events.IdleRun` markers.
    """

    def __init__(self, path) -> None:
        self.path = path
        with open(path, "r", encoding="utf-8") as fh:
            self.name = _read_header(fh)
        self._total: Optional[int] = None

    def __iter__(self) -> Iterator[TraceEntry]:
        with open(self.path, "r", encoding="utf-8") as fh:
            yield from _entries(fh, _read_header(fh))

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
