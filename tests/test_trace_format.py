"""Tests for the trace text format (round trips, error handling)."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.ops5 import parse_program
from repro.rete.hashing import BucketKey
from repro.trace import (CycleTrace, FileTraceStream, SectionTrace,
                         TraceActivation, TraceFormatError,
                         TraceValidationError, dumps_trace, loads_trace,
                         materialize, read_trace, record_program,
                         save_trace, validate_trace)
from repro.trace.format import _decode_value, _encode_value
from tests.trace_view import acts

PROGRAM = """
(startup (make stage ^n 1) (make item ^v 1) (make item ^v 2))
(p bump (stage ^n <k>) (item ^v <k>) --> (remove 2) (modify 1 ^n 2))
"""


def sample_trace():
    return record_program(parse_program(PROGRAM), "sample",
                          drop_setup_cycle=False)


class TestValueEncoding:
    @pytest.mark.parametrize("value", [
        0, 42, -7, 2.5, -0.125, "blue", "two words", "a%b",
        "tab\there", "line\nbreak", "", "n:tricky", "1",
    ])
    def test_roundtrip(self, value):
        assert _decode_value(_encode_value(value)) == value

    def test_symbol_one_vs_number_one(self):
        assert _encode_value("1") != _encode_value(1)

    def test_bad_tag_raises(self):
        with pytest.raises(TraceFormatError):
            _decode_value("z:oops")

    def test_missing_colon_raises(self):
        with pytest.raises(TraceFormatError):
            _decode_value("nope")


class TestRoundTrip:
    def test_recorded_trace_roundtrips(self):
        trace = sample_trace()
        text = dumps_trace(trace)
        back = loads_trace(text)
        assert back.name == trace.name
        assert len(back.cycles) == len(trace.cycles)
        for c1, c2 in zip(trace, back):
            assert c1.index == c2.index
            assert len(c1) == len(c2)
            for a1, a2 in zip(acts(c1), acts(c2)):
                assert a1 == a2

    def test_roundtrip_validates(self):
        back = loads_trace(dumps_trace(sample_trace()))
        assert validate_trace(back) == []

    def test_file_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        back = read_trace(path)
        assert dumps_trace(back) == dumps_trace(trace)

    def test_key_spelling_kept_per_cycle(self):
        """``1`` and ``1.0`` name one bucket, but a file spelling them
        in different cycles reads back and writes out as it was."""
        text = ("#repro-trace 1\nsection s\ncycle 1\n"
                "a 1 - 5 join right + k n:1 :\ncycle 2\n"
                "a 1 - 5 join right + k n:1.0 :\n")
        assert dumps_trace(loads_trace(text)) == text

    def test_section_name_with_spaces(self):
        trace = SectionTrace(name="a section name")
        assert loads_trace(dumps_trace(trace)).name == "a section name"


class TestErrors:
    def test_missing_magic(self):
        with pytest.raises(TraceFormatError):
            loads_trace("section foo\n")

    def test_missing_section(self):
        with pytest.raises(TraceFormatError):
            loads_trace("#repro-trace 1\ncycle 0\n")

    def test_activation_before_cycle(self):
        with pytest.raises(TraceFormatError):
            loads_trace("#repro-trace 1\nsection s\n"
                        "a 1 - 2 join left + k :\n")

    def test_unknown_line(self):
        with pytest.raises(TraceFormatError):
            loads_trace("#repro-trace 1\nsection s\nwhat is this\n")

    def test_bad_kind(self):
        with pytest.raises(TraceFormatError):
            loads_trace("#repro-trace 1\nsection s\ncycle 0\n"
                        "a 1 - 2 frob left + k :\n")

    def test_bad_cycle_header(self):
        with pytest.raises(TraceFormatError):
            loads_trace("#repro-trace 1\nsection s\ncycle x\n")

    def test_duplicate_act_id(self, tmp_path, capsys):
        """Both readers name the line of an act id repeated in a
        cycle, and the CLI reports it in one line."""
        path = tmp_path / "dup.trace"
        path.write_text(HEADER + "a 1 - 5 join right + k :\n"
                        "a 1 - 6 join right + k :\n", encoding="utf-8")
        problem = "line 5: duplicate act_id 1 in cycle 1"
        with pytest.raises(TraceFormatError, match=problem):
            read_trace(path)
        with pytest.raises(TraceFormatError, match=problem):
            list(FileTraceStream(path))
        assert main(["simulate", "--trace-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed trace file")
        assert problem in err and err.strip().count("\n") == 0

    def test_comments_and_blanks_ignored(self):
        trace = loads_trace(
            "#repro-trace 1\nsection s\n\n# a comment\ncycle 3\n"
            "a 1 - 2 join left + k n:1 :\n")
        assert trace.cycles[0].index == 3
        [act] = acts(trace.cycles[0])
        assert act.key == BucketKey(2, (1,))


HEADER = "#repro-trace 1\nsection s\ncycle 1\n"


def _reported(read):
    """What reading a file reports: the problems raised while reading
    it, else the validator's on what was read."""
    try:
        trace = read()
    except TraceValidationError as err:
        return str(err)
    return "; ".join(validate_trace(trace, raise_on_error=False))


class TestStructuralCorruption:
    """Parent links that disagree with successor lists are reported
    with the validator's problem text by both readers and the CLI: no
    file compiles into a cycle whose parents were re-derived."""

    FILES = {
        "not-listed": (
            "a 1 - 5 join right + k :\n"
            "a 2 1 6 join left + k :\n",
            ["cycle 1 act 2: not listed in parent's successors"]),
        "claimed-twice": (
            "a 1 - 5 join right + k : 3\n"
            "a 2 - 6 join right + k : 3\n"
            "a 3 1 7 join left + k :\n",
            ["cycle 1 act 2: successor 3 claims parent 1",
             "cycle 1 act 2: successor 3 also claimed by 1"]),
        "claimed-twice-by-its-parent-last": (
            "a 1 - 5 join right + k : 3\n"
            "a 2 - 6 join right + k : 3\n"
            "a 3 2 7 join left + k :\n",
            ["cycle 1 act 1: successor 3 claims parent 2",
             "cycle 1 act 2: successor 3 also claimed by 1"]),
    }

    @pytest.fixture(params=sorted(FILES))
    def bad_file(self, request, tmp_path):
        body, problems = self.FILES[request.param]
        path = tmp_path / "bad.trace"
        path.write_text(HEADER + body, encoding="utf-8")
        return path, problems

    def test_read_trace(self, bad_file):
        path, problems = bad_file
        assert "; ".join(problems) in _reported(lambda: read_trace(path))

    def test_file_stream(self, bad_file):
        path, problems = bad_file
        assert "; ".join(problems) in _reported(
            lambda: materialize(FileTraceStream(path)))

    def test_cli(self, bad_file, capsys):
        path, problems = bad_file
        assert main(["simulate", "--trace-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid trace {path}: ")
        assert all(problem in err for problem in problems)
        assert err.strip().count("\n") == 0

    def test_rows_in_any_order_and_successor_order_kept(self):
        trace = loads_trace(HEADER + "a 3 1 7 join left + k :\n"
                            "a 1 - 5 join right + k : 3 2\n"
                            "a 2 1 6 join left + k :\n")
        assert [(a.act_id, a.parent_id, a.successors)
                for a in acts(trace.cycles[0])] == [(1, None, (3, 2)),
                                                    (2, 1, ()),
                                                    (3, 1, ())]
        assert validate_trace(trace) == []
        assert "a 1 - 5 join right + k  : 3 2\n" in dumps_trace(trace)


values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(min_size=0, max_size=12),
)


@given(vals=st.lists(values, max_size=4),
       tag=st.sampled_from("+-"),
       side=st.sampled_from(["left", "right"]),
       node=st.integers(min_value=1, max_value=99))
def test_single_activation_roundtrip_property(vals, tag, side, node):
    cycle = CycleTrace(1, {1: TraceActivation(
        act_id=1, parent_id=None, node_id=node, kind="join", side=side,
        tag=tag, key=BucketKey(node, tuple(vals)), successors=())})
    trace = SectionTrace(name="prop", cycles=[cycle])
    back = loads_trace(dumps_trace(trace))
    [act] = acts(back.cycles[0])
    assert act.key.values == tuple(vals)
    assert act.tag == tag and act.side == side
