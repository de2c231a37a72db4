"""Tests for instance/stream text persistence."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleInstanceError, InvalidInstanceError
from repro.generators.planted import planted_partition_instance
from repro.generators.random_instances import fixed_size_instance
from repro.streaming.instance import SetCoverInstance
from repro.streaming.io import (
    _read,
    _read_columns,
    _read_reference,
    dump_instance,
    dump_stream,
    dumps_instance,
    load_instance,
    load_stream,
    loads_instance,
)
from repro.types import Edge


class TestInstanceRoundtrip:
    def test_string_roundtrip(self, tiny_instance):
        assert loads_instance(dumps_instance(tiny_instance)) == tiny_instance

    def test_file_roundtrip(self, tiny_instance, tmp_path):
        path = tmp_path / "inst.txt"
        dump_instance(tiny_instance, path)
        assert load_instance(path) == tiny_instance

    def test_handle_roundtrip(self, tiny_instance):
        buffer = io.StringIO()
        dump_instance(tiny_instance, buffer)
        buffer.seek(0)
        assert load_instance(buffer) == tiny_instance

    def test_name_preserved(self, tiny_instance):
        loaded = loads_instance(dumps_instance(tiny_instance))
        assert loaded.name == "tiny"

    def test_empty_sets_preserved(self):
        instance = SetCoverInstance(2, [{0, 1}, set()])
        assert loads_instance(dumps_instance(instance)).m == 2


class TestInstanceParsing:
    def test_header_required(self):
        with pytest.raises(InvalidInstanceError):
            loads_instance("0 1\n")

    def test_bad_header_rejected(self):
        with pytest.raises(InvalidInstanceError):
            loads_instance("setcover 3\n")

    def test_non_integer_header(self):
        with pytest.raises(InvalidInstanceError):
            loads_instance("setcover x y\n")

    def test_bad_edge_line(self):
        with pytest.raises(InvalidInstanceError):
            loads_instance("setcover 2 1\n0 1 2\n")

    def test_non_integer_edge(self):
        with pytest.raises(InvalidInstanceError):
            loads_instance("setcover 2 1\n0 a\n")

    def test_blank_lines_and_comments_skipped(self):
        text = "# hello\n\nsetcover 2 1\n# mid comment\n0 0\n0 1\n"
        instance = loads_instance(text)
        assert instance.set_members(0) == frozenset({0, 1})

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInstanceError):
            loads_instance("")


class TestStreamPersistence:
    def test_roundtrip(self, tmp_path):
        edges = [Edge(0, 1), Edge(2, 0), Edge(1, 1)]
        path = tmp_path / "stream.txt"
        dump_stream(edges, path)
        assert load_stream(path) == edges

    def test_order_preserved(self, tmp_path):
        edges = [Edge(5, 5), Edge(0, 0)]
        path = tmp_path / "stream.txt"
        dump_stream(edges, path)
        assert load_stream(path) == edges  # not sorted

    def test_handle_write(self):
        buffer = io.StringIO()
        dump_stream([Edge(1, 2)], buffer)
        buffer.seek(0)
        assert load_stream(buffer) == [Edge(1, 2)]

    def test_bad_line_rejected(self):
        with pytest.raises(InvalidInstanceError):
            load_stream(io.StringIO("1 2 3\n"))


# -- columnar loader against the scalar reference -------------------------


def _outcome(reader, text):
    """What loading (and validating) ``text`` gives: result or error."""
    try:
        instance = reader(io.StringIO(text))
        instance.validate()
    except (InvalidInstanceError, InfeasibleInstanceError) as exc:
        return ("error", type(exc), str(exc))
    return ("ok", instance.n, instance.m, instance.name, instance.sets())


def _assert_same(text):
    assert _outcome(_read, text) == _outcome(_read_reference, text)


def _reference_dump(instance):
    """The per-edge writer the columnar one replaced."""
    buffer = io.StringIO()
    if instance.name:
        buffer.write(f"# {instance.name}\n")
    buffer.write(f"setcover {instance.n} {instance.m}\n")
    for edge in instance.edges():
        buffer.write(f"{edge.set_id} {edge.element}\n")
    return buffer.getvalue()


@st.composite
def instance_texts(draw):
    """Valid instance files: comments, blank lines, duplicates, empty sets."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 6))
    edge = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    edges = draw(st.lists(edge, max_size=30))
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    filler = st.sampled_from(["", "   ", "# a comment", "#", "\t"])
    lines = draw(st.lists(filler, max_size=2))
    if draw(st.booleans()):
        lines.append(f"# {draw(st.sampled_from(['demo', 'x y', '']))}")
    lines += draw(st.lists(filler, max_size=2))
    lines.append(f"setcover {n} {m}")
    for set_id, element in edges:
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        lines.append(f"{set_id}{sep}{element}")
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(filler))
    text = "\n".join(lines)
    return text + "\n" if draw(st.booleans()) else text


BAD_EDGE_LINES = [
    "3",
    "0 1 2",
    "0 a",
    "x 0",
    "0 1.0",
    "0 4 # note",
    "1_000 0",
    "0 1_000",
    "+1 0",
    "-1 0",
    "0 -1",
    "99 0",
    "0 99",
    "0 ٣",
    "99999999999999999999 0",
]


@st.composite
def malformed_texts(draw):
    """A valid file with one line broken or the header damaged."""
    lines = draw(instance_texts()).split("\n")
    header = next(i for i, line in enumerate(lines) if line.startswith("setcover"))
    kind = draw(st.sampled_from(["edge", "header", "no-header", "universe"]))
    if kind == "edge":
        bad = draw(st.sampled_from(BAD_EDGE_LINES))
        lines.insert(draw(st.integers(header + 1, len(lines))), bad)
    elif kind == "header":
        lines[header] = draw(
            st.sampled_from(["setcover 3", "setcover 3 2 1", "setcover x 2", "cover 3 2"])
        )
    elif kind == "no-header":
        del lines[header]
    else:
        lines[header] = draw(st.sampled_from(["setcover 0 2", "setcover 3 0", "setcover -2 1"]))
    return "\n".join(lines)


class TestColumnarLoader:
    @settings(max_examples=200, deadline=None)
    @given(text=instance_texts())
    def test_valid_files_match_reference(self, text):
        _assert_same(text)

    @settings(max_examples=200, deadline=None)
    @given(text=malformed_texts())
    def test_malformed_files_fail_like_reference(self, text):
        _assert_same(text)

    @pytest.mark.parametrize("line", BAD_EDGE_LINES)
    def test_each_bad_line(self, line):
        _assert_same(f"setcover 3 2\n0 0\n{line}\n1 2\n")

    def test_trailing_comment_is_rejected(self):
        # loadtxt would strip the comment; the reference rejects the line.
        with pytest.raises(InvalidInstanceError, match="line 2"):
            loads_instance("setcover 3 2\n0 4 # note\n")

    def test_underscore_digits_are_accepted(self):
        # int() reads 1_0 as 10; loadtxt refuses it, so the reference decides.
        instance = loads_instance("setcover 20 2\n1 1_0\n")
        assert instance.set_members(1) == frozenset({10})

    def test_non_ascii_digits_go_to_reference(self):
        # loadtxt reads U+01FE as a digit (4ǿ -> 502); int() refuses it.
        text = "setcover 1000 2\n0 4\u01fe\n"
        _assert_same(text)
        with pytest.raises(InvalidInstanceError, match="line 2"):
            loads_instance(text)

    def test_error_keeps_line_number(self):
        with pytest.raises(InvalidInstanceError, match="line 4"):
            loads_instance("# n\nsetcover 3 2\n0 0\n0 a\n")

    def test_dumped_files_take_the_fast_path(self):
        instance = fixed_size_instance(50, 80, 6, seed=3)
        text = dumps_instance(instance)
        assert _read_columns(text) == _read_reference(io.StringIO(text))


class TestColumnarWriter:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_instances_match_reference_writer(self, seed):
        instance = fixed_size_instance(40, 70, 5, seed=seed)
        assert dumps_instance(instance) == _reference_dump(instance)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_planted_instances_match_reference_writer(self, seed):
        instance = planted_partition_instance(60, 30, opt_size=5, seed=seed).instance
        assert dumps_instance(instance) == _reference_dump(instance)

    def test_empty_sets_and_unnamed(self):
        instance = SetCoverInstance(3, [set(), {0, 2}, set(), {1}])
        assert dumps_instance(instance) == _reference_dump(instance)

    def test_more_edges_than_one_write_chunk(self):
        instance = fixed_size_instance(300, 700, 50, seed=1)
        assert instance.num_edges > 2 * 16384
        assert dumps_instance(instance) == _reference_dump(instance)
