"""Packed access kinds: a :class:`Trace` keeps one dinero label per byte.

Whatever a trace's kinds went through — a file format, the wire, a
slice, a filter, a concatenation, a pickle — ``kinds`` must read back
as the same :class:`AccessKind` list, and ``kind_labels`` as the same
bytes.
"""

from __future__ import annotations

import json
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.protocol import request_body, trace_from_wire, trace_to_wire
from repro.core.request import ExplorationRequest
from repro.trace import io as trace_io
from repro.trace.reference import AccessKind
from repro.trace.trace import Trace

KINDS = [AccessKind.FETCH, AccessKind.READ, AccessKind.WRITE, AccessKind.FETCH]


@pytest.fixture
def typed() -> Trace:
    return Trace([4, 9, 4, 1], address_bits=6, kinds=KINDS, name="typed")


class TestConstruction:
    def test_enum_and_label_forms_agree(self, typed) -> None:
        labels = bytes(kind.value for kind in KINDS)
        for form in (labels, bytearray(labels), memoryview(labels), tuple(KINDS)):
            trace = Trace([4, 9, 4, 1], address_bits=6, kinds=form)
            assert trace.kind_labels == labels
            assert type(trace.kind_labels) is bytes
            assert trace.kinds == KINDS

    def test_kinds_is_a_fresh_enum_list(self, typed) -> None:
        kinds = typed.kinds
        assert kinds == KINDS and all(type(k) is AccessKind for k in kinds)
        kinds.append(AccessKind.READ)
        assert typed.kinds == KINDS

    def test_untyped_trace_has_no_labels(self) -> None:
        trace = Trace([1, 2])
        assert trace.kinds is None and trace.kind_labels is None
        assert trace.kind(1) is AccessKind.READ

    @pytest.mark.parametrize("bad", [b"\x03", b"\x00\xff", bytearray(b"\x01\x07")])
    def test_label_outside_dinero_range_raises(self, bad) -> None:
        with pytest.raises(ValueError, match="unknown dinero access label"):
            Trace(range(len(bad)), kinds=bad)

    def test_length_mismatch_raises(self) -> None:
        with pytest.raises(ValueError, match="kinds length 1 != addresses length 2"):
            Trace([1, 2], kinds=b"\x00")

    def test_non_kind_items_raise(self) -> None:
        with pytest.raises(TypeError, match="AccessKind"):
            Trace([1, 2], kinds=[0, 1])


class TestDerivedTraces:
    def test_slicing(self, typed) -> None:
        assert typed[1:3].kinds == KINDS[1:3]
        assert typed[::-2].kinds == KINDS[::-2]
        assert typed[3:].kind(0) is AccessKind.FETCH

    def test_filter_kind(self, typed) -> None:
        data = typed.filter_kind(AccessKind.READ, AccessKind.WRITE)
        assert list(data) == [9, 4]
        assert data.kinds == [AccessKind.READ, AccessKind.WRITE]
        assert typed.filter_kind(AccessKind.FETCH).kind_labels == b"\x02\x02"

    def test_concat_reads_untyped_side_as_read(self, typed) -> None:
        merged = typed.concat(Trace([7, 7], address_bits=3))
        assert merged.kinds == KINDS + [AccessKind.READ] * 2
        assert Trace([7]).concat(typed).kinds == [AccessKind.READ] + KINDS
        assert Trace([1]).concat(Trace([2])).kinds is None

    def test_rebased_and_line_trace_keep_labels(self, typed) -> None:
        assert typed.rebased(8).kind_labels == typed.kind_labels
        assert typed.to_line_trace(2).kinds == KINDS

    def test_transforms_and_compaction_keep_labels(self, typed) -> None:
        from repro.trace.compaction import compact_trace
        from repro.trace.transform import filter_address_range, split_at_address

        kept = filter_address_range(typed, 4, 10)
        assert list(kept) == [4, 9, 4] and kept.kinds == KINDS[:3]
        below, above = split_at_address(typed, 5)
        assert below.kinds == [KINDS[0], KINDS[2], KINDS[3]]
        assert above.kinds == [KINDS[1]] and above.address_bits == 6
        compacted = compact_trace(typed, 1).trace
        assert compacted.kinds == KINDS  # no consecutive repeat to drop
        assert compact_trace(Trace([4, 9, 4, 1]), 1).trace.kind_labels is None

    def test_pickle_round_trip(self, typed) -> None:
        clone = pickle.loads(pickle.dumps(typed))
        assert clone == typed and clone.name == "typed"
        assert clone.kinds == KINDS and clone.kind_labels == typed.kind_labels


class TestFormats:
    @pytest.mark.parametrize("suffix", [".din", ".rbt", ".csv", ".din.gz"])
    def test_file_round_trip(self, tmp_path, typed, suffix) -> None:
        path = tmp_path / f"t{suffix}"
        trace_io.write_trace(typed, path)
        loaded = trace_io.read_trace(path)
        assert list(loaded) == list(typed)
        assert loaded.kinds == KINDS
        assert loaded.kind_labels == typed.kind_labels

    def test_rbt_bad_label_raises(self, tmp_path, typed) -> None:
        path = tmp_path / "t.rbt"
        trace_io.write_trace(typed, path)
        data = bytearray(path.read_bytes())
        data[-1] = 5
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="unknown dinero access label: 5"):
            trace_io.read_trace(path)

    def test_wire_round_trip(self, typed) -> None:
        wire = trace_to_wire(typed)
        assert wire["kinds"] == [2, 0, 1, 2]
        rebuilt = trace_from_wire(json.loads(json.dumps(wire)))
        assert rebuilt.kinds == KINDS
        assert rebuilt.kind_labels == typed.kind_labels

    def test_request_body_writes_labels(self, typed) -> None:
        body = request_body(ExplorationRequest.single(typed, budgets=(0,)))
        assert b'"kinds":[2,0,1,2]' in body

    def test_no_numpy_dinero_path_builds_same_trace(
        self, tmp_path, typed, monkeypatch
    ) -> None:
        path = tmp_path / "t.din"
        trace_io.write_trace(typed, path)
        scanned = trace_io.read_trace(path)
        monkeypatch.setitem(sys.modules, "numpy", None)
        looped = trace_io.read_trace(path)
        assert looped == scanned
        assert looped.kind_labels == scanned.kind_labels
        assert looped.kinds == KINDS


@given(
    labels=st.lists(st.integers(0, 2), max_size=60),
    start=st.integers(-70, 70),
    stop=st.integers(-70, 70),
)
@settings(max_examples=80, deadline=None)
def test_labels_follow_the_enum_list(labels, start, stop) -> None:
    """Every derived view agrees with the same view of the enum list."""
    kinds = [AccessKind(label) for label in labels]
    trace = Trace(range(len(labels)), kinds=bytes(labels))
    assert trace.kinds == kinds
    assert [trace.kind(i) for i in range(len(trace))] == kinds
    assert trace[start:stop].kinds == kinds[start:stop]
    wanted = (AccessKind.READ, AccessKind.FETCH)
    assert trace.filter_kind(*wanted).kinds == [k for k in kinds if k in wanted]
    assert pickle.loads(pickle.dumps(trace)).kinds == kinds
