"""Unit tests for the Trace container."""

import pytest

from repro.trace.reference import AccessKind, MemoryReference
from repro.trace.trace import Trace


class TestConstruction:
    def test_basic_construction(self):
        trace = Trace([1, 2, 3, 2])
        assert len(trace) == 4
        assert list(trace) == [1, 2, 3, 2]

    def test_address_bits_inferred_from_max_address(self):
        assert Trace([0, 1]).address_bits == 1
        assert Trace([7]).address_bits == 3
        assert Trace([8]).address_bits == 4

    def test_empty_trace_has_one_address_bit(self):
        trace = Trace([])
        assert len(trace) == 0
        assert trace.address_bits == 1

    def test_explicit_address_bits_respected(self):
        assert Trace([1], address_bits=12).address_bits == 12

    def test_address_too_wide_for_declared_bits(self):
        with pytest.raises(ValueError, match="does not fit"):
            Trace([16], address_bits=4)
        with pytest.raises(ValueError, match="does not fit in 4 bits"):
            Trace([2**63 - 1], address_bits=4)

    def test_huge_declared_width_needs_no_huge_int(self):
        # Regression: the fit check built 1 << address_bits (MemoryError).
        assert Trace([1], address_bits=2**63).address_bits == 2**63

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Trace([-1])

    def test_zero_address_bits_rejected(self):
        with pytest.raises(ValueError, match="address_bits"):
            Trace([0], address_bits=0)

    def test_kinds_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Trace([1, 2], kinds=[AccessKind.READ])

    def test_from_references_preserves_kinds(self):
        refs = [
            MemoryReference(1, AccessKind.WRITE),
            MemoryReference(2, AccessKind.FETCH),
        ]
        trace = Trace.from_references(refs)
        assert trace.kind(0) is AccessKind.WRITE
        assert trace.kind(1) is AccessKind.FETCH

    def test_from_bit_strings(self):
        trace = Trace.from_bit_strings(["101", "010"])
        assert list(trace) == [5, 2]
        assert trace.address_bits == 3

    def test_from_bit_strings_rejects_mixed_widths(self):
        with pytest.raises(ValueError, match="width"):
            Trace.from_bit_strings(["10", "100"])

    def test_from_bit_strings_rejects_non_binary(self):
        with pytest.raises(ValueError, match="invalid bit pattern"):
            Trace.from_bit_strings(["10a"])

    def test_from_bit_strings_rejects_empty_list(self):
        with pytest.raises(ValueError, match="at least one"):
            Trace.from_bit_strings([])


class TestProtocol:
    def test_indexing_returns_address(self):
        trace = Trace([4, 5, 6])
        assert trace[1] == 5

    def test_slicing_returns_trace_with_same_bits(self):
        trace = Trace([1, 2, 3, 4], address_bits=10)
        sliced = trace[1:3]
        assert isinstance(sliced, Trace)
        assert list(sliced) == [2, 3]
        assert sliced.address_bits == 10

    def test_slicing_preserves_kinds(self):
        trace = Trace([1, 2], kinds=[AccessKind.READ, AccessKind.WRITE])
        assert trace[1:].kind(0) is AccessKind.WRITE

    def test_equality_includes_address_bits(self):
        assert Trace([1, 2]) == Trace([1, 2])
        assert Trace([1, 2]) != Trace([1, 2], address_bits=8)
        assert Trace([1, 2]) != Trace([1, 3])

    def test_hash_consistent_with_equality(self):
        assert hash(Trace([1, 2])) == hash(Trace([1, 2]))

    def test_untyped_kind_defaults_to_read(self):
        assert Trace([1]).kind(0) is AccessKind.READ
        assert not Trace([1]).has_kinds

    def test_repr_mentions_name_and_sizes(self):
        text = repr(Trace([1, 1, 2], name="demo"))
        assert "demo" in text
        assert "n=3" in text
        assert "unique=2" in text


class TestDerivedViews:
    def test_unique_addresses_first_occurrence_order(self):
        trace = Trace([3, 1, 3, 2, 1])
        assert trace.unique_addresses() == [3, 1, 2]
        assert trace.unique_count() == 3

    def test_references_iterator(self):
        trace = Trace([1], kinds=[AccessKind.FETCH])
        refs = list(trace.references())
        assert refs == [MemoryReference(1, AccessKind.FETCH)]

    def test_filter_kind_splits_instruction_and_data(self):
        trace = Trace(
            [1, 2, 3, 4],
            kinds=[
                AccessKind.FETCH,
                AccessKind.READ,
                AccessKind.FETCH,
                AccessKind.WRITE,
            ],
        )
        inst = trace.filter_kind(AccessKind.FETCH)
        data = trace.filter_kind(AccessKind.READ, AccessKind.WRITE)
        assert list(inst) == [1, 3]
        assert list(data) == [2, 4]
        assert data.kind(1) is AccessKind.WRITE

    def test_filter_kind_requires_kinds(self):
        with pytest.raises(ValueError, match="no access kinds"):
            Trace([1]).filter_kind(AccessKind.READ)

    def test_concat_widens_address_bits(self):
        a = Trace([1], address_bits=4)
        b = Trace([100], address_bits=8)
        merged = a.concat(b)
        assert list(merged) == [1, 100]
        assert merged.address_bits == 8

    def test_concat_preserves_kinds_when_either_side_has_them(self):
        a = Trace([1], kinds=[AccessKind.WRITE])
        b = Trace([2])
        merged = a.concat(b)
        assert merged.kind(0) is AccessKind.WRITE
        assert merged.kind(1) is AccessKind.READ

    def test_rebased_changes_declared_width_only(self):
        trace = Trace([3], address_bits=4)
        rebased = trace.rebased(9)
        assert rebased.address_bits == 9
        assert list(rebased) == [3]


class TestRangeCheck:
    """Long traces check their address range in one NumPy pass; the
    messages are the ones the Python ``min``/``max`` path gives."""

    LONG = 2048

    @pytest.fixture(params=["numpy", "python"])
    def backend(self, request, monkeypatch):
        if request.param == "numpy":
            pytest.importorskip("numpy")
        else:
            monkeypatch.setitem(__import__("sys").modules, "numpy", None)
        return request.param

    def test_widths_agree(self, backend):
        addresses = list(range(self.LONG)) + [2**40 + 3]
        trace = Trace(addresses)
        assert trace.address_bits == 41
        assert Trace([2**63 - 1] * self.LONG).address_bits == 63

    def test_negative_address(self, backend):
        with pytest.raises(ValueError, match="^trace addresses must be non-negative$"):
            Trace([5] * self.LONG + [-1])

    def test_too_wide_for_declared_bits(self, backend):
        with pytest.raises(ValueError, match=r"^address 0x10 does not fit in 4 bits$"):
            Trace([1] * self.LONG + [16], address_bits=4)

    def test_non_positive_width(self, backend):
        with pytest.raises(ValueError, match="^address_bits must be >= 1, got 0$"):
            Trace([0] * self.LONG, address_bits=0)
