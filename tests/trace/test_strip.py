"""Unit tests for trace stripping (prelude step 1)."""

import pytest

from repro.trace.strip import strip_trace, strip_trace_numpy, strip_trace_sorted
from repro.trace.synthetic import random_trace
from repro.trace.trace import Trace

try:
    import numpy
except ImportError:  # pragma: no cover - exercised by the no-numpy CI lane
    numpy = None

needs_numpy = pytest.mark.skipif(numpy is None, reason="needs NumPy")


class TestStripTrace:
    def test_identifiers_in_first_occurrence_order(self):
        stripped = strip_trace(Trace([7, 3, 7, 9, 3]))
        assert stripped.unique_addresses == [7, 3, 9]
        assert stripped.id_of == {7: 0, 3: 1, 9: 2}
        assert list(stripped.id_sequence) == [0, 1, 0, 2, 1]

    def test_counts_match_paper_definitions(self, paper_trace):
        stripped = strip_trace(paper_trace)
        assert stripped.n == 10
        assert stripped.n_unique == 5

    def test_paper_table2_unique_references(self, paper_trace):
        stripped = strip_trace(paper_trace)
        expected = [0b1011, 0b1100, 0b0110, 0b0011, 0b0100]
        assert stripped.unique_addresses == expected

    def test_occurrences_positions(self):
        stripped = strip_trace(Trace([5, 6, 5, 5]))
        assert stripped.occurrences(0) == [0, 2, 3]
        assert stripped.occurrences(1) == [1]

    def test_empty_trace(self):
        stripped = strip_trace(Trace([]))
        assert stripped.n == 0
        assert stripped.n_unique == 0

    def test_address_bits_copied_from_trace(self):
        stripped = strip_trace(Trace([1], address_bits=11))
        assert stripped.address_bits == 11

    def test_address_lookup(self):
        stripped = strip_trace(Trace([9, 4]))
        assert stripped.address(0) == 9
        assert stripped.address(1) == 4

    def test_repr(self):
        assert "N=3" in repr(strip_trace(Trace([1, 1, 2])))


class TestSortedStripEquivalence:
    """The N log N sort-based variant must be interchangeable (section 2.4)."""

    def test_equivalent_on_small_trace(self, paper_trace):
        fast = strip_trace(paper_trace)
        slow = strip_trace_sorted(paper_trace)
        assert fast.unique_addresses == slow.unique_addresses
        assert fast.id_of == slow.id_of
        assert list(fast.id_sequence) == list(slow.id_sequence)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equivalent_on_random_traces(self, seed):
        trace = random_trace(500, 60, seed=seed)
        fast = strip_trace(trace)
        slow = strip_trace_sorted(trace)
        assert fast.unique_addresses == slow.unique_addresses
        assert list(fast.id_sequence) == list(slow.id_sequence)

    def test_equivalent_on_empty_trace(self):
        assert strip_trace_sorted(Trace([])).n_unique == 0


def _spanning(low, span, seed=0):
    """A trace over ``low`` and ``low + span`` with a shuffled middle,
    revisiting addresses so the inverse and first indices matter."""
    import random

    rng = random.Random(seed)
    middle = [low + rng.randrange(span + 1) for _ in range(300)] if span else []
    body = [low + span, low, *middle, low, low + span, *middle[::3]]
    return Trace(body, address_bits=max(1, (low + span).bit_length()))


@needs_numpy
class TestNumpyStripKeyWidth:
    """Spans below 2^16 sort ``uint16`` offsets, wider ones ``int64``
    addresses; both strip exactly as the hash-table reference."""

    @pytest.mark.parametrize(
        "low", [0, 12345, (1 << 63) - (1 << 17)], ids=["zero", "mid", "near-2^63"]
    )
    @pytest.mark.parametrize(
        "span,width",
        [(0, "uint16"), ((1 << 16) - 1, "uint16"), (1 << 16, "int64")],
        ids=["span-0", "span-2^16-1", "span-2^16"],
    )
    def test_matches_hash_table_strip(self, monkeypatch, low, span, width):
        sorted_dtypes = []
        unique = numpy.unique

        def spy(values, *args, **kwargs):
            sorted_dtypes.append(values.dtype.name)
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(numpy, "unique", spy)
        trace = _spanning(low, span)
        fast = strip_trace_numpy(trace)
        reference = strip_trace(trace)
        assert sorted_dtypes == [width]
        assert fast.unique_addresses == reference.unique_addresses
        assert list(fast.id_sequence) == list(reference.id_sequence)
        assert fast.id_of == reference.id_of
        assert all(type(addr) is int for addr in fast.unique_addresses)

    def test_largest_addresses(self):
        """Addresses up to 2^63 - 1, narrow and wide spans alike."""
        top = (1 << 63) - 1
        for addresses in ([top, top - 1, top, top - 7, top - 1],
                          [top, 0, 5, top, 0, top - (1 << 16)]):
            trace = Trace(addresses, address_bits=63)
            fast = strip_trace_numpy(trace)
            reference = strip_trace(trace)
            assert fast.unique_addresses == reference.unique_addresses
            assert list(fast.id_sequence) == list(reference.id_sequence)
