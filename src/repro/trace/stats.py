"""Trace statistics matching the paper's Tables 5 and 6.

For each trace the paper reports its size ``N``, the number of unique
references ``N'`` and the *maximum number of misses*, "obtained by
simulating the traces on a cache simulator configured to be direct mapped
with the cache depth set to one".  A depth-1 direct-mapped cache holds a
single word, so an access hits iff it repeats the immediately preceding
address.  Because the paper's miss budget ``K`` always excludes cold
(compulsory) misses, the maximum is reported net of the ``N'`` cold misses.

The closed form used here is cross-validated against the full cache
simulator in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.trace.trace import Trace

try:  # NumPy is optional: the statistics fall back to a Python loop.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _np = None


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics for one trace (one row of paper Table 5/6).

    Attributes:
        name: trace label.
        n: total number of references (paper's N).
        n_unique: number of unique references (paper's N').
        max_misses: non-cold misses of a depth-1 direct-mapped cache —
            the 100% point against which the paper's K percentages are set.
        address_bits: significant address width.
    """

    name: str
    n: int
    n_unique: int
    max_misses: int
    address_bits: int

    @property
    def work_product(self) -> int:
        """The paper's Figure-4 x-axis quantity, ``N * N'``."""
        return self.n * self.n_unique

    def budget(self, percent: float) -> int:
        """Miss budget K at ``percent`` of the maximum misses.

        The paper evaluates K at 5, 10, 15 and 20 percent of max misses.
        """
        if percent < 0:
            raise ValueError(f"percent must be non-negative, got {percent}")
        return int(self.max_misses * percent / 100.0)


def _runs_and_unique(trace: Trace) -> Tuple[int, int]:
    """Runs of equal consecutive addresses, and the unique count ``N'``.

    With NumPy both are one C-level pass each: the runs count the places
    where an address differs from its predecessor, ``N'`` the same over
    the sorted addresses.  (``np.unique`` would do, but without flags it
    imports ``numpy.ma`` on NumPy 2.4.)
    """
    addresses = trace.addresses
    if not addresses:
        return 0, 0
    if _np is not None:
        values = _np.frombuffer(addresses, dtype=_np.int64)
        runs = 1 + int(_np.count_nonzero(values[1:] != values[:-1]))
        ordered = _np.sort(values)
        unique = 1 + int(_np.count_nonzero(ordered[1:] != ordered[:-1]))
        return runs, unique
    runs = 0
    previous = None
    for addr in addresses:
        if addr != previous:
            runs += 1
            previous = addr
    return runs, trace.unique_count()


def max_misses_depth_one(trace: Trace) -> int:
    """Non-cold misses of a single-word direct-mapped cache.

    Every access misses unless it repeats the previous address; of those
    misses, exactly one per unique reference is cold.
    """
    runs, unique = _runs_and_unique(trace)
    return runs - unique


def compute_statistics(trace: Trace, name: str = "") -> TraceStatistics:
    """Compute the Table 5/6 statistics row for a trace."""
    runs, unique = _runs_and_unique(trace)
    return TraceStatistics(
        name=name or trace.name,
        n=len(trace),
        n_unique=unique,
        max_misses=runs - unique,
        address_bits=trace.address_bits,
    )
