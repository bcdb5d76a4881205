"""Property-based ``max_level`` agreement (hypothesis).

Every engine x prelude combination must produce identical histograms
under any legal level bound — including the edge bounds the validation
sweep exists for: ``max_level=0`` (only the full-address level),
bounds larger than the address width (clamped, not an error), and
empty traces.  Appendable sessions must agree too, under any chunking.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import engines
from repro.core.streaming import compute_level_histograms_streaming
from repro.stream import TraceSession
from repro.trace.trace import Trace

#: The batch streaming kernel: no engine any more, but the pass behind
#: ``repro.stream``, so it is held to the same bounds.
STREAMING_KERNEL = "streaming kernel"

FAST_ENGINES = engines.engine_names(include_auto=False) + (STREAMING_KERNEL,)


@st.composite
def bounded_cases(draw, max_length=80, max_bits=6):
    """(trace, max_level) pairs that stress the bound's edges."""
    bits = draw(st.integers(min_value=1, max_value=max_bits))
    sequence = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            min_size=0,
            max_size=max_length,
        )
    )
    # Weight the interesting region: 0, within range, and beyond the
    # address width (which every engine must clamp, never reject).
    max_level = draw(
        st.one_of(
            st.just(0),
            st.integers(min_value=0, max_value=bits),
            st.integers(min_value=bits + 1, max_value=bits + 16),
        )
    )
    return Trace(sequence, address_bits=bits), max_level


def _histograms(trace, name, max_level, prelude="auto"):
    if name == STREAMING_KERNEL:
        return compute_level_histograms_streaming(trace, max_level=max_level)
    inputs = engines.EngineInputs(trace, prelude=prelude)
    return engines.compute_histograms(name, inputs, max_level=max_level)


@given(case=bounded_cases())
@settings(max_examples=60, deadline=None)
def test_engines_agree_under_any_legal_bound(case):
    trace, max_level = case
    reference = _histograms(trace, "serial", max_level)
    assert set(reference) == set(
        range(min(max_level, trace.address_bits) + 1)
    )
    for name in FAST_ENGINES:
        assert _histograms(trace, name, max_level) == reference, name


@given(case=bounded_cases(max_length=40, max_bits=5))
@settings(max_examples=30, deadline=None)
def test_preludes_agree_under_any_legal_bound(case):
    trace, max_level = case
    reference = _histograms(trace, "serial", max_level, prelude="python")
    for prelude in engines.PRELUDE_MODES:
        assert (
            _histograms(trace, "serial", max_level, prelude=prelude)
            == reference
        ), prelude


@given(
    case=bounded_cases(max_length=60, max_bits=5),
    cut_seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_sessions_agree_under_any_chunking(case, cut_seed):
    import random

    trace, max_level = case
    reference = _histograms(trace, "serial", max_level)
    rng = random.Random(cut_seed)
    cuts = sorted(
        {0, len(trace)}
        | set(rng.sample(range(len(trace) + 1), min(len(trace), 4)))
    )
    session = TraceSession(trace.address_bits, max_level=max_level)
    for start, stop in zip(cuts, cuts[1:]):
        session.append(trace[start:stop])
    if len(trace) == 0:
        session.append([])
    assert session.histograms() == reference


@given(bits=st.integers(min_value=1, max_value=8), level=st.integers(min_value=0, max_value=24))
@settings(max_examples=30, deadline=None)
def test_empty_traces_yield_empty_levels(bits, level):
    trace = Trace([], address_bits=bits)
    for name in FAST_ENGINES:
        histograms = _histograms(trace, name, level)
        assert set(histograms) == set(range(min(level, bits) + 1))
        assert all(not h.counts for h in histograms.values())
