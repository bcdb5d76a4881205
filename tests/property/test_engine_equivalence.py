"""Property-based engine equivalence (hypothesis).

Random traces — varying address width, skewed reuse — must drive every
engine to the same histograms, and those histograms must match
brute-force LRU simulation for every (depth, associativity) probed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.core import engines
from repro.core.streaming import compute_level_histograms_streaming
from repro.trace.trace import Trace

FAST_ENGINES = engines.engine_names(include_auto=False)


@st.composite
def reuse_traces(draw, max_length=120, max_bits=8):
    """Traces with deliberate reuse: references drawn from a small pool."""
    bits = draw(st.integers(min_value=3, max_value=max_bits))
    pool = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            min_size=1,
            max_size=24,
        )
    )
    sequence = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=max_length)
    )
    return Trace(sequence, address_bits=bits)


def _histograms_per_engine(trace, names):
    """Each engine's histograms, plus the batch streaming kernel's (no
    engine any more, but the pass behind ``repro.stream``)."""
    inputs = engines.EngineInputs(trace)
    results = {name: engines.compute_histograms(name, inputs) for name in names}
    results["streaming kernel"] = compute_level_histograms_streaming(trace)
    return results


@given(trace=reuse_traces())
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_random_traces(trace):
    results = _histograms_per_engine(trace, FAST_ENGINES)
    reference = results["serial"]
    for name, histograms in results.items():
        assert histograms == reference, name


@given(
    trace=reuse_traces(),
    depth_log=st.integers(min_value=0, max_value=8),
    assoc=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_engines_match_brute_force_simulation(trace, depth_log, assoc):
    """Histogram miss counts == simulated LRU misses, for every engine."""
    depth = 1 << depth_log
    simulated = simulate_trace(
        trace, CacheConfig(depth=depth, associativity=assoc)
    ).non_cold_misses
    for name, histograms in _histograms_per_engine(trace, FAST_ENGINES).items():
        histogram = histograms.get(depth_log)
        # Depths beyond the BCAT are conflict-free: zero non-cold misses.
        analytical = histogram.misses(assoc) if histogram is not None else 0
        assert analytical == simulated, name


@pytest.mark.slow
@given(trace=reuse_traces(max_length=3000, max_bits=11))
@settings(max_examples=25, deadline=None)
def test_all_engines_agree_on_larger_traces(trace):
    """On traces up to a few thousand references with wider address
    ranges."""
    names = engines.engine_names(include_auto=False)
    results = _histograms_per_engine(trace, names)
    reference = results["serial"]
    for name, histograms in results.items():
        assert histograms == reference, name
    # And the full (depth, associativity) grid agrees with brute force.
    for depth_log in range(0, trace.address_bits + 1):
        depth = 1 << depth_log
        for assoc in (1, 2, 5):
            simulated = simulate_trace(
                trace, CacheConfig(depth=depth, associativity=assoc)
            ).non_cold_misses
            if depth_log in reference:
                analytical = reference[depth_log].misses(assoc)
            else:
                analytical = 0
            assert analytical == simulated, (depth, assoc)
