"""The paper's running example, end to end.

The Table 1 trace (reconstructed as id sequence [1,2,3,4,1,5,2,4,1,3])
must reproduce Table 2 (stripped trace), Table 3 (zero/one sets),
Table 4 (MRCT), Figure 3 (BCAT) and the section-2.3 postlude values
exactly.  Identifiers here are 0-based; the paper's are 1-based.
"""

import pytest

from repro.core import engines as _engines
from repro.core.bcat import build_bcat
from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.mrct import build_mrct, mrct_as_display_table
from repro.core.postlude import misses_at_node, optimal_pairs_algorithm3
from repro.core.zerosets import bitset_from_members, build_zero_one_sets
from repro.trace.strip import strip_trace


@pytest.fixture
def stripped(paper_trace):
    return strip_trace(paper_trace)


@pytest.fixture
def zerosets(stripped):
    return build_zero_one_sets(stripped)


@pytest.fixture
def mrct(stripped):
    return build_mrct(stripped)


class TestTable2Stripping:
    def test_five_unique_references_in_paper_order(self, stripped):
        assert stripped.n == 10
        assert stripped.n_unique == 5
        assert stripped.unique_addresses == [
            0b1011, 0b1100, 0b0110, 0b0011, 0b0100,
        ]


class TestTable3ZeroOneSets:
    def test_all_four_bit_pairs(self, zerosets):
        # Paper ids are 1-based: Z0={2,3,5} etc.  Ours are 0-based.
        assert zerosets.zero_members(0) == {1, 2, 4}
        assert zerosets.one_members(0) == {0, 3}
        assert zerosets.zero_members(1) == {1, 4}
        assert zerosets.one_members(1) == {0, 2, 3}
        assert zerosets.zero_members(2) == {0, 3}
        assert zerosets.one_members(2) == {1, 2, 4}
        assert zerosets.zero_members(3) == {2, 3, 4}
        assert zerosets.one_members(3) == {0, 1}

    def test_zero_one_sets_partition_the_universe(self, zerosets):
        for bit in range(4):
            zero, one = zerosets.pair(bit)
            assert zero & one == 0
            assert zero | one == zerosets.universe


class TestTable4MRCT:
    def test_conflict_sets_match_paper(self, mrct):
        display = mrct_as_display_table(mrct)  # 1-based like the paper
        assert display[1] == [{2, 3, 4}, {2, 4, 5}]
        assert display[2] == [{1, 3, 4, 5}]
        assert display[3] == [{1, 2, 4, 5}]
        assert display[4] == [{1, 2, 5}]
        assert display[5] == []


class TestFigure3BCAT:
    def test_level_sets(self, zerosets):
        bcat = build_bcat(zerosets)
        # Level 1: {2,3,5} and {1,4} in paper ids -> {1,2,4}, {0,3} 0-based.
        level1 = [node.member_ids() for node in bcat.level_nodes(1)]
        assert level1 == [{1, 2, 4}, {0, 3}]
        level2 = [node.member_ids() for node in bcat.level_nodes(2)]
        assert level2 == [{1, 4}, {2}, set(), {0, 3}]
        level3 = [node.member_ids() for node in bcat.level_nodes(3)]
        assert level3 == [set(), {1, 4}, {0, 3}, set()]
        level4 = [node.member_ids() for node in bcat.level_nodes(4)]
        assert level4 == [{4}, {1}, {3}, {0}]

    def test_tree_depth_is_four(self, zerosets):
        assert build_bcat(zerosets).depth == 4


#: Every accepted engine name (legacy aliases included) x every prelude
#: mode: the paper's worked example must come out identical from all of
#: them (it is also the first corpus entry of the verification oracle
#: grid — see tests/verify/test_generators.py).
ENGINE_GRID = [
    (engine, prelude)
    for engine in _engines.engine_names() + tuple(_engines.ALIASES)
    for prelude in _engines.PRELUDE_MODES
]


@pytest.fixture(
    params=ENGINE_GRID, ids=[f"{e}-{p}" for e, p in ENGINE_GRID]
)
def engine_prelude(request):
    return request.param


class TestSection23Postlude:
    def test_depth_two_needs_three_ways_for_zero_misses(
        self, paper_trace, engine_prelude
    ):
        # "A = max(|{2,3,5}|, |{1,4}|) = 3" for an ideal depth-2 cache.
        engine, prelude = engine_prelude
        explorer = AnalyticalCacheExplorer(
            paper_trace, engine=engine, prelude=prelude
        )
        assert explorer.explore(0).as_dict()[2] == 3

    def test_zero_miss_associativities_per_depth(
        self, paper_trace, engine_prelude
    ):
        engine, prelude = engine_prelude
        explorer = AnalyticalCacheExplorer(
            paper_trace, engine=engine, prelude=prelude
        )
        assert explorer.explore(0).as_dict() == {2: 3, 4: 2, 8: 2, 16: 1}

    def test_worked_miss_count_example(self, zerosets, mrct):
        """Section 2.3 counts 2 misses for S={1,4} (paper ids) at A=1.

        Element 1's two conflict sets each intersect S in one reference
        (4), and element 4's single conflict set intersects S in one
        reference (1): 3 occurrence-misses total at that node for A=1?
        No - the paper walks only element 1's sets and then says "we
        repeat the same for the second element": the total is the node's
        miss count.  |S ∩ C| >= 1 holds for all three conflict sets, so
        the node contributes 3 misses at A=1.
        """
        members = bitset_from_members({0, 3})  # paper's {1,4}
        assert misses_at_node(members, mrct, associativity=1) == 3
        assert misses_at_node(members, mrct, associativity=2) == 0

    def test_algorithm3_matches_streaming_explorer(
        self, paper_trace, zerosets, mrct, engine_prelude
    ):
        engine, prelude = engine_prelude
        bcat = build_bcat(zerosets)
        for budget in (0, 1, 2, 3, 5):
            literal = optimal_pairs_algorithm3(bcat, mrct, budget)
            streaming = AnalyticalCacheExplorer(
                paper_trace, engine=engine, prelude=prelude
            ).explore(budget)
            literal_map = {i.depth: i.associativity for i in literal}
            for inst in streaming:
                if inst.depth in literal_map:
                    assert literal_map[inst.depth] == inst.associativity
