import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attackdag.csp import RULES, csp_classify, csp_facts
from attackdag.features import (
    AttributeTable,
    BranchFrame,
    PairFacts,
    dag_terminals,
    hamming,
    height_diff,
    pair_facts,
)
from attackdag.graph import build_dag
from oracles import rules_fired


def facts(hd=0, ht=0.0, hl=False, ll=False):
    """One pair's facts, as length-1 arrays."""
    return PairFacts(hamming=np.array([hd]), ht_diff=np.array([ht]),
                     head_to_leaf=np.array([hl]), leaf_to_leaf=np.array([ll]))


def fired_rules(one: PairFacts) -> tuple[str, ...]:
    """The names of the rules that fire on a one-pair PairFacts, in RULES order."""
    (row,) = csp_classify(one).tolist()
    return tuple(itertools.compress(RULES, row))


# Every boundary input of the rules, and the rules it fires.
BOUNDARY_CASES = [
    ((0, -0.10, False, False), ("R1",)),
    ((0, -0.09, False, False), ("R1",)),
    ((0, -0.08, False, False), ()),
    ((0, 0.0, False, False), ()),
    ((0, 2.0, False, False), ()),
    ((0, 2.01, False, False), ("R1",)),
    ((3, 0.0, False, False), ()),
    ((4, 0.0, False, False), ()),
    ((5, 0.0, False, False), ()),
    ((6, 0.0, False, False), ("R2",)),
    ((9, 0.0, False, False), ("R2",)),
    ((3, 0.0, True, False), ()),
    ((4, 0.0, True, False), ("R3",)),
    ((5, 0.0, True, False), ("R3",)),
    ((4, 0.0, False, True), ("R3",)),
    ((5, 0.0, False, True), ("R3",)),
    ((4, 0.0, True, True), ("R3",)),
    ((5, 0.0, True, True), ("R3",)),
    ((6, 0.0, True, False), ("R2",)),
    ((2, 1.0, False, False), ()),
    ((7, -5.0, True, False), ("R1", "R2")),
    ((4, 3.0, False, True), ("R1", "R3")),
]


class TestRuleBoundaries:
    @pytest.mark.parametrize(
        "ht,expect_fire",
        [(-0.10, True), (-0.09, True), (-0.08, False), (0.0, False),
         (2.0, False), (2.01, True)],
    )
    def test_height_band_rule(self, ht, expect_fire):
        # no hamming distance: only R1 can fire
        assert fired_rules(facts(ht=ht)) == (("R1",) if expect_fire else ())

    @pytest.mark.parametrize("hd,expect_fire", [(3, False), (4, False), (5, False), (6, True), (9, True)])
    def test_attribute_distance_rule(self, hd, expect_fire):
        # no terminal flags: only the hamming > 5 rule can fire
        assert ("R2" in fired_rules(facts(hd=hd))) == expect_fire

    @pytest.mark.parametrize("hd", [4, 5])
    @pytest.mark.parametrize("hl,ll", [(True, False), (False, True), (True, True)])
    def test_terminal_midband_rule_fires(self, hd, hl, ll):
        assert fired_rules(facts(hd=hd, hl=hl, ll=ll)) == ("R3",)

    @pytest.mark.parametrize("hd", [3, 6])
    def test_terminal_midband_rule_respects_hamming_band(self, hd):
        assert "R3" not in fired_rules(facts(hd=hd, hl=True))

    def test_midband_without_terminal_flags_is_feasible(self):
        assert fired_rules(facts(hd=5)) == ()

    def test_feasible_iff_no_rule_fired(self):
        assert csp_classify(facts(hd=2, ht=1.0)).tolist() == [[False, False, False]]

    def test_multiple_rules_all_reported_in_order(self):
        assert fired_rules(facts(hd=7, ht=-5.0, hl=True)) == ("R1", "R2")
        assert fired_rules(facts(hd=4, ht=3.0, ll=True)) == ("R1", "R3")

    def test_boundaries_as_one_array(self):
        """The rules are elementwise masks: every boundary case at once gives
        each case's rules, and each agrees with the per-pair statement."""
        hd, ht, hl, ll = map(np.array, zip(*(case for case, _ in BOUNDARY_CASES)))
        fired = csp_classify(PairFacts(hamming=hd, ht_diff=ht, head_to_leaf=hl, leaf_to_leaf=ll))
        assert fired.shape == (len(BOUNDARY_CASES), len(RULES))
        assert fired.dtype == bool
        for row, (case, expected) in zip(fired.tolist(), BOUNDARY_CASES):
            assert tuple(itertools.compress(RULES, row)) == expected == rules_fired(*case)


class TestFactsFromGraph:
    def make_world(self):
        edges = {(0, 1), (1, 2)}
        dag = build_dag({0, 1, 2}, edges, {e: {"a"} for e in edges})
        # head/leaf bits in the table deliberately contradict the graph:
        # facts must come from dag degrees
        rows = {
            0: (1, 0, 0, 0, 0, 0, 0, 0, 1, 0.0),
            1: (0, 1, 0, 0, 0, 0, 0, 1, 1, 1.0),
            2: (0, 0, 1, 0, 0, 0, 1, 1, 0, 2.0),
        }
        table = AttributeTable.from_rows(rows, {n: "reconstructed" for n in rows})
        # ids 0..2 are also their row positions
        frame = BranchFrame(table, np.array([[0, 2], [2, 2], [1, 2]]), None)
        return dag, table, frame

    def test_terminal_flags_use_dag_degrees(self):
        dag, _, frame = self.make_world()
        got = csp_facts(frame, dag)
        # 0 is a head, 2 a leaf, despite the bits
        assert got.head_to_leaf.tolist() == [True, False, False]
        assert got.leaf_to_leaf.tolist() == [False, True, False]

    def test_numeric_facts_come_from_table(self):
        dag, table, frame = self.make_world()
        got = csp_facts(frame, dag)
        pairs = frame.at.tolist()
        assert got.hamming.tolist() == [hamming(o, d, table) for o, d in pairs]
        assert got.ht_diff.tolist() == [height_diff(o, d, table) for o, d in pairs]
        assert got.ht_diff[0] == 2.0


# Depths whose differences land on both sides of each R1 boundary.
DEPTHS = st.sampled_from([0.0, 0.01, 0.09, 0.1, 1.0, 2.0, 2.01, 2.1, 3.5])


@st.composite
def worlds(draw):
    """A table of 1-8 nodes with random bits (its head and leaf bits free to
    contradict the dag), a dag over some of its nodes, and pairs of its nodes."""
    ids = draw(st.lists(st.integers(-5, 60), min_size=1, max_size=8, unique=True))
    bits = st.lists(st.integers(0, 1), min_size=9, max_size=9)
    table = AttributeTable.from_rows({n: (*draw(bits), draw(DEPTHS)) for n in ids})
    in_dag = sorted(draw(st.sets(st.sampled_from(ids), min_size=1)))
    node = st.sampled_from(in_dag)
    edges = {(u, v) for u, v in draw(st.lists(st.tuples(node, node), max_size=12)) if u < v}
    dag = build_dag(set(in_dag), edges, {e: {"a"} for e in edges})
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=20))
    at = np.searchsorted(table.ids, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    return dag, table, BranchFrame(table, at, None)


class TestRulesAsMasks:
    @settings(max_examples=150, deadline=None)
    @given(world=worlds())
    def test_masks_match_per_pair_rules(self, world):
        dag, table, frame = world
        fired = csp_classify(csp_facts(frame, dag))
        assert fired.shape == (len(frame), len(RULES))
        for row, (o, d) in zip(fired.tolist(), zip(frame.origins.tolist(), frame.dests.tolist())):
            expected = rules_fired(hamming(o, d, table), height_diff(o, d, table),
                                   o in dag.heads and d in dag.leaves,
                                   o in dag.leaves and d in dag.leaves)
            assert tuple(itertools.compress(RULES, row)) == expected

    @settings(max_examples=100, deadline=None)
    @given(world=worlds())
    def test_grid_matches_frame_at_the_same_pairs(self, world):
        dag, table, _ = world
        rows = np.arange(len(table.ids))
        head, leaf = dag_terminals(table, dag)
        grid = pair_facts(table, rows[:, None], rows[None, :], head, leaf)
        at = np.argwhere(np.ones((len(rows), len(rows)), dtype=bool))
        framed = csp_facts(BranchFrame(table, at, None), dag)
        for name in ("hamming", "ht_diff", "head_to_leaf", "leaf_to_leaf"):
            on_grid, on_frame = getattr(grid, name), getattr(framed, name)
            assert on_grid.shape == (len(rows), len(rows))
            assert on_frame.dtype == on_grid.dtype
            assert on_frame.tolist() == on_grid[at[:, 0], at[:, 1]].tolist(), name


class TestEvaluateOnCorpus:
    """`csp --out` rows and printed counts against an independent rule application."""

    def test_matches_independent_rule_application(self, dag, table, labeled, csp_run):
        rows, counts = csp_run
        assert [(o, d) for o, d, _, _ in rows] == list(
            zip(labeled.origins.tolist(), labeled.dests.tolist()))

        tp = fp = tn = fn = 0
        for (origin, dest, label, fired), truth in zip(rows, labeled.labels.tolist()):
            hd = hamming(origin, dest, table)
            ht = height_diff(origin, dest, table)
            hl = origin in dag.heads and dest in dag.leaves
            ll = origin in dag.leaves and dest in dag.leaves
            expect_fired = []
            if ht <= -0.09 or ht > 2.0:
                expect_fired.append("R1")
            if hd > 5:
                expect_fired.append("R2")
            if 4 <= hd <= 5 and (hl or ll):
                expect_fired.append("R3")
            assert fired == tuple(expect_fired)
            assert label == (-1 if expect_fired else 1)
            if truth == 1:
                if label == 1:
                    tp += 1
                else:
                    fn += 1
            else:
                if label == 1:
                    fp += 1
                else:
                    tn += 1
        assert counts == (tp, fp, tn, fn)

    def test_explanations_accompany_every_infeasible_verdict(self, csp_run):
        rows, _ = csp_run
        for _, _, label, fired in rows:
            assert (label == -1) == bool(fired)
