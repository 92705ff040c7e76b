import pytest

from attackdag.csp import CspFacts, CspVerdict, csp_classify, csp_facts
from attackdag.features import hamming, height_diff
from attackdag.graph import build_dag
from attackdag.features import AttributeTable


def facts(hd=0, ht=0.0, hl=False, ll=False):
    return CspFacts(hamming=hd, ht_diff=ht, head_to_leaf=hl, leaf_to_leaf=ll)


class TestRuleBoundaries:
    @pytest.mark.parametrize(
        "ht,expect_fire",
        [(-0.10, True), (-0.09, True), (-0.08, False), (0.0, False),
         (2.0, False), (2.01, True)],
    )
    def test_height_band_rule(self, ht, expect_fire):
        verdict = csp_classify(facts(ht=ht))
        assert ("R1" in verdict.fired) == expect_fire
        assert verdict.label == (-1 if expect_fire else 1)

    @pytest.mark.parametrize("hd,expect_fire", [(3, False), (4, False), (5, False), (6, True), (9, True)])
    def test_attribute_distance_rule(self, hd, expect_fire):
        # no terminal flags: only the hamming > 5 rule can fire
        verdict = csp_classify(facts(hd=hd))
        assert ("R2" in verdict.fired) == expect_fire

    @pytest.mark.parametrize("hd", [4, 5])
    @pytest.mark.parametrize("hl,ll", [(True, False), (False, True), (True, True)])
    def test_terminal_midband_rule_fires(self, hd, hl, ll):
        verdict = csp_classify(facts(hd=hd, hl=hl, ll=ll))
        assert verdict.fired == ("R3",)
        assert verdict.label == -1

    @pytest.mark.parametrize("hd", [3, 6])
    def test_terminal_midband_rule_respects_hamming_band(self, hd):
        verdict = csp_classify(facts(hd=hd, hl=True))
        assert "R3" not in verdict.fired

    def test_midband_without_terminal_flags_is_feasible(self):
        assert csp_classify(facts(hd=5)).label == 1

    def test_feasible_iff_no_rule_fired(self):
        clean = csp_classify(facts(hd=2, ht=1.0))
        assert clean == CspVerdict(label=1, fired=())

    def test_multiple_rules_all_reported_in_order(self):
        verdict = csp_classify(facts(hd=7, ht=-5.0, hl=True))
        assert verdict.fired == ("R1", "R2")
        assert verdict.label == -1
        verdict = csp_classify(facts(hd=4, ht=3.0, ll=True))
        assert verdict.fired == ("R1", "R3")


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
        return dag, table

    def test_terminal_flags_use_dag_degrees(self):
        dag, table = self.make_world()
        got = csp_facts(0, 2, dag, table)
        assert got.head_to_leaf is True  # 0 is a head, 2 a leaf, despite the bits
        assert got.leaf_to_leaf is False
        assert csp_facts(2, 2, dag, table).leaf_to_leaf is True
        assert csp_facts(1, 2, dag, table).head_to_leaf is False

    def test_numeric_facts_come_from_table(self):
        dag, table = self.make_world()
        got = csp_facts(0, 2, dag, table)
        assert got.hamming == hamming(0, 2, table)
        assert got.ht_diff == height_diff(0, 2, table)
        assert got.ht_diff == 2.0


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
