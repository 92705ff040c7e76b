import pytest

from attackdag.features import AttributeTable, branch_features
from attackdag.model import BasicBlock, BranchSample, NodeAttributes
from attackdag.model import VulnerabilityCategory as VC
from attackdag.negatives import (
    ExceptionList,
    InsufficientData,
    NegativeFilterThresholds,
    categories_independent,
    corpus_stats,
    generate_negative_candidates,
)
from attackdag.graph import build_dag


class TestIndependence:
    def test_plain_pairs_symmetric(self):
        assert categories_independent(VC.MEMORY, VC.NETWORK_PROTOCOL)
        assert categories_independent(VC.NETWORK_PROTOCOL, VC.MEMORY)
        assert categories_independent(VC.MEMORY, VC.SOCIAL_ENGINEERING)
        assert categories_independent(VC.NETWORK_PROTOCOL, VC.SOCIAL_ENGINEERING)

    def test_non_pairs(self):
        assert not categories_independent(VC.MEMORY, VC.MEMORY)
        assert not categories_independent(VC.MEMORY, VC.WEAK_CRYPTO_AUTH)
        assert not categories_independent(VC.MEMORY, VC.MALWARE)
        assert not categories_independent(VC.NETWORK_PROTOCOL, VC.MALWARE)

    def test_composite_requires_social_delivery_flag(self):
        assert not categories_independent(VC.WEAK_CRYPTO_AUTH, VC.MALWARE)
        assert categories_independent(
            VC.WEAK_CRYPTO_AUTH, VC.MALWARE, b_socially_delivered=True
        )
        assert categories_independent(
            VC.MALWARE, VC.WEAK_CRYPTO_AUTH, a_socially_delivered=True
        )
        assert categories_independent(
            VC.WEAK_CRYPTO_AUTH, VC.SOCIAL_ENGINEERING, b_socially_delivered=True
        )

    def test_composite_flag_on_wrong_side_does_not_count(self):
        assert not categories_independent(
            VC.WEAK_CRYPTO_AUTH, VC.MALWARE, a_socially_delivered=True
        )


def tiny_world():
    """Four-node dag: 0->1 edge; categories chosen to trip each rule once."""
    edges = {(0, 1)}
    dag = build_dag({0, 1, 2, 3}, edges, {e: {"a"} for e in edges})
    rows = {
        0: NodeAttributes(1, 0, 0, 0, 0, 0, 0, 1, 0, 0.0),
        1: NodeAttributes(0, 0, 0, 1, 0, 0, 0, 0, 1, 1.0),
        2: NodeAttributes(0, 1, 1, 0, 1, 0, 1, 1, 1, 0.0),
        3: NodeAttributes(0, 0, 0, 0, 0, 1, 0, 1, 1, 0.0),
    }
    table = AttributeTable(rows=rows, provenance={n: "reconstructed" for n in rows})
    blocks = {
        0: BasicBlock(0, "A", "a", VC.MEMORY),
        1: BasicBlock(1, "B", "b", VC.NETWORK_PROTOCOL),
        2: BasicBlock(2, "C", "c", VC.WEAK_CRYPTO_AUTH),
        3: BasicBlock(3, "D", "d", VC.MALWARE, socially_delivered=True),
    }
    return dag, table, blocks


class TestGenerateNegatives:
    def test_dag_edges_never_candidates(self):
        dag, table, blocks = tiny_world()
        got = generate_negative_candidates(dag, table, blocks)
        assert (0, 1) not in {(s.origin, s.dest) for s in got}

    def test_exceptions_removed(self):
        dag, table, blocks = tiny_world()
        baseline = {(s.origin, s.dest) for s in generate_negative_candidates(dag, table, blocks)}
        assert (1, 0) in baseline  # memory x network, reverse direction
        exceptions = ExceptionList(notes={(1, 0): "observed downstream"})
        got = {(s.origin, s.dest)
               for s in generate_negative_candidates(dag, table, blocks, exceptions)}
        assert got == baseline - {(1, 0)}

    def test_independence_only_mode(self):
        dag, table, blocks = tiny_world()
        got = generate_negative_candidates(
            dag, table, blocks, thresholds=NegativeFilterThresholds.disabled()
        )
        pairs = {(s.origin, s.dest) for s in got}
        # memory(0) x network(1) both ways minus the dag edge; wca(2) x
        # socially delivered malware(3) both ways
        assert pairs == {(1, 0), (2, 3), (3, 2)}

    def test_all_labeled_minus_one_and_sorted(self):
        dag, table, blocks = tiny_world()
        got = generate_negative_candidates(dag, table, blocks)
        assert all(s.label == -1 for s in got)
        pairs = [(s.origin, s.dest) for s in got]
        assert pairs == sorted(pairs)

    def test_head_to_leaf_filter(self):
        dag, table, blocks = tiny_world()
        # node 0 is a head, node 3 a leaf, same-category pressure absent
        got = {(s.origin, s.dest) for s in generate_negative_candidates(dag, table, blocks)}
        assert (0, 3) in got
        relaxed = {(s.origin, s.dest) for s in generate_negative_candidates(
            dag, table, blocks,
            thresholds=NegativeFilterThresholds(
                ht_diff_below=None, ht_diff_above=None, min_hamming=None,
                head_to_leaf=False, leaf_to_leaf=True),
        )}
        assert (0, 3) not in relaxed  # 0 is not a leaf

    def test_hamming_threshold_boundary(self):
        dag, table, blocks = tiny_world()
        from attackdag.features import hamming
        assert hamming(0, 2, table) == 6
        assert hamming(3, 2, table) == 5

        strict = NegativeFilterThresholds(
            ht_diff_below=None, ht_diff_above=None, min_hamming=7,
            head_to_leaf=False, leaf_to_leaf=False)
        got = {(s.origin, s.dest)
               for s in generate_negative_candidates(dag, table, blocks, thresholds=strict)}
        assert (0, 2) not in got  # 6 < 7; independence pairs alone survive
        assert got == {(1, 0), (2, 3), (3, 2)}

        at_boundary = NegativeFilterThresholds(
            ht_diff_below=None, ht_diff_above=None, min_hamming=6,
            head_to_leaf=False, leaf_to_leaf=False)
        got = {(s.origin, s.dest)
               for s in generate_negative_candidates(dag, table, blocks, thresholds=at_boundary)}
        # hamming == 6 pairs pass a >= 6 threshold in both directions
        assert {(0, 2), (2, 0), (1, 2), (2, 1)} <= got
        assert (3, 1) not in got  # hamming 3, no independence

    def test_ht_diff_thresholds(self):
        dag, table, blocks = tiny_world()
        thresholds = NegativeFilterThresholds(
            ht_diff_below=-0.09, ht_diff_above=2.0, min_hamming=None,
            head_to_leaf=False, leaf_to_leaf=False)
        got = {(s.origin, s.dest)
               for s in generate_negative_candidates(dag, table, blocks, thresholds=thresholds)}
        # (1, 2): ht = 0.0 - 1.0 = -1.0 < -0.09 -> candidate
        assert (1, 2) in got
        # (2, 1): ht = 1.0, inside [-0.09, 2.0] and wca x network is not an
        # independence pair -> not a candidate
        assert (2, 1) not in got

    def test_generated_set_matches_bundled_regeneration(self, dag, table, corpus, data_dir):
        exceptions = ExceptionList.from_csv((data_dir / "exceptions.csv").read_text())
        got = generate_negative_candidates(dag, table, corpus.blocks_by_id(), exceptions)
        pairs = {(s.origin, s.dest) for s in got}
        assert not pairs & dag.edges
        assert (26, 30) not in pairs and (4, 31) not in pairs
        # bundled labels' negatives are a curated subset of this pool
        from attackdag.storage import load_labels
        neg_rows = {(o, d) for o, d, l in load_labels(data_dir / "labels.csv") if l == -1}
        assert neg_rows <= pairs


class TestExceptionListCsv:
    def test_round_trip(self):
        ex = ExceptionList(notes={(4, 31): "note a", (26, 30): "note b"})
        again = ExceptionList.from_csv(ex.to_csv())
        assert again == ex

    def test_bad_header(self):
        with pytest.raises(ValueError):
            ExceptionList.from_csv("a,b\n1,2\n")

    @pytest.mark.parametrize("row", ["1,2", "1,x,note"])
    def test_malformed_row_names_its_line(self, row):
        with pytest.raises(ValueError, match="^exception list:3: "):
            ExceptionList.from_csv(f"origin_node_id,dest_node_id,note\n4,31,ok\n{row}\n")


def stats_fixture():
    rows = {
        0: NodeAttributes(1, 0, 0, 0, 0, 0, 0, 1, 0, 0.0),
        1: NodeAttributes(0, 1, 0, 0, 0, 0, 0, 0, 1, 2.0),
        2: NodeAttributes(0, 0, 1, 0, 0, 0, 1, 1, 0, 0.0),
        3: NodeAttributes(0, 0, 0, 1, 0, 0, 0, 0, 1, 3.0),
    }
    table = AttributeTable(rows=rows, provenance={n: "reconstructed" for n in rows})

    def sample(o, d, label):
        return BranchSample(origin=o, dest=d, features=branch_features(o, d, table), label=label)

    samples = [
        sample(0, 1, 1),   # hd 4, ht +2.0, head->leaf
        sample(2, 3, 1),   # hd 5, ht +3.0, head->leaf
        sample(0, 3, -1),  # hd 4, ht +3.0, head->leaf
        sample(1, 3, -1),  # hd 2, ht +1.0, leaf->leaf
        sample(2, 1, -1),  # hd 5, ht +2.0, head->leaf
        sample(3, 0, -1),  # hd 4, ht -3.0, not terminal
    ]
    return samples, table


class TestCorpusStats:
    def test_hand_computed_fixture(self):
        samples, table = stats_fixture()
        stats = corpus_stats(samples, table)
        assert stats.mean_hd_feasible == 4.5
        assert stats.mean_hd_infeasible == 3.75
        assert stats.ht_diff_feasible == (2.0, 2.5, 3.0)
        assert stats.ht_diff_infeasible == (-3.0, 0.75, 3.0)
        assert stats.headleaf_infeasible_ratio == 1.5

    def test_single_class_raises(self):
        samples, table = stats_fixture()
        with pytest.raises(InsufficientData):
            corpus_stats([s for s in samples if s.label == 1], table)

    def test_unlabeled_sample_raises(self):
        samples, table = stats_fixture()
        unlabeled = BranchSample(origin=0, dest=2,
                                 features=branch_features(0, 2, table), label=None)
        with pytest.raises(InsufficientData):
            corpus_stats(samples + [unlabeled], table)

    def test_ratio_none_when_no_feasible_terminal(self):
        rows = {
            0: NodeAttributes(1, 0, 0, 0, 0, 0, 0, 0, 0, 1.0),
            1: NodeAttributes(0, 1, 0, 0, 0, 0, 0, 0, 0, 2.0),
            2: NodeAttributes(0, 0, 1, 0, 0, 0, 0, 1, 1, 0.0),
        }
        table = AttributeTable(rows=rows, provenance={n: "reconstructed" for n in rows})
        samples = [
            BranchSample(0, 1, branch_features(0, 1, table), 1),
            BranchSample(1, 0, branch_features(1, 0, table), -1),
        ]
        assert corpus_stats(samples, table).headleaf_infeasible_ratio is None

    def test_bundled_corpus_emits_all_four(self, labeled, table):
        stats = corpus_stats(labeled, table)
        assert stats.mean_hd_feasible > 0
        assert stats.mean_hd_infeasible > 0
        assert stats.ht_diff_feasible[0] <= stats.ht_diff_feasible[1] <= stats.ht_diff_feasible[2]
        assert stats.headleaf_infeasible_ratio is not None
