import pytest

from attackdag.features import AttributeTable, BranchFrame, labeled_frame
from attackdag.model import BasicBlock
from attackdag.model import VulnerabilityCategory as VC
from attackdag.negatives import (
    EXCEPTIONS_CSV_HEADER,
    ExceptionList,
    InsufficientData,
    NegativeFilterThresholds,
    categories_independent,
    corpus_stats,
    generate_negative_candidates,
)
from attackdag.graph import build_dag
from attackdag.storage import csv_text


def pairs_of(frame):
    return list(zip(frame.origins.tolist(), frame.dests.tolist()))


class TestIndependence:
    def test_plain_pairs_symmetric(self):
        assert categories_independent(VC.MEMORY, VC.NETWORK_PROTOCOL, False, False)
        assert categories_independent(VC.NETWORK_PROTOCOL, VC.MEMORY, False, False)
        assert categories_independent(VC.MEMORY, VC.SOCIAL_ENGINEERING, False, False)
        assert categories_independent(VC.NETWORK_PROTOCOL, VC.SOCIAL_ENGINEERING, False, False)

    def test_non_pairs(self):
        assert not categories_independent(VC.MEMORY, VC.MEMORY, False, False)
        assert not categories_independent(VC.MEMORY, VC.WEAK_CRYPTO_AUTH, False, False)
        assert not categories_independent(VC.MEMORY, VC.MALWARE, False, False)
        assert not categories_independent(VC.NETWORK_PROTOCOL, VC.MALWARE, False, False)

    def test_composite_requires_social_delivery_flag(self):
        assert not categories_independent(VC.WEAK_CRYPTO_AUTH, VC.MALWARE, False, False)
        assert categories_independent(VC.WEAK_CRYPTO_AUTH, VC.MALWARE, False, True)
        assert categories_independent(VC.MALWARE, VC.WEAK_CRYPTO_AUTH, True, False)
        assert categories_independent(VC.WEAK_CRYPTO_AUTH, VC.SOCIAL_ENGINEERING, False, True)

    def test_composite_flag_on_wrong_side_does_not_count(self):
        assert not categories_independent(VC.WEAK_CRYPTO_AUTH, VC.MALWARE, True, False)


def tiny_world():
    """Four-node dag: 0->1 edge; categories chosen to trip each rule once."""
    edges = {(0, 1)}
    dag = build_dag({0, 1, 2, 3}, edges, {e: {"a"} for e in edges})
    rows = {
        0: (1, 0, 0, 0, 0, 0, 0, 1, 0, 0.0),
        1: (0, 0, 0, 1, 0, 0, 0, 0, 1, 1.0),
        2: (0, 1, 1, 0, 1, 0, 1, 1, 1, 0.0),
        3: (0, 0, 0, 0, 0, 1, 0, 1, 1, 0.0),
    }
    table = AttributeTable.from_rows(rows, {n: "reconstructed" for n in rows})
    blocks = {
        0: BasicBlock(0, "A", "a", VC.MEMORY, socially_delivered=False),
        1: BasicBlock(1, "B", "b", VC.NETWORK_PROTOCOL, socially_delivered=False),
        2: BasicBlock(2, "C", "c", VC.WEAK_CRYPTO_AUTH, socially_delivered=False),
        3: BasicBlock(3, "D", "d", VC.MALWARE, socially_delivered=True),
    }
    return dag, table, blocks


class TestGenerateNegatives:
    def test_dag_edges_never_candidates(self):
        dag, table, blocks = tiny_world()
        got = generate_negative_candidates(dag, table, blocks, None)
        assert (0, 1) not in set(pairs_of(got))

    def test_exceptions_removed(self):
        dag, table, blocks = tiny_world()
        baseline = set(pairs_of(generate_negative_candidates(dag, table, blocks, None)))
        assert (1, 0) in baseline  # memory x network, reverse direction
        exceptions = ExceptionList(notes={(1, 0): "observed downstream"})
        got = set(pairs_of(generate_negative_candidates(dag, table, blocks, exceptions)))
        assert got == baseline - {(1, 0)}

    def test_independence_only_mode(self):
        dag, table, blocks = tiny_world()
        got = generate_negative_candidates(
            dag, table, blocks, None, thresholds=NegativeFilterThresholds.disabled()
        )
        pairs = set(pairs_of(got))
        # memory(0) x network(1) both ways minus the dag edge; wca(2) x
        # socially delivered malware(3) both ways
        assert pairs == {(1, 0), (2, 3), (3, 2)}

    def test_all_labeled_minus_one_and_sorted(self):
        dag, table, blocks = tiny_world()
        got = generate_negative_candidates(dag, table, blocks, None)
        assert got.labels.tolist() == [-1] * len(got)
        pairs = pairs_of(got)
        assert pairs == sorted(pairs)

    def test_head_to_leaf_filter(self):
        dag, table, blocks = tiny_world()
        # node 0 is a head, node 3 a leaf, same-category pressure absent
        got = set(pairs_of(generate_negative_candidates(dag, table, blocks, None)))
        assert (0, 3) in got
        relaxed = set(pairs_of(generate_negative_candidates(
            dag, table, blocks, None,
            thresholds=NegativeFilterThresholds(
                ht_diff_below=None, ht_diff_above=None, min_hamming=None,
                head_to_leaf=False, leaf_to_leaf=True),
        )))
        assert (0, 3) not in relaxed  # 0 is not a leaf

    def test_hamming_threshold_boundary(self):
        dag, table, blocks = tiny_world()
        from attackdag.features import hamming
        assert hamming(0, 2, table) == 6
        assert hamming(3, 2, table) == 5

        strict = NegativeFilterThresholds(
            ht_diff_below=None, ht_diff_above=None, min_hamming=7,
            head_to_leaf=False, leaf_to_leaf=False)
        got = set(pairs_of(generate_negative_candidates(dag, table, blocks, None,
                                                        thresholds=strict)))
        assert (0, 2) not in got  # 6 < 7; independence pairs alone survive
        assert got == {(1, 0), (2, 3), (3, 2)}

        at_boundary = NegativeFilterThresholds(
            ht_diff_below=None, ht_diff_above=None, min_hamming=6,
            head_to_leaf=False, leaf_to_leaf=False)
        got = set(pairs_of(generate_negative_candidates(dag, table, blocks, None,
                                                        thresholds=at_boundary)))
        # hamming == 6 pairs pass a >= 6 threshold in both directions
        assert {(0, 2), (2, 0), (1, 2), (2, 1)} <= got
        assert (3, 1) not in got  # hamming 3, no independence

    def test_ht_diff_thresholds(self):
        dag, table, blocks = tiny_world()
        thresholds = NegativeFilterThresholds(
            ht_diff_below=-0.09, ht_diff_above=2.0, min_hamming=None,
            head_to_leaf=False, leaf_to_leaf=False)
        got = set(pairs_of(generate_negative_candidates(dag, table, blocks, None,
                                                        thresholds=thresholds)))
        # (1, 2): ht = 0.0 - 1.0 = -1.0 < -0.09 -> candidate
        assert (1, 2) in got
        # (2, 1): ht = 1.0, inside [-0.09, 2.0] and wca x network is not an
        # independence pair -> not a candidate
        assert (2, 1) not in got

    def test_generated_set_matches_bundled_regeneration(self, dag, table, corpus, data_dir):
        exceptions = ExceptionList.from_csv((data_dir / "exceptions.csv").read_text())
        got = generate_negative_candidates(dag, table, corpus.blocks, exceptions)
        pairs = set(pairs_of(got))
        assert not pairs & dag.edges
        assert (26, 30) not in pairs and (4, 31) not in pairs
        # bundled labels' negatives are a curated subset of this pool
        from attackdag.storage import load_labels
        neg_rows = {(o, d) for o, d, l in load_labels(data_dir / "labels.csv") if l == -1}
        assert neg_rows <= pairs


class TestExceptionListCsv:
    def test_round_trip(self):
        text = 'origin_node_id,dest_node_id,note\n4,31,"note, a"\n26,30,note b\n'
        ex = ExceptionList.from_csv(text)
        assert ex == ExceptionList(notes={(4, 31): "note, a", (26, 30): "note b"})
        assert csv_text(EXCEPTIONS_CSV_HEADER,
                        ((u, v, note) for (u, v), note in ex.notes.items())) == text

    def test_bad_header(self):
        with pytest.raises(ValueError):
            ExceptionList.from_csv("a,b\n1,2\n")

    @pytest.mark.parametrize("row", ["1,2", "1,x,note"])
    def test_malformed_row_names_its_line(self, row):
        with pytest.raises(ValueError, match="^exception list:3: "):
            ExceptionList.from_csv(f"origin_node_id,dest_node_id,note\n4,31,ok\n{row}\n")


def stats_fixture():
    rows = {
        0: (1, 0, 0, 0, 0, 0, 0, 1, 0, 0.0),
        1: (0, 1, 0, 0, 0, 0, 0, 0, 1, 2.0),
        2: (0, 0, 1, 0, 0, 0, 1, 1, 0, 0.0),
        3: (0, 0, 0, 1, 0, 0, 0, 0, 1, 3.0),
    }
    table = AttributeTable.from_rows(rows, {n: "reconstructed" for n in rows})

    rows = [
        (0, 1, 1),   # hd 4, ht +2.0, head->leaf
        (2, 3, 1),   # hd 5, ht +3.0, head->leaf
        (0, 3, -1),  # hd 4, ht +3.0, head->leaf
        (1, 3, -1),  # hd 2, ht +1.0, leaf->leaf
        (2, 1, -1),  # hd 5, ht +2.0, head->leaf
        (3, 0, -1),  # hd 4, ht -3.0, not terminal
    ]
    return rows, table


class TestCorpusStats:
    def test_hand_computed_fixture(self):
        rows, table = stats_fixture()
        stats = corpus_stats(labeled_frame(rows, table))
        assert stats.mean_hd_feasible == 4.5
        assert stats.mean_hd_infeasible == 3.75
        assert stats.ht_diff_feasible == (2.0, 2.5, 3.0)
        assert stats.ht_diff_infeasible == (-3.0, 0.75, 3.0)
        assert stats.headleaf_infeasible_ratio == 1.5

    def test_single_class_raises(self):
        rows, table = stats_fixture()
        with pytest.raises(InsufficientData):
            corpus_stats(labeled_frame([r for r in rows if r[2] == 1], table))

    def test_unlabeled_sample_raises(self):
        rows, table = stats_fixture()
        frame = labeled_frame(rows, table)
        with pytest.raises(InsufficientData):
            corpus_stats(BranchFrame(frame.nodes, frame.at, None))

    def test_ratio_none_when_no_feasible_terminal(self):
        rows = {
            0: (1, 0, 0, 0, 0, 0, 0, 0, 0, 1.0),
            1: (0, 1, 0, 0, 0, 0, 0, 0, 0, 2.0),
            2: (0, 0, 1, 0, 0, 0, 0, 1, 1, 0.0),
        }
        table = AttributeTable.from_rows(rows, {n: "reconstructed" for n in rows})
        frame = labeled_frame([(0, 1, 1), (1, 0, -1)], table)
        assert corpus_stats(frame).headleaf_infeasible_ratio is None

    def test_bundled_corpus_emits_all_four(self, labeled):
        stats = corpus_stats(labeled)
        assert stats.mean_hd_feasible > 0
        assert stats.mean_hd_infeasible > 0
        assert stats.ht_diff_feasible[0] <= stats.ht_diff_feasible[1] <= stats.ht_diff_feasible[2]
        assert stats.headleaf_infeasible_ratio is not None
