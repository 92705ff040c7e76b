import pytest
from hypothesis import given, settings, strategies as st

from attackdag.features import (
    ATTRS_CSV_HEADER,
    PROVENANCE_VALUES,
    AttributeTable,
    SelfBranch,
    branch_features,
    enumerate_candidates,
    hamming,
    height_diff,
    search_space_size,
    structural_columns,
)
from attackdag.graph import UnknownNode, build_dag
from attackdag.model import ATTRIBUTE_NAMES, InvalidCounts

CERT_PROXY = (0, 0, 1, 0, 0, 0, 1, 0, 1, 1.0)
SQL_FORMAT = (0, 1, 0, 0, 0, 0, 0, 0, 1, 3.75)


@pytest.fixture
def pair_table():
    return AttributeTable.from_rows({0: CERT_PROXY, 1: SQL_FORMAT},
                                    {0: "published", 1: "published"})


class TestBranchFeatures:
    def test_concatenation_order(self, pair_table):
        got = branch_features(0, 1, pair_table)
        assert got == (0, 0, 1, 0, 0, 0, 1, 0, 1, 1.0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 3.75)

    def test_reverse_direction_differs(self, pair_table):
        assert branch_features(1, 0, pair_table) != branch_features(0, 1, pair_table)

    def test_self_branch_rejected(self, pair_table):
        with pytest.raises(SelfBranch):
            branch_features(0, 0, pair_table)

    def test_unknown_node(self, pair_table):
        with pytest.raises(UnknownNode, match="no attribute row for node 7"):
            pair_table.row(7)
        with pytest.raises(UnknownNode, match="no attribute row for node 7"):
            branch_features(0, 7, pair_table)


class TestHammingAndHeight:
    def test_hamming_ignores_mean_depth(self, pair_table):
        # bits differ at data_db, security_vuln, auth_vuln; depths 1 vs 3.75
        # must not contribute
        assert hamming(0, 1, pair_table) == 3
        assert hamming(1, 0, pair_table) == 3

    def test_hamming_zero_for_identical_bits(self):
        a = (1, 0, 0, 0, 0, 0, 0, 1, 0, 0.0)
        b = (1, 0, 0, 0, 0, 0, 0, 1, 0, 4.5)
        t = AttributeTable.from_rows({0: a, 1: b})
        assert hamming(0, 1, t) == 0

    def test_height_diff_is_dest_minus_origin(self, pair_table):
        assert height_diff(0, 1, pair_table) == pytest.approx(2.75)
        assert height_diff(1, 0, pair_table) == pytest.approx(-2.75)


class TestSearchSpaceSize:
    def test_published_counts(self):
        assert search_space_size(37, 140) == 1192
        assert search_space_size(29, 27) == 785

    def test_zero_training(self):
        assert search_space_size(3, 0) == 6

    def test_rejects_more_training_than_pairs(self):
        with pytest.raises(InvalidCounts):
            search_space_size(3, 7)

    def test_rejects_negative(self):
        with pytest.raises(InvalidCounts):
            search_space_size(-1, 0)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, table):
        text = table.to_csv()
        again = AttributeTable.from_csv(text)
        assert again.ids.tolist() == table.ids.tolist()
        assert again.values.tolist() == table.values.tolist()
        assert again.provenance == table.provenance
        assert again.to_csv() == text

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            AttributeTable.from_csv("a,b,c\n1,2,3\n")

    def test_duplicate_node_rejected(self):
        header = ",".join(ATTRS_CSV_HEADER)
        row = "5,0,0,0,0,0,0,0,1,0,0.0,reconstructed"
        with pytest.raises(ValueError):
            AttributeTable.from_csv(f"{header}\n{row}\n{row}\n")

    def test_bad_provenance_rejected(self):
        header = ",".join(ATTRS_CSV_HEADER)
        row = "5,0,0,0,0,0,0,0,1,0,0.0,guessed"
        with pytest.raises(ValueError):
            AttributeTable.from_csv(f"{header}\n{row}\n")

    def test_mean_depth_survives_exactly(self):
        t = AttributeTable.from_rows({0: (0, 0, 0, 0, 0, 0, 0, 1, 0, 5 / 3)})
        assert AttributeTable.from_csv(t.to_csv()).row(0)[-1] == 5 / 3


def edited(table, node, **changes):
    """``table`` with some of ``node``'s attributes changed."""
    values = table.values.copy()
    for name, value in changes.items():
        values[table.ids.tolist().index(node), ATTRIBUTE_NAMES.index(name)] = value
    return AttributeTable(table.ids, values, table.provenance)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(
    st.integers(-2**62, 2**62),
    st.tuples(st.lists(st.integers(0, 1), min_size=9, max_size=9),
              st.floats(min_value=0.0, allow_infinity=False),
              st.sampled_from(PROVENANCE_VALUES)),
    max_size=12))
def test_csv_round_trip_on_sparse_ids(entries):
    table = AttributeTable.from_rows({n: (*bits, depth) for n, (bits, depth, _) in entries.items()},
                                     {n: prov for n, (_, _, prov) in entries.items()})
    text = table.to_csv()
    again = AttributeTable.from_csv(text)
    assert again.ids.tolist() == table.ids.tolist() == sorted(entries)
    assert again.values.tolist() == table.values.tolist()
    assert again.provenance == table.provenance
    assert again.to_csv() == text


class TestCheckAgainst:
    def test_bundled_table_consistent(self, dag, table):
        assert table.check_against(dag) == []

    def test_stale_leaf_bit_detected(self, dag, table):
        node = sorted(dag.leaves)[0]
        bad = edited(table, node, leaf=0)
        problems = bad.check_against(dag)
        assert any(str(node) in p and "leaf" in p for p in problems)

    def test_missing_row_detected(self, dag, table):
        victim = int(table.ids[0])
        bad = table.select(set(table.ids.tolist()) - {victim})
        assert any(str(victim) in p for p in bad.check_against(dag))

    def test_extra_row_detected(self, dag, table):
        rows = dict(zip(table.ids.tolist(), table.values.tolist()))
        rows[999] = (0, 0, 0, 0, 0, 0, 0, 1, 1, 0.0)
        bad = AttributeTable.from_rows(rows, dict(zip(table.ids.tolist(), table.provenance)))
        assert any("999" in p for p in bad.check_against(dag))

    def test_stale_mean_depth_detected(self, dag, table):
        node = sorted(dag.nodes, key=lambda n: -dag.mean_depth[n])[0]
        bad = edited(table, node, mean_depth=table.row(node)[-1] + 0.5)
        assert any("depth" in p for p in bad.check_against(dag))


class TestEnumerateCandidates:
    def test_count_formula(self, dag, table, labeled):
        training = set(zip(labeled.origins.tolist(), labeled.dests.tolist()))
        cands = enumerate_candidates(dag, table, training)
        assert len(cands) == search_space_size(len(dag.nodes), len(training))

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False), fraction=st.floats(0.0, 1.0))
    def test_count_is_search_space_size_for_any_training_set(self, dag, table, rng, fraction):
        pairs = [(o, d) for o in sorted(dag.nodes) for d in sorted(dag.nodes) if o != d]
        training = set(rng.sample(pairs, round(fraction * len(pairs))))
        cands = enumerate_candidates(dag, table, training)
        assert len(cands) == search_space_size(len(dag.nodes), len(training))

    def test_sorted_unlabeled_and_disjoint_from_training(self, dag, table, labeled):
        training = set(zip(labeled.origins.tolist(), labeled.dests.tolist()))
        cands = enumerate_candidates(dag, table, training)
        pairs = list(zip(cands.origins.tolist(), cands.dests.tolist()))
        assert pairs == sorted(pairs)
        assert cands.labels is None
        assert not training & set(pairs)

    def test_small_dag_by_hand(self):
        dag = build_dag({0, 1, 2}, {(0, 1)}, {(0, 1): {"a"}})
        t = AttributeTable.from_rows(
            {n: (0, 0, 0, 0, 0, 0, 0, *structural_columns(dag, n)) for n in dag.nodes})
        cands = enumerate_candidates(dag, t, {(0, 1)})
        assert list(zip(cands.origins.tolist(), cands.dests.tolist())) == [
            (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
        ]

    def test_training_pair_must_reference_known_nodes(self, dag, table):
        with pytest.raises(UnknownNode):
            enumerate_candidates(dag, table, {(0, 999)})
