import math

import pytest

from attackdag.features import ATTRS_CSV_HEADER, AttributeTable
from attackdag.model import (
    ATTRIBUTE_NAMES,
    AttackDag,
    Concat,
    CorpusStats,
    EmptyDescription,
    InvalidCounts,
    Metrics,
    UnionExpr,
    block,
    find_cycle,
    format_ratio,
    normalize_description,
    star,
    validate_dag,
)

from oracles import expr_blocks


class TestNormalize:
    def test_casefold_collapse_trim(self):
        assert normalize_description("  Overflow   of\tMemory ") == "overflow of memory"

    def test_idempotent(self):
        once = normalize_description("Weak  WiFi Password")
        assert normalize_description(once) == once

    def test_empty_raises(self):
        with pytest.raises(EmptyDescription):
            normalize_description("   \t ")

    def test_unicode_casefold(self):
        assert normalize_description("Straße") == normalize_description("STRASSE")


class TestAstConstructors:
    def test_block_rejects_blank(self):
        with pytest.raises(EmptyDescription):
            block("   ")

    def test_block_rejects_unbalanced_parens(self):
        with pytest.raises(ValueError):
            block("open (unclosed")

    def test_block_allows_balanced_parens(self):
        assert block("call f(x) twice").description == "call f(x) twice"

    def test_star_collapses(self):
        b = block("x")
        assert star(star(star(b))) == star(b)

    def test_expr_blocks_order(self):
        e = Concat(UnionExpr(block("a"), block("b")), star(block("c")))
        assert [b.description for b in expr_blocks(e)] == ["a", "b", "c"]


class TestFindCycle:
    def test_acyclic(self):
        assert find_cycle([0, 1, 2], [(0, 1), (1, 2)]) == []

    def test_two_cycle(self):
        cyc = find_cycle([0, 1], [(0, 1), (1, 0)])
        assert len(cyc) >= 2 and cyc[0] == cyc[-1] or set(cyc) == {0, 1}

    def test_self_loop_found(self):
        cyc = find_cycle([0], [(0, 0)])
        assert 0 in cyc


class TestValidateDag:
    def _dag(self, nodes, edges, heads, leaves, prov=None, depth=None):
        edges = frozenset(edges)
        return AttackDag(
            nodes=frozenset(nodes),
            edges=edges,
            edge_provenance=prov if prov is not None else {e: frozenset({"a"}) for e in edges},
            heads=frozenset(heads),
            leaves=frozenset(leaves),
            mean_depth=depth if depth is not None else {n: 0.0 for n in nodes},
        )

    def test_valid(self):
        dag = self._dag([0, 1], [(0, 1)], [0], [1])
        assert validate_dag(dag) == []

    def test_self_loop_reported(self):
        dag = self._dag([0], [(0, 0)], [0], [0])
        assert any("self-loop" in v for v in validate_dag(dag))

    def test_unknown_endpoint_reported(self):
        dag = self._dag([1, 2], [(1, 3)], [1, 2], [2])
        assert validate_dag(dag) == ["edge (1, 3) references unknown node"]

    def test_stale_heads_reported(self):
        dag = self._dag([0, 1], [(0, 1)], [1], [1])
        assert any("stale head" in v for v in validate_dag(dag))

    def test_empty_provenance_reported(self):
        dag = self._dag([0, 1], [(0, 1)], [0], [1], prov={(0, 1): frozenset()})
        assert any("empty provenance" in v for v in validate_dag(dag))

    def test_missing_provenance_reported(self):
        dag = self._dag([0, 1], [(0, 1)], [0], [1], prov={})
        assert any("missing provenance" in v for v in validate_dag(dag))


class TestNodeAttributes:
    """A node's attribute row, as the in-memory constructor and the CSV reader check it."""

    def test_vector_order(self):
        row = (0, 0, 1, 0, 0, 0, 1, 0, 1, 1.0)
        text = f"{','.join(ATTRS_CSV_HEADER)}\n4,{','.join(map(str, row))},published\n"
        for table in (AttributeTable.from_rows({4: row}), AttributeTable.from_csv(text)):
            assert table.values.shape == (1, len(ATTRIBUTE_NAMES))
            assert table.row(4).tolist() == list(row)

    @staticmethod
    def assert_rejected(row, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AttributeTable.from_rows({5: row})
        text = f"{','.join(ATTRS_CSV_HEADER)}\n5,{','.join(map(str, row))},reconstructed\n"
        with pytest.raises(ValueError, match=f"^attrs.csv:2: {message}$"):
            AttributeTable.from_csv(text, source="attrs.csv")

    def test_rejects_non_binary_flag(self):
        self.assert_rejected((2, 0, 0, 0, 0, 0, 0, 0, 0, 0.0),
                             "attribute memory must be 0 or 1, got 2")

    def test_rejects_negative_depth(self):
        self.assert_rejected((0, 0, 0, 0, 0, 0, 0, 0, 0, -1.0),
                             r"mean_depth must be finite and >= 0, got -1\.0")

    def test_rejects_nan_depth(self):
        self.assert_rejected((0, 0, 0, 0, 0, 0, 0, 0, 0, math.nan),
                             "mean_depth must be finite and >= 0, got nan")


class TestMetrics:
    def test_zero_denominator_is_none_not_zero(self):
        m = Metrics.from_counts(tp=0, fp=0, tn=5, fn=0)
        assert m.precision is None
        assert m.recall is None
        assert m.f1 is None
        assert m.accuracy == 1.0

    def test_fpr_none_without_negatives(self):
        m = Metrics.from_counts(tp=3, fp=0, tn=0, fn=1)
        assert m.fpr is None

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidCounts):
            Metrics.from_counts(0, 0, 0, 0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidCounts):
            Metrics.from_counts(-1, 0, 1, 0)

    def test_plain_case(self):
        m = Metrics.from_counts(tp=2, fp=1, tn=6, fn=1)
        assert m.accuracy == 0.8
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.fpr == pytest.approx(1 / 7)

    def test_format_ratio(self):
        assert format_ratio(None) == "undefined"
        assert format_ratio(0.0) == "0.0"
        assert format_ratio(0.974026) == "0.974"
        assert format_ratio(1.0) == "1"


class TestCorpusStatsType:
    def test_ratio_may_be_none(self):
        stats = CorpusStats(
            mean_hd_feasible=1.0,
            mean_hd_infeasible=2.0,
            ht_diff_feasible=(0.0, 0.5, 1.0),
            ht_diff_infeasible=(-1.0, 0.0, 1.0),
            headleaf_infeasible_ratio=None,
        )
        assert stats.headleaf_infeasible_ratio is None
