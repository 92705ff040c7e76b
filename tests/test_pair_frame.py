"""Array-based candidates, negatives, labeled frames and corpus statistics, against
per-pair loops."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from attackdag.features import (
    AttributeTable,
    SelfBranch,
    branch_features,
    enumerate_candidates,
    hamming,
    height_diff,
    labeled_frame,
)
from attackdag.graph import UnknownNode, build_dag
from attackdag.model import ATTRIBUTE_NAMES, BasicBlock, VulnerabilityCategory
from attackdag.negatives import (
    ExceptionList,
    InsufficientData,
    NegativeFilterThresholds,
    categories_independent,
    corpus_stats,
    generate_negative_candidates,
)

DEPTHS = (0.0, 0.5, 1.0, 1.91, 2.0, 3.0, 4.5)
HEAD, LEAF = ATTRIBUTE_NAMES.index("head"), ATTRIBUTE_NAMES.index("leaf")


@st.composite
def worlds(draw):
    """A small dag over sparse ids, a table that need not match it, blocks."""
    ids = draw(st.lists(st.integers(0, 40), min_size=0, max_size=8, unique=True))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]  # acyclic by order
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    dag = build_dag(ids, edges, {e: {"a"} for e in edges})
    rows = {
        n: (*draw(st.lists(st.integers(0, 1), min_size=9, max_size=9)),
            draw(st.sampled_from(DEPTHS)))
        for n in ids
    }
    table = AttributeTable.from_rows(rows)
    blocks = {
        n: BasicBlock(n, f"b{n}", f"b{n}", draw(st.sampled_from(list(VulnerabilityCategory))),
                      socially_delivered=draw(st.booleans()))
        for n in ids
    }
    return dag, table, blocks


def ordered_pairs(dag):
    nodes = sorted(dag.nodes)
    return [(u, v) for u in nodes for v in nodes if u != v]


def reference_negatives(dag, table, blocks, exceptions, th):
    out = []
    for u, v in ordered_pairs(dag):
        if (u, v) in dag.edges or (u, v) in exceptions:
            continue
        bu, bv = blocks[u], blocks[v]
        ht = height_diff(u, v, table)
        if (
            categories_independent(bu.category, bv.category,
                                   bu.socially_delivered, bv.socially_delivered)
            or (th.ht_diff_below is not None and ht < th.ht_diff_below)
            or (th.ht_diff_above is not None and ht > th.ht_diff_above)
            or (th.min_hamming is not None and hamming(u, v, table) >= th.min_hamming)
            or (th.head_to_leaf and u in dag.heads and v in dag.leaves)
            or (th.leaf_to_leaf and u in dag.leaves and v in dag.leaves)
        ):
            out.append((u, v))
    return out


def assert_frame_is(frame, expected, table):
    """frame holds the ordered pairs expected, with branch_features' rows."""
    assert len(frame) == len(expected)
    assert frame.origins.tolist() == [u for u, _ in expected]
    assert frame.dests.tolist() == [v for _, v in expected]
    assert [tuple(row) for row in frame.features.tolist()] == [
        branch_features(u, v, table) for u, v in expected]


@settings(max_examples=150, deadline=None)
@given(world=worlds(), data=st.data())
def test_negatives_match_per_pair_loop(world, data):
    dag, table, blocks = world
    pairs = ordered_pairs(dag)
    # Each filter is off (None/False) about half the time, and thresholds are
    # drawn from the height differences and hamming distances that occur, so
    # pairs sitting exactly on a threshold are common.
    hts = sorted({height_diff(u, v, table) for u, v in pairs}) or [0.0]
    hds = sorted({hamming(u, v, table) for u, v in pairs}) or [0]
    th = NegativeFilterThresholds(
        ht_diff_below=data.draw(st.none() | st.sampled_from(hts)),
        ht_diff_above=data.draw(st.none() | st.sampled_from(hts)),
        min_hamming=data.draw(st.none() | st.sampled_from(hds)),
        head_to_leaf=data.draw(st.booleans()),
        leaf_to_leaf=data.draw(st.booleans()),
    )
    # Exceptions may name pairs outside the dag; those change nothing.
    foreign = st.tuples(st.integers(0, 50), st.integers(0, 50))
    listed = data.draw(st.lists(st.sampled_from(pairs) | foreign if pairs else foreign))
    exceptions = ExceptionList(notes={p: "x" for p in listed})
    got = generate_negative_candidates(dag, table, blocks, exceptions, th)
    assert got.labels.tolist() == [-1] * len(got)
    assert_frame_is(got, reference_negatives(dag, table, blocks, exceptions, th), table)


@settings(max_examples=100, deadline=None)
@given(world=worlds(), data=st.data())
def test_candidates_match_per_pair_loop(world, data):
    dag, table, _ = world
    pairs = ordered_pairs(dag)
    training = set(data.draw(st.lists(st.sampled_from(pairs))) if pairs else [])
    got = enumerate_candidates(dag, table, training)
    assert got.labels is None
    assert_frame_is(got, [p for p in pairs if p not in training], table)


@settings(max_examples=100, deadline=None)
@given(world=worlds(), data=st.data())
def test_labeled_frame_matches_branch_features(world, data):
    _, table, _ = world
    # Rows may be self pairs or name a node without an attribute row.
    node = st.integers(0, 50)
    if len(table.ids):
        node |= st.sampled_from(table.ids.tolist())
    rows = data.draw(st.lists(st.tuples(node, node, st.sampled_from([1, -1]))))
    try:
        for u, v, _ in rows:
            branch_features(u, v, table)
    except (SelfBranch, UnknownNode) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            labeled_frame(rows, table)
        return
    got = labeled_frame(rows, table)
    rows = sorted(rows, key=lambda row: row[:2])
    assert got.labels.tolist() == [label for _, _, label in rows]
    assert_frame_is(got, [(u, v) for u, v, _ in rows], table)


def test_labeled_frame_sorts_rows_by_origin_then_dest():
    # Ids sort as numbers, and each label moves with its pair.
    table = AttributeTable.from_rows({n: (0,) * 9 + (float(n),) for n in (3, 7, 12)})
    frame = labeled_frame([(12, 3, -1), (7, 12, 1), (3, 12, -1), (7, 3, 1), (3, 7, 1)], table)
    assert list(zip(frame.origins.tolist(), frame.dests.tolist(), frame.labels.tolist())) == [
        (3, 7, 1), (3, 12, -1), (7, 3, 1), (7, 12, 1), (12, 3, -1)]


def test_labeled_frame_raises_for_the_first_listed_bad_row():
    # The self pair (0, 0) sorts first; the row listed first decides the error.
    table = AttributeTable.from_rows({n: (0,) * 9 + (1.0,) for n in (0, 1)})
    with pytest.raises(UnknownNode):
        labeled_frame([(1, 0, 1), (9, 1, 1), (0, 0, -1)], table)
    with pytest.raises(SelfBranch):
        labeled_frame([(1, 0, 1), (0, 0, -1), (9, 1, 1)], table)


@settings(max_examples=100, deadline=None)
@given(world=worlds(), data=st.data())
def test_corpus_stats_match_per_pair_loop(world, data):
    dag, table, _ = world
    pairs = ordered_pairs(dag)
    labeled = data.draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from([1, -1])))
                        if pairs else st.just([]))
    frame = labeled_frame([(u, v, label) for (u, v), label in labeled], table)
    labeled.sort(key=lambda row: row[0])  # the frame's order, so the sums below match it
    by_label = {1: [], -1: []}
    for (u, v), label in labeled:
        o, d = table.row(u), table.row(v)
        by_label[label].append((hamming(u, v, table), height_diff(u, v, table),
                                bool((o[HEAD] and d[LEAF]) or (o[LEAF] and d[LEAF]))))
    if not by_label[1] or not by_label[-1]:
        with pytest.raises(InsufficientData):
            corpus_stats(frame)
        return
    stats = corpus_stats(frame)
    for label, mean_hd, spread in ((1, stats.mean_hd_feasible, stats.ht_diff_feasible),
                                   (-1, stats.mean_hd_infeasible, stats.ht_diff_infeasible)):
        hds, hts, _ = zip(*by_label[label])
        assert mean_hd == sum(hds) / len(hds)
        assert spread == (min(hts), sum(hts) / len(hts), max(hts))
    feas_hl = sum(t for _, _, t in by_label[1])
    infeas_hl = sum(t for _, _, t in by_label[-1])
    assert stats.headleaf_infeasible_ratio == (infeas_hl / feas_hl if feas_hl else None)
