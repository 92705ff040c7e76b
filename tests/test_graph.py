import itertools
import random

import pytest

from attackdag.expr import parse_expression
from attackdag.graph import (
    CycleIntroduced,
    PathExplosion,
    UnknownPath,
    build_dag,
    cdfg_from_expression,
    compute_mean_depths,
    discover_unexploited,
    enumerate_attack_paths,
    known_attack_paths,
    merge_cdfgs,
    project_subgraph,
)
from attackdag.model import validate_dag


def oracle_paths(nodes, edges):
    """Reference enumeration: plain recursive DFS over sorted successors."""
    succ = {n: sorted(v for u, v in edges if u == n) for n in nodes}
    indeg = {n: 0 for n in nodes}
    for _, v in edges:
        indeg[v] += 1
    heads = sorted(n for n in nodes if indeg[n] == 0)
    out = []

    def walk(node, trail):
        if not succ[node]:
            out.append(tuple(trail))
            return
        for nxt in succ[node]:
            walk(nxt, trail + [nxt])

    for h in heads:
        walk(h, [h])
    return sorted(out)


def random_dag(rng, max_nodes=12):
    n = rng.randint(1, max_nodes)
    nodes = list(range(n))
    edges = set()
    for u, v in itertools.combinations(nodes, 2):
        if rng.random() < 0.25:
            edges.add((u, v))  # u < v keeps it acyclic
    return set(nodes), edges


class TestCdfgFromExpression:
    def test_chain(self):
        cdfg = cdfg_from_expression(parse_expression("bb_i(a)*.bb_j(b).bb_k(c)"))
        assert cdfg.edges == frozenset({(0, 1), (1, 2)})
        assert cdfg.heads == frozenset({0})
        assert cdfg.leaves == frozenset({2})

    def test_star_adds_no_edges(self):
        cdfg = cdfg_from_expression(parse_expression("(bb_i(a).bb_j(b))*"))
        assert cdfg.edges == frozenset({(0, 1)})

    def test_union_disjoint(self):
        cdfg = cdfg_from_expression(parse_expression("bb_i(a)+bb_j(b)"))
        assert cdfg.edges == frozenset()
        assert cdfg.heads == cdfg.leaves == frozenset({0, 1})

    def test_concat_of_unions_is_cross_product(self):
        cdfg = cdfg_from_expression(
            parse_expression("(bb_i(a)+bb_j(b)).(bb_k(c)+bb_l(d))")
        )
        assert cdfg.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_duplicate_description_is_one_node(self):
        cdfg = cdfg_from_expression(parse_expression("bb_i(a)+bb_j(A)"))
        assert cdfg.nodes == frozenset({0})
        assert cdfg.edges == frozenset()

    def test_duplicate_description_cycle_rejected(self):
        with pytest.raises(CycleIntroduced):
            cdfg_from_expression(parse_expression("bb_i(a).bb_j(b).bb_k(a)"))

    def test_self_loop_silently_dropped(self):
        cdfg = cdfg_from_expression(parse_expression("bb_i(a).bb_j(a)"))
        assert cdfg.edges == frozenset()
        assert cdfg.nodes == frozenset({0})

    def test_normalization_merges_case_and_spacing(self):
        cdfg = cdfg_from_expression(parse_expression("bb_i(Weak  Password).bb_j(other)"))
        assert len(cdfg.nodes) == 2
        one = cdfg_from_expression(parse_expression("bb_i(weak password).bb_j(WEAK PASSWORD)"))
        assert len(one.nodes) == 1


class TestMeanDepth:
    def test_head_is_zero(self):
        dag = build_dag({0, 1}, {(0, 1)}, {(0, 1): {"a"}})
        assert dag.mean_depth[0] == 0.0
        assert dag.mean_depth[1] == 1.0

    def test_diamond_with_shortcut(self):
        edges = {(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)}
        dag = build_dag({0, 1, 2, 3}, edges, {e: {"a"} for e in edges})
        # paths to 3: direct (1 edge), via 1 (2), via 2 (2) -> mean 5/3
        assert dag.mean_depth[3] == pytest.approx(5 / 3)

    def test_isolated_node_is_head_at_depth_zero(self):
        dag = build_dag({0, 1, 2}, {(0, 1)}, {(0, 1): {"a"}})
        assert dag.mean_depth[2] == 0.0
        assert 2 in dag.heads and 2 in dag.leaves

    def test_matches_bruteforce_on_random_dags(self):
        rng = random.Random(99)
        for _ in range(50):
            nodes, edges = random_dag(rng, 10)
            dag = build_dag(nodes, edges, {e: {"a"} for e in edges})
            # brute force: enumerate all head-to-node paths per node
            succ = {n: sorted(v for u, v in edges if u == n) for n in nodes}
            indeg = {n: 0 for n in nodes}
            for _, v in edges:
                indeg[v] += 1
            lengths = {n: [] for n in nodes}

            def walk(node, depth):
                lengths[node].append(depth)
                for nxt in succ[node]:
                    walk(nxt, depth + 1)

            for h in (n for n in nodes if indeg[n] == 0):
                walk(h, 0)
            for n in nodes:
                want = sum(lengths[n]) / len(lengths[n])
                assert dag.mean_depth[n] == pytest.approx(want), (n, edges)


class TestBuildAndMerge:
    def test_build_rejects_cycle(self):
        with pytest.raises(CycleIntroduced):
            build_dag({0, 1}, {(0, 1), (1, 0)}, {(0, 1): {"a"}, (1, 0): {"a"}})

    def test_merge_unions_provenance(self):
        a = cdfg_from_expression(parse_expression("bb_i(x).bb_j(y)"))
        b = cdfg_from_expression(parse_expression("bb_i(x).bb_j(y)"))
        dag = merge_cdfgs([("first", a), ("second", b)])
        assert dag.edge_provenance[(0, 1)] == frozenset({"first", "second"})

    def test_merge_rejects_cross_attack_cycle(self):
        interner = {}

        def id_for(raw):
            return interner.setdefault(raw.casefold(), len(interner))

        a = cdfg_from_expression(parse_expression("bb_i(x).bb_j(y)"), id_for)
        b = cdfg_from_expression(parse_expression("bb_i(y).bb_j(x)"), id_for)
        with pytest.raises(CycleIntroduced):
            merge_cdfgs([("fwd", a), ("back", b)])

    def test_merged_dag_validates(self, dag):
        assert validate_dag(dag) == []

    def test_compute_mean_depths_matches_stored(self, dag):
        assert compute_mean_depths(dag) == dict(dag.mean_depth)


class TestPathEnumeration:
    def test_matches_oracle_on_200_random_dags(self):
        rng = random.Random(20260819)
        for _ in range(200):
            nodes, edges = random_dag(rng, 12)
            dag = build_dag(nodes, edges, {e: {"a"} for e in edges})
            got = [p.nodes for p in enumerate_attack_paths(dag)]
            assert got == oracle_paths(nodes, edges)

    def test_lexicographic_order(self):
        edges = {(0, 2), (1, 2), (2, 3), (2, 4)}
        dag = build_dag(set(range(5)), edges, {e: {"a"} for e in edges})
        got = [p.nodes for p in enumerate_attack_paths(dag)]
        assert got == [(0, 2, 3), (0, 2, 4), (1, 2, 3), (1, 2, 4)]

    def test_cap_raises_path_explosion(self):
        # layered graph: 2^10 paths through 10 binary layers
        nodes = set(range(21))
        edges = set()
        for layer in range(10):
            a, b, c = 2 * layer, 2 * layer + 1, 2 * layer + 2
            edges.update({(a, b), (a, c) if layer == 9 else (b, a + 2), (b, a + 2)})
        # simpler: chain of diamonds
        nodes, edges = set(), set()
        prev = 0
        nodes.add(0)
        nxt = 1
        for _ in range(12):
            left, right, join = nxt, nxt + 1, nxt + 2
            nodes.update({left, right, join})
            edges.update({(prev, left), (prev, right), (left, join), (right, join)})
            prev = join
            nxt += 3
        dag = build_dag(nodes, edges, {e: {"a"} for e in edges})
        with pytest.raises(PathExplosion):
            enumerate_attack_paths(dag, cap=1000)
        # 2^12 paths: a cap of exactly that many still enumerates them all
        assert len(enumerate_attack_paths(dag, cap=4096)) == 4096
        with pytest.raises(PathExplosion):
            enumerate_attack_paths(dag, cap=4095)

    def test_long_chain_is_one_path(self):
        # deeper than the interpreter's recursion limit
        edges = {(i, i + 1) for i in range(2999)}
        dag = build_dag(set(range(3000)), edges, {e: {"a"} for e in edges})
        assert [p.nodes for p in enumerate_attack_paths(dag)] == [tuple(range(3000))]

    def test_known_plus_unexploited_partition(self, corpus, dag):
        total = enumerate_attack_paths(dag)
        known = known_attack_paths(dag, corpus.record_cdfgs())
        novel = discover_unexploited(dag, known)
        assert len(known) + len(novel) == len(total)
        assert {p.nodes for p in known}.isdisjoint({p.nodes for p in novel})
        assert all(p.provenance == "unexploited" for p in novel)

    def test_discover_rejects_stray_path(self, dag):
        from attackdag.model import AttackPath

        with pytest.raises(UnknownPath):
            discover_unexploited(dag, [AttackPath(nodes=(999, 1000))])


class TestProjection:
    def test_projection_recomputes_structure(self, dag):
        keep = set(sorted(dag.nodes)[:20])
        sub = project_subgraph(dag, keep)
        assert sub.nodes == frozenset(keep)
        assert all(u in keep and v in keep for u, v in sub.edges)
        assert validate_dag(sub) == []

    def test_projection_drops_cross_edges(self):
        edges = {(0, 1), (1, 2)}
        dag = build_dag({0, 1, 2}, edges, {e: {"a"} for e in edges})
        sub = project_subgraph(dag, {0, 2})
        assert sub.edges == frozenset()
        assert sub.heads == frozenset({0, 2})
