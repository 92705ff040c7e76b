import itertools
import random
import tracemalloc

import pytest

from attackdag.expr import parse_expression
from attackdag.graph import (
    CycleIntroduced,
    MissingProvenance,
    PathExplosion,
    UnknownNode,
    build_dag,
    cdfg_from_expression,
    discover_unexploited,
    enumerate_attack_paths,
    known_attack_paths,
    merge_cdfgs,
    project_subgraph,
)
from attackdag.model import normalize_description, validate_dag
from attackdag.storage import load_corpus


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


def diamond_chain(n):
    """n diamonds in a row: 3n + 1 nodes and 2^n head-to-leaf paths."""
    edges = set()
    for i in range(n):
        top, left, right, join = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges.update({(top, left), (top, right), (left, join), (right, join)})
    return build_dag(set(range(3 * n + 1)), edges, {e: {"a"} for e in edges})


def cdfg_paths(cdfg):
    """Head-to-leaf paths of one compiled CDFG."""
    return enumerate_attack_paths(merge_cdfgs([("a", cdfg)]))


def local_cdfg(src):
    """The CDFG of one expression, its ids numbered by first appearance in it alone."""
    seen = {}
    return cdfg_from_expression(parse_expression(src),
                                lambda raw: seen.setdefault(normalize_description(raw), len(seen)))


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
        cdfg = local_cdfg("bb_i(a)*.bb_j(b).bb_k(c)")
        assert cdfg.edges == frozenset({(0, 1), (1, 2)})
        assert cdfg_paths(cdfg) == [(0, 1, 2)]

    def test_star_adds_no_edges(self):
        cdfg = local_cdfg("(bb_i(a).bb_j(b))*")
        assert cdfg.edges == frozenset({(0, 1)})

    def test_union_disjoint(self):
        cdfg = local_cdfg("bb_i(a)+bb_j(b)")
        assert cdfg.edges == frozenset()
        assert cdfg_paths(cdfg) == [(0,), (1,)]

    def test_union_arm_feeding_another_arm_is_no_head(self):
        # b enters the second arm but the first arm's exit feeds it
        cdfg = local_cdfg("bb_i(a).bb_j(b)+bb_k(b).bb_l(c)")
        assert cdfg_paths(cdfg) == [(0, 1, 2)]

    def test_concat_of_unions_is_cross_product(self):
        cdfg = local_cdfg("(bb_i(a)+bb_j(b)).(bb_k(c)+bb_l(d))")
        assert cdfg.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_duplicate_description_is_one_node(self):
        cdfg = local_cdfg("bb_i(a)+bb_j(A)")
        assert cdfg.nodes == frozenset({0})
        assert cdfg.edges == frozenset()

    def test_duplicate_description_cycle_rejected(self):
        with pytest.raises(CycleIntroduced):
            local_cdfg("bb_i(a).bb_j(b).bb_k(a)")

    def test_self_loop_silently_dropped(self):
        cdfg = local_cdfg("bb_i(a).bb_j(a)")
        assert cdfg.edges == frozenset()
        assert cdfg.nodes == frozenset({0})

    def test_normalization_merges_case_and_spacing(self):
        cdfg = local_cdfg("bb_i(Weak  Password).bb_j(other)")
        assert len(cdfg.nodes) == 2
        one = local_cdfg("bb_i(weak password).bb_j(WEAK PASSWORD)")
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

    def test_build_rejects_edge_to_unknown_node(self):
        with pytest.raises(UnknownNode) as exc:
            build_dag({0, 1}, {(0, 1), (1, 7)}, {(0, 1): {"a"}, (1, 7): {"a"}})
        assert str(exc.value) == "edge (1, 7) references unknown node"

    def test_build_rejects_edge_without_provenance(self):
        with pytest.raises(MissingProvenance) as exc:
            build_dag({0, 1, 2}, {(0, 1), (1, 2)}, {(0, 1): {"a"}})
        assert str(exc.value) == "edges without provenance: [(1, 2)]"

    def test_merge_unions_provenance(self):
        a = local_cdfg("bb_i(x).bb_j(y)")
        b = local_cdfg("bb_i(x).bb_j(y)")
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


class TestPathEnumeration:
    def test_matches_oracle_on_200_random_dags(self):
        rng = random.Random(20260819)
        for _ in range(200):
            nodes, edges = random_dag(rng, 12)
            dag = build_dag(nodes, edges, {e: {"a"} for e in edges})
            got = enumerate_attack_paths(dag)
            assert got == oracle_paths(nodes, edges)

    def test_lexicographic_order(self):
        edges = {(0, 2), (1, 2), (2, 3), (2, 4)}
        dag = build_dag(set(range(5)), edges, {e: {"a"} for e in edges})
        got = enumerate_attack_paths(dag)
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

    def test_path_explosion_is_raised_before_any_path_is_built(self):
        dag = diamond_chain(40)  # 2^40 paths
        tracemalloc.start()
        try:
            with pytest.raises(PathExplosion):
                enumerate_attack_paths(dag, cap=10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_long_chain_is_one_path(self):
        # deeper than the interpreter's recursion limit
        edges = {(i, i + 1) for i in range(2999)}
        dag = build_dag(set(range(3000)), edges, {e: {"a"} for e in edges})
        assert enumerate_attack_paths(dag) == [tuple(range(3000))]

    def test_known_plus_unexploited_partition(self, corpus, dag):
        total = enumerate_attack_paths(dag)
        known = known_attack_paths(dag, total)
        novel = discover_unexploited(total, known)
        known_set = set(known)
        assert len(known_set) + len(novel) == len(total)
        assert novel == [p for p in total if p not in known_set]  # in enumeration order

    def test_known_paths_match_cdfg_paths_that_are_dag_paths(self, data_dir):
        # the definition: a complete path of one attack's CDFG that is also
        # a head-to-leaf path of the merged dag
        cases = [load_corpus(data_dir / name).cdfgs
                 for name in ("corpus.json", "aggregation_demo.json")]
        rng = random.Random(5)
        for _ in range(1000):
            named = []
            for i in range(rng.randint(2, 4)):
                nodes, edges = random_dag(rng, 8)
                named.append((f"a{i}", build_dag(nodes, edges, {e: {"a"} for e in edges})))
            cases.append(named)
        for named in cases:
            dag = merge_cdfgs(named)
            covered = set().union(*(oracle_paths(g.nodes, g.edges) for _, g in named))
            want = sorted(covered & set(oracle_paths(dag.nodes, dag.edges)))
            assert known_attack_paths(dag, enumerate_attack_paths(dag)) == want


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
