"""Graph operations: expression -> CDFG -> merged attack dag -> paths.

Node identity is the normalized block description throughout; two blocks
whose descriptions normalize equally are the same node, within one
expression and across attacks.  Self-loops are dropped at construction
(repeating a step adds no structure) and any other cycle is rejected:
the aggregate graph must stay a DAG for depths and path enumeration to
mean anything.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .model import (
    AttackDag,
    AttackExpr,
    AttackPath,
    Block,
    Cdfg,
    Concat,
    Star,
    UnionExpr,
    _degrees,
    find_cycle,
    normalize_description,
)


class CycleIntroduced(ValueError):
    def __init__(self, cycle: Sequence[int]):
        super().__init__("cycle: " + " -> ".join(str(n) for n in cycle))
        self.cycle = tuple(cycle)
        self.edge = (self.cycle[-2], self.cycle[-1]) if len(self.cycle) >= 2 else None


class PathExplosion(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"more than {cap} head-to-leaf paths")
        self.cap = cap


class UnknownPath(ValueError):
    pass


class UnknownNode(KeyError):
    pass


def _local_interner() -> Callable[[str], int]:
    seen: dict[str, int] = {}

    def id_for(raw: str) -> int:
        norm = normalize_description(raw)
        return seen.setdefault(norm, len(seen))

    return id_for


def cdfg_from_expression(expr: AttackExpr, id_for: Callable[[str], int] | None = None) -> Cdfg:
    """Compile one expression to its control/data-flow graph.

    id_for maps a raw description to a node id; pass a corpus-wide interner
    so ids line up across attacks, or leave None for a graph-local one.

    Construction rules: a block is a single node; concatenation draws an
    edge from every exit of the left part to every entry of the right part;
    union is disjoint alternatives; star contributes no edges at all (no
    self-loop, no bypass).
    """
    if id_for is None:
        id_for = _local_interner()

    def walk(node: AttackExpr) -> tuple[set[int], set[tuple[int, int]], set[int], set[int]]:
        if isinstance(node, Block):
            nid = id_for(node.description)
            return {nid}, set(), {nid}, {nid}
        if isinstance(node, Star):
            return walk(node.inner)
        ln, le, lentry, lexit = walk(node.left)
        rn, re_, rentry, rexit = walk(node.right)
        nodes = ln | rn
        edges = le | re_
        if isinstance(node, Concat):
            edges |= {(u, v) for u in lexit for v in rentry if u != v}
            return nodes, edges, lentry, rexit
        return nodes, edges, lentry | rentry, lexit | rexit

    nodes, edges, _, _ = walk(expr)
    cycle = find_cycle(nodes, edges)
    if cycle:
        raise CycleIntroduced(cycle)
    indeg, outdeg = _degrees(nodes, edges)
    return Cdfg(
        nodes=frozenset(nodes),
        edges=frozenset(edges),
        heads=frozenset(n for n in nodes if indeg[n] == 0),
        leaves=frozenset(n for n in nodes if outdeg[n] == 0),
    )


def _mean_depths(nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> dict[int, float]:
    """Mean length over all distinct head-to-node paths, per node.

    In a DAG every such path decomposes uniquely over a node's
    predecessors, so path count and total length accumulate in
    topological order.  Heads sit at depth 0.
    """
    nodes = set(nodes)
    succ: dict[int, list[int]] = {n: [] for n in nodes}
    indeg = {n: 0 for n in nodes}
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    order: list[int] = sorted(n for n in nodes if indeg[n] == 0)
    count = {n: (1 if indeg[n] == 0 else 0) for n in nodes}
    total = {n: 0 for n in nodes}
    pending = dict(indeg)
    queue = list(order)
    seen = 0
    while queue:
        u = queue.pop(0)
        seen += 1
        for v in succ[u]:
            count[v] += count[u]
            total[v] += total[u] + count[u]
            pending[v] -= 1
            if pending[v] == 0:
                queue.append(v)
    if seen != len(nodes):
        raise CycleIntroduced(find_cycle(nodes, edges))
    return {n: (total[n] / count[n] if count[n] else 0.0) for n in nodes}


def build_dag(
    nodes: Iterable[int],
    edges: Iterable[tuple[int, int]],
    provenance: Mapping[tuple[int, int], Iterable[str]],
) -> AttackDag:
    """Assemble an AttackDag, recomputing heads/leaves/depths."""
    nodes = frozenset(nodes)
    edges = frozenset(edges)
    for u, v in edges:
        if u == v:
            raise CycleIntroduced([u, u])
        if u not in nodes or v not in nodes:
            raise UnknownNode((u, v))
    cycle = find_cycle(nodes, edges)
    if cycle:
        raise CycleIntroduced(cycle)
    missing = edges - set(provenance)
    if missing:
        raise ValueError(f"edges without provenance: {sorted(missing)}")
    indeg, outdeg = _degrees(nodes, edges)
    return AttackDag(
        nodes=nodes,
        edges=edges,
        edge_provenance={e: frozenset(provenance[e]) for e in edges},
        heads=frozenset(n for n in nodes if indeg[n] == 0),
        leaves=frozenset(n for n in nodes if outdeg[n] == 0),
        mean_depth=_mean_depths(nodes, edges),
    )


def merge_cdfgs(named: Sequence[tuple[str, Cdfg]]) -> AttackDag:
    """Union per-attack graphs into one dag, tracking edge provenance.

    Nodes already share ids via the interner, so the union is keyed by
    normalized description.  Raises CycleIntroduced if the combination
    creates a cycle no single attack had.
    """
    nodes: set[int] = set()
    provenance: dict[tuple[int, int], set[str]] = {}
    for name, cdfg in named:
        nodes |= cdfg.nodes
        for edge in cdfg.edges:
            provenance.setdefault(edge, set()).add(name)
    return build_dag(nodes, provenance.keys(), provenance)


def compute_mean_depths(dag: AttackDag) -> dict[int, float]:
    return _mean_depths(dag.nodes, dag.edges)


def enumerate_attack_paths(dag: AttackDag, cap: int = 1_000_000) -> list[AttackPath]:
    """Every head-to-leaf path, each exactly once, in lexicographic order."""
    return [AttackPath(nodes=p) for p in _raw_paths(dag.nodes, dag.edges, cap)]


def _raw_paths(
    nodes: Iterable[int], edges: Iterable[tuple[int, int]], cap: int = 1_000_000
) -> list[tuple[int, ...]]:
    nodes = set(nodes)
    succ: dict[int, list[int]] = {n: [] for n in nodes}
    indeg = {n: 0 for n in nodes}
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    for n in succ:
        succ[n].sort()
    heads = sorted(n for n in nodes if indeg[n] == 0)
    out: list[tuple[int, ...]] = []
    # Depth-first with an explicit stack, so a path's length is not bounded
    # by the recursion limit: pending[0] holds the heads and pending[i] the
    # successors of path[i - 1] not yet visited, in ascending order.
    path: list[int] = []
    pending = [iter(heads)]
    while pending:
        node = next(pending[-1], None)
        if node is None:
            pending.pop()
            if path:
                path.pop()
        elif succ[node]:
            path.append(node)
            pending.append(iter(succ[node]))
        else:
            if len(out) >= cap:
                raise PathExplosion(cap)
            out.append((*path, node))
    out.sort()
    return out


def known_attack_paths(dag: AttackDag, named: Sequence[tuple[str, Cdfg]]) -> list[AttackPath]:
    """Dag paths that some single documented attack covers end to end.

    A merged-graph path only counts as known when it is a complete
    head-to-leaf path of one attack's own CDFG; paths that splice steps
    from different attacks are exactly the novel vectors the merge exposes.
    """
    dag_paths = {p.nodes for p in enumerate_attack_paths(dag)}
    covered: set[tuple[int, ...]] = set()
    for _, cdfg in named:
        covered.update(_raw_paths(cdfg.nodes, cdfg.edges))
    return [AttackPath(nodes=p) for p in sorted(covered & dag_paths)]


def discover_unexploited(dag: AttackDag, known: Iterable[AttackPath]) -> list[AttackPath]:
    """All dag paths not in the known set, tagged unexploited."""
    all_paths = enumerate_attack_paths(dag)
    enumerated = {p.nodes for p in all_paths}
    known_nodes = {p.nodes for p in known}
    stray = known_nodes - enumerated
    if stray:
        raise UnknownPath(f"known paths absent from the dag: {sorted(stray)[:3]}")
    return [
        AttackPath(nodes=p.nodes, provenance="unexploited")
        for p in all_paths
        if p.nodes not in known_nodes
    ]


def project_subgraph(dag: AttackDag, keep: Iterable[int]) -> AttackDag:
    """Induced subgraph on `keep`, with structure recomputed from scratch."""
    keep = frozenset(keep)
    missing = keep - dag.nodes
    if missing:
        raise UnknownNode(f"keep list references unknown nodes: {sorted(missing)}")
    edges = {e for e in dag.edges if e[0] in keep and e[1] in keep}
    provenance = {e: dag.edge_provenance[e] for e in edges}
    return build_dag(keep, edges, provenance)
