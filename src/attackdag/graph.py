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
    Block,
    Cdfg,
    Concat,
    Star,
    find_cycle,
)


class CycleIntroduced(ValueError):
    def __init__(self, cycle: Sequence[int]):
        super().__init__("cycle: " + " -> ".join(str(n) for n in cycle))


# The most head-to-leaf paths a dag may have before enumerating them raises PathExplosion.
PATH_CAP = 1_000_000


class PathExplosion(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"more than {cap} head-to-leaf paths")


class UnknownNode(KeyError):
    # KeyError's str() is the repr of its argument; print the message as given.
    __str__ = Exception.__str__


class MissingProvenance(ValueError):
    """An edge given to ``build_dag`` without a provenance entry."""


def cdfg_from_expression(expr: AttackExpr, id_for: Callable[[str], int]) -> Cdfg:
    """Compile one expression to its control/data-flow graph.

    id_for maps a raw description to a node id; a corpus-wide interner
    makes ids line up across attacks.

    Construction rules: a block is a single node; concatenation draws an
    edge from every exit of the left part to every entry of the right part;
    union is disjoint alternatives; star contributes no edges at all (no
    self-loop, no bypass).
    """
    # Post-order over an explicit stack, so an expression's depth is not
    # bounded by the recursion limit.  Each finished part leaves its
    # (entries, exits) on `done`; nodes and edges accumulate globally.
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    done: list[tuple[set[int], set[int]]] = []
    stack: list[tuple[AttackExpr, bool]] = [(expr, False)]
    while stack:
        node, visited = stack.pop()
        if isinstance(node, Block):
            nid = id_for(node.description)
            nodes.add(nid)
            done.append(({nid}, {nid}))
        elif isinstance(node, Star):
            stack.append((node.inner, False))
        elif not visited:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
        else:
            rentry, rexit = done.pop()
            lentry, lexit = done.pop()
            if isinstance(node, Concat):
                edges.update((u, v) for u in lexit for v in rentry if u != v)
                done.append((lentry, rexit))
            else:
                done.append((lentry | rentry, lexit | rexit))
    _topological(nodes, edges)  # raises CycleIntroduced on a cycle
    return Cdfg(nodes=frozenset(nodes), edges=frozenset(edges))


def _topological(
    nodes: Iterable[int], edges: Iterable[tuple[int, int]]
) -> tuple[dict[int, list[int]], list[int]]:
    """Sorted successor lists and a Kahn order, which opens with the heads in id order;
    CycleIntroduced names a cycle when the sweep cannot order every node."""
    succ: dict[int, list[int]] = {n: [] for n in nodes}
    indeg = dict.fromkeys(succ, 0)
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    for targets in succ.values():
        targets.sort()
    order = sorted(n for n, d in indeg.items() if d == 0)
    for u in order:  # the list grows while it is read, as a FIFO queue
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) != len(succ):
        raise CycleIntroduced(find_cycle(succ, [(u, v) for u in succ for v in succ[u]]))
    return succ, order


def _head_paths(
    succ: Mapping[int, list[int]], order: Sequence[int]
) -> tuple[dict[int, int], dict[int, float]]:
    """Per node, the number of distinct head-to-node paths and their mean length.

    In a DAG every such path decomposes uniquely over a node's
    predecessors, so the count and the summed length accumulate in
    topological order.  Both are integers, so the mean is the same float in
    any visit order.  Heads sit at depth 0.
    """
    count = dict.fromkeys(order, 0)
    total = dict.fromkeys(order, 0)
    for u in order:
        if not count[u]:  # no path reaches u from before it: u is a head
            count[u] = 1
        for v in succ[u]:
            count[v] += count[u]
            total[v] += total[u] + count[u]
    return count, {n: total[n] / count[n] for n in succ}


def build_dag(
    nodes: Iterable[int],
    edges: Iterable[tuple[int, int]],
    provenance: Mapping[tuple[int, int], Iterable[str]],
) -> AttackDag:
    """Assemble an AttackDag, recomputing heads/leaves/depths.

    A self-loop or cycle raises CycleIntroduced, an edge to a node not in
    ``nodes`` UnknownNode, and an edge ``provenance`` lacks MissingProvenance.
    """
    nodes = frozenset(nodes)
    edges = frozenset(edges)
    for u, v in edges:
        if u == v:
            raise CycleIntroduced([u, u])
        if u not in nodes or v not in nodes:
            raise UnknownNode(f"edge {(u, v)} references unknown node")
    succ, order = _topological(nodes, edges)
    missing = edges - set(provenance)
    if missing:
        raise MissingProvenance(f"edges without provenance: {sorted(missing)}")
    return AttackDag(
        nodes=nodes,
        edges=edges,
        edge_provenance={e: frozenset(provenance[e]) for e in edges},
        heads=nodes - {v for _, v in edges},
        leaves=nodes - {u for u, _ in edges},
        mean_depth=_head_paths(succ, order)[1],
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


def enumerate_attack_paths(dag: AttackDag, cap: int = PATH_CAP) -> list[tuple[int, ...]]:
    """Every head-to-leaf path, each exactly once, in lexicographic order;
    PathExplosion before any is built."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap!r}")
    succ, order = _topological(dag.nodes, dag.edges)
    count, depth = _head_paths(succ, order)
    if sum(count[n] for n in order if not succ[n]) > cap:
        raise PathExplosion(cap)
    out: list[tuple[int, ...]] = []
    # Depth-first with an explicit stack, so a path's length is not bounded
    # by the recursion limit: pending[0] holds the heads and pending[i] the
    # successors of path[i - 1] not yet visited.  Both ascend, so the paths
    # come out in lexicographic order.
    path: list[int] = []
    pending = [iter([n for n in order if not depth[n]])]  # the heads, in id order
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
            out.append((*path, node))
    return out


def known_attack_paths(
    dag: AttackDag, paths: Iterable[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The given head-to-leaf ``paths`` of ``dag`` that some single documented
    attack covers end to end, in their given order.

    A merged-graph path only counts as known when it is a complete
    head-to-leaf path of one attack's own CDFG; paths that splice steps
    from different attacks are exactly the novel vectors the merge exposes.
    The dag's edge provenance decides that without enumerating any attack:
    attack A is in the provenance of an edge exactly when the edge is in A's
    CDFG, and a dag head (leaf) has no in-edge (out-edge) in any attack.  So
    a path of two or more nodes is a complete path of A's CDFG exactly when
    A is in the provenance of every one of its edges.  A lone node is an
    isolated dag node, isolated too in the attack it came from, so it is
    always known.
    """
    prov = dag.edge_provenance
    return [p for p in paths
            if len(p) == 1 or frozenset.intersection(*(prov[e] for e in zip(p, p[1:])))]


def discover_unexploited(
    paths: Sequence[tuple[int, ...]], known: Iterable[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The enumerated dag paths not in the known set, in their given order."""
    known = set(known)
    return [p for p in paths if p not in known]


def project_subgraph(dag: AttackDag, keep: Iterable[int]) -> AttackDag:
    """Induced subgraph on `keep`, with structure recomputed from scratch."""
    keep = frozenset(keep)
    missing = keep - dag.nodes
    if missing:
        raise UnknownNode(f"keep list references unknown nodes: {sorted(missing)}")
    edges = {e for e in dag.edges if e[0] in keep and e[1] in keep}
    provenance = {e: dag.edge_provenance[e] for e in edges}
    return build_dag(keep, edges, provenance)
