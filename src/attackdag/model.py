"""Core domain types for attack-DAG modeling.

Attacks are written in a small regular-expression DSL over *basic blocks*,
short prose descriptions of one step of a known attack.  Expressions compile
to control/data-flow graphs which merge into a single directed acyclic attack
graph.  Everything downstream (featurization, candidate branch generation,
classifier training) works on that graph plus a per-node attribute table.

All types here are plain immutable dataclasses; behaviour lives in the
operation modules (expr, graph, features, negatives, learn, csp).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union


class EmptyDescription(ValueError):
    """A block description normalized to the empty string."""


_WS = re.compile(r"\s+")


def normalize_description(text: str) -> str:
    """Casefold, collapse runs of whitespace to single spaces, trim.

    Node identity everywhere in this package is the normalized description,
    so this must stay idempotent.
    """
    norm = _WS.sub(" ", text.casefold()).strip()
    if not norm:
        raise EmptyDescription(f"description is empty after normalization: {text!r}")
    return norm


class VulnerabilityCategory(enum.Enum):
    MEMORY = "memory"
    NETWORK_PROTOCOL = "network_protocol"
    WEAK_CRYPTO_AUTH = "weak_crypto_auth"
    MALWARE = "malware"
    SOCIAL_ENGINEERING = "social_engineering"


@dataclass(frozen=True)
class BasicBlock:
    """One attack step: a stable integer id plus its prose description.

    Two blocks built from descriptions with equal normalization share an id
    (interning happens at corpus load).  Descriptions are prose only; the
    corpus never stores payloads or executable content.
    """

    id: int
    raw_text: str
    norm_text: str
    category: VulnerabilityCategory
    socially_delivered: bool


# --- attack expression AST ---------------------------------------------------
#
# Leaves carry the raw description; normalization is deferred to graph/corpus
# code so that parse/render round-trips are exact.


class FrozenNode:
    """Structural ==, hash() and repr() of a tree of frozen dataclass nodes, as
    a frozen dataclass would define them, each walking the tree with an
    explicit stack, so a tree of any depth compares, hashes and prints
    without recursion.  Only the four expression node classes use it.

    A node's fields are its ``__match_args__``; a field holding a node is
    walked, any other is compared, hashed or repr'd as it is.
    """

    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, FrozenNode):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        # The pre-order sequence of node classes and leaf values determines
        # the tree, since each class has a fixed number of fields.
        items: list = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, FrozenNode):
                items.append(item.__class__)
                stack.extend(getattr(item, name) for name in reversed(item.__match_args__))
            else:
                items.append(item)
        return hash(tuple(items))

    def __repr__(self) -> str:
        pieces: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                pieces.append(item)
                continue
            parts: list = [f"{item.__class__.__qualname__}("]
            for k, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                parts.append(f"{', ' if k else ''}{name}=")
                parts.append(value if isinstance(value, FrozenNode) else repr(value))
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(pieces)


@dataclass(frozen=True, eq=False, repr=False)
class Block(FrozenNode):
    description: str


@dataclass(frozen=True, eq=False, repr=False)
class Star(FrozenNode):
    inner: "AttackExpr"


@dataclass(frozen=True, eq=False, repr=False)
class Concat(FrozenNode):
    left: "AttackExpr"
    right: "AttackExpr"


@dataclass(frozen=True, eq=False, repr=False)
class UnionExpr(FrozenNode):
    left: "AttackExpr"
    right: "AttackExpr"


AttackExpr = Union[Block, Star, Concat, UnionExpr]


def _paren_balance_ok(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def block(description: str) -> Block:
    """Build a Block leaf; the description must be renderable.

    Parentheses inside a description must be balanced or the rendered form
    could not be re-parsed.
    """
    if not description.strip():
        raise EmptyDescription("block description is empty")
    if not _paren_balance_ok(description):
        raise ValueError(f"unbalanced parentheses in description: {description!r}")
    return Block(description)


def star(inner: AttackExpr) -> AttackExpr:
    # Star(Star(x)) == Star(x); collapse at construction.
    while isinstance(inner, Star):
        inner = inner.inner
    return Star(inner)


# --- graphs ------------------------------------------------------------------


@dataclass(frozen=True)
class Cdfg:
    """Control/data-flow graph compiled from a single attack expression.

    Nodes are block ids.  Its heads and leaves follow from the degrees, not
    from the expression's entry/exit sets (a union arm can feed another
    arm's entry once identical descriptions collapse to one node).
    """

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class AttackDag:
    """Aggregated attack graph with per-edge provenance.

    edge_provenance maps each edge to the set of attack names that
    contributed it.
    heads/leaves/mean_depth are recomputed whenever a dag is built, never
    carried over stale.
    """

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]
    edge_provenance: Mapping[tuple[int, int], frozenset[str]]
    heads: frozenset[int]
    leaves: frozenset[int]
    mean_depth: Mapping[int, float]


def find_cycle(nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> list[int]:
    """Return one cycle as a node list, or [] if the graph is acyclic."""
    succ: dict[int, list[int]] = {n: [] for n in nodes}
    for u, v in edges:
        succ[u].append(v)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in succ}
    parent: dict[int, int] = {}
    for root in sorted(succ):
        if color[root] != WHITE:
            continue
        stack: list[tuple[int, Iterable[int]]] = [(root, iter(sorted(succ[root])))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(succ[nxt]))))
                    advanced = True
                    break
                if color[nxt] == GRAY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return []


def validate_dag(dag: AttackDag) -> list[str]:
    """Structural check; returns human-readable violations (empty == valid)."""
    violations: list[str] = []
    for u, v in sorted(dag.edges):
        if u == v:
            violations.append(f"self-loop at node {u}")
        if u not in dag.nodes or v not in dag.nodes:
            violations.append(f"edge ({u}, {v}) references unknown node")
    between_nodes = [(u, v) for u, v in dag.edges if u != v and u in dag.nodes and v in dag.nodes]
    cycle = find_cycle(dag.nodes, between_nodes)
    if cycle:
        violations.append("cycle: " + " -> ".join(str(n) for n in cycle))
    true_heads = dag.nodes - {v for _, v in dag.edges}
    true_leaves = dag.nodes - {u for u, _ in dag.edges}
    if set(dag.heads) != true_heads:
        violations.append(f"stale head set: stored {sorted(dag.heads)}, actual {sorted(true_heads)}")
    if set(dag.leaves) != true_leaves:
        violations.append(f"stale leaf set: stored {sorted(dag.leaves)}, actual {sorted(true_leaves)}")
    for edge, names in sorted(dag.edge_provenance.items()):
        if not names:
            violations.append(f"edge {edge} has empty provenance")
        if edge not in dag.edges:
            violations.append(f"provenance for missing edge {edge}")
    for edge in sorted(dag.edges):
        if edge not in dag.edge_provenance:
            violations.append(f"edge {edge} missing provenance entry")
    return violations


# --- features ----------------------------------------------------------------

ATTRIBUTE_NAMES = (
    "memory",
    "data_db",
    "security_vuln",
    "port_gateway",
    "sensor",
    "malware",
    "auth_vuln",
    "head",
    "leaf",
    "mean_depth",
)

N_BINARY_ATTRIBUTES = 9  # all but mean_depth


# --- evaluation --------------------------------------------------------------


class InvalidCounts(ValueError):
    pass


@dataclass(frozen=True)
class Metrics:
    """Confusion counts plus derived ratios.

    A ratio whose denominator is zero is None ("undefined"), never 0.0:
    a model that predicted no positives has undefined precision, not
    perfect or zero precision.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: Optional[float]
    precision: Optional[float]
    recall: Optional[float]
    fpr: Optional[float]
    f1: Optional[float]

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "Metrics":
        for name, value in (("tp", tp), ("fp", fp), ("tn", tn), ("fn", fn)):
            if not isinstance(value, int) or value < 0:
                raise InvalidCounts(f"{name} must be a non-negative integer, got {value!r}")
        total = tp + fp + tn + fn
        if total == 0:
            raise InvalidCounts("all counts are zero")

        def ratio(num: int, den: int) -> Optional[float]:
            return num / den if den else None

        accuracy = (tp + tn) / total
        precision = ratio(tp, tp + fp)
        recall = ratio(tp, tp + fn)
        fpr = ratio(fp, fp + tn)
        if precision is None or recall is None or precision + recall == 0:
            f1 = None
        else:
            f1 = 2 * precision * recall / (precision + recall)
        return cls(tp=tp, fp=fp, tn=tn, fn=fn, accuracy=accuracy,
                   precision=precision, recall=recall, fpr=fpr, f1=f1)


def format_ratio(value: Optional[float]) -> str:
    """Presentation helper: 3 significant figures, explicit 'undefined'."""
    if value is None:
        return "undefined"
    if value == 0:
        return "0.0"
    return f"{value:.3g}"


@dataclass(frozen=True)
class CorpusStats:
    """Aggregate branch statistics over a labeled sample set."""

    mean_hd_feasible: float
    mean_hd_infeasible: float
    ht_diff_feasible: tuple[float, float, float]  # (min, mean, max)
    ht_diff_infeasible: tuple[float, float, float]
    headleaf_infeasible_ratio: Optional[float]
