"""Per-node attribute table and branch featurization.

Each node carries ten attributes: seven binary facet flags (memory,
data/database, generic security weakness, port/gateway, sensor, malware,
authentication weakness), binary head/leaf markers, and the node's mean
depth in the dag.  A branch's features are origin attributes followed by
destination attributes, twenty values.

Every set of branches is one BranchFrame, pairs of row positions in a
NodeMatrix: candidates over all ordered node pairs, negative candidates,
and labeled branches read from a labels file.  branch_features, hamming
and height_diff define a single pair.  structural_columns is the one place
a node's head, leaf and mean depth are read off a dag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .model import (
    ATTRIBUTE_NAMES,
    AttackDag,
    InvalidCounts,
    N_BINARY_ATTRIBUTES,
    NodeAttributes,
)
from .graph import UnknownNode
from .storage import csv_text, read_csv

ATTRS_CSV_HEADER = ("node_id",) + ATTRIBUTE_NAMES + ("provenance",)

PROVENANCE_VALUES = ("published", "reconstructed")


class SelfBranch(ValueError):
    pass


@dataclass(frozen=True)
class AttributeTable:
    rows: Mapping[int, NodeAttributes]
    provenance: Mapping[int, str] = field(default_factory=dict)

    def __getitem__(self, node_id: int) -> NodeAttributes:
        try:
            return self.rows[node_id]
        except KeyError:
            raise UnknownNode(f"no attribute row for node {node_id}") from None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.rows

    def to_csv(self) -> str:
        return csv_text(ATTRS_CSV_HEADER, (
            [node_id, *(getattr(attrs, name) for name in ATTRIBUTE_NAMES[:N_BINARY_ATTRIBUTES]),
             repr(attrs.mean_depth), self.provenance.get(node_id, "reconstructed")]
            for node_id, attrs in sorted(self.rows.items())
        ))

    @classmethod
    def from_csv(cls, text: str, source: str = "attribute table") -> "AttributeTable":
        rows: dict[int, NodeAttributes] = {}
        provenance: dict[int, str] = {}

        def parse(node_id: str, *fields: str) -> None:
            if len(fields) != len(ATTRS_CSV_HEADER) - 1:
                raise ValueError(f"expected {len(ATTRS_CSV_HEADER)} fields, got {1 + len(fields)}")
            node = int(node_id)
            if node in rows:
                raise ValueError(f"duplicate node {node}")
            *bits, depth, prov = fields
            if prov not in PROVENANCE_VALUES:
                raise ValueError(f"provenance must be one of {PROVENANCE_VALUES}")
            rows[node] = NodeAttributes(*map(int, bits), mean_depth=float(depth))
            provenance[node] = prov

        read_csv(text, ATTRS_CSV_HEADER, source, parse, "attribute")
        return cls(rows=rows, provenance=provenance)

    def check_against(self, dag: AttackDag, tol: float = 1e-9) -> list[str]:
        """Coverage plus head/leaf/depth consistency with the dag."""
        problems: list[str] = []
        for node in sorted(dag.nodes):
            if node not in self.rows:
                problems.append(f"node {node} has no attribute row")
        for node in sorted(self.rows):
            if node not in dag.nodes:
                problems.append(f"attribute row for unknown node {node}")
        for node in sorted(dag.nodes & set(self.rows)):
            attrs = self.rows[node]
            head, leaf, depth = structural_columns(dag, node)
            if attrs.head != head:
                problems.append(f"node {node}: head bit {attrs.head}, dag says {head}")
            if attrs.leaf != leaf:
                problems.append(f"node {node}: leaf bit {attrs.leaf}, dag says {leaf}")
            if not math.isclose(attrs.mean_depth, depth, rel_tol=0.0, abs_tol=tol):
                problems.append(
                    f"node {node}: mean_depth {attrs.mean_depth!r}, dag says {depth!r}"
                )
        return problems


def structural_columns(dag: AttackDag, node: int) -> tuple[int, int, float]:
    """The node's head bit, leaf bit and mean depth, as the dag gives them."""
    return int(node in dag.heads), int(node in dag.leaves), dag.mean_depth[node]


def node_features(node_id: int, table: AttributeTable) -> tuple[float, ...]:
    return table[node_id].vector()


def branch_features(origin: int, dest: int, table: AttributeTable) -> tuple[float, ...]:
    """Origin attribute vector concatenated with destination's (20 values)."""
    if origin == dest:
        raise SelfBranch(f"branch from node {origin} to itself")
    return node_features(origin, table) + node_features(dest, table)


def hamming(origin: int, dest: int, table: AttributeTable) -> int:
    """Differing binary attributes between the two endpoints (0..9).

    mean_depth is excluded; head/leaf bits count like the facet flags.
    """
    a = table[origin].binary_bits()
    b = table[dest].binary_bits()
    return sum(1 for x, y in zip(a, b) if x != y)


def height_diff(origin: int, dest: int, table: AttributeTable) -> float:
    """Destination mean depth minus origin mean depth (positive = downhill)."""
    return table[dest].mean_depth - table[origin].mean_depth


# The (low, high) band of plausible height differences.  The rule system's
# R1 fires outside (low, high]; the default negative filters flag a pair
# below low or above high.
HEIGHT_BAND = (-0.09, 2.0)


def search_space_size(n_nodes: int, n_training: int) -> int:
    """Ordered node pairs minus self-pairs minus training branches."""
    if n_nodes < 0 or n_training < 0:
        raise InvalidCounts("counts must be non-negative")
    available = n_nodes * n_nodes - n_nodes
    if n_training > available:
        raise InvalidCounts(
            f"{n_training} training branches exceed the {available} available pairs"
        )
    return available - n_training


@dataclass(frozen=True, eq=False)
class NodeMatrix:
    """Attribute rows of a node set as an (n, 10) array, in ascending id order."""

    ids: np.ndarray  # (n,) int64
    values: np.ndarray  # (n, 10) float64

    @classmethod
    def build(cls, nodes: Iterable[int], table: AttributeTable) -> "NodeMatrix":
        ids = sorted(nodes)
        values = np.array([table[n].vector() for n in ids], dtype=float)
        return cls(np.array(ids, dtype=np.int64), values.reshape(len(ids), len(ATTRIBUTE_NAMES)))

    def frame(self, keep: np.ndarray, excluded: Iterable[tuple[int, int]],
              label: Optional[int] = None) -> "BranchFrame":
        """The pairs the n x n mask keep marks, less self and excluded pairs, in order."""
        listed = _pair_array(excluded)
        listed = listed[np.isin(listed, self.ids).all(axis=1)]
        keep[tuple(np.searchsorted(self.ids, listed).T)] = False
        np.fill_diagonal(keep, False)
        at = np.argwhere(keep)
        labels = None if label is None else np.full(len(at), label)
        return BranchFrame(self, at, labels)


def _pair_array(pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    return np.array(list(pairs), dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class BranchFrame:
    """Ordered node pairs, one row per branch, as row positions in a NodeMatrix.

    Ids and features are gathered from the node rows when asked for, so a
    frame of all n^2 candidate pairs holds an (n^2, 2) index array, not an
    (n^2, 20) feature matrix, and ``window`` lets a caller gather one block
    of rows at a time.
    """

    nodes: NodeMatrix
    at: np.ndarray  # (len, 2) intp: positions in nodes of each origin and destination
    labels: Optional[np.ndarray] = None  # (len,) int64 of +1/-1, or None when unlabeled

    def __len__(self) -> int:
        return len(self.at)

    def window(self, start: int, stop: int) -> "BranchFrame":
        """The frame of rows start to stop (a view, clipped like a slice)."""
        labels = None if self.labels is None else self.labels[start:stop]
        return BranchFrame(self.nodes, self.at[start:stop], labels)

    @property
    def origins(self) -> np.ndarray:
        """(len,) int64 origin ids."""
        return self.nodes.ids[self.at[:, 0]]

    @property
    def dests(self) -> np.ndarray:
        """(len,) int64 destination ids."""
        return self.nodes.ids[self.at[:, 1]]

    @property
    def features(self) -> np.ndarray:
        """(len, 20) float64: origin attributes, then destination's."""
        return self.nodes.values[self.at].reshape(len(self.at), 2 * self.nodes.values.shape[1])


def labeled_frame(rows: Sequence[tuple[int, int, int]], table: AttributeTable) -> BranchFrame:
    """(origin, dest, label) rows as one frame, in row order.

    The first row that is a self pair or names a node without an attribute
    row raises what branch_features raises for it.
    """
    pairs = _pair_array((o, d) for o, d, _ in rows)
    nodes = NodeMatrix.build(table.rows, table)
    bad = (pairs[:, 0] == pairs[:, 1]) | ~np.isin(pairs, nodes.ids).all(axis=1)
    if bad.any():
        branch_features(*pairs[bad.argmax()].tolist(), table)
    labels = np.array([label for _, _, label in rows], dtype=np.int64)
    return BranchFrame(nodes, np.searchsorted(nodes.ids, pairs), labels)


def enumerate_candidates(
    dag: AttackDag, table: AttributeTable, training: Iterable[tuple[int, int]]
) -> BranchFrame:
    """All ordered node pairs not seen in training, unlabeled, sorted.

    The result size always equals search_space_size(|nodes|, |training|);
    training pairs must therefore be distinct ordered pairs of dag nodes.
    """
    nodes = NodeMatrix.build(dag.nodes, table)
    pairs = _pair_array(training)
    selfs = pairs[pairs[:, 0] == pairs[:, 1]]
    if len(selfs):
        raise SelfBranch(f"training branch from node {selfs[0, 0]} to itself")
    unknown = pairs[~np.isin(pairs, nodes.ids).all(axis=1)]
    if len(unknown):
        u, v = unknown[0].tolist()
        raise UnknownNode(f"training branch ({u}, {v}) references unknown node")
    return nodes.frame(np.ones((len(nodes.ids),) * 2, dtype=bool), pairs)
