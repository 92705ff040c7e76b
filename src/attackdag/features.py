"""Per-node attribute table and branch featurization.

Each node carries ten attributes: seven binary facet flags (memory,
data/database, generic security weakness, port/gateway, sensor, malware,
authentication weakness), binary head/leaf markers, and the node's mean
depth in the dag.  A branch sample is origin attributes followed by
destination attributes, twenty values.

Candidates over all ordered node pairs come back as one BranchFrame of
arrays; branch_features, hamming and height_diff define a single pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .model import (
    ATTRIBUTE_NAMES,
    AttackDag,
    BranchSample,
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
            head = int(node in dag.heads)
            leaf = int(node in dag.leaves)
            if attrs.head != head:
                problems.append(f"node {node}: head bit {attrs.head}, dag says {head}")
            if attrs.leaf != leaf:
                problems.append(f"node {node}: leaf bit {attrs.leaf}, dag says {leaf}")
            depth = dag.mean_depth[node]
            if not math.isclose(attrs.mean_depth, depth, rel_tol=0.0, abs_tol=tol):
                problems.append(
                    f"node {node}: mean_depth {attrs.mean_depth!r}, dag says {depth!r}"
                )
        return problems


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
        rows, cols = np.nonzero(keep)
        features = np.hstack((self.values[rows], self.values[cols]))
        return BranchFrame(self.ids[rows], self.ids[cols], features, label)


def _pair_array(pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    return np.array(list(pairs), dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class BranchFrame:
    """Ordered node pairs sharing one label, as parallel arrays in (origin, dest) order.

    len() and iteration give the same BranchSamples a list would, in order.
    """

    origins: np.ndarray  # (len,) int64
    dests: np.ndarray  # (len,) int64
    features: np.ndarray  # (len, 20) float64: origin attributes, then destination's
    label: Optional[int] = None

    def __len__(self) -> int:
        return len(self.origins)

    def __iter__(self) -> Iterator[BranchSample]:
        columns = (self.origins.tolist(), self.dests.tolist(), self.features.tolist())
        for origin, dest, row in zip(*columns):
            yield BranchSample(origin, dest, tuple(row), self.label)


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
