"""Per-node attribute table and branch featurization.

Each node carries ten attributes: seven binary facet flags (memory,
data/database, generic security weakness, port/gateway, sensor, malware,
authentication weakness), binary head/leaf markers, and the node's mean
depth in the dag.  An AttributeTable holds them as one (n, 10) array, a row
per node in ascending id order.  A branch's features are origin attributes
followed by destination attributes, twenty values.

Every set of branches is one BranchFrame, pairs of row positions in an
AttributeTable: candidates over all ordered node pairs, negative candidates,
and labeled branches read from a labels file.  branch_features, hamming
and height_diff define a single pair; pair_facts gives the rule facts of many.
structural_columns and dag_terminals read head and leaf flags off a dag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .model import ATTRIBUTE_NAMES, AttackDag, InvalidCounts, N_BINARY_ATTRIBUTES
from .graph import UnknownNode
from .storage import csv_text, parse_node_id, read_csv

ATTRS_CSV_HEADER = ("node_id",) + ATTRIBUTE_NAMES + ("provenance",)

PROVENANCE_VALUES = ("published", "reconstructed")

DEPTH_TOL = 1e-9  # how far check_against lets a mean depth sit from the dag's


class SelfBranch(ValueError):
    pass


def _attribute_row(values: Sequence[float], provenance: str) -> list[float]:
    """One node's ten attributes, checked: nine 0/1 bits, then a finite mean depth >= 0."""
    if provenance not in PROVENANCE_VALUES:
        raise ValueError(f"provenance must be one of {PROVENANCE_VALUES}")
    *bits, depth = values
    for name, bit in zip(ATTRIBUTE_NAMES, bits):
        if bit not in (0, 1):
            raise ValueError(f"attribute {name} must be 0 or 1, got {bit!r}")
    if not math.isfinite(depth) or depth < 0:
        raise ValueError(f"mean_depth must be finite and >= 0, got {depth!r}")
    return [*bits, depth]


@dataclass(frozen=True, eq=False)
class AttributeTable:
    """The attribute rows of a node set, in ascending id order, and each row's provenance.

    ``from_rows`` and ``from_csv`` check every row; ``select`` restricts a table
    to a node set.
    """

    ids: np.ndarray  # (n,) int64, ascending
    values: np.ndarray  # (n, 10) float64, columns in ATTRIBUTE_NAMES order
    provenance: tuple[str, ...]  # one of PROVENANCE_VALUES per row

    @classmethod
    def from_rows(cls, rows: Mapping[int, Sequence[float]],
                  provenance: Optional[Mapping[int, str]] = None) -> "AttributeTable":
        """The table of ``rows`` (node id to its ten attributes); a node that
        ``provenance`` does not name is "reconstructed"."""
        ids = sorted(rows)
        prov = tuple((provenance or {}).get(n, "reconstructed") for n in ids)
        values = [_attribute_row(rows[n], p) for n, p in zip(ids, prov)]
        return cls(np.array(ids, dtype=np.int64),
                   np.array(values, dtype=float).reshape(len(ids), len(ATTRIBUTE_NAMES)), prov)

    @classmethod
    def from_csv(cls, text: str, source: str = "attribute table") -> "AttributeTable":
        rows: dict[int, list[float]] = {}
        provenance: dict[int, str] = {}

        def parse(node_id: str, *fields: str) -> None:
            if len(fields) != len(ATTRS_CSV_HEADER) - 1:
                raise ValueError(f"expected {len(ATTRS_CSV_HEADER)} fields, got {1 + len(fields)}")
            node = parse_node_id(node_id, "node_id")
            if node in rows:
                raise ValueError(f"duplicate node {node}")
            *bits, depth, prov = fields
            # Checked here as well as in from_rows, so that a bad row names its line.
            rows[node] = _attribute_row([*map(int, bits), float(depth)], prov)
            provenance[node] = prov

        read_csv(text, ATTRS_CSV_HEADER, source, parse, "attribute")
        return cls.from_rows(rows, provenance)

    def to_csv(self) -> str:
        bits = self.values[:, :N_BINARY_ATTRIBUTES].astype(np.int64).tolist()
        return csv_text(ATTRS_CSV_HEADER, (
            [node, *row, depth, prov] for node, row, depth, prov
            in zip(self.ids.tolist(), bits, self.values[:, -1].tolist(), self.provenance)
        ))

    def row(self, node: int) -> np.ndarray:
        """The node's ten attributes (a view)."""
        at = int(self.ids.searchsorted(node))
        if at == len(self.ids) or self.ids[at] != node:
            raise UnknownNode(f"no attribute row for node {node}")
        return self.values[at]

    def select(self, nodes: Iterable[int]) -> "AttributeTable":
        """A copy of ``nodes``' rows; the least node without a row raises UnknownNode."""
        ids = np.array(sorted(nodes), dtype=np.int64)
        missing = ids[~np.isin(ids, self.ids)]
        if len(missing):
            raise UnknownNode(f"no attribute row for node {missing[0]}")
        at = self.ids.searchsorted(ids)
        return AttributeTable(ids, self.values[at],
                              tuple(map(self.provenance.__getitem__, at.tolist())))

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

    def check_against(self, dag: AttackDag) -> list[str]:
        """Coverage plus head/leaf/depth consistency with the dag, depths within DEPTH_TOL."""
        ids = self.ids.tolist()
        problems = [f"node {n} has no attribute row" for n in sorted(dag.nodes.difference(ids))]
        problems += [f"attribute row for unknown node {n}" for n in ids if n not in dag.nodes]
        for node, (head, leaf, depth) in zip(ids, self.values[:, -3:].tolist()):
            if node not in dag.nodes:
                continue
            want_head, want_leaf, want_depth = structural_columns(dag, node)
            if head != want_head:
                problems.append(f"node {node}: head bit {int(head)}, dag says {want_head}")
            if leaf != want_leaf:
                problems.append(f"node {node}: leaf bit {int(leaf)}, dag says {want_leaf}")
            if not math.isclose(depth, want_depth, rel_tol=0.0, abs_tol=DEPTH_TOL):
                problems.append(f"node {node}: mean_depth {depth!r}, dag says {want_depth!r}")
        return problems


def structural_columns(dag: AttackDag, node: int) -> tuple[int, int, float]:
    """The node's head bit, leaf bit and mean depth, as the dag gives them."""
    return int(node in dag.heads), int(node in dag.leaves), dag.mean_depth[node]


def dag_terminals(nodes: AttributeTable, dag: AttackDag) -> tuple[np.ndarray, np.ndarray]:
    """(n,) bool head and leaf flags of ``nodes``' rows, from the dag's degrees."""
    return np.isin(nodes.ids, list(dag.heads)), np.isin(nodes.ids, list(dag.leaves))


def branch_features(origin: int, dest: int, table: AttributeTable) -> tuple[float, ...]:
    """Origin attribute vector concatenated with destination's (20 values)."""
    if origin == dest:
        raise SelfBranch(f"branch from node {origin} to itself")
    return tuple(table.row(origin).tolist() + table.row(dest).tolist())


def hamming(origin: int, dest: int, table: AttributeTable) -> int:
    """Differing binary attributes between the two endpoints (0..9).

    mean_depth is excluded; head/leaf bits count like the facet flags.
    """
    a = table.row(origin)[:N_BINARY_ATTRIBUTES]
    b = table.row(dest)[:N_BINARY_ATTRIBUTES]
    return int((a != b).sum())


def height_diff(origin: int, dest: int, table: AttributeTable) -> float:
    """Destination mean depth minus origin mean depth (positive = downhill)."""
    return float(table.row(dest)[-1] - table.row(origin)[-1])


# The (low, high) band of plausible height differences.  The rule system's
# R1 fires outside (low, high]; the default negative filters flag a pair
# below low or above high.
HEIGHT_BAND = (-0.09, 2.0)


# Hamming distance is the popcount of an XOR of packed bits, from a 512-entry table.
_BIT_WEIGHTS = 1 << np.arange(N_BINARY_ATTRIBUTES)
_POPCOUNT = np.array([bin(v).count("1") for v in range(1 << N_BINARY_ATTRIBUTES)], np.uint8)


@dataclass(frozen=True, eq=False)
class PairFacts:
    """What the rules and the negative filters read of a set of pairs: four arrays of one shape."""

    hamming: np.ndarray
    ht_diff: np.ndarray
    head_to_leaf: np.ndarray
    leaf_to_leaf: np.ndarray


def pair_facts(nodes: AttributeTable, origins: np.ndarray, dests: np.ndarray,
               head: np.ndarray, leaf: np.ndarray) -> PairFacts:
    """hamming() and height_diff() of pairs of ``nodes``' rows, and head/leaf shape by the row
    flags ``head`` and ``leaf``.  ``rows[:, None], rows[None, :]`` is the n x n grid."""
    bits = nodes.values[:, :N_BINARY_ATTRIBUTES].astype(np.intp) @ _BIT_WEIGHTS
    depth = nodes.values[:, -1]
    return PairFacts(_POPCOUNT[bits[origins] ^ bits[dests]], depth[dests] - depth[origins],
                     head[origins] & leaf[dests], leaf[origins] & leaf[dests])


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


def _pair_array(pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    return np.array(list(pairs), dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class BranchFrame:
    """Ordered node pairs, one row per branch, as row positions in an AttributeTable.

    Ids and features are gathered from the node rows when asked for, so a
    frame of all n^2 candidate pairs holds an (n^2, 2) index array, not an
    (n^2, 20) feature matrix, and ``window`` lets a caller gather one block
    of rows at a time.
    """

    nodes: AttributeTable
    at: np.ndarray  # (len, 2) intp: positions in nodes of each origin and destination
    labels: Optional[np.ndarray]  # (len,) int64 of +1/-1, or None when unlabeled

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
    """(origin, dest, label) rows as one frame, sorted by (origin, dest).

    The first row that is a self pair or names a node without an attribute
    row raises what branch_features raises for it.  Sorting gives every
    learner one row order however the rows were listed: SMO's and k-NN's
    lowest-index ties and SGD's seeded shuffle all read it.
    """
    pairs = _pair_array((o, d) for o, d, _ in rows)
    bad = (pairs[:, 0] == pairs[:, 1]) | ~np.isin(pairs, table.ids).all(axis=1)
    if bad.any():
        branch_features(*pairs[bad.argmax()].tolist(), table)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    labels = np.array([label for _, _, label in rows], dtype=np.int64)
    return BranchFrame(table, np.searchsorted(table.ids, pairs[order]), labels[order])


def enumerate_candidates(
    dag: AttackDag, table: AttributeTable, training: Iterable[tuple[int, int]]
) -> BranchFrame:
    """All ordered node pairs not seen in training, unlabeled, sorted.

    A training pair from a node to itself raises SelfBranch, and one naming a
    node the dag lacks raises UnknownNode.  So for distinct training pairs (a
    set) the frame has exactly search_space_size(|nodes|, |training|) rows,
    which callers rely on without counting again.
    """
    nodes = table.select(dag.nodes)
    pairs = _pair_array(training)
    selfs = pairs[pairs[:, 0] == pairs[:, 1]]
    if len(selfs):
        raise SelfBranch(f"training branch from node {selfs[0, 0]} to itself")
    unknown = pairs[~np.isin(pairs, nodes.ids).all(axis=1)]
    if len(unknown):
        u, v = unknown[0].tolist()
        raise UnknownNode(f"training branch ({u}, {v}) references unknown node")
    return nodes.frame(np.ones((len(nodes.ids),) * 2, dtype=bool), pairs)
