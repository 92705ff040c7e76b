"""Negative (infeasible) branch candidate generation.

Training needs infeasible branches, and humans are bad at inventing them
exhaustively, so candidates come from two mechanical signals: pairs of
vulnerability categories believed independent (a step in one category
cannot enable a step in the other), and statistical outliers relative to
the known-branch population (extreme height difference, high attribute
hamming distance, head-to-leaf or leaf-to-leaf shapes).

Everything produced here is a candidate for review, not ground truth; a
curated exception list removes pairs that look independent but have a
documented enabling path.

Each signal is a boolean mask over the n x n grid of ordered node pairs,
and the candidates come back as one BranchFrame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .features import AttributeTable, BranchFrame, NodeMatrix, hamming, height_diff
from .model import (
    AttackDag,
    BasicBlock,
    BranchSample,
    CorpusStats,
    N_BINARY_ATTRIBUTES,
    VulnerabilityCategory as VC,
)
from .storage import csv_text, read_csv

# Unordered category pairs with no believed enabling relation.  The fourth
# pair is conditional: weak crypto/auth on one side, and on the other a
# malware or social-engineering step that is itself socially delivered.
PLAIN_INDEPENDENCE_PAIRS = (
    frozenset({VC.MEMORY, VC.NETWORK_PROTOCOL}),
    frozenset({VC.MEMORY, VC.SOCIAL_ENGINEERING}),
    frozenset({VC.NETWORK_PROTOCOL, VC.SOCIAL_ENGINEERING}),
)

SOCIAL_COMPOSITE = frozenset({VC.MALWARE, VC.SOCIAL_ENGINEERING})

# Branch statistics measured on the original, larger survey corpus.  The
# bundled corpus is a smaller reconstruction, so these are orientation values
# for reports, never assertion targets.
REFERENCE_BRANCH_STATS = {
    "mean_hd_feasible": 2.93,
    "mean_hd_infeasible": 4.30,
    "ht_diff_feasible": (-0.08, 0.997, 2.0),
    "ht_diff_infeasible": (-3.33, 0.071, 3.33),
    "headleaf_infeasible_ratio": 4.0,
}


class InsufficientData(ValueError):
    pass


def categories_independent(
    a: VC, b: VC, a_socially_delivered: bool = False, b_socially_delivered: bool = False
) -> bool:
    if frozenset({a, b}) in PLAIN_INDEPENDENCE_PAIRS:
        return True
    if a is VC.WEAK_CRYPTO_AUTH and b in SOCIAL_COMPOSITE and b_socially_delivered:
        return True
    if b is VC.WEAK_CRYPTO_AUTH and a in SOCIAL_COMPOSITE and a_socially_delivered:
        return True
    return False


# Every (category, socially delivered) pair as a small integer code, and
# categories_independent decided once for each ordered pair of codes.
_CATEGORY_CODES = {key: code for code, key in
                   enumerate((cat, social) for cat in VC for social in (False, True))}
_INDEPENDENT = np.array([[categories_independent(a, b, a_social, b_social)
                          for b, b_social in _CATEGORY_CODES]
                         for a, a_social in _CATEGORY_CODES])

# The nine binary attributes packed into one integer per node, so hamming
# distance is the popcount of an XOR, read from a 512-entry table.
_BIT_WEIGHTS = 1 << np.arange(N_BINARY_ATTRIBUTES)
_POPCOUNT = np.array([bin(v).count("1") for v in range(1 << N_BINARY_ATTRIBUTES)])


EXCEPTIONS_CSV_HEADER = ("origin_node_id", "dest_node_id", "note")


@dataclass(frozen=True)
class ExceptionList:
    """Ordered pairs exempted from negative candidacy, with a reason each."""

    notes: Mapping[tuple[int, int], str]

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.notes

    @classmethod
    def empty(cls) -> "ExceptionList":
        return cls(notes={})

    @classmethod
    def from_csv(cls, text: str, source: str = "exception list") -> "ExceptionList":
        def parse(origin: str, dest: str, note: str, *extra: str) -> tuple[tuple[int, int], str]:
            return (int(origin), int(dest)), note

        return cls(notes=dict(read_csv(text, EXCEPTIONS_CSV_HEADER, source, parse,
                                       "exception-list")))

    def to_csv(self) -> str:
        return csv_text(EXCEPTIONS_CSV_HEADER,
                        ((u, v, note) for (u, v), note in sorted(self.notes.items())))


@dataclass(frozen=True)
class NegativeFilterThresholds:
    """Statistical filters; None (or False) disables a filter entirely."""

    ht_diff_below: Optional[float] = -0.09  # candidate when ht_diff < this
    ht_diff_above: Optional[float] = 2.0  # candidate when ht_diff > this
    min_hamming: Optional[int] = 4  # candidate when hamming >= this
    head_to_leaf: bool = True
    leaf_to_leaf: bool = True

    @classmethod
    def disabled(cls) -> "NegativeFilterThresholds":
        return cls(ht_diff_below=None, ht_diff_above=None, min_hamming=None,
                   head_to_leaf=False, leaf_to_leaf=False)


def generate_negative_candidates(
    dag: AttackDag,
    table: AttributeTable,
    blocks: Mapping[int, BasicBlock],
    exceptions: ExceptionList | None = None,
    thresholds: NegativeFilterThresholds | None = None,
) -> BranchFrame:
    """Candidate infeasible branches, labeled -1, sorted by (origin, dest).

    A pair is a candidate when its categories are independent or any
    enabled statistical filter fires.  Existing dag edges and excepted
    pairs are never candidates.  The -1 labels mark candidates for human
    confirmation, not verdicts.
    """
    if exceptions is None:
        exceptions = ExceptionList.empty()
    th = thresholds if thresholds is not None else NegativeFilterThresholds()
    nodes = NodeMatrix.build(dag.nodes, table)
    codes = np.array([_CATEGORY_CODES[blocks[n].category, bool(blocks[n].socially_delivered)]
                      for n in nodes.ids.tolist()], dtype=np.intp)
    keep = _INDEPENDENT[codes[:, None], codes[None, :]]
    depth = nodes.values[:, -1]
    ht = depth[None, :] - depth[:, None]
    if th.ht_diff_below is not None:
        keep |= ht < th.ht_diff_below
    if th.ht_diff_above is not None:
        keep |= ht > th.ht_diff_above
    if th.min_hamming is not None:
        bits = nodes.values[:, :N_BINARY_ATTRIBUTES].astype(np.intp) @ _BIT_WEIGHTS
        keep |= _POPCOUNT[bits[:, None] ^ bits[None, :]] >= th.min_hamming
    head = np.isin(nodes.ids, list(dag.heads))
    leaf = np.isin(nodes.ids, list(dag.leaves))
    if th.head_to_leaf:
        keep |= head[:, None] & leaf[None, :]
    if th.leaf_to_leaf:
        keep |= leaf[:, None] & leaf[None, :]
    return nodes.frame(keep, [*dag.edges, *exceptions.notes], label=-1)


def corpus_stats(samples: Iterable[BranchSample], table: AttributeTable) -> CorpusStats:
    """Branch-population statistics split by label.

    Needs at least one feasible and one infeasible sample.  The head/leaf
    ratio counts branches that start at a head and end at a leaf, or join
    two leaves; it is None when no feasible branch has that shape.
    """
    feas_hd: list[int] = []
    infeas_hd: list[int] = []
    feas_ht: list[float] = []
    infeas_ht: list[float] = []
    feas_hl = 0
    infeas_hl = 0
    for sample in samples:
        if sample.label not in (1, -1):
            raise InsufficientData(f"unlabeled sample ({sample.origin}, {sample.dest})")
        hd = hamming(sample.origin, sample.dest, table)
        ht = height_diff(sample.origin, sample.dest, table)
        o, d = table[sample.origin], table[sample.dest]
        terminal = bool((o.head and d.leaf) or (o.leaf and d.leaf))
        if sample.label == 1:
            feas_hd.append(hd)
            feas_ht.append(ht)
            feas_hl += terminal
        else:
            infeas_hd.append(hd)
            infeas_ht.append(ht)
            infeas_hl += terminal
    if not feas_hd or not infeas_hd:
        raise InsufficientData("need at least one sample of each label")

    def spread(values: list[float]) -> tuple[float, float, float]:
        return (min(values), sum(values) / len(values), max(values))

    return CorpusStats(
        mean_hd_feasible=sum(feas_hd) / len(feas_hd),
        mean_hd_infeasible=sum(infeas_hd) / len(infeas_hd),
        ht_diff_feasible=spread(feas_ht),
        ht_diff_infeasible=spread(infeas_ht),
        headleaf_infeasible_ratio=(infeas_hl / feas_hl if feas_hl else None),
    )
