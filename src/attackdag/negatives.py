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

Each signal is a boolean mask over the n x n grid (the statistical ones from
features.pair_facts), and the candidates come back as one BranchFrame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .features import HEIGHT_BAND, AttributeTable, BranchFrame, dag_terminals, pair_facts
from .model import (
    ATTRIBUTE_NAMES,
    AttackDag,
    BasicBlock,
    CorpusStats,
    N_BINARY_ATTRIBUTES,
    VulnerabilityCategory as VC,
)
from .storage import parse_node_id, read_csv

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
    a: VC, b: VC, a_socially_delivered: bool, b_socially_delivered: bool
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
            return (parse_node_id(origin, "origin"), parse_node_id(dest, "dest")), note

        return cls(notes=dict(read_csv(text, EXCEPTIONS_CSV_HEADER, source, parse,
                                       "exception-list")))


@dataclass(frozen=True)
class NegativeFilterThresholds:
    """Statistical filters; None (or False) disables a filter entirely."""

    ht_diff_below: Optional[float] = HEIGHT_BAND[0]  # candidate when ht_diff < this
    ht_diff_above: Optional[float] = HEIGHT_BAND[1]  # candidate when ht_diff > this
    min_hamming: Optional[int] = 4  # candidate when hamming >= this
    head_to_leaf: bool = True
    leaf_to_leaf: bool = True

    def __post_init__(self) -> None:
        for name in ("ht_diff_below", "ht_diff_above"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.min_hamming is not None and not 0 <= self.min_hamming <= N_BINARY_ATTRIBUTES:
            raise ValueError(f"min_hamming must be in 0..{N_BINARY_ATTRIBUTES}, "
                             f"got {self.min_hamming!r}")

    @classmethod
    def disabled(cls) -> "NegativeFilterThresholds":
        return cls(ht_diff_below=None, ht_diff_above=None, min_hamming=None,
                   head_to_leaf=False, leaf_to_leaf=False)


def generate_negative_candidates(
    dag: AttackDag,
    table: AttributeTable,
    blocks: Mapping[int, BasicBlock],
    exceptions: ExceptionList | None,
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
    nodes = table.select(dag.nodes)
    codes = np.array([_CATEGORY_CODES[blocks[n].category, bool(blocks[n].socially_delivered)]
                      for n in nodes.ids.tolist()], dtype=np.intp)
    keep = _INDEPENDENT[codes[:, None], codes[None, :]]
    rows = np.arange(len(nodes.ids))
    facts = pair_facts(nodes, rows[:, None], rows[None, :], *dag_terminals(nodes, dag))
    if th.ht_diff_below is not None:
        keep |= facts.ht_diff < th.ht_diff_below
    if th.ht_diff_above is not None:
        keep |= facts.ht_diff > th.ht_diff_above
    if th.min_hamming is not None:
        keep |= facts.hamming >= th.min_hamming
    if th.head_to_leaf:
        keep |= facts.head_to_leaf
    if th.leaf_to_leaf:
        keep |= facts.leaf_to_leaf
    return nodes.frame(keep, [*dag.edges, *exceptions.notes], label=-1)


def corpus_stats(branches: BranchFrame) -> CorpusStats:
    """Branch-population statistics split by label, from the frame's pair facts.

    Needs at least one feasible and one infeasible branch.  The head/leaf
    ratio counts branches that start at a head and end at a leaf, or join
    two leaves, as the table's head and leaf bits mark them; it is None when
    no feasible branch has that shape.
    """
    labels = branches.labels
    if labels is None or not np.isin(labels, (1, -1)).all():
        raise InsufficientData("every branch needs a +1 or -1 label")
    values = branches.nodes.values
    facts = pair_facts(branches.nodes, *branches.at.T, values[:, ATTRIBUTE_NAMES.index("head")] == 1,
                       values[:, ATTRIBUTE_NAMES.index("leaf")] == 1)
    terminal = facts.head_to_leaf | facts.leaf_to_leaf
    feasible = labels == 1
    if feasible.all() or not feasible.any():
        raise InsufficientData("need at least one branch of each label")

    def mean(values: list) -> float:
        return sum(values) / len(values)

    def spread(values: list[float]) -> tuple[float, float, float]:
        return (min(values), mean(values), max(values))

    feas_hl = int(terminal[feasible].sum())
    return CorpusStats(
        mean_hd_feasible=mean(facts.hamming[feasible].tolist()),
        mean_hd_infeasible=mean(facts.hamming[~feasible].tolist()),
        ht_diff_feasible=spread(facts.ht_diff[feasible].tolist()),
        ht_diff_infeasible=spread(facts.ht_diff[~feasible].tolist()),
        headleaf_infeasible_ratio=(int(terminal[~feasible].sum()) / feas_hl if feas_hl else None),
    )
