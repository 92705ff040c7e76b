"""Rule-based branch classifier over constraint-style facts.

Three hard rules, each sufficient on its own to call a branch infeasible:

    R1  height difference outside the plausible band, HEIGHT_BAND:
        ht_diff <= -0.09 (climbs too far against the flow) or
        ht_diff >  2     (skips too far down it)
    R2  hamming distance over 5: endpoints share almost no attributes
    R3  hamming distance 4..5 on a head-to-leaf or leaf-to-leaf branch

Each rule is a boolean mask over a frame's PairFacts.  A branch is feasible
exactly when no rule fires, so the fired rules always explain its verdict.
"""

from __future__ import annotations

import numpy as np

from .features import HEIGHT_BAND, BranchFrame, PairFacts, dag_terminals, pair_facts
from .model import AttackDag

RULES = ("R1", "R2", "R3")


def csp_facts(branches: BranchFrame, dag: AttackDag) -> PairFacts:
    """Facts of each branch; head/leaf come from dag degrees, not table bits."""
    return pair_facts(branches.nodes, *branches.at.T, *dag_terminals(branches.nodes, dag))


def csp_classify(facts: PairFacts) -> np.ndarray:
    """(len, 3) bool: which of RULES fire on each pair, in that order."""
    low, high = HEIGHT_BAND
    return np.stack([
        (facts.ht_diff <= low) | (facts.ht_diff > high),
        facts.hamming > 5,
        (facts.hamming >= 4) & (facts.hamming <= 5) & (facts.head_to_leaf | facts.leaf_to_leaf),
    ], axis=-1)
