"""Rule-based branch classifier over constraint-style facts.

Three hard rules, each sufficient on its own to call a branch infeasible:

    R1  height difference outside the plausible band, HEIGHT_BAND:
        ht_diff <= -0.09 (climbs too far against the flow) or
        ht_diff >  2     (skips too far down it)
    R2  hamming distance over 5: endpoints share almost no attributes
    R3  hamming distance 4..5 on a head-to-leaf or leaf-to-leaf branch

A branch is feasible exactly when no rule fires, so the verdict always
carries the fired-rule set as its explanation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .features import HEIGHT_BAND, AttributeTable, hamming, height_diff
from .model import AttackDag


@dataclass(frozen=True)
class CspFacts:
    hamming: int
    ht_diff: float
    head_to_leaf: bool
    leaf_to_leaf: bool


@dataclass(frozen=True)
class CspVerdict:
    label: int  # +1 feasible, -1 infeasible
    fired: tuple[str, ...]


def csp_facts(origin: int, dest: int, dag: AttackDag, table: AttributeTable) -> CspFacts:
    """Facts for one branch; head/leaf come from dag degrees, not table bits."""
    return CspFacts(
        hamming=hamming(origin, dest, table),
        ht_diff=height_diff(origin, dest, table),
        head_to_leaf=origin in dag.heads and dest in dag.leaves,
        leaf_to_leaf=origin in dag.leaves and dest in dag.leaves,
    )


def csp_classify(facts: CspFacts) -> CspVerdict:
    fired: list[str] = []
    low, high = HEIGHT_BAND
    if facts.ht_diff <= low or facts.ht_diff > high:
        fired.append("R1")
    if facts.hamming > 5:
        fired.append("R2")
    if 4 <= facts.hamming <= 5 and (facts.head_to_leaf or facts.leaf_to_leaf):
        fired.append("R3")
    return CspVerdict(label=-1 if fired else 1, fired=tuple(fired))
