#!/usr/bin/env python3
"""Regenerate data/attributes.csv and data/labels.csv from data/corpus.json.

The attribute table combines hand-assigned facet bits (the rubric below,
keyed by node description) with head/leaf/mean-depth values computed from
the merged dag.  The labeled branch set is the dag's edges as positives
plus a curated subset of generated negative candidates; curation drops
negatives until the default-parameter SVM retrains with zero false
negatives, because a missed feasible branch is the one unacceptable error.

Deterministic: running this twice produces byte-identical files.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from attackdag import (  # noqa: E402
    AttributeTable,
    ExceptionList,
    SvmParams,
    generate_negative_candidates,
    labeled_frame,
    load_corpus,
    structural_columns,
    train_svm,
)
from attackdag.storage import label_columns, save_labels, write_text_atomic  # noqa: E402

DATA = ROOT / "data"
OUT = DATA  # where attributes.csv and labels.csv are written

# Facet bits per node description, in attribute order:
# memory, data_db, security_vuln, port_gateway, sensor, malware, auth_vuln.
FACETS: dict[str, tuple[int, int, int, int, int, int, int]] = {
    "access system call": (1, 0, 0, 0, 0, 0, 0),
    "open system call": (1, 0, 0, 0, 0, 0, 0),
    "data invariant > max integer": (1, 1, 0, 0, 1, 0, 0),
    "dynamic memory allocation": (1, 0, 0, 0, 0, 0, 0),
    "overflow of memory": (1, 0, 1, 0, 0, 0, 0),
    "frame pointer with overwritten memory": (1, 0, 1, 0, 0, 0, 0),
    "critical component with one-factor or one-man authentication": (0, 0, 1, 0, 0, 0, 1),
    "port traffic per second > threshold": (0, 0, 0, 1, 1, 0, 0),
    "data invariant > threshold": (0, 1, 0, 0, 1, 0, 0),
    "access requested": (0, 0, 0, 0, 0, 0, 1),
    "no mutual authentication": (0, 0, 1, 0, 0, 0, 1),
    "user input": (0, 1, 0, 0, 0, 0, 0),
    "user input not compliant with database format": (0, 1, 1, 0, 0, 0, 0),
    "executive file of new executable at kernel level": (0, 0, 1, 0, 0, 1, 0),
    "sending data through port to external c2": (0, 1, 0, 1, 0, 1, 0),
    "transaction requested": (0, 1, 0, 0, 0, 0, 0),
    "no time stamp check": (0, 0, 1, 0, 0, 0, 1),
    "no hash check": (0, 0, 1, 0, 0, 0, 1),
    "data in transit not encrypted": (0, 1, 1, 0, 0, 0, 1),
    "no strong authentication, e.g., no public key infrastructure based authentication"
    " or two-factor authentication": (0, 0, 1, 0, 0, 0, 1),
    "encryption key read from memory in unencrypted format": (1, 0, 1, 0, 0, 0, 1),
    "no encryption of data/commands": (0, 1, 1, 0, 0, 0, 1),
    "no digital signature on sensor firmware": (0, 0, 1, 0, 1, 0, 1),
    "illegal access through unobstructed port": (0, 0, 0, 1, 0, 0, 1),
    "reconfigure the system specs": (0, 1, 0, 0, 0, 0, 0),
    "access memory buffer": (1, 0, 0, 0, 0, 0, 0),
    "overwrite allocated memory": (1, 0, 1, 0, 0, 0, 0),
    "open downloaded file from spear-phishing email": (0, 0, 0, 0, 0, 1, 0),
    "executive downloaded file from email": (0, 0, 0, 0, 0, 1, 0),
    "access business network": (0, 0, 0, 1, 0, 0, 0),
    "access ports of entry to production network": (0, 0, 0, 1, 0, 0, 0),
    "manipulate commands to the system": (0, 1, 0, 0, 1, 0, 0),
    "access system files": (0, 1, 0, 0, 0, 0, 1),
    "rewrite code for updates": (0, 0, 1, 0, 0, 1, 0),
    "delete/modify important system files": (0, 1, 0, 0, 0, 1, 0),
    "weak wifi password": (0, 0, 1, 0, 0, 0, 1),
    "alter state variables": (0, 1, 0, 0, 1, 0, 0),
    "gain root access": (0, 0, 1, 0, 0, 0, 1),
    "spear phishing emails to access business network": (0, 0, 0, 1, 0, 1, 0),
    "maneuver into the production network": (0, 0, 0, 1, 0, 0, 0),
    "erased critical files on disk": (0, 1, 0, 0, 0, 1, 0),
    "took control over important network nodes": (0, 0, 0, 1, 0, 1, 0),
    "weak password": (0, 0, 1, 0, 0, 0, 1),
    "phishing emails to access credentials": (0, 0, 0, 0, 0, 1, 1),
    "sql injection attacks to get credentials": (0, 1, 1, 0, 0, 0, 1),
    "weak storage of credentials on front-end server": (0, 1, 1, 0, 0, 0, 1),
    "frame pointer with overwritten memory in smbv1 buffer": (1, 0, 1, 1, 0, 0, 0),
    "process starts encrypting data": (0, 1, 0, 0, 0, 1, 0),
    "process new to the system and not whitelisted": (0, 0, 1, 0, 0, 1, 0),
}

N_NEGATIVES_TARGET = 80
MAX_CURATION_ROUNDS = 200
DROP_PER_MISS = 1


def build_table(corpus, dag) -> AttributeTable:
    return AttributeTable.from_rows({node: (*FACETS[blk.norm_text], *structural_columns(dag, node))
                                     for node, blk in corpus.blocks.items()})


def curate_labels(dag, table, corpus) -> list[tuple[int, int, int]]:
    """(origin, dest, label) rows sorted by pair."""
    positives = [(u, v, 1) for u, v in sorted(dag.edges)]
    exceptions = ExceptionList.from_csv((DATA / "exceptions.csv").read_text())
    pool = generate_pool(dag, table, corpus, exceptions, positives)

    # Evenly spaced picks keep the subset spread over the candidate space.
    step = len(pool) / N_NEGATIVES_TARGET
    negatives = [pool[int(i * step)] for i in range(min(N_NEGATIVES_TARGET, len(pool)))]

    params = SvmParams()  # the default cell
    for round_no in range(MAX_CURATION_ROUNDS):
        rows = positives + negatives
        labeled = labeled_frame(rows, table)
        x, y = labeled.features, labeled.labels
        missed = x[(y == 1) & (train_svm(x, y, params).predict(x) == -1)]
        if not len(missed):
            print(f"curation converged after {round_no} drop rounds: "
                  f"{len(positives)} positive, {len(negatives)} negative")
            return sorted(rows)
        negative_x = labeled_frame(negatives, table).features  # sorted, as the pool is
        drop: set[tuple[int, int]] = set()
        for mv in missed:
            by_dist = sorted(
                range(len(negatives)),
                key=lambda i: (float(np.sum((negative_x[i] - mv) ** 2)), *negatives[i][:2]),
            )
            drop.update(negatives[i][:2] for i in by_dist[:DROP_PER_MISS])
        negatives = [row for row in negatives if row[:2] not in drop]
        if not negatives:
            raise RuntimeError("curation dropped every negative; facet bits too entangled")
    raise RuntimeError("curation did not reach zero false negatives")


def generate_pool(dag, table, corpus, exceptions, positives):
    pool = generate_negative_candidates(
        dag, table, corpus.blocks, exceptions
    )
    # A negative whose feature vector collides with a positive's would make
    # zero false negatives unreachable for any classifier.
    positive_vectors = set(map(tuple, labeled_frame(positives, table).features.tolist()))
    return [(o, d, -1) for o, d, row in zip(pool.origins.tolist(), pool.dests.tolist(),
                                             pool.features.tolist())
            if tuple(row) not in positive_vectors]


def main_script() -> int:
    corpus = load_corpus(DATA / "corpus.json")
    dag = corpus.attack_dag()
    table = build_table(corpus, dag)
    problems = table.check_against(dag)
    if problems:
        for p in problems:
            print("inconsistent:", p, file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    write_text_atomic(OUT / "attributes.csv", table.to_csv())
    print(f"wrote attributes.csv ({len(corpus.blocks)} nodes)")

    labeled = curate_labels(dag, table, corpus)
    save_labels(OUT / "labels.csv", *label_columns(labeled))
    n_pos = sum(1 for _, _, label in labeled if label == 1)
    print(f"wrote labels.csv ({n_pos} positive, {len(labeled) - n_pos} negative)")
    return 0


if __name__ == "__main__":
    sys.exit(main_script())
