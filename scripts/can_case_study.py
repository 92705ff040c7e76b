#!/usr/bin/env python3
"""In-vehicle network case study: project the dag onto bus-reachable nodes.

The keep-list in data/can_keep.txt names the nodes reachable through a
vehicle's internal bus and diagnostic port.  The projected subgraph gets a
structurally refreshed attribute table, a labeled subset restricted to the
kept nodes, a retrained model, and its own prediction run, mirroring the
full-corpus pipeline at reduced scale.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from attackdag.cli import main  # noqa: E402
from attackdag.storage import label_columns, load_dag, load_labels, save_labels  # noqa: E402

DATA = ROOT / "data"
OUT = ROOT / "out" / "can"


def run(*argv: str) -> None:
    print(f"\n$ attackdag {' '.join(argv)}")
    code = main(list(argv))
    if code != 0:
        sys.exit(code)


def main_script() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    dag = str(OUT / "dag.json")
    can_dag = str(OUT / "can_dag.json")
    can_attrs = str(OUT / "can_attrs.csv")
    can_labels = str(OUT / "can_labels.csv")
    model = str(OUT / "can_model.json")

    run("ingest", "--corpus", str(DATA / "corpus.json"), "--out", dag)
    run("project", "--dag", dag, "--keep-file", str(DATA / "can_keep.txt"),
        "--out", can_dag)
    run("attrs", "--dag", can_dag, "--attrs", str(DATA / "attributes.csv"),
        "--refresh-structural", can_attrs)

    kept = set(load_dag(can_dag).dag.nodes)
    rows = [(o, d, l) for o, d, l in load_labels(DATA / "labels.csv")
            if o in kept and d in kept]
    save_labels(can_labels, *label_columns(rows))
    n_pos = sum(1 for _, _, l in rows if l == 1)
    print(f"\nkept {len(rows)} labeled branches ({n_pos} feasible) on {len(kept)} nodes")

    run("train", "--dag", can_dag, "--attrs", can_attrs,
        "--labels", can_labels, "--out", model)
    run("predict", "--model", model, "--dag", can_dag, "--attrs", can_attrs,
        "--labels", can_labels, "--out", str(OUT / "can_predictions.csv"))
    run("paths", "--dag", can_dag, "--out", str(OUT / "can_paths.json"))
    print(f"\nartifacts in {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main_script())
