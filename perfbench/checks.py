"""Output checks.  Each problem is charged to the command whose output is wrong.

The checks use only the program's public functions and re-derive what they
check independently: predictions are re-scored with a loop of kernel_eval
over the saved support vectors, negative candidacy is re-decided pair by
pair from categories_independent, hamming and height_diff.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from attackdag.features import AttributeTable, branch_features, hamming, height_diff, search_space_size
from attackdag.learn.svm import kernel_eval
from attackdag.negatives import ExceptionList, NegativeFilterThresholds, categories_independent
from attackdag.storage import load_dag, load_labels, load_model, load_predictions

from workloads import Inputs, artifact_bytes

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Files of the bundled run that must match the tracked out/ artifacts.
GOLDEN_FILES = {
    "candidates.csv": "negatives",
    "model.json": "train",
    "predictions.csv": "predict",
    "paths.json": "paths",
    "report.json": "report",
}

RESCORED_ROWS = 40
SAMPLED_PAIRS = 150

# Re-scoring sums the same float64 products in another order; the sums may
# differ by a few ulps of the largest partial sum, never by more than this
# share of the sum of absolute terms.
RESCORE_RTOL = 1e-9


def artifact_digest(path: Path) -> str:
    return hashlib.sha256(artifact_bytes(path)).hexdigest()


def sample_indices(n: int, k: int, seed, salt: str) -> list[int]:
    return sorted(random.Random(f"{seed}/{salt}").sample(range(n), min(k, n)))


def check_golden(out: Path) -> dict[str, list[str]]:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    problems: dict[str, list[str]] = {}
    for filename, command in GOLDEN_FILES.items():
        path = out / filename
        if not path.exists() or artifact_digest(path) != golden[filename]:
            problems.setdefault(command, []).append(f"{filename} differs from out/{filename}")
    return problems


def check_predictions(inputs: Inputs, out: Path, seed) -> list[str]:
    dag = load_dag(out / "dag.json").dag
    training = {(o, d) for o, d, _ in load_labels(inputs.labels)}
    rows = load_predictions(out / "predictions.csv")
    problems = []
    expected = search_space_size(len(dag.nodes), len(training))
    if len(rows) != expected:
        problems.append(f"{len(rows)} prediction rows, search space is {expected}")
    pairs = {(o, d) for o, d, _, _ in rows}
    if len(pairs) != len(rows):
        problems.append("duplicate prediction rows")
    if any(o == d or (o, d) in training or o not in dag.nodes or d not in dag.nodes
           for o, d in pairs):
        problems.append("a prediction row is a self pair, a training pair or an unknown node")
    if any(label != (1 if decision >= 0.0 else -1) for _, _, label, decision in rows):
        problems.append("a prediction label disagrees with its decision value")

    model = load_model(out / "model.json")
    table = AttributeTable.from_csv(inputs.attributes.read_text(encoding="utf-8"))
    coefs = [float(a * y) for a, y in zip(model.sv_alphas, model.sv_labels)]
    svs = [list(sv) for sv in model.support_vectors]
    kind, gamma = model.params.kernel, model.params.gamma
    for i in sample_indices(len(rows), RESCORED_ROWS, seed, "predict"):
        origin, dest, _, decision = rows[i]
        x = branch_features(origin, dest, table)
        terms = [c * kernel_eval(kind, sv, x, gamma) for c, sv in zip(coefs, svs)]
        value = sum(terms) + model.bias
        scale = sum(abs(t) for t in terms) + abs(model.bias)
        if abs(value - decision) > RESCORE_RTOL * scale:
            problems.append(f"row ({origin}, {dest}): decision {decision!r}, re-scored {value!r}")
    return problems


def check_negatives(inputs: Inputs, out: Path, seed) -> list[str]:
    dagfile = load_dag(out / "dag.json")
    dag, blocks = dagfile.dag, dagfile.blocks
    table = AttributeTable.from_csv(inputs.attributes.read_text(encoding="utf-8"))
    exceptions = ExceptionList.from_csv(inputs.exceptions.read_text(encoding="utf-8"))
    rows = load_labels(out / "candidates.csv")
    problems = []
    if any(label != -1 for _, _, label in rows):
        problems.append("a negative candidate is not labeled -1")
    listed = {(o, d) for o, d, _ in rows}
    th = NegativeFilterThresholds()

    def candidate(u: int, v: int) -> bool:
        if u == v or (u, v) in dag.edges or (u, v) in exceptions:
            return False
        bu, bv = blocks[u], blocks[v]
        ht = height_diff(u, v, table)
        return (
            categories_independent(bu.category, bv.category,
                                   bu.socially_delivered, bv.socially_delivered)
            or ht < th.ht_diff_below
            or ht > th.ht_diff_above
            or hamming(u, v, table) >= th.min_hamming
            or (u in dag.heads and v in dag.leaves)
            or (u in dag.leaves and v in dag.leaves)
        )

    nodes = sorted(dag.nodes)
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    sample = [pairs[i] for i in sample_indices(len(pairs), SAMPLED_PAIRS, seed, "negatives")]
    for u, v in sample:
        if candidate(u, v) != ((u, v) in listed):
            problems.append(f"pair ({u}, {v}) is misclassified as a negative candidate")
    return problems


def _path_totals(section: dict, name: str) -> list[str]:
    if section["total"] != section["known"] + section["unexploited"]:
        return [f"{name}: total {section['total']} != known {section['known']} "
                f"+ unexploited {section['unexploited']}"]
    return []


def check_paths(out: Path) -> list[str]:
    payload = json.loads((out / "paths.json").read_text(encoding="utf-8"))
    problems = _path_totals(payload, "paths.json")
    if len(payload["paths"]) != payload["total"]:
        problems.append(f"paths.json lists {len(payload['paths'])} of {payload['total']} paths")
    return problems


def check_report(out: Path) -> list[str]:
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = _path_totals(payload["paths"], "report.json")
    rows = len(load_predictions(out / "predictions.csv"))
    if payload["candidates"]["total"] != rows:
        problems.append(f"report counts {payload['candidates']['total']} candidates, "
                        f"predictions.csv has {rows}")
    return problems


def check_outputs(commands, inputs: Inputs, out: Path, seed, golden: bool) -> dict[str, list[str]]:
    """Problems per command for one instance's final outputs."""
    problems: dict[str, list[str]] = check_golden(out) if golden else {}
    runs = {
        "predict": lambda: check_predictions(inputs, out, seed),
        "negatives": lambda: check_negatives(inputs, out, seed),
        "paths": lambda: check_paths(out),
        "report": lambda: check_report(out),
    }
    for command, check in runs.items():
        if command in commands:
            try:
                found = check()
            except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed output
                found = [f"output unreadable: {type(exc).__name__}: {exc}"]
            if found:
                problems.setdefault(command, []).extend(found)
    return problems
