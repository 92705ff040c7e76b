"""The workloads: their inputs and the CLI commands one pass runs."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from gen import Spec

# Files each command writes into the pass's output directory.
OUTPUTS = {
    "ingest": ("dag.json",),
    "attrs": (),
    "negatives": ("candidates.csv",),
    "train": ("model.json",),
    "predict": ("predictions.csv",),
    "paths": ("paths.json",),
    "csp": (),
    "eval": (),
    "grid-search": ("surface.json",),
    "report": ("report.json",),
}

COMMANDS = tuple(OUTPUTS)

_TIMESTAMP = re.compile(rb'\n *"timestamp": "[^"]*",?')


def artifact_bytes(path: Path) -> bytes:
    """File contents; a report loses its run timestamp, the one varying field."""
    data = path.read_bytes()
    return _TIMESTAMP.sub(b"", data, count=1) if path.name == "report.json" else data


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]  # one pass, in order
    spec: Spec | None  # None: the bundled data/ directory
    instances: int  # generated corpora; passes cycle through them in order
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bundled",
            ("ingest", "attrs", "negatives", "train", "predict", "paths", "csp", "eval",
             "grid-search", "report"),
            None,
            1,
            "the shipped corpus and byte-for-byte contract; small layers, so per-call cost "
            "decides, except the 45-cell grid search (fit-many, score-few)",
        ),
        Workload(
            "scale",
            ("ingest", "attrs", "negatives", "train", "predict", "paths", "csp", "report"),
            Spec(families=66, shared_entries=8, shared_exits=6, labels=800),
            4,
            "277 nodes and 76k candidate pairs: O(n^2) pair layers, full-kernel predict "
            "and large artifact writes dominate; SMO is one fit scored many times",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    attributes: Path
    labels: Path
    exceptions: Path

    @classmethod
    def in_dir(cls, directory: Path) -> "Inputs":
        return cls(directory / "corpus.json", directory / "attributes.csv",
                   directory / "labels.csv", directory / "exceptions.csv")


def argv(command: str, inputs: Inputs, out: Path) -> list[str]:
    """The CLI arguments for one command of a pass."""
    dag, model = str(out / "dag.json"), str(out / "model.json")
    predictions = str(out / "predictions.csv")
    attrs, labels = str(inputs.attributes), str(inputs.labels)
    scored = ["--dag", dag, "--attrs", attrs, "--labels", labels]
    return {
        "ingest": ["ingest", "--corpus", str(inputs.corpus), "--out", dag],
        "attrs": ["attrs", "--dag", dag, "--attrs", attrs, "--check"],
        "negatives": ["negatives", "--dag", dag, "--attrs", attrs,
                      "--exceptions", str(inputs.exceptions),
                      "--out", str(out / "candidates.csv")],
        "train": ["train", *scored, "--out", model],
        "predict": ["predict", "--model", model, *scored, "--out", predictions],
        "paths": ["paths", "--dag", dag, "--corpus", str(inputs.corpus),
                  "--out", str(out / "paths.json")],
        "csp": ["csp", *scored],
        "eval": ["eval", "--model", model, *scored, "--baselines"],
        "grid-search": ["grid-search", *scored, "--out", str(out / "surface.json")],
        "report": ["report", "--model", model, *scored, "--predictions", predictions,
                   "--corpus", str(inputs.corpus), "--out", str(out / "report.json")],
    }[command]
