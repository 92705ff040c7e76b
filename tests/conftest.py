import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from attackdag import AttributeTable, labeled_frame, load_corpus
from attackdag.cli import main
from attackdag.expr import parse_expression
from attackdag.storage import load_labels

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"


@pytest.fixture(scope="session")
def corpus():
    return load_corpus(DATA / "corpus.json")


@pytest.fixture(scope="session")
def corpus_expressions():
    """Each bundled attack's name and parsed expression, in file order."""
    attacks = json.loads((DATA / "corpus.json").read_text(encoding="utf-8"))["attacks"]
    return [(attack["name"], parse_expression(attack["expression"])) for attack in attacks]


@pytest.fixture(scope="session")
def dag(corpus):
    return corpus.attack_dag()


@pytest.fixture(scope="session")
def table():
    return AttributeTable.from_csv((DATA / "attributes.csv").read_text())


@pytest.fixture(scope="session")
def labeled(table):
    return labeled_frame(load_labels(DATA / "labels.csv"), table)


@pytest.fixture(scope="session")
def csp_run(tmp_path_factory):
    """`csp --out` on the bundled data: its (origin, dest, label, fired rules) rows
    and its printed (tp, fp, tn, fn) counts."""
    root = tmp_path_factory.mktemp("csp")
    dag, out = root / "dag.json", root / "csp.csv"
    printed = io.StringIO()
    with redirect_stdout(printed):
        assert main(["ingest", "--corpus", str(DATA / "corpus.json"), "--out", str(dag)]) == 0
        assert main(["csp", "--dag", str(dag), "--attrs", str(DATA / "attributes.csv"),
                     "--labels", str(DATA / "labels.csv"), "--out", str(out)]) == 0
    rows = []
    for line in out.read_text().splitlines()[1:]:
        origin, dest, label, rules = line.split(",")
        rows.append((int(origin), int(dest), int(label), tuple(filter(None, rules.split(";")))))
    counts = re.search(r"counts: tp=(\d+) fp=(\d+) tn=(\d+) fn=(\d+)", printed.getvalue())
    return rows, tuple(map(int, counts.groups()))


@pytest.fixture(scope="session")
def data_dir():
    return DATA
