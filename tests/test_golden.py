"""The bundled runs reproduce the tracked artifacts byte for byte.

The nine commands are the ones scripts/run_pipeline.py runs, the CAN case
study is scripts/can_case_study.py, and scripts/build_corpus_artifacts.py
writes data/attributes.csv and data/labels.csv; each is pointed at a
temporary directory instead of out/, out/can/ or data/.  The scores that
``eval --baselines`` and ``csp`` print on the bundled data are pinned too,
and so is the digest of the rows ``csp --out`` writes.  Beyond the bundled
data, whose candidates fit one scoring window, a generated corpus checks
the bytes of ``candidates.csv``, ``predictions.csv`` and ``report.json``
against references built row by row.
"""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from attackdag.cli import main
from attackdag.features import AttributeTable, enumerate_candidates
from attackdag.learn import svm
from attackdag.negatives import ExceptionList, NegativeFilterThresholds, generate_negative_candidates
from attackdag import storage

REPO = Path(__file__).resolve().parent.parent
TRACKED = REPO / "out"
DATA = REPO / "data"
IDENTICAL = ("dag.json", "candidates.csv", "model.json", "predictions.csv", "paths.json")
CAN_FILES = ("dag.json", "can_dag.json", "can_attrs.csv", "can_labels.csv", "can_model.json",
             "can_predictions.csv", "can_paths.json")
_TIMESTAMP = re.compile(rb'\n *"timestamp": "[^"]*",?')


def _without_timestamp(data: bytes) -> bytes:
    stripped, count = _TIMESTAMP.subn(b"", data, count=1)
    assert count == 1, "report has no run timestamp"
    return stripped


def _run_script(name, out):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = out
    assert script.main_script() == 0
    return out


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    return _run_script("run_pipeline", tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", IDENTICAL)
def test_artifact_byte_identical(rerun, name):
    assert (rerun / name).read_bytes() == (TRACKED / name).read_bytes()


def test_report_identical_except_timestamp(rerun):
    got = _without_timestamp((rerun / "report.json").read_bytes())
    assert got == _without_timestamp((TRACKED / "report.json").read_bytes())


def test_can_case_study_byte_identical(tmp_path):
    out = _run_script("can_case_study", tmp_path / "can")
    for name in CAN_FILES:
        assert (out / name).read_bytes() == (TRACKED / "can" / name).read_bytes(), name


def test_corpus_artifacts_byte_identical(tmp_path):
    out = _run_script("build_corpus_artifacts", tmp_path / "data")
    for name in ("attributes.csv", "labels.csv"):
        assert (out / name).read_bytes() == (DATA / name).read_bytes(), name


_BUNDLED = ["--dag", str(TRACKED / "dag.json"), "--attrs", str(DATA / "attributes.csv"),
            "--labels", str(DATA / "labels.csv")]
_EVAL_BASELINES = """\
svm:
counts: tp=32 fp=10 tn=56 fn=0
accuracy=0.898 precision=0.762 recall=1 fpr=0.152 f1=0.865
knn k=2: accuracy=0.98 fn=2 fp=0
knn k=3: accuracy=0.99 fn=0 fp=1
knn k=4: accuracy=0.969 fn=3 fp=0
knn k=5: accuracy=0.929 fn=0 fp=7
gaussian nb: accuracy=0.857 fn=0 fp=14
decision tree: accuracy=1 fn=0 fp=0
sgd linear svm: accuracy=0.765 fn=15 fp=8
"""
_CSP = """\
counts: tp=27 fp=14 tn=52 fn=5
accuracy=0.806 precision=0.659 recall=0.844 fpr=0.212 f1=0.74
rule fires: R1=35 R2=9 R3=18
"""


@pytest.mark.parametrize("argv, stdout", [
    (["eval", "--baselines", "--model", str(TRACKED / "model.json"), *_BUNDLED], _EVAL_BASELINES),
    (["csp", *_BUNDLED], _CSP),
], ids=["eval-baselines", "csp"])
def test_bundled_stdout(capsys, argv, stdout):
    """The printed scores of the tracked model, the baselines and the rules."""
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout


def test_bundled_csp_out_digest(tmp_path):
    """The per-branch rule rows that ``csp --out`` writes on the bundled data."""
    out = tmp_path / "csp.csv"
    assert main(["csp", *_BUNDLED, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1a0926c3e6cb3ba176677da974ecfd007d5252684f9856e529288004b955fa01")


def test_artifacts_beyond_one_window_match_row_by_row_references(tmp_path, capsys, monkeypatch):
    """negatives, predict and report on a generated 127-node corpus (perfbench's
    generator), whose candidates span four scoring windows and whose predicted
    positives span two record blocks, against references built row by row from
    the frames and from json.dumps of the positives' list of dicts."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    gen = importlib.import_module("gen")
    gen.write(gen.Spec(families=30, shared_entries=4, shared_exits=3, labels=400), "1/0", tmp_path)
    files = {name: str(tmp_path / name) for name in (
        "corpus.json", "attributes.csv", "labels.csv", "exceptions.csv", "dag.json",
        "candidates.csv", "model.json", "predictions.csv", "report.json")}
    scored = ["--dag", files["dag.json"], "--attrs", files["attributes.csv"],
              "--labels", files["labels.csv"]]
    for argv in (["ingest", "--corpus", files["corpus.json"], "--out", files["dag.json"]],
                 ["negatives", *scored[:4], "--exceptions", files["exceptions.csv"],
                  "--out", files["candidates.csv"]],
                 ["train", *scored, "--out", files["model.json"]],
                 ["predict", "--model", files["model.json"], *scored,
                  "--out", files["predictions.csv"]],
                 ["report", "--model", files["model.json"], *scored,
                  "--predictions", files["predictions.csv"], "--out", files["report.json"]]):
        assert main(argv) == 0, capsys.readouterr()

    dagfile = storage.load_dag(files["dag.json"])
    table = AttributeTable.from_csv(Path(files["attributes.csv"]).read_text())
    exceptions = ExceptionList.from_csv(Path(files["exceptions.csv"]).read_text())
    negatives = generate_negative_candidates(dagfile.dag, table, dagfile.blocks, exceptions,
                                             NegativeFilterThresholds())
    rows = zip(negatives.origins.tolist(), negatives.dests.tolist(), negatives.labels.tolist())
    assert Path(files["candidates.csv"]).read_text() == storage.csv_text(
        storage.LABELS_HEADER, rows)

    training = {(o, d) for o, d, _ in storage.load_labels(files["labels.csv"])}
    candidates = enumerate_candidates(dagfile.dag, table, training)
    assert len(candidates) > 2 * svm.SCORE_BLOCK_ROWS
    decisions = storage.load_model(files["model.json"]).decision_values(candidates.features)
    scored_rows = list(zip(candidates.origins.tolist(), candidates.dests.tolist(),
                           decisions.tolist()))
    lines = ["%d,%d,%d,%r\n" % (o, d, 1 if v >= 0.0 else -1, v) for o, d, v in scored_rows]
    assert Path(files["predictions.csv"]).read_text() == (
        "origin,dest,label,decision\n" + "".join(lines))

    # sorted() is stable, so equal decisions keep their file order.
    positives = sorted((row for row in scored_rows if row[2] >= 0.0), key=lambda row: -row[2])
    assert len(positives) > storage.POSITIVES_BLOCK_ROWS
    blocks, buckets = dagfile.blocks, dagfile.buckets
    records = [{"origin": o, "dest": d, "origin_text": blocks[o].raw_text,
                "dest_text": blocks[d].raw_text, "decision": v,
                "bucket": buckets.get(d, buckets.get(o))} for o, d, v in positives]
    text = Path(files["report.json"]).read_text()
    payload = json.loads(text)
    assert len(payload["predicted_positives"]) == len(records)
    payload["predicted_positives"] = records
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
