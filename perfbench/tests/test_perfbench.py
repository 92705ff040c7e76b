"""Tests of the benchmark itself: its generator, its output checks, its tail.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
from attackdag.cli import main as cli_main  # noqa: E402
from attackdag.model import validate_dag  # noqa: E402
from attackdag.storage import load_corpus  # noqa: E402
from run import failures, tail  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import WORKLOADS, Inputs, argv  # noqa: E402

SEED = 3
GENERATED = [w for w in WORKLOADS.values() if w.spec is not None]


@pytest.mark.parametrize("workload", GENERATED, ids=lambda w: w.name)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = gen.generate(workload.spec, "7/0")
    assert first == gen.generate(workload.spec, "7/0")
    assert first != gen.generate(workload.spec, "8/0")


@pytest.mark.parametrize("workload", GENERATED, ids=lambda w: w.name)
def test_generated_inputs_pass_attrs_check_and_validate_dag(workload, tmp_path):
    sizes = []
    for seed in ("1/0", "2/0"):
        inputs = Inputs.in_dir(tmp_path / seed.replace("/", "-"))
        gen.write(workload.spec, seed, inputs.corpus.parent)
        dag = load_corpus(inputs.corpus).attack_dag()
        assert validate_dag(dag) == []
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        assert cli_main(argv("ingest", inputs, out)) == 0
        assert cli_main(argv("attrs", inputs, out)) == 0
        sizes.append(len(dag.nodes))
    # Node counts are fixed by the spec, so seeds differ only in content.
    assert sizes[0] == sizes[1]


def test_golden_digests_match_tracked_out():
    if not (ROOT / "out").is_dir():
        pytest.skip("no tracked out/ directory in this checkout")
    golden = json.loads(checks.GOLDEN.read_text(encoding="utf-8"))
    for filename in checks.GOLDEN_FILES:
        assert checks.artifact_digest(ROOT / "out" / filename) == golden[filename], filename


@pytest.fixture(scope="module")
def bundled_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundled")
    record = run_pass(WORKLOADS["bundled"].commands, Inputs.in_dir(ROOT / "data"), out)
    assert all(r["code"] == 0 for r in record["commands"])
    # The reference runs before every command and after the last, outside the pass time.
    assert len(record["references"]) == len(record["commands"]) + 1
    assert record["wall"] == sum(r["wall"] for r in record["commands"])
    return out


@pytest.fixture
def outputs(bundled_out, tmp_path):
    copy = tmp_path / "out"
    shutil.copytree(bundled_out, copy)
    return copy


BUNDLED_INPUTS = Inputs.in_dir(ROOT / "data")


def test_bundled_outputs_pass_every_check(outputs):
    assert checks.check_outputs(WORKLOADS["bundled"].commands, BUNDLED_INPUTS, outputs,
                                SEED, golden=True) == {}


def test_generated_outputs_pass_every_check(tmp_path):
    inputs = Inputs.in_dir(tmp_path / "in")
    gen.write(gen.Spec(families=17, shared_entries=4, shared_exits=3, labels=150), "5/0",
              inputs.corpus.parent)
    out = tmp_path / "out"
    out.mkdir()
    commands = ("ingest", "negatives", "train", "predict", "paths", "report")
    record = run_pass(commands, inputs, out)
    assert all(r["code"] == 0 for r in record["commands"])
    assert checks.check_outputs(commands, inputs, out, SEED, golden=False) == {}


def _rewrite_rows(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(lines[0] + "".join(edit(lines[1:])), encoding="utf-8")


def test_altered_decision_value_fails_rescoring(outputs):
    rows = (outputs / "predictions.csv").read_text().splitlines()[1:]
    target = checks.sample_indices(len(rows), checks.RESCORED_ROWS, SEED, "predict")[0]

    def alter(lines):
        o, d, label, decision = lines[target].strip().split(",")
        lines[target] = f"{o},{d},{label},{float(decision) * (1 + 1e-6)!r}\n"
        return lines

    _rewrite_rows(outputs / "predictions.csv", alter)
    assert checks.check_predictions(BUNDLED_INPUTS, outputs, SEED)
    assert "predict" in checks.check_golden(outputs)


def test_dropped_prediction_row_fails_count(outputs):
    _rewrite_rows(outputs / "predictions.csv", lambda lines: lines[:-1])
    problems = checks.check_predictions(BUNDLED_INPUTS, outputs, SEED)
    assert any("search space" in p for p in problems)


def test_flipped_negative_candidate_fails_sample(outputs):
    nodes = sorted(int(l.split(",")[0]) for l in BUNDLED_INPUTS.attributes.read_text().splitlines()[1:])
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    u, v = pairs[checks.sample_indices(len(pairs), checks.SAMPLED_PAIRS, SEED, "negatives")[0]]

    def flip(lines):
        row = f"{u},{v},-1\n"
        return [l for l in lines if l != row] if row in lines else sorted(lines + [row])

    _rewrite_rows(outputs / "candidates.csv", flip)
    assert checks.check_negatives(BUNDLED_INPUTS, outputs, SEED)
    assert "negatives" in checks.check_golden(outputs)


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def test_path_totals_must_add_up(outputs):
    _edit_json(outputs / "paths.json", lambda p: p.update(total=p["total"] + 1))
    assert checks.check_paths(outputs)
    _edit_json(outputs / "report.json", lambda p: p["paths"].update(known=p["paths"]["known"] - 1))
    assert checks.check_report(outputs)


def test_report_timestamp_is_ignored_but_content_is_not(outputs):
    _edit_json(outputs / "report.json", lambda p: p["run"].update(timestamp="another time"))
    assert checks.check_golden(outputs) == {}
    _edit_json(outputs / "report.json", lambda p: p["candidates"].update(total=1))
    assert "report" in checks.check_golden(outputs)
    assert checks.check_report(outputs)


def _pass(instance, digest, code=0):
    return {"instance": instance,
            "commands": [{"command": "predict", "code": code, "error": "", "digest": digest}]}


def test_digest_change_across_passes_and_exit_codes_fail_operations():
    passes = [_pass(0, "a"), _pass(1, "b"), _pass(0, "a"), _pass(0, "c"), _pass(1, "b", code=3)]
    failed = failures(passes, {0: {}, 1: {}})
    assert set(failed) == {(3, "predict"), (4, "predict")}
    failed = failures(passes[:3], {0: {"predict": ["bad"]}, 1: {}})
    assert set(failed) == {(0, "predict"), (2, "predict")}


def test_traced_pass_restores_entry_points_and_changes_no_output(tmp_path):
    import tracing

    before = [(o, a, o.__dict__[a] if isinstance(o, type) else getattr(o, a))
              for o, a, _, _ in tracing.PLAN]
    commands = WORKLOADS["bundled"].commands
    plain = run_pass(commands, BUNDLED_INPUTS, tmp_path)
    tracer = tracing.Tracer(pass_id=7)
    with tracing.installed(tracer):
        traced = run_pass(commands, BUNDLED_INPUTS, tmp_path, tracer)
    assert all((o.__dict__[a] if isinstance(o, type) else getattr(o, a)) is raw
               for o, a, raw in before)
    assert tracer.missing == []
    assert [r["digest"] for r in traced["commands"]] == [r["digest"] for r in plain["commands"]]

    spans = tracer.records()
    assert {s["pass"] for s in spans} == {7}
    assert all(s["start"] <= s["end"] for s in spans)
    assert all(s["parent"] is None or spans[s["parent"]]["start"] <= s["start"] for s in spans)
    assert sorted(s["name"] for s in spans if s["parent"] is None) == sorted(f"cli:{c}" for c in commands)

    layers = tracing.layer_metrics(tracer)
    assert set(layers) == set(tracing.LAYER_METRICS) - {"trace.overhead_s"}
    assert layers["graph.nodes"] == 49 and layers["features.pairs"] == 2254
    # train plus the 45 grid cells, each building one 98 x 98 Gram matrix,
    # while the grid has 15 distinct (kernel, gamma) pairs.
    assert layers["learn.svm.fits"] == 46 and layers["learn.gridsearch.cells"] == 45
    assert layers["learn.svm.gram_entries"] == 46 * 98 * 98
    assert layers["learn.gridsearch.gram_reuse"] == pytest.approx(15 / 45)
    assert layers["learn.baselines.knn_queries"] == 4 * 98
    assert all(layers[f"cli.{c}_s"] > 0 for c in commands)


def test_tail_needs_ten_samples_beyond_it():
    assert tail([float(v) for v in range(30)]) == (19.0, 100.0 * 20 / 30)
    # From twenty samples down, the median is the best-supported percentile.
    assert tail([float(v) for v in range(20)]) == (9.0, 50.0)
    assert tail([float(v) for v in range(9)]) == (4.0, 100.0 * 5 / 9)


def test_scaled_time_is_wall_time_at_the_reference_speed():
    assert hostspeed.reference() > 0
    assert hostspeed.scaled(2.0, [hostspeed.REFERENCE_S] * 3) == pytest.approx(2.0)
    # A host that runs the reference at half speed ran the pass at half speed too.
    slow = 2 * hostspeed.REFERENCE_S
    assert hostspeed.scaled(2.0, [slow, slow]) == pytest.approx(1.0)
