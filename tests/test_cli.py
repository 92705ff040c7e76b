import dataclasses
import json
import shutil
from pathlib import Path

import pytest

import attackdag.cli as cli
from attackdag.cli import main
from attackdag.storage import (
    EXPLOIT_BUCKETS,
    load_dag,
    load_labels,
    load_predictions,
)

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One full pipeline run; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    for name in ("corpus.json", "attributes.csv", "labels.csv",
                 "exceptions.csv", "can_keep.txt"):
        shutil.copy(DATA / name, root / name)
    paths = {
        "corpus": root / "corpus.json",
        "attrs": root / "attributes.csv",
        "labels": root / "labels.csv",
        "dag": root / "dag.json",
        "model": root / "model.json",
        "preds": root / "predictions.csv",
        "report": root / "report.json",
        "root": root,
    }
    assert main(["ingest", "--corpus", str(paths["corpus"]), "--out", str(paths["dag"])]) == 0
    assert main(["train", "--dag", str(paths["dag"]), "--attrs", str(paths["attrs"]),
                 "--labels", str(paths["labels"]), "--out", str(paths["model"])]) == 0
    assert main(["predict", "--model", str(paths["model"]), "--dag", str(paths["dag"]),
                 "--attrs", str(paths["attrs"]), "--labels", str(paths["labels"]),
                 "--out", str(paths["preds"])]) == 0
    return paths


class TestPipeline:
    def test_ingest_reports_graph_shape(self, work, capsys):
        out = work["root"] / "dag2.json"
        assert main(["ingest", "--corpus", str(work["corpus"]), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "49 nodes, 32 edges" in captured
        assert "19 heads, 23 leaves" in captured

    def test_ingest_is_deterministic(self, work):
        again = work["root"] / "dag_rerun.json"
        assert main(["ingest", "--corpus", str(work["corpus"]), "--out", str(again)]) == 0
        assert again.read_bytes() == work["dag"].read_bytes()

    def test_attrs_check_passes(self, work, capsys):
        assert main(["attrs", "--dag", str(work["dag"]), "--attrs", str(work["attrs"])]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_attrs_attach_records_reference(self, work):
        dag_copy = work["root"] / "dag_attach.json"
        shutil.copy(work["dag"], dag_copy)
        assert main(["attrs", "--dag", str(dag_copy), "--attrs", str(work["attrs"]),
                     "--attach"]) == 0
        assert load_dag(dag_copy).attrs_ref == str(work["attrs"])

    def test_negatives_written_unlabeled_negative(self, work):
        out = work["root"] / "negatives.csv"
        assert main(["negatives", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--out", str(out), "--exceptions", str(work["root"] / "exceptions.csv")]) == 0
        rows = load_labels(out)
        assert rows and all(label == -1 for _, _, label in rows)
        dag = load_dag(work["dag"]).dag
        assert all((o, d) not in dag.edges for o, d, _ in rows)

    def test_train_then_predict_covers_search_space(self, work, capsys):
        preds = load_predictions(work["preds"])
        dag = load_dag(work["dag"]).dag
        n = len(dag.nodes)
        n_labeled = len(load_labels(work["labels"]))
        assert len(preds) == n * n - n - n_labeled
        labeled_pairs = {(o, d) for o, d, _ in load_labels(work["labels"])}
        assert all((o, d) not in labeled_pairs for o, d, _, _ in preds)

    def test_predict_is_deterministic(self, work):
        again = work["root"] / "preds_rerun.csv"
        assert main(["predict", "--model", str(work["model"]), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--out", str(again)]) == 0
        assert again.read_bytes() == work["preds"].read_bytes()

    def test_eval_with_baselines(self, work, capsys):
        assert main(["eval", "--model", str(work["model"]), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--baselines"]) == 0
        out = capsys.readouterr().out
        assert "svm:" in out
        for needle in ("knn k=2", "knn k=5", "gaussian nb", "decision tree", "sgd linear svm"):
            assert needle in out

    def test_csp_prints_rule_fires(self, work, capsys):
        out_file = work["root"] / "csp.csv"
        assert main(["csp", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(work["labels"]), "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "rule fires:" in out and "R1=" in out
        lines = out_file.read_text().splitlines()
        assert lines[0] == "origin,dest,label,rules"
        assert len(lines) == 1 + len(load_labels(work["labels"]))

    def test_paths_with_corpus_partition(self, work, capsys):
        out_file = work["root"] / "paths.json"
        assert main(["paths", "--dag", str(work["dag"]), "--corpus", str(work["corpus"]),
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "known" in out and "unexploited" in out
        payload = json.loads(out_file.read_text())
        assert payload["total"] == payload["known"] + payload["unexploited"]
        tags = {p["provenance"] for p in payload["paths"]}
        assert tags <= {"known", "unexploited"}

    def test_grid_search_writes_surface(self, work):
        out_file = work["root"] / "grid.json"
        assert main(["grid-search", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(work["labels"]), "--out", str(out_file),
                     "--c-values", "1", "--kernels", "rbf", "--gamma-values", "0.0556,0.5"]) == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["cells"]) == 2
        assert payload["best"]["kernel"] == "rbf"

    def test_report_payload_shape(self, work):
        assert main(["report", "--model", str(work["model"]), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--predictions", str(work["preds"]), "--corpus", str(work["corpus"]),
                     "--out", str(work["report"])]) == 0
        payload = json.loads(work["report"].read_text())
        assert set(payload["bucket_histogram"]) == set(EXPLOIT_BUCKETS)
        assert payload["candidates"]["total"] == len(load_predictions(work["preds"]))
        assert payload["candidates"]["reduction"].endswith("%")
        assert payload["run"]["params"]["kernel"] == "rbf"
        assert "reference_branch_stats" in payload
        assert "branch_stats" in payload
        assert payload["paths"]["total"] == payload["paths"]["known"] + payload["paths"]["unexploited"]
        assert len(payload["predicted_positives"]) == payload["candidates"]["predicted_positive"]
        decisions = [row["decision"] for row in payload["predicted_positives"]]
        assert decisions == sorted(decisions, reverse=True)

    def test_report_stable_modulo_timestamp(self, work):
        again = work["root"] / "report2.json"
        assert main(["report", "--model", str(work["model"]), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--predictions", str(work["preds"]), "--corpus", str(work["corpus"]),
                     "--out", str(again)]) == 0
        a = json.loads(work["report"].read_text())
        b = json.loads(again.read_text())
        a["run"].pop("timestamp")
        b["run"].pop("timestamp")
        assert a == b


class TestProjection:
    def test_project_then_refresh(self, work, capsys):
        sub_dag = work["root"] / "sub.json"
        assert main(["project", "--dag", str(work["dag"]),
                     "--keep-file", str(work["root"] / "can_keep.txt"),
                     "--out", str(sub_dag)]) == 0
        out = capsys.readouterr().out
        assert "projected to 20 nodes" in out

        # the old table is structurally stale for the subgraph
        assert main(["attrs", "--dag", str(sub_dag), "--attrs", str(work["attrs"])]) == 3
        refreshed = work["root"] / "attrs_sub.csv"
        assert main(["attrs", "--dag", str(sub_dag), "--attrs", str(work["attrs"]),
                     "--refresh-structural", str(refreshed)]) == 0
        assert main(["attrs", "--dag", str(sub_dag), "--attrs", str(refreshed)]) == 0

    def test_project_mixes_ids_and_descriptions(self, work):
        out = work["root"] / "mini.json"
        assert main(["project", "--dag", str(work["dag"]),
                     "--keep", "0,1,weak password", "--out", str(out)]) == 0
        sub = load_dag(out)
        assert len(sub.dag.nodes) == 3

    def test_project_unknown_description_is_invariant_error(self, work):
        assert main(["project", "--dag", str(work["dag"]),
                     "--keep", "no such node anywhere", "--out",
                     str(work["root"] / "nope.json")]) == 3

    def test_project_without_keep_is_usage_error(self, work):
        assert main(["project", "--dag", str(work["dag"]),
                     "--out", str(work["root"] / "nope.json")]) == 1


class TestAnnotationFlow:
    def test_add_then_fold_last_verdict_wins(self, work, tmp_path):
        ann = tmp_path / "ann.csv"
        labels_out = tmp_path / "merged.csv"
        pair = ("40", "4")
        assert main(["annotate", "add", "--annotations", str(ann), "--origin", pair[0],
                     "--dest", pair[1], "--verdict", "infeasible", "--annotator", "alice"]) == 0
        assert main(["annotate", "add", "--annotations", str(ann), "--origin", pair[0],
                     "--dest", pair[1], "--verdict", "feasible", "--annotator", "bob",
                     "--note", "reproduced in lab"]) == 0
        assert main(["annotate", "fold", "--annotations", str(ann),
                     "--labels", str(work["labels"]), "--out", str(labels_out)]) == 0
        merged = {(o, d): l for o, d, l in load_labels(labels_out)}
        assert merged[(40, 4)] == 1  # bob's later verdict wins

    def test_fold_conflicting_with_existing_label_fails(self, work, tmp_path, capsys):
        existing = load_labels(work["labels"])
        origin, dest, label = existing[0]
        ann = tmp_path / "ann.csv"
        verdict = "infeasible" if label == 1 else "feasible"
        assert main(["annotate", "add", "--annotations", str(ann), "--origin", str(origin),
                     "--dest", str(dest), "--verdict", verdict, "--annotator", "carol"]) == 0
        assert main(["annotate", "fold", "--annotations", str(ann),
                     "--labels", str(work["labels"]), "--out", str(tmp_path / "x.csv")]) == 3
        assert "conflict" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_errors(self, work):
        assert main([]) == 1
        assert main(["no-such-command"]) == 1
        assert main(["ingest"]) == 1  # missing required flags
        assert main(["ingest", "--corpus", str(work["corpus"]),
                     "--out", "x.json", "--bogus-flag"]) == 1
        assert main(["train", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(work["labels"]), "--out", "m.json",
                     "--kernel", "quantum"]) == 1
        assert main(["train", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(work["labels"]), "--out", "m.json",
                     "--seed", "0"]) == 1  # retired: training is deterministic

    def test_help_exits_zero(self):
        # argparse raises SystemExit(0) for --help; main converts that to 0
        assert main(["--help"]) == 0
        assert main(["ingest", "--help"]) == 0

    def test_missing_file_is_parse_error(self, tmp_path):
        assert main(["ingest", "--corpus", str(tmp_path / "ghost.json"),
                     "--out", str(tmp_path / "dag.json")]) == 2

    def test_corpus_json_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["ingest", "--corpus", str(bad), "--out", str(tmp_path / "d.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corpus_expression_error_names_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "category_map": {"x": "memory"},
            "attacks": [{"name": "broken", "categories": ["x"],
                         "expression": "bb_i(p).."}],
        }, indent=1))
        assert main(["ingest", "--corpus", str(bad), "--out", str(tmp_path / "d.json")]) == 2
        err = capsys.readouterr().err
        assert "broken" in err
        assert str(bad) in err

    def test_cross_attack_cycle_is_invariant_error(self, tmp_path, capsys):
        cyclic = tmp_path / "cyclic.json"
        cyclic.write_text(json.dumps({
            "category_map": {"x": "memory"},
            "attacks": [
                {"name": "forward", "categories": ["x"], "expression": "bb_i(p).bb_j(q)"},
                {"name": "backward", "categories": ["x"], "expression": "bb_i(q).bb_j(p)"},
            ],
        }))
        assert main(["ingest", "--corpus", str(cyclic), "--out", str(tmp_path / "d.json")]) == 3
        assert "invariant violation" in capsys.readouterr().err

    def test_stale_attrs_is_invariant_error(self, work, tmp_path, capsys):
        stale = tmp_path / "stale.csv"
        lines = work["attrs"].read_text().splitlines()
        # corrupt one mean_depth (last column of the first data row)
        cells = lines[1].split(",")
        cells[-2] = "123.0"
        lines[1] = ",".join(cells)
        stale.write_text("\n".join(lines) + "\n")
        assert main(["attrs", "--dag", str(work["dag"]), "--attrs", str(stale)]) == 3
        assert "attribute mismatch" in capsys.readouterr().err

    def test_fingerprint_mismatch_and_force(self, work, tmp_path, capsys):
        tampered = tmp_path / "labels.csv"
        tampered.write_text(work["labels"].read_text() + "\n")
        args = ["eval", "--model", str(work["model"]), "--dag", str(work["dag"]),
                "--attrs", str(work["attrs"]), "--labels", str(tampered)]
        assert main(args) == 3
        assert "invariant violation" in capsys.readouterr().err
        assert main(args + ["--force"]) == 0

    def test_paths_with_foreign_corpus_is_invariant_error(self, work, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({
            "category_map": {"x": "memory"},
            "attacks": [{"name": "a", "categories": ["x"], "expression": "bb_i(p)"}],
        }))
        assert main(["paths", "--dag", str(work["dag"]), "--corpus", str(other)]) == 3
        assert "does not rebuild" in capsys.readouterr().err

    def test_short_prediction_row_is_parse_error(self, work, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("origin,dest,label,decision\n1,2,1\n")
        assert main(["report", "--model", str(work["model"]), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--predictions", str(preds), "--out", str(tmp_path / "r.json")]) == 2
        assert f"{preds}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["nodes", "edges"])
    def test_dag_without_key_is_parse_error(self, tmp_path, capsys, key):
        dag = tmp_path / "dag.json"
        dag.write_text(json.dumps({k: [] for k in ("nodes", "edges") if k != key}))
        assert main(["paths", "--dag", str(dag)]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_short_exceptions_row_is_parse_error(self, work, tmp_path, capsys):
        exceptions = tmp_path / "exceptions.csv"
        exceptions.write_text("origin_node_id,dest_node_id,note\n26,30\n")
        assert main(["negatives", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--exceptions", str(exceptions), "--out", str(tmp_path / "neg.csv")]) == 2
        assert f"{exceptions}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("table", ["labels", "annotations", "attrs"])
    def test_short_table_row_is_located_parse_error(self, work, tmp_path, capsys, table):
        short = tmp_path / f"{table}.csv"
        header, row = work["attrs"].read_text().splitlines()[:2]
        short.write_text({
            "labels": "origin,dest,label\n40,4\n",
            "annotations": "origin,dest,verdict,annotator,note\n40,4,feasible\n",
            "attrs": f"{header}\n{row.rsplit(',', 1)[0]}\n",  # no provenance field
        }[table])
        argv = {
            "labels": ["train", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                       "--labels", str(short), "--out", str(tmp_path / "m.json")],
            "annotations": ["annotate", "fold", "--annotations", str(short),
                            "--labels", str(work["labels"]), "--out", str(tmp_path / "l.csv")],
            "attrs": ["csp", "--dag", str(work["dag"]), "--attrs", str(short),
                      "--labels", str(work["labels"])],
        }[table]
        assert main(argv) == 2
        assert f"error: {short}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("edit, key", [
        (lambda payload: payload.pop("bias"), "'bias'"),
        (lambda payload: payload["params"].update(colour="blue"), "'colour'"),
    ], ids=["no-bias", "unknown-param"])
    def test_malformed_model_is_parse_error(self, work, tmp_path, capsys, edit, key):
        payload = json.loads(work["model"].read_text())
        edit(payload)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        assert main(["eval", "--model", str(model), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--force"]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and key in err

    def test_short_candidate_set_is_invariant_error(self, work, tmp_path, monkeypatch, capsys):
        real = cli.enumerate_candidates

        def one_short(*args):
            frame = real(*args)
            return dataclasses.replace(frame, origins=frame.origins[:-1], dests=frame.dests[:-1],
                                       features=frame.features[:-1])

        monkeypatch.setattr(cli, "enumerate_candidates", one_short)
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(work["model"]), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--out", str(out)]) == 3
        assert "search space is" in capsys.readouterr().err
        assert not out.exists()
