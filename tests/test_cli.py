import argparse
import ast
import contextlib
import dataclasses
import graphlib
import io
import json
import math
import re
import shlex
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import attackdag.cli as cli
import attackdag.learn.svm as svm_module
from attackdag.cli import build_parser, main
from attackdag.features import ATTRS_CSV_HEADER, AttributeTable, enumerate_candidates
from attackdag.learn import GridSpec, SvmParams
from attackdag.learn.svm import KERNELS
from attackdag.negatives import NegativeFilterThresholds, categories_independent
from attackdag.storage import (
    EXPLOIT_BUCKETS,
    VERDICTS,
    load_dag,
    load_labels,
    load_model,
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

    def test_attrs_attach_rewrites_only_attrs_ref(self, work, tmp_path):
        dag_copy = tmp_path / "dag.json"
        shutil.copy(work["dag"], dag_copy)
        assert main(["attrs", "--dag", str(dag_copy), "--attrs", str(work["attrs"]),
                     "--attach"]) == 0
        ingested = work["dag"].read_bytes()
        assert ingested.count(b'"attrs_ref": null') == 1
        reference = json.dumps(str(work["attrs"])).encode()
        assert dag_copy.read_bytes() == ingested.replace(b'"attrs_ref": null',
                                                         b'"attrs_ref": ' + reference)

    def test_negatives_written_unlabeled_negative(self, work):
        out = work["root"] / "negatives.csv"
        assert main(["negatives", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--out", str(out), "--exceptions", str(work["root"] / "exceptions.csv")]) == 0
        rows = load_labels(out)
        assert rows and all(label == -1 for _, _, label in rows)
        dag = load_dag(work["dag"]).dag
        assert all((o, d) not in dag.edges for o, d, _ in rows)

    def test_negatives_independence_only_keeps_only_independent_categories(self, work):
        default, only = work["root"] / "negatives_default.csv", work["root"] / "negatives_ind.csv"
        inputs = ["--dag", str(work["dag"]), "--attrs", str(work["attrs"])]
        assert main(["negatives", *inputs, "--out", str(default)]) == 0
        assert main(["negatives", *inputs, "--out", str(only), "--independence-only"]) == 0
        blocks = load_dag(work["dag"]).blocks
        pairs = [(o, d) for o, d, _ in load_labels(only)]
        assert pairs and all(
            categories_independent(blocks[o].category, blocks[d].category,
                                   blocks[o].socially_delivered, blocks[d].socially_delivered)
            for o, d in pairs)
        assert set(pairs) < {(o, d) for o, d, _ in load_labels(default)}

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

    def test_stored_shrinking_flag_has_no_effect(self, work, tmp_path):
        # model.json still carries SvmParams.shrinking; either value loads and
        # predicts the same rows.
        text = work["model"].read_text()
        assert text.count('"shrinking": true') == 1
        stored = tmp_path / "model.json"
        stored.write_text(text.replace('"shrinking": true', '"shrinking": false'))
        assert load_model(stored).params.shrinking is False
        out = tmp_path / "predictions.csv"
        assert main(["predict", "--model", str(stored), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == work["preds"].read_bytes()

    def test_report_carries_the_stored_shrinking_flag(self, work, tmp_path):
        # report.json's params echo the stored flag; nothing else changes.
        stored = tmp_path / "model.json"
        stored.write_text(work["model"].read_text().replace('"shrinking": true',
                                                            '"shrinking": false'))
        reports = []
        for model in (work["model"], stored):
            out = tmp_path / f"report-{len(reports)}.json"
            assert main(["report", "--model", str(model), "--dag", str(work["dag"]),
                         "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                         "--predictions", str(work["preds"]), "--corpus", str(work["corpus"]),
                         "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        flags = [report["run"]["params"].pop("shrinking") for report in reports]
        assert flags == [True, False]
        for report in reports:
            del report["run"]["timestamp"]
        assert reports[0] == reports[1]

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

    def test_paths_tags_provenance_only_with_corpus(self, work, tmp_path):
        tracked = json.loads((REPO / "out" / "paths.json").read_text())
        tagged, bare = tmp_path / "tagged.json", tmp_path / "bare.json"
        assert main(["paths", "--dag", str(work["dag"]), "--corpus", str(work["corpus"]),
                     "--out", str(tagged)]) == 0
        assert json.loads(tagged.read_text()) == tracked
        assert main(["paths", "--dag", str(work["dag"]), "--out", str(bare)]) == 0
        assert json.loads(bare.read_text()) == {
            "total": tracked["total"], "paths": [{"nodes": p["nodes"]} for p in tracked["paths"]]}

    def test_paths_read_the_rebuilt_dags_provenance(self, work, tmp_path):
        """A hand-edited provenance in dag.json changes no tag: the corpus decides."""
        body = json.loads(work["dag"].read_text())
        body["provenance"] = {key: ["edited"] for key in body["provenance"]}
        edited, want, got = tmp_path / "dag.json", tmp_path / "want.json", tmp_path / "got.json"
        edited.write_text(json.dumps(body))
        for dag, out in ((work["dag"], want), (edited, got)):
            assert main(["paths", "--dag", str(dag), "--corpus", str(work["corpus"]),
                         "--out", str(out)]) == 0
        assert got.read_bytes() == want.read_bytes()
        assert json.loads(got.read_text())["unexploited"] > 0

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

    def test_report_bucket_is_the_dests_else_the_origins(self, work, tmp_path):
        # Every bundled positive's dest has a bucket; dropping the buckets of
        # the odd nodes makes some branches fall back to their origin's.
        dag = json.loads(work["dag"].read_text())
        for node in dag["nodes"]:
            if node["id"] % 2:
                node.pop("bucket", None)
        edited, out = tmp_path / "dag.json", tmp_path / "report.json"
        edited.write_text(json.dumps(dag))
        assert main(["report", "--model", str(work["model"]), "--dag", str(edited),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--predictions", str(work["preds"]), "--out", str(out), "--force"]) == 0
        payload = json.loads(out.read_text())
        buckets = load_dag(edited).buckets
        rows = payload["predicted_positives"]
        want = [buckets.get(row["dest"], buckets.get(row["origin"])) for row in rows]
        assert [row["bucket"] for row in rows] == want
        assert None in want
        assert any(row["dest"] not in buckets and row["origin"] in buckets for row in rows)
        assert payload["bucket_histogram"] == {b: want.count(b) for b in EXPLOIT_BUCKETS}

    def test_report_with_foreign_corpus_warns_and_skips_paths(self, work, tmp_path, capsys):
        other, out = tmp_path / "other.json", tmp_path / "report.json"
        other.write_text(json.dumps({
            "category_map": {"x": "memory"},
            "attacks": [{"name": "a", "categories": ["x"], "expression": "bb_i(p)"}],
        }))
        assert main(["report", "--model", str(work["model"]), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--predictions", str(work["preds"]), "--corpus", str(other),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "corpus does not rebuild this dag; skipping path section\n")
        assert "paths" not in json.loads(out.read_text())

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


class TestParser:
    INPUTS = ("--dag", "d.json", "--attrs", "a.csv", "--labels", "l.csv")

    @pytest.mark.parametrize("argv, build, default", [
        (("train", *INPUTS, "--out", "m.json"), cli._svm_params, SvmParams()),
        (("grid-search", *INPUTS), cli._grid_spec, GridSpec()),
        (("negatives", *INPUTS[:4], "--out", "n.csv"), cli._thresholds,
         NegativeFilterThresholds()),
    ], ids=["train", "grid-search", "negatives"])
    def test_defaults_are_the_library_defaults(self, argv, build, default):
        built = build(build_parser().parse_args(argv))
        for field in dataclasses.fields(default):
            assert getattr(built, field.name) == getattr(default, field.name), field.name

    @pytest.mark.parametrize("option, values", [
        ("--c-values", "-1,2"), ("--gamma-values", "-0.5,1"), ("--gamma-values", "-1e-3,-inf"),
    ])
    def test_grid_list_may_start_with_a_negative_number(self, option, values):
        args = build_parser().parse_args(["grid-search", *self.INPUTS, option, values])
        spec = cli._grid_spec(args)
        got = spec.c_values if option == "--c-values" else spec.gamma_values
        assert got == tuple(map(float, values.split(",")))

    def test_kernel_choices_are_the_library_kernels(self):
        for kernel in KERNELS:
            args = build_parser().parse_args(["train", *self.INPUTS, "--out", "m.json",
                                              "--kernel", kernel])
            assert cli._svm_params(args).kernel == kernel

    def test_verdict_choices_are_the_storage_verdicts(self):
        add = ("annotate", "add", "--annotations", "a.csv", "--origin", "0", "--dest", "1",
               "--annotator", "alice", "--verdict")
        for verdict in VERDICTS:
            assert build_parser().parse_args([*add, verdict]).verdict == verdict
        with pytest.raises(SystemExit):
            build_parser().parse_args([*add, "maybe"])

    def test_readme_walkthrough_commands_parse(self):
        text = (REPO / "README.md").read_text().replace("\\\n", " ")
        commands = re.findall(r"^python3 -m attackdag (.+)$", text, flags=re.MULTILINE)
        covered = set()
        for command in commands:
            argv = shlex.split(command)
            try:
                args = build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}")
            covered.add(args.func)
        every = {cmd for name, cmd in vars(cli).items() if name.startswith("cmd_")}
        assert covered == every


def test_only_main_maps_outcomes_to_exit_codes():
    """No cmd_* returns a value, and the EXIT_* codes are read only in main and _Parser."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    commands = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            commands += 1
            assert isinstance(node.returns, ast.Constant) and node.returns.value is None, node.name
            valued = [n.lineno for n in ast.walk(node) if isinstance(n, ast.Return) and n.value]
            assert not valued, (node.name, valued)
        if getattr(node, "name", None) not in ("main", "_Parser"):
            read = [n.lineno for n in ast.walk(node) if isinstance(n, ast.Name)
                    and n.id.startswith("EXIT_") and isinstance(n.ctx, ast.Load)]
            assert not read, (getattr(node, "name", None), read)
    assert commands == len({name for name in vars(cli) if name.startswith("cmd_")})


# Every defaulted parameter and dataclass field default under src/attackdag, with
# the reason it stays: the CLI takes its defaults from it, perfbench calls without
# it, or a second caller outside tests/ leaves it out.  A default that only tests
# rely on is a knob nothing uses; declare a new one here with its reason.
DECLARED_DEFAULTS = {
    "cli.py:main(argv)": "second caller: `python -m attackdag` and the `attackdag` script",
    "features.py:AttributeTable.frame(label)": "second caller: enumerate_candidates",
    "features.py:AttributeTable.from_csv(source)": "perfbench call: checks.py",
    "features.py:AttributeTable.from_rows(provenance)":
        "second caller: scripts/build_corpus_artifacts.py",
    "graph.py:enumerate_attack_paths(cap)": "second caller: cmd_report",
    "learn/gridsearch.py:CellResult.converged": "second caller: a failed cell",
    "learn/gridsearch.py:CellResult.error": "second caller: a fitted cell",
    "learn/gridsearch.py:GridSpec.c_values": "CLI default owner: grid-search --c-values",
    "learn/gridsearch.py:GridSpec.gamma_values": "CLI default owner: grid-search --gamma-values",
    "learn/gridsearch.py:GridSpec.kernels": "CLI default owner: grid-search --kernels",
    "learn/gridsearch.py:grid_search_min_fn(eval_data)":
        "second caller to come: held-out scoring (ROADMAP item 1)",
    "learn/svm.py:SvmModel.fingerprint": "second caller: train_svm",
    "learn/svm.py:SvmModel.iterations": "second caller: load_model",
    "learn/svm.py:SvmParams.c": "CLI default owner: train --c",
    "learn/svm.py:SvmParams.gamma": "CLI default owner: train --gamma",
    "learn/svm.py:SvmParams.kernel": "CLI default owner: train --kernel",
    "learn/svm.py:SvmParams.max_passes": "CLI default owner: train --max-passes",
    "learn/svm.py:SvmParams.seed": "every caller: stored model.json files carry it",
    "learn/svm.py:SvmParams.shrinking": "every caller: stored model.json files carry it",
    "learn/svm.py:SvmParams.tolerance": "CLI default owner: train --tolerance",
    "learn/svm.py:train_svm(start)": "second caller: cmd_train",
    "negatives.py:ExceptionList.from_csv(source)": "perfbench call: checks.py",
    "negatives.py:NegativeFilterThresholds.head_to_leaf": "CLI default owner; perfbench call",
    "negatives.py:NegativeFilterThresholds.ht_diff_above": "CLI default owner; perfbench call",
    "negatives.py:NegativeFilterThresholds.ht_diff_below": "CLI default owner; perfbench call",
    "negatives.py:NegativeFilterThresholds.leaf_to_leaf": "CLI default owner; perfbench call",
    "negatives.py:NegativeFilterThresholds.min_hamming": "CLI default owner; perfbench call",
    "negatives.py:generate_negative_candidates(thresholds)":
        "second caller: scripts/build_corpus_artifacts.py",
    "storage.py:DagFile.attrs_ref": "second caller: cmd_project",
    "storage.py:load_model(expected_fingerprint)": "perfbench call: checks.py",
    "storage.py:load_model(force)": "perfbench call: checks.py",
    "storage.py:parse_node_id(name)": "second caller: the CLI's node id arguments",
}


def declared_defaults(root: Path) -> list[str]:
    """Each defaulted parameter, as "file:qualname(param)", and each dataclass field
    default, as "file:Class.field", in the Python files under root."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def is_dataclass(decorator: ast.expr) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass"

    found = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        todo = [(ast.parse(path.read_text(encoding="utf-8")), "")]
        while todo:
            node, scope = todo.pop()
            name = scope + (node.name if isinstance(node, scopes) else "<lambda>")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
                found += [f"{where}:{name}({arg.arg})" for arg in defaulted]
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list)):
                found += [f"{where}:{name}.{item.target.id}" for item in node.body
                          if isinstance(item, ast.AnnAssign) and item.value is not None]
            inner = name + "." if isinstance(node, scopes) else scope
            todo += [(child, inner) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_every_default_in_the_package_is_declared():
    found = declared_defaults(Path(cli.__file__).parent)
    assert found == sorted(DECLARED_DEFAULTS)
    assert all(DECLARED_DEFAULTS.values())


def call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """The functions and methods a module defines, by name, each mapped to the
    names among them that its own body calls, as ``f(...)`` or ``x.f(...)``;
    a ``super()`` call and the body of a nested definition do not count."""
    defs = [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    graph: dict[str, set[str]] = {node.name: set() for node in defs}
    for definition in defs:
        todo = list(ast.iter_child_nodes(definition))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            todo += ast.iter_child_nodes(node)
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = getattr(func, "id", None) or getattr(func, "attr", None)
            on_super = (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call)
                        and getattr(func.value.func, "id", None) == "super")
            if callee in graph and not on_super:
                graph[definition.name].add(callee)
    return graph


def test_no_function_in_the_package_recurses():
    """No module's call graph has a cycle, so no input depth meets the recursion limit."""
    for path in sorted(Path(cli.__file__).parent.rglob("*.py")):
        graph = call_graph(ast.parse(path.read_text(encoding="utf-8")))
        try:
            tuple(graphlib.TopologicalSorter(graph).static_order())
        except graphlib.CycleError as exc:
            pytest.fail(f"{path.name}: {' -> '.join(exc.args[1])}")


def test_call_graph_sees_recursion_by_name():
    tree = ast.parse("class P:\n"
                     "    def expr(self): return self.atom()\n"
                     "    def atom(self): return self.expr() if self else super().atom()\n"
                     "def outer():\n"
                     "    def inner(): return outer()\n"
                     "    return len([])\n")
    assert call_graph(tree) == {"expr": {"atom"}, "atom": {"expr"}, "outer": set(),
                                "inner": {"outer"}}


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

    @pytest.mark.parametrize("token", ["--5", "\u00b2"])
    def test_project_token_that_int_rejects_is_unknown_node(self, work, tmp_path, capsys,
                                                             token):
        # "--5" and a superscript two are no node id: int() rejects both
        keep_file, out = tmp_path / "keep.txt", tmp_path / "sub.json"
        keep_file.write_text(f"0\n{token}\n", encoding="utf-8")
        for keep in (["--keep", f"0,{token}"], ["--keep-file", str(keep_file)]):
            assert main(["project", "--dag", str(work["dag"]), *keep, "--out", str(out)]) == 3
            assert capsys.readouterr().err == (
                f"invariant violation: keep list references unknown node {token!r}\n")
        assert not out.exists()

    def test_project_without_keep_is_usage_error(self, work, capsys):
        for keep in ([], ["--keep", " , "]):
            assert main(["project", "--dag", str(work["dag"]), *keep,
                         "--out", str(work["root"] / "nope.json")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage: attackdag project ")
            assert err.endswith(
                "attackdag project: error: nothing to keep: pass --keep and/or --keep-file\n")
        assert not (work["root"] / "nope.json").exists()


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

    def test_add_ends_a_last_row_that_has_no_newline(self, work, tmp_path):
        ann = tmp_path / "ann.csv"
        ann.write_text("origin,dest,verdict,annotator,note\n40,4,infeasible,alice,x")
        assert main(["annotate", "add", "--annotations", str(ann), "--origin", "3",
                     "--dest", "4", "--verdict", "feasible", "--annotator", "bob"]) == 0
        assert ann.read_text() == ("origin,dest,verdict,annotator,note\n"
                                   "40,4,infeasible,alice,x\n3,4,feasible,bob,\n")
        assert main(["annotate", "fold", "--annotations", str(ann), "--labels",
                     str(work["labels"]), "--out", str(tmp_path / "merged.csv")]) == 0
        merged = {(o, d): l for o, d, l in load_labels(tmp_path / "merged.csv")}
        assert (merged[(40, 4)], merged[(3, 4)]) == (-1, 1)

    def test_fold_conflicting_with_existing_label_fails(self, work, tmp_path, capsys):
        existing = load_labels(work["labels"])
        origin, dest, label = existing[0]
        ann = tmp_path / "ann.csv"
        verdict = "infeasible" if label == 1 else "feasible"
        assert main(["annotate", "add", "--annotations", str(ann), "--origin", str(origin),
                     "--dest", str(dest), "--verdict", verdict, "--annotator", "carol"]) == 0
        assert main(["annotate", "fold", "--annotations", str(ann),
                     "--labels", str(work["labels"]), "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == (
            f"invariant violation: conflict: pair ({origin}, {dest}) labeled {label:+d} "
            f"but annotated {-label:+d}\n")
        assert not (tmp_path / "x.csv").exists()


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
        assert main(["train", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(work["labels"]), "--out", "m.json",
                     "--no-shrinking"]) == 1  # retired: SMO has one selection loop

    @pytest.mark.parametrize("option", [
        ("--gamma", "nan"), ("--c", "inf"), ("--tolerance", "nan"), ("--max-passes", "0"),
        ("--gamma", "-inf"), ("--c", "-1e5"), ("--gamma", "-Infinity"),
        ("--c-values", "-1,2"), ("--c-values", "2,-1"), ("--gamma-values", "-0.5,inf"),
        ("--gamma", "-1"), ("--gamma", "0"), ("--gamma-values", "0.1,-0.5"),
    ], ids=["gamma-nan", "c-inf", "tolerance-nan", "max-passes-0", "gamma-minus-inf",
            "c-minus-exponent", "gamma-minus-infinity", "c-values-minus-first",
            "c-values-minus-last", "gamma-values-minus-first", "gamma-minus-one", "gamma-zero",
            "gamma-values-minus-last"])
    def test_unusable_svm_param_is_parse_error(self, work, tmp_path, capsys, option):
        # A grid list option checks each of its values as the train option would.
        command = "grid-search" if option[0].endswith("-values") else "train"
        out = tmp_path / "model.json"
        assert main([command, "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(work["labels"]), "--out", str(out), *option]) == 2
        setting = option[0][2:].removesuffix("-values").replace("-", "_")
        assert f"error: {setting} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, message", [
        (("--ht-below", "nan"), "ht_diff_below must be finite"),
        (("--ht-above=inf",), "ht_diff_above must be finite"),
        (("--min-hamming", "99"), "min_hamming must be in 0..9"),
        (("--ht-below", "-inf"), "ht_diff_below must be finite"),
        (("--ht-above", "-NaN"), "ht_diff_above must be finite"),
        (("--ht-below", "-1e400"), "ht_diff_below must be finite"),
    ], ids=["ht-below-nan", "ht-above-inf", "min-hamming-99", "ht-below-minus-inf",
            "ht-above-minus-nan", "ht-below-minus-overflow"])
    def test_unusable_filter_threshold_is_parse_error(self, work, tmp_path, capsys, option,
                                                      message):
        out = tmp_path / "negatives.csv"
        assert main(["negatives", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--out", str(out), *option]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "csp", "report"])
    @pytest.mark.parametrize("rows, code, message", [
        (["40,40,1"], 2, "branch from node 40 to itself"),
        (["40,999,-1"], 3, "no attribute row for node 999"),
        (["40,40,1", "40,999,-1"], 2, "branch from node 40 to itself"),
        (["999,40,-1", "40,40,1"], 3, "no attribute row for node 999"),
    ], ids=["self-pair", "unknown-node", "self-pair-first", "unknown-node-first"])
    def test_bad_labeled_branch_exit_code(self, work, tmp_path, capsys, command, rows, code,
                                          message):
        # The bad rows follow the bundled labels; the first of them decides.
        labels = tmp_path / "labels.csv"
        labels.write_text(work["labels"].read_text() + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        extra = {
            "train": [],
            "csp": [],
            "report": ["--model", str(work["model"]), "--predictions", str(work["preds"]),
                       "--force"],
        }[command]
        assert main([command, "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(labels), "--out", str(out), *extra]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["negatives", "predict", "attrs"])
    def test_dag_node_without_attribute_row_is_invariant_error(self, work, tmp_path, capsys,
                                                                command):
        *rows, last = work["attrs"].read_text().splitlines()
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        extra = {
            "negatives": ["--out", str(out)],
            "predict": ["--labels", str(work["labels"]), "--model", str(work["model"]),
                        "--force", "--out", str(out)],
            "attrs": ["--refresh-structural", str(out)],
        }[command]
        assert main([command, "--dag", str(work["dag"]), "--attrs", str(attrs), *extra]) == 3
        assert f"no attribute row for node {last.split(',')[0]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gammas", ["nan", "0.1,inf"])
    def test_non_finite_grid_gamma_is_parse_error(self, work, tmp_path, capsys, gammas):
        out = tmp_path / "surface.json"
        assert main(["grid-search", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(work["labels"]), "--out", str(out),
                     "--gamma-values", gammas]) == 2
        assert "error: gamma must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "grid-search"])
    @pytest.mark.parametrize("keep, message", [
        ("1", "training data has only one class"),
        (None, "no training samples"),
    ], ids=["single-class", "header-only"])
    def test_unfittable_labels_are_parse_error(self, work, tmp_path, capsys, command, keep,
                                               message):
        header, *rows = work["labels"].read_text().splitlines()
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join([header, *(r for r in rows if r.split(",")[2] == keep)])
                          + "\n")
        out = tmp_path / "out.json"
        assert main([command, "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(labels), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_malformed_grid_list_is_parse_error(self, work, tmp_path):
        assert main(["grid-search", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(work["labels"]), "--c-values", "1,x"]) == 2

    def test_help_exits_zero(self):
        # argparse raises SystemExit(0) for --help; main converts that to 0
        assert main(["--help"]) == 0
        assert main(["ingest", "--help"]) == 0

    def test_missing_file_is_parse_error(self, tmp_path):
        assert main(["ingest", "--corpus", str(tmp_path / "ghost.json"),
                     "--out", str(tmp_path / "dag.json")]) == 2

    @pytest.mark.parametrize("option", ["--corpus", "--attrs", "--labels", "--out"])
    def test_directory_for_a_file_is_parse_error(self, work, tmp_path, capsys, option):
        """A directory where a file is read or written exits 2 with an error line,
        and the failed write leaves no temporary file."""
        folder = tmp_path / "folder"
        folder.mkdir()
        inputs = {"--corpus": work["corpus"], "--attrs": work["attrs"],
                  "--labels": work["labels"], "--out": tmp_path / "out.json", option: folder}
        if option in ("--corpus", "--out"):
            argv = ["ingest", "--corpus", inputs["--corpus"], "--out", inputs["--out"]]
        else:
            argv = ["train", "--dag", work["dag"], "--attrs", inputs["--attrs"],
                    "--labels", inputs["--labels"], "--out", inputs["--out"]]
        assert main([str(arg) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["folder"]
        assert not any(folder.iterdir())

    def test_corpus_json_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["ingest", "--corpus", str(bad), "--out", str(tmp_path / "d.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda c: [1], "corpus is not a JSON object"),
        (lambda c: {**c, "attacks": [5]}, "attack 0 is not a dict"),
        (lambda c: {**c, "attacks": [{**c["attacks"][0], "categories": 3}]},
         "attack 0: 'categories' is not a list"),
        (lambda c: {**c, "attacks": [{**c["attacks"][0], "categories": [["x"]]}]},
         "attack 0: 'categories' is not a list of labels"),
        (lambda c: {**c, "attacks": [{**c["attacks"][0], "expression": 7}]},
         "attack 0: 'expression' is not a str"),
        (lambda c: {**c, "attacks": [{**c["attacks"][0], "name": ["a"]}]},
         "attack 0: 'name' is not a str"),
        (lambda c: {**c, "category_map": ["m"]}, "'category_map' is not a dict"),
        (lambda c: {**c, "node_category_overrides": ["m"]},
         "'node_category_overrides' is not a dict"),
        (lambda c: {**c, "bucket_map": ["m"]}, "'bucket_map' is not a dict"),
        (lambda c: {**c, "socially_delivered": [[1]]},
         "'socially_delivered' is not a list of descriptions"),
    ], ids=["payload-list", "attack-int", "categories-int", "category-list", "expression-int",
            "name-list", "category-map-list", "overrides-list", "bucket-map-list",
            "socially-delivered-nested"])
    def test_malformed_corpus_is_located_parse_error(self, tmp_path, capsys, edit, message):
        corpus = {"category_map": {"x": "memory"},
                  "attacks": [{"name": "a", "categories": ["x"], "expression": "bb_i(p)"}]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(corpus)))
        out = tmp_path / "dag.json"
        assert main(["ingest", "--corpus", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
        assert not out.exists()

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

    @pytest.mark.parametrize("expression", [
        ".".join(f"bb_{i}(step {i})" for i in range(3000)),
        "+".join(f"bb_{i}(arm {i})" for i in range(3000)),
    ], ids=["chain", "union"])
    def test_long_expression_ingests(self, tmp_path, expression):
        corpus = tmp_path / "long.json"
        corpus.write_text(json.dumps({
            "category_map": {"x": "memory"},
            "attacks": [{"name": "long", "categories": ["x"], "expression": expression}],
        }))
        assert main(["ingest", "--corpus", str(corpus), "--out", str(tmp_path / "d.json")]) == 0
        assert len(load_dag(tmp_path / "d.json").dag.nodes) == 3000

    def test_deeply_nested_expression_ingests(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps({
            "category_map": {"x": "memory"},
            "attacks": [{"name": "nested", "categories": ["x"],
                         "expression": "(" * 1000 + "bb_i(p)" + ")" * 1000}],
        }))
        assert main(["ingest", "--corpus", str(deep), "--out", str(tmp_path / "d.json")]) == 0
        assert len(load_dag(tmp_path / "d.json").dag.nodes) == 1

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

    @pytest.mark.parametrize("side_map", [
        {"socially_delivered": ["ghost"]},
        {"node_category_overrides": {"ghost": "malware"}},
        {"bucket_map": {"ghost": "crypto"}},
    ], ids=["socially-delivered", "overrides", "bucket-map"])
    def test_cycle_in_one_attack_precedes_unknown_side_map_node(self, tmp_path, capsys,
                                                                side_map):
        # Each attack is compiled while the corpus loads, before the side maps
        # are checked against the nodes the compiling interned.
        corpus, out = tmp_path / "cyclic.json", tmp_path / "dag.json"
        corpus.write_text(json.dumps({
            "category_map": {"x": "memory"}, **side_map,
            "attacks": [{"name": "loop", "categories": ["x"],
                         "expression": "bb_i(p).bb_j(q).bb_k(p)"}],
        }))
        assert main(["ingest", "--corpus", str(corpus), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "invariant violation: cycle: 0 -> 1 -> 0\n"
        assert not out.exists()

    def test_stale_attrs_is_invariant_error(self, work, tmp_path, capsys):
        stale = tmp_path / "stale.csv"
        lines = work["attrs"].read_text().splitlines()
        # corrupt one mean_depth (last column of the first data row)
        cells = lines[1].split(",")
        depth, cells[-2] = float(cells[-2]), "123.0"
        lines[1] = ",".join(cells)
        stale.write_text("\n".join(lines) + "\n")
        assert main(["attrs", "--dag", str(work["dag"]), "--attrs", str(stale)]) == 3
        assert capsys.readouterr().err == (
            f"invariant violation: attribute mismatch: node {cells[0]}: mean_depth 123.0, "
            f"dag says {depth!r}\n")

    def test_wrong_head_bits_are_one_invariant_error_line(self, work, tmp_path, capsys):
        header, *rows = work["attrs"].read_text().splitlines()
        flipped = []
        for i in (0, 1):  # node 0 is a head, node 1 is not
            cells = rows[i].split(",")
            cells[-4] = str(1 - int(cells[-4]))
            flipped.append(f"node {cells[0]}: head bit {cells[-4]}, dag says {1 - int(cells[-4])}")
            rows[i] = ",".join(cells)
        stale = tmp_path / "stale.csv"
        stale.write_text("\n".join([header, *rows]) + "\n")
        assert main(["attrs", "--dag", str(work["dag"]), "--attrs", str(stale), "--attach"]) == 3
        assert capsys.readouterr().err == (
            "invariant violation: attribute mismatch: " + "; ".join(flipped) + "\n")
        assert load_dag(work["dag"]).attrs_ref is None

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
        out = tmp_path / "paths.json"
        assert main(["paths", "--dag", str(work["dag"]), "--corpus", str(other),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "invariant violation: corpus does not rebuild this dag\n"
        assert not out.exists()

    def test_short_prediction_row_is_parse_error(self, work, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("origin,dest,label,decision\n1,2,1\n")
        assert main(["report", "--model", str(work["model"]), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--predictions", str(preds), "--out", str(tmp_path / "r.json")]) == 2
        assert f"{preds}:2:" in capsys.readouterr().err

    def test_prediction_naming_unknown_node_is_invariant_violation(self, work, tmp_path,
                                                                    capsys):
        preds, out = tmp_path / "preds.csv", tmp_path / "r.json"
        preds.write_text("origin,dest,label,decision\n0,1,-1,-0.5\n999,1,1,0.5\n1,998,1,0.2\n")
        assert main(["report", "--model", str(work["model"]), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--predictions", str(preds), "--out", str(out)]) == 3
        assert "predicted branch (999, 1) references unknown node" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_path_cap_below_one_is_parse_error(self, work, tmp_path, capsys, cap):
        out = tmp_path / "paths.json"
        assert main(["paths", "--dag", str(work["dag"]), "--cap", cap, "--out", str(out)]) == 2
        assert f"error: cap must be at least 1, got {cap}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["nodes", "edges"])
    def test_dag_without_key_is_parse_error(self, tmp_path, capsys, key):
        dag = tmp_path / "dag.json"
        dag.write_text(json.dumps({k: [] for k in ("nodes", "edges") if k != key}))
        assert main(["paths", "--dag", str(dag)]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("edit, entry", [
        ({"edges": [5]}, "edge 0"),
        ({"edges": [[0, 1, 2]]}, "edge 0"),
        ({"nodes": [3]}, "node 0"),
        ({"nodes": 5}, "'nodes'"),
        ({"provenance": {"0->1": "x"}}, "'0->1'"),
        ({"provenance": {"0-1": ["x"]}}, "'0-1'"),
        ({"provenance": {"0->1": ["x"], "1->0": ["y"]}}, "provenance '1->0' is not an edge"),
        ({"edges": [], "provenance": {"0->1": ["x"], "7->9": ["y"]}},
         "provenance '0->1' is not an edge"),
        ({"provenance": {"0->1": ["a"], "00->1": ["b"]}},
         "provenance keys '0->1' and '00->1' name one edge"),
        ({"attrs_ref": 5}, "'attrs_ref'"),
    ])
    def test_malformed_dag_entry_is_located_parse_error(self, tmp_path, capsys, edit, entry):
        dag = tmp_path / "dag.json"
        nodes = [{"id": i, "raw_text": t, "norm_text": t, "category": "memory"}
                 for i, t in enumerate("ab")]
        dag.write_text(json.dumps({"nodes": nodes, "edges": [[0, 1]],
                                   "provenance": {"0->1": ["x"]}, **edit}))
        assert main(["paths", "--dag", str(dag)]) == 2
        err = capsys.readouterr().err
        assert f"{dag}: " in err and entry in err, err

    def test_empty_provenance_list_is_parse_error(self, work, tmp_path, capsys):
        body = json.loads(work["dag"].read_text())
        key = next(iter(body["provenance"]))
        body["provenance"][key] = []
        dag, out = tmp_path / "dag.json", tmp_path / "sub.json"
        dag.write_text(json.dumps(body))
        keep = ",".join(key.split("->"))
        for argv in (["paths", "--dag", str(dag)],
                     ["project", "--dag", str(dag), "--keep", keep, "--out", str(out)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: {dag}: provenance {key!r} is an empty list of attack names\n")
        assert not out.exists()

    def test_two_nodes_with_one_norm_text_is_parse_error(self, work, tmp_path, capsys):
        body = json.loads(work["dag"].read_text())
        norm = body["nodes"][2]["norm_text"]
        body["nodes"][5]["norm_text"] = norm
        dag, out = tmp_path / "dag.json", tmp_path / "sub.json"
        dag.write_text(json.dumps(body))
        assert main(["project", "--dag", str(dag), "--keep", body["nodes"][2]["raw_text"],
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {dag}: nodes 2 and 5 share norm_text {norm!r}\n")
        assert not out.exists()

    def test_unknown_node_message_is_printed_as_given(self, work, tmp_path, capsys):
        labels, out = tmp_path / "labels.csv", tmp_path / "out.json"
        labels.write_text(work["labels"].read_text() + "40,999,-1\n")
        assert main(["train", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(labels), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "invariant violation: no attribute row for node 999\n"
        assert main(["project", "--dag", str(work["dag"]), "--keep", "0,9999",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "invariant violation: keep list references unknown nodes: [9999]\n")
        assert not out.exists()

    def test_short_exceptions_row_is_parse_error(self, work, tmp_path, capsys):
        exceptions = tmp_path / "exceptions.csv"
        exceptions.write_text("origin_node_id,dest_node_id,note\n26,30\n")
        assert main(["negatives", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--exceptions", str(exceptions), "--out", str(tmp_path / "neg.csv")]) == 2
        assert f"{exceptions}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("table, command", [
        ("labels", "train"), ("labels", "csp"), ("annotations", "annotate"),
        ("attrs", "attrs"), ("exceptions", "negatives"),
    ])
    def test_node_id_beyond_int64_is_located_parse_error(self, work, tmp_path, capsys, table,
                                                          command):
        huge = "99999999999999999999999"
        header, row = work["attrs"].read_text().splitlines()[:2]
        bad, out = tmp_path / f"{table}.csv", tmp_path / "out"
        bad.write_text({
            "labels": f"origin,dest,label\n40,4,1\n{huge},1,1\n",
            "annotations": f"origin,dest,verdict,annotator,note\n40,4,feasible,a,\n"
                           f"1,{huge},feasible,a,\n",
            "attrs": f"{header}\n{row}\n{huge},{row.split(',', 1)[1]}\n",
            "exceptions": f"origin_node_id,dest_node_id,note\n26,30,x\n{huge},30,x\n",
        }[table])
        dag, attrs, labels = str(work["dag"]), str(work["attrs"]), str(work["labels"])
        argv = {
            "train": ["train", "--dag", dag, "--attrs", attrs, "--labels", str(bad),
                      "--out", str(out)],
            "csp": ["csp", "--dag", dag, "--attrs", attrs, "--labels", str(bad),
                    "--out", str(out)],
            "annotate": ["annotate", "fold", "--annotations", str(bad), "--labels", labels,
                         "--out", str(out)],
            "attrs": ["attrs", "--dag", dag, "--attrs", str(bad), "--check"],
            "negatives": ["negatives", "--dag", dag, "--attrs", attrs, "--exceptions", str(bad),
                          "--out", str(out)],
        }[command]
        assert main(argv) == 2
        assert re.search(rf"^error: {re.escape(str(bad))}:3: \w+ {huge} is outside the "
                         "int64 range$", capsys.readouterr().err, re.M)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--origin", "--dest"])
    def test_annotate_add_node_id_beyond_int64_is_usage_error(self, tmp_path, capsys, flag):
        huge = "99999999999999999999999"
        ann = tmp_path / "ann.csv"
        ids = {"--origin": "40", "--dest": "4", flag: huge}
        assert main(["annotate", "add", "--annotations", str(ann), "--origin", ids["--origin"],
                     "--dest", ids["--dest"], "--verdict", "feasible", "--annotator", "a"]) == 1
        assert (f"argument {flag}: node id {huge} is outside the int64 range"
                in capsys.readouterr().err)
        assert not ann.exists()

    def test_kernel_that_overflows_fails_train_and_writes_no_model(self, work, tmp_path,
                                                                   capsys):
        out = tmp_path / "model.json"
        assert main(["train", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(work["labels"]), "--out", str(out),
                     "--kernel", "poly", "--gamma", "1e120"]) == 2
        assert "error: the poly kernel with gamma=1e+120 overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_rbf_kernel_whose_norms_overflow_fails_train_with_one_error_line(
            self, work, tmp_path, capsys):
        # |x|^2 + |x|^2 overflows for node 0's branches, so their kernel
        # entries are NaN; the intermediate inf - inf must not warn.
        lines = work["attrs"].read_text().split("\n")
        cells = lines[1].split(",")
        cells[ATTRS_CSV_HEADER.index("mean_depth")] = "1e154"
        lines[1] = ",".join(cells)
        attrs = tmp_path / "attributes.csv"
        attrs.write_text("\n".join(lines))
        out = tmp_path / "model.json"
        assert main(["train", "--dag", str(work["dag"]), "--attrs", str(attrs),
                     "--labels", str(work["labels"]), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the rbf kernel with gamma=0.0556 overflows on these features\n")
        assert not out.exists()

    def test_grid_cell_whose_kernel_overflows_is_recorded_as_failed(self, work, tmp_path,
                                                                    capsys):
        out = tmp_path / "surface.json"
        assert main(["grid-search", "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                     "--labels", str(work["labels"]), "--out", str(out), "--c-values", "1",
                     "--kernels", "poly,rbf", "--gamma-values", "1e120,0.5"]) == 0
        assert "4 cells, 1 failed" in capsys.readouterr().out
        cells = json.loads(out.read_text())["cells"]
        failed = [c for c in cells if c["error"]]
        assert [(c["kernel"], c["gamma"], c["fn"]) for c in failed] == [("poly", 1e120, None)]
        assert [c["converged"] for c in cells] == [None, True, True, True]

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
        (lambda payload: payload.update(bias="nan"), "'bias'"),
        (lambda payload: payload.update(bias=math.nan), "'bias'"),
        (lambda payload: payload.update(converged="false"), "'converged'"),
        (lambda payload: payload["dual_coefs"].pop(), "'dual_coefs'"),
        (lambda payload: payload["dual_coefs"].__setitem__(0, 0.5), "'dual_coefs'"),
        (lambda payload: payload["sv_labels"].__setitem__(0, 5.0), "'sv_labels'"),
        (lambda payload: payload["sv_alphas"].__setitem__(0, 1e9), "'sv_alphas'"),
        (lambda payload: payload["sv_alphas"].__setitem__(0, 0.0), "'sv_alphas'"),
        (lambda payload: payload.update(sv_indices="ab"), "'sv_indices'"),
        (lambda payload: payload["sv_indices"].__setitem__(1, payload["sv_indices"][0]),
         "'sv_indices'"),
        (lambda payload: payload.update(n_samples=-1), "'n_samples'"),
        (lambda payload: payload["support_vectors"][0].pop(), "'support_vectors'"),
        (lambda payload: [row.pop() for row in payload["support_vectors"]], "'support_vectors'"),
    ], ids=["no-bias", "unknown-param", "nan-bias-string", "nan-bias", "converged-string",
            "short-dual-coefs", "dual-coef-not-product", "label-5", "alpha-above-c", "alpha-0",
            "indices-string", "repeated-index", "negative-n-samples", "short-sv-row",
            "narrow-sv-rows"])
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

    @pytest.mark.parametrize("command", ["ingest", "paths", "eval"])
    @pytest.mark.parametrize("body", [b"[" * 100_000 + b"]" * 100_000, b"\xff{}"],
                             ids=["nested", "not-utf-8"])
    def test_unreadable_json_is_parse_error_naming_the_file(self, work, tmp_path, capsys,
                                                             command, body):
        bad = tmp_path / "bad.json"
        bad.write_bytes(body)
        argv = {
            "ingest": ["ingest", "--corpus", str(bad), "--out", str(tmp_path / "dag.json")],
            "paths": ["paths", "--dag", str(bad)],
            "eval": ["eval", "--model", str(bad), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]), "--force"],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not valid JSON: ")
        assert not (tmp_path / "dag.json").exists()

    def test_predict_in_small_windows_matches_whole_frame_scoring(self, work, tmp_path,
                                                                  monkeypatch):
        out = tmp_path / "preds.csv"
        monkeypatch.setattr(svm_module, "SCORE_BLOCK_ROWS", 7)
        assert main(["predict", "--model", str(work["model"]), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                     "--out", str(out)]) == 0
        monkeypatch.undo()
        training = {(o, d) for o, d, _ in load_labels(work["labels"])}
        frame = enumerate_candidates(load_dag(work["dag"]).dag,
                                     AttributeTable.from_csv(work["attrs"].read_text()), training)
        whole = load_model(work["model"], None).decision_values(frame.features)
        rows = load_predictions(out)
        assert len(frame) > 7
        assert [(o, d) for o, d, _, _ in rows] == list(zip(frame.origins.tolist(),
                                                          frame.dests.tolist()))
        assert [label for _, _, label, _ in rows] == np.where(whole >= 0.0, 1, -1).tolist()
        np.testing.assert_allclose([dec for _, _, _, dec in rows], whole, rtol=1e-12, atol=0)

    def test_predict_with_self_pair_label_is_parse_error(self, work, tmp_path, capsys):
        labels, out = tmp_path / "labels.csv", tmp_path / "preds.csv"
        labels.write_text(work["labels"].read_text() + "40,40,1\n")
        assert main(["predict", "--model", str(work["model"]), "--dag", str(work["dag"]),
                     "--attrs", str(work["attrs"]), "--labels", str(labels), "--force",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: training branch from node 40 to itself\n"
        assert not out.exists()

    def test_predict_and_report_on_an_empty_search_space(self, tmp_path, capsys):
        # Two nodes whose two ordered pairs are both labeled leave nothing to score.
        corpus, dag, attrs, labels = (tmp_path / name for name in (
            "corpus.json", "dag.json", "attributes.csv", "labels.csv"))
        corpus.write_text(json.dumps({
            "category_map": {"x": "memory"},
            "attacks": [{"name": "a", "categories": ["x"],
                         "expression": "bb_1(alpha).bb_2(beta)"}],
        }))
        header = ",".join(ATTRS_CSV_HEADER)
        attrs.write_text(f"{header}\n0,1,0,0,0,0,0,0,1,0,0.0,reconstructed\n"
                         "1,1,0,0,0,0,0,0,0,1,1.0,reconstructed\n")
        labels.write_text("origin,dest,label\n0,1,1\n1,0,-1\n")
        inputs = ["--dag", str(dag), "--attrs", str(attrs), "--labels", str(labels)]
        model, preds, report = tmp_path / "model.json", tmp_path / "preds.csv", tmp_path / "r.json"
        assert main(["ingest", "--corpus", str(corpus), "--out", str(dag)]) == 0
        assert main(["train", *inputs, "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["predict", "--model", str(model), *inputs, "--out", str(preds)]) == 0
        assert capsys.readouterr().out == (
            "0 candidate branches, 0 predicted feasible, search-space reduction undefined\n")
        assert preds.read_text() == "origin,dest,label,decision\n"
        assert main(["report", "--model", str(model), *inputs, "--predictions", str(preds),
                     "--out", str(report)]) == 0
        candidates = json.loads(report.read_text())["candidates"]
        assert candidates == {"total": 0, "predicted_positive": 0, "reduction": None}


# One mutation of a labels file each: keep the first k rows, keep one class,
# duplicate a row, append an odd row, or relabel a row to an invalid label.
LABEL_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 98)),
    st.tuples(st.just("one-class"), st.sampled_from(["1", "-1"])),
    st.tuples(st.just("duplicate"), st.integers(0, 97)),
    st.tuples(st.just("append"), st.integers(0, 48).map(lambda n: f"{n},{n},1")
              | st.sampled_from(["40,999,-1", "999,40,1", "40,x,1", "40,41", "4.5,41,1",
                                 "99999999999999999999999,1,1"])),
    st.tuples(st.just("relabel"), st.integers(0, 97), st.sampled_from(["0", "2"])),
)


def mutate_labels(text: str, mutations) -> str:
    header, *rows = text.splitlines()
    for kind, *arg in mutations:
        if kind == "truncate":
            rows = rows[:arg[0]]
        elif kind == "one-class":
            rows = [r for r in rows if r.split(",")[2:3] == arg]
        elif kind == "append":
            rows.append(arg[0])
        elif rows:
            i = arg[0] % len(rows)
            if kind == "duplicate":
                rows.insert(i, rows[i])
            else:
                rows[i] = ",".join(rows[i].split(",")[:2] + [arg[1]])
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("command", ["train", "grid-search", "csp", "eval", "report"])
@settings(max_examples=25, deadline=None)
@example(mutations=[("one-class", "1")])
@example(mutations=[("truncate", 0)])
@example(mutations=[("append", "99999999999999999999999,1,1")])
@given(mutations=st.lists(LABEL_MUTATIONS, min_size=1, max_size=3))
def test_labeled_commands_on_mutated_labels(work, command, mutations):
    """Every labeled command ends in exit 0, 2 or 3 on a mutated labels file, and
    one that fails writes no --out file."""
    with tempfile.TemporaryDirectory() as scratch:
        labels, out = Path(scratch) / "labels.csv", Path(scratch) / "out"
        labels.write_text(mutate_labels(work["labels"].read_text(), mutations))
        scored = [command, "--dag", str(work["dag"]), "--attrs", str(work["attrs"]),
                  "--labels", str(labels)]
        extra = {
            "train": ["--out", str(out)],
            "grid-search": ["--out", str(out), "--c-values", "1", "--kernels", "rbf",
                            "--gamma-values", "0.5"],
            "csp": ["--out", str(out)],
            "eval": ["--model", str(work["model"]), "--force"],
            "report": ["--model", str(work["model"]), "--predictions", str(work["preds"]),
                       "--force", "--out", str(out)],
        }[command]
        code = main(scored + extra)
        assert code in (0, 2, 3)
        assert code == 0 or not out.exists()


# One mutation of a predictions file each, on a row of its own (an index into
# the rows): a bad header, a missing or extra field, a label other than 1 or
# -1, a non-finite decision, a label that disagrees with its decision's sign,
# the pair of the row before (after, for the first row), or a node the dag
# does not have.  All but the last are parse errors.
ROW = st.integers(0, 2253)  # the bundled predictions file has 2254 rows
PREDICTION_MUTATIONS = st.one_of(
    st.tuples(st.just("header"), st.just(-1),
              st.sampled_from(["origin,dest,label", "a,b,c,d", "origin,dest,decision,label"])),
    st.tuples(st.just("field"), ROW, st.sampled_from(["missing", "extra"])),
    st.tuples(st.just("label"), ROW, st.sampled_from(["0", "7"])),
    st.tuples(st.just("decision"), ROW,
              st.sampled_from(["nan", "inf", "-inf", "NaN"])),
    st.tuples(st.just("sign"), ROW, st.none()),
    st.tuples(st.just("duplicate"), ROW, st.none()),
    st.tuples(st.just("unknown"), ROW, st.sampled_from([0, 1])),
)


def mutate_predictions(text: str, mutations) -> tuple[str, int | None, bool]:
    """The mutated text, the line of its first parse error (None if it has none),
    and whether a row names an unknown node."""
    header, *rows = text.splitlines()
    error_lines, unknown = [], False
    for kind, index, arg in mutations:
        if kind == "header":
            header = arg
            error_lines.append(1)
            continue
        fields = rows[index].split(",")
        if kind == "field":
            fields = fields[:-1] if arg == "missing" else fields + ["0"]
        elif kind == "label":
            fields[2] = arg
        elif kind == "decision":
            fields[3] = arg
        elif kind == "sign":
            fields[2] = str(-int(fields[2]))
        elif kind == "duplicate":
            fields[:2] = rows[index - 1 if index else 1].split(",")[:2]
        else:
            fields[arg] = "999"
            unknown = True
        if kind not in ("duplicate", "unknown"):
            error_lines.append(index + 2)
        rows[index] = ",".join(fields)
    # A pair that an earlier row has is an error on its line, however it came
    # about: copied, or two rows with one origin whose dests became 999.
    seen: set[tuple[str, str]] = set()
    for line, row in enumerate(rows, start=2):
        pair = tuple(row.split(",")[:2])
        if pair in seen:
            error_lines.append(line)
        seen.add(pair)
    return "\n".join([header, *rows]) + "\n", min(error_lines, default=None), unknown


@settings(max_examples=30, deadline=None)
@example(mutations=[("unknown", 5, 0)])
@example(mutations=[("label", 7, "7")])
@example(mutations=[("decision", 3, "nan")])
@example(mutations=[("sign", 11, None)])
@example(mutations=[("duplicate", 9, None)])
@example(mutations=[("duplicate", 0, None), ("label", 1, "7")])
@given(mutations=st.lists(PREDICTION_MUTATIONS, min_size=1, max_size=3,
                          unique_by=lambda m: m[1]))
def test_report_on_mutated_predictions(work, mutations):
    """``report`` on a mutated predictions file exits 2 naming the first bad line,
    else 3 for a row naming an unknown node, and writes no report either way."""
    mutated, error_line, unknown = mutate_predictions(work["preds"].read_text(), mutations)
    with tempfile.TemporaryDirectory() as scratch:
        preds, out = Path(scratch) / "predictions.csv", Path(scratch) / "report.json"
        preds.write_text(mutated)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["report", "--model", str(work["model"]), "--dag", str(work["dag"]),
                         "--attrs", str(work["attrs"]), "--labels", str(work["labels"]),
                         "--predictions", str(preds), "--out", str(out)])
        assert code == (2 if error_line else 3 if unknown else 0)
        assert "Traceback" not in stderr.getvalue()
        if error_line:
            assert f"error: {preds}:{error_line}: " in stderr.getvalue()
        assert (code == 0) == out.exists()


# One mutation of an attributes file each, on a row of its own (an index into
# the rows): a bad header, a missing or extra field, a bit of 2, a mean depth
# of nan, inf or -1, a repeated row, an unknown provenance, a row for a node the
# dag lacks (its id beyond int64 or not), or a dag node's row removed.
ATTRIBUTE_ROW = st.integers(0, 48)  # the bundled attributes file has 49 rows
ATTRIBUTE_MUTATIONS = st.one_of(
    st.tuples(st.just("header"), st.just(0),
              st.sampled_from(["node_id,memory", "node_id,mem,data_db", "node_id,extra"])),
    st.tuples(st.just("field"), ATTRIBUTE_ROW, st.sampled_from(["missing", "extra"])),
    st.tuples(st.just("bit"), ATTRIBUTE_ROW, st.integers(1, 9)),
    st.tuples(st.just("depth"), ATTRIBUTE_ROW, st.sampled_from(["nan", "inf", "-1"])),
    st.tuples(st.just("duplicate"), ATTRIBUTE_ROW, st.none()),
    st.tuples(st.just("provenance"), ATTRIBUTE_ROW, st.just("guessed")),
    st.tuples(st.just("unknown"), ATTRIBUTE_ROW,
              st.sampled_from(["999", "99999999999999999999999"])),
    st.tuples(st.just("drop"), ATTRIBUTE_ROW, st.none()),
)


def mutate_attributes(text: str, mutations) -> str:
    header, *rows = text.splitlines()
    for kind, index, arg in mutations:
        if kind == "header":
            # a prefix of the real header, or one with a column renamed or added
            header = arg if arg != "node_id,extra" else header + ",extra"
            continue
        if not rows:
            continue
        index %= len(rows)
        fields = rows[index].split(",")
        if kind == "field":
            fields = fields[:-1] if arg == "missing" else fields + ["0"]
        elif kind == "bit":
            fields[arg] = "2"
        elif kind == "depth":
            fields[-2] = arg
        elif kind == "provenance":
            fields[-1] = arg
        elif kind == "duplicate":
            rows.insert(index, rows[index])
            continue
        elif kind == "unknown":
            rows.append(",".join([arg, *fields[1:]]))
            continue
        else:
            del rows[index]
            continue
        rows[index] = ",".join(fields)
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("command", ["attrs", "negatives", "train", "csp"])
@settings(max_examples=25, deadline=None)
@example(mutations=[("drop", 0, None)])
@example(mutations=[("unknown", 3, "999")])
@example(mutations=[("unknown", 3, "99999999999999999999999")])
@example(mutations=[("depth", 5, "nan")])
@given(mutations=st.lists(ATTRIBUTE_MUTATIONS, min_size=1, max_size=3))
def test_commands_on_mutated_attributes(work, command, mutations):
    """Every command that reads an attributes file ends in exit 0, 2 or 3 on a
    mutated one, and one that fails writes no file, temporary or not."""
    with tempfile.TemporaryDirectory() as scratch:
        attrs, out = Path(scratch) / "attributes.csv", Path(scratch) / "out"
        attrs.write_text(mutate_attributes(work["attrs"].read_text(), mutations))
        labeled = ["--labels", str(work["labels"]), "--out", str(out)]
        extra = {
            "attrs": ["--check"],
            "negatives": ["--out", str(out)],
            "train": labeled,
            "csp": labeled,
        }[command]
        code = main([command, "--dag", str(work["dag"]), "--attrs", str(attrs), *extra])
        assert code in (0, 2, 3)
        assert code == 0 or [p.name for p in Path(scratch).iterdir()] == ["attributes.csv"]


# One mutation of a corpus file each: drop or retype a top-level key or an
# attack's field, blank or unbalance an expression or make it cyclic, give an
# attack another's name, name an unknown node in a side map, map to an unknown
# bucket or category class, or truncate the text (applied last).
ATTACK = st.integers(0, 26)  # the bundled corpus has 27 attacks
CORPUS_KEYS = ("attacks", "category_map", "node_category_overrides", "socially_delivered",
               "bucket_map")
ATTACK_FIELDS = ("name", "categories", "expression")
RETYPED = st.sampled_from([None, 5, 1.5, True, "x", [], {}, [5], {"x": 5}])
CORPUS_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(CORPUS_KEYS)),
    st.tuples(st.just("retype"), st.sampled_from(CORPUS_KEYS), RETYPED),
    st.tuples(st.just("drop-field"), ATTACK, st.sampled_from(ATTACK_FIELDS)),
    st.tuples(st.just("retype-field"), ATTACK, st.sampled_from(ATTACK_FIELDS), RETYPED),
    st.tuples(st.just("expression"), ATTACK, st.sampled_from(["blank", "open", "close", "cyclic"])),
    st.tuples(st.just("rename"), ATTACK, ATTACK),
    st.tuples(st.just("ghost"), st.sampled_from(CORPUS_KEYS[2:])),
    st.tuples(st.just("class"), st.sampled_from(["category_map", "node_category_overrides",
                                                 "bucket_map"])),
    st.tuples(st.just("truncate"), st.integers(0, 16000)),  # the text has 16,171 characters
)


def mutate_corpus(text: str, mutations) -> str:
    corpus = json.loads(text)
    cut = None
    for kind, *arg in mutations:
        attacks = corpus.get("attacks")
        if kind == "truncate":
            cut = arg[0]
        elif kind == "drop":
            corpus.pop(arg[0], None)
        elif kind == "retype":
            corpus[arg[0]] = arg[1]
        elif kind in ("ghost", "class"):
            side = corpus.get(arg[0])
            if kind == "ghost" and type(side) is list:
                side.append("ghost")
            elif kind == "ghost" and type(side) is dict:
                side["ghost"] = "crypto" if arg[0] == "bucket_map" else "malware"
            elif type(side) is dict and side:
                side[next(iter(side))] = "warp_drive"
        elif (type(attacks) is not list or not attacks
              or type(attacks[arg[0] % len(attacks)]) is not dict):
            continue
        else:
            attack = attacks[arg[0] % len(attacks)]
            if kind == "drop-field":
                attack.pop(arg[1], None)
            elif kind == "retype-field":
                attack[arg[1]] = arg[2]
            elif kind == "rename":
                other = attacks[arg[1] % len(attacks)]
                attack["name"] = other.get("name") if type(other) is dict else "x"
            elif type(attack.get("expression")) is str:
                expression = attack["expression"]
                attack["expression"] = {
                    "blank": "",
                    "open": "(" + expression,
                    "close": expression + ")",
                    # every exit feeds every entry: a cycle unless it is one block
                    "cyclic": f"({expression}).({expression})",
                }[arg[1]]
    text = json.dumps(corpus, indent=1)
    return text if cut is None else text[:cut]


@pytest.mark.parametrize("command", ["ingest", "paths"])
@settings(max_examples=25, deadline=None)
@example(mutations=[("expression", 3, "cyclic")])
@example(mutations=[("expression", 3, "cyclic"), ("ghost", "bucket_map")])
@example(mutations=[("rename", 0, 1)])
@example(mutations=[("class", "bucket_map")])
@example(mutations=[("truncate", 100)])
@example(mutations=[("retype", "attacks", []), ("drop-field", 0, "name")])
@given(mutations=st.lists(CORPUS_MUTATIONS, min_size=1, max_size=3))
def test_commands_on_mutated_corpus(work, command, mutations):
    """``ingest`` and ``paths --corpus`` end in exit 0, 2 or 3 on a mutated corpus
    file with no traceback, and one that fails writes no file, temporary or not."""
    with tempfile.TemporaryDirectory() as scratch:
        corpus, out = Path(scratch) / "corpus.json", Path(scratch) / "out"
        corpus.write_text(mutate_corpus(work["corpus"].read_text(), mutations))
        argv = {
            "ingest": ["ingest", "--corpus", str(corpus), "--out", str(out)],
            "paths": ["paths", "--dag", str(work["dag"]), "--corpus", str(corpus),
                      "--out", str(out)],
        }[command]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        assert (code == 0) == (stderr.getvalue() == "")
        assert code == 0 or [p.name for p in Path(scratch).iterdir()] == ["corpus.json"]


# One mutation of a dag file each: drop or retype a node's field, give a node
# another's id or norm_text, empty an edge's provenance list, add an edge to an
# unknown node, or add the reverse of an edge (a cycle).
DAG_NODE = st.integers(0, 48)  # the bundled dag has 49 nodes
DAG_EDGE = st.integers(0, 31)  # and 32 edges
DAG_NODE_FIELDS = ("id", "raw_text", "norm_text", "category", "socially_delivered", "bucket")
DAG_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), DAG_NODE, st.sampled_from(DAG_NODE_FIELDS)),
    st.tuples(st.just("retype"), DAG_NODE, st.sampled_from(DAG_NODE_FIELDS), RETYPED),
    st.tuples(st.just("repeat"), DAG_NODE, DAG_NODE, st.sampled_from(["id", "norm_text"])),
    st.tuples(st.just("empty"), DAG_EDGE),
    st.tuples(st.just("unknown"), DAG_NODE, st.sampled_from([49, 999, -1])),
    st.tuples(st.just("cycle"), DAG_EDGE),
)


def mutate_dag(text: str, mutations) -> str:
    dag = json.loads(text)
    nodes, edges, provenance = dag["nodes"], dag["edges"], dag["provenance"]
    for kind, *arg in mutations:
        if kind == "drop":
            nodes[arg[0]].pop(arg[1], None)
        elif kind == "retype":
            nodes[arg[0]][arg[1]] = arg[2]
        elif kind == "repeat":
            nodes[arg[0]][arg[2]] = nodes[arg[1]].get(arg[2])
        elif kind == "empty":
            provenance["{}->{}".format(*edges[arg[0]])] = []
        else:
            u, v = (nodes[arg[0]].get("id"), arg[1]) if kind == "unknown" else edges[arg[0]][::-1]
            edges.append([u, v])
            provenance[f"{u}->{v}"] = ["mutant"]
    return json.dumps(dag, indent=1)


@pytest.mark.parametrize("command", ["paths", "project", "negatives"])
@settings(max_examples=25, deadline=None)
@example(mutations=[("empty", 0)])
@example(mutations=[("repeat", 0, 1, "norm_text")])
@example(mutations=[("cycle", 4)])
@example(mutations=[("unknown", 2, 999)])
@given(mutations=st.lists(DAG_MUTATIONS, min_size=1, max_size=3))
def test_commands_on_mutated_dag(work, command, mutations):
    """``paths``, ``project`` and ``negatives`` end in exit 0, 2 or 3 on a mutated
    dag file with no traceback, and one that fails writes no file, temporary or not."""
    with tempfile.TemporaryDirectory() as scratch:
        dag, out = Path(scratch) / "dag.json", Path(scratch) / "out"
        dag.write_text(mutate_dag(work["dag"].read_text(), mutations))
        extra = {
            "paths": ["--out", str(out)],
            "project": ["--keep", "0,1,2,3,4,5,6,7,8", "--out", str(out)],
            "negatives": ["--attrs", str(work["attrs"]), "--out", str(out)],
        }[command]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--dag", str(dag), *extra])
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        assert code == 0 or [p.name for p in Path(scratch).iterdir()] == ["dag.json"]


# One mutation of a model file each: drop or retype a key or a params field, set
# an entry of an array (or the bias) to a non-finite number, a label other than
# +1/-1, a multiplier outside (0, C] or a bad support-vector index, drop an
# array's last entry, or truncate the text (applied last).
MODEL_KEYS = ("bias", "converged", "corpus_fingerprint", "dual_coefs", "n_samples", "params",
              "support_vectors", "sv_alphas", "sv_indices", "sv_labels")
PARAM_KEYS = ("c", "gamma", "kernel", "max_passes", "seed", "shrinking", "tolerance")
SV = st.integers(0, 67)  # the bundled model has 68 support vectors
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
MODEL_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(MODEL_KEYS), st.none(), st.none()),
    st.tuples(st.just("retype"), st.sampled_from(MODEL_KEYS), st.none(), RETYPED),
    st.tuples(st.just("drop-param"), st.sampled_from(PARAM_KEYS), st.none(), st.none()),
    st.tuples(st.just("retype-param"), st.sampled_from(PARAM_KEYS), st.none(), RETYPED),
    st.tuples(st.just("set"), st.just("bias"), st.none(), NON_FINITE),
    st.tuples(st.just("set"), st.sampled_from(["dual_coefs", "support_vectors", "sv_alphas"]),
              SV, NON_FINITE),
    st.tuples(st.just("set"), st.just("sv_labels"), SV, st.sampled_from([0.0, 2.0, -0.5])),
    st.tuples(st.just("set"), st.just("sv_alphas"), SV, st.sampled_from([0.0, -1e-3, 1.5, 1e9])),
    st.tuples(st.just("set"), st.just("sv_indices"), SV, st.sampled_from([-1, 0, 98, 2**70, 1.5])),
    st.tuples(st.just("shorten"), st.sampled_from(MODEL_KEYS[6:] + ("dual_coefs",)), st.none(),
              st.none()),
    st.tuples(st.just("truncate"), st.none(), st.integers(0, 19000), st.none()),  # 19,057 chars
)


def mutate_model(text: str, mutations) -> str:
    model = json.loads(text)
    cut = None
    for kind, key, index, value in mutations:
        target = model.get("params") if kind.endswith("-param") else model
        values = model.get(key)
        if kind == "truncate":
            cut = index
        elif type(target) is not dict:
            continue
        elif kind.startswith("drop"):
            target.pop(key, None)
        elif kind.startswith("retype"):
            target[key] = value
        elif key == "bias":
            model[key] = value
        elif type(values) is not list or not values:
            continue
        elif kind == "shorten":
            values.pop()
        elif key == "support_vectors":
            row = values[index % len(values)]
            if type(row) is list and row:
                row[0] = value
        else:
            values[index % len(values)] = value
    text = json.dumps(model, indent=2)
    return text if cut is None else text[:cut]


@pytest.mark.parametrize("command", ["predict", "eval", "report"])
@settings(max_examples=25, deadline=None)
@example(mutations=[("set", "sv_alphas", 0, 0.0)])
@example(mutations=[("set", "sv_indices", 1, 0)])
@example(mutations=[("drop", "corpus_fingerprint", None, None)])
@example(mutations=[("truncate", None, 200, None)])
@given(mutations=st.lists(MODEL_MUTATIONS, min_size=1, max_size=3))
def test_model_commands_on_mutated_model(work, command, mutations):
    """``predict``, ``eval`` and ``report`` end in exit 0, 2 or 3 on a mutated
    model file with no traceback, and one that fails writes no file, temporary or not."""
    with tempfile.TemporaryDirectory() as scratch:
        model, out = Path(scratch) / "model.json", Path(scratch) / "out"
        model.write_text(mutate_model(work["model"].read_text(), mutations))
        extra = {
            "predict": ["--out", str(out)],
            "eval": [],
            "report": ["--predictions", str(work["preds"]), "--out", str(out)],
        }[command]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--model", str(model), "--dag", str(work["dag"]),
                         "--attrs", str(work["attrs"]), "--labels", str(work["labels"]), *extra])
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        assert (code == 0) == (stderr.getvalue() == "")
        assert code == 0 or [p.name for p in Path(scratch).iterdir()] == ["model.json"]


# The argv fuzzer's pools.  Every file an option may name is a copy in the
# example's own directory, since `annotate add --annotations` appends to its
# file and `attrs --attach` rewrites `--dag`.  Each option has a usual value
# and, one time in four, a junk one: a file option takes its own kind of file
# or else another kind, a missing path or a directory; an output option a
# fresh path or else a directory or a path in a missing directory; any other
# option one of its choices, its default or a node id, or else a value from
# VALUES.  `--max-passes` stays small, so no example trains for long.
FUZZ_FILES = {
    "--corpus": "corpus.json", "--dag": "dag.json", "--attrs": "attributes.csv",
    "--labels": "labels.csv", "--model": "model.json", "--predictions": "predictions.csv",
    "--exceptions": "exceptions.csv", "--annotations": "annotations.csv",
    "--keep-file": "can_keep.txt", "--attrs-ref": "attributes.csv",
}
ANY_FILE = st.sampled_from(sorted(set(FUZZ_FILES.values()))
                           + ["stale_attributes.csv", "missing/x", "dir"])
VALUES = st.sampled_from([
    "nan", "inf", "-inf", "1e309", "-0", "1234567890123456789012345", "", ",", "1,2",
    "0.5,nan", "-1", "0", "1", "0.5", "8", "0,1,2,3", "rbf,poly", "memory", "x",
])


def _fuzz_values(action: argparse.Action):
    """The (usual, junk) value strategies of one option, or None for a flag."""
    option = action.option_strings[0]
    if action.nargs == 0:
        return None
    if option in FUZZ_FILES:
        return st.just(FUZZ_FILES[option]), ANY_FILE
    if option in ("--out", "--refresh-structural"):
        return st.just("out"), st.sampled_from(["dir", "missing/x"])
    if option == "--max-passes":
        return st.sampled_from(["1", "5"]), st.sampled_from(["0", "-1", "nan", ""])
    if action.choices:
        return st.sampled_from(sorted(action.choices)), VALUES
    if action.default is not None:
        return st.just(str(action.default)), VALUES
    return st.sampled_from(["0", "5", "8"]), VALUES  # node ids, or any text


def _fuzz_commands():
    """(subcommand words, [(option, required, values)]) for every leaf command of
    the parser, with values as ``_fuzz_values`` gives them."""
    commands = []
    pending = [((), build_parser())]
    while pending:
        words, parser = pending.pop()
        subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for action in subparsers:
            pending.extend((words + (name,), p) for name, p in action.choices.items())
        if not subparsers:
            commands.append((words, [(a.option_strings[0], a.required, _fuzz_values(a))
                                     for a in parser._actions if a.dest != "help"]))
    return sorted(commands, key=lambda c: c[0])


FUZZ_COMMANDS = _fuzz_commands()


@st.composite
def fuzz_argv(draw):
    """A subcommand, a random subset of its options (a required one is left out
    one time in ten) and a value for each; ``train`` always gets --max-passes."""
    words, options = draw(st.sampled_from(FUZZ_COMMANDS))
    argv = list(words)
    for option, required, values in options:
        keep = draw(st.integers(0, 9)) > 0 if required else draw(st.booleans())
        if keep or option == "--max-passes":
            argv.append(option)
            if values is not None:
                usual, junk = values
                argv.append(draw(usual if draw(st.integers(0, 3)) else junk))
    return argv


@pytest.fixture(scope="module")
def fuzz_inputs(work, tmp_path_factory):
    """One of each input file the fuzzer's options may name, an attributes file
    that lacks the dag's last node, and an empty directory."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    for name, source in (("corpus.json", work["corpus"]), ("dag.json", work["dag"]),
                         ("attributes.csv", work["attrs"]), ("labels.csv", work["labels"]),
                         ("model.json", work["model"]), ("predictions.csv", work["preds"]),
                         ("exceptions.csv", DATA / "exceptions.csv"),
                         ("can_keep.txt", DATA / "can_keep.txt")):
        shutil.copy(source, root / name)
    with contextlib.redirect_stdout(io.StringIO()):
        for origin, dest, verdict in (("0", "5", "feasible"), ("3", "7", "infeasible")):
            assert main(["annotate", "add", "--annotations", str(root / "annotations.csv"),
                         "--origin", origin, "--dest", dest, "--verdict", verdict,
                         "--annotator", "fuzz"]) == 0
    (root / "stale_attributes.csv").write_text(
        "".join(work["attrs"].read_text().splitlines(keepends=True)[:-1]))
    (root / "dir").mkdir()
    return root


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@settings(max_examples=200, deadline=None)
@example(argv=["attrs", "--dag", "dag.json", "--attrs", "stale_attributes.csv", "--attach"])
@example(argv=["annotate", "add", "--annotations", "annotations.csv", "--origin", "nan",
               "--dest", "1", "--verdict", "feasible", "--annotator", "x"])
@example(argv=["paths", "--dag", "dag.json", "--cap", "1234567890123456789012345",
               "--corpus", "corpus.json", "--out", "out"])
@example(argv=["train", "--dag", "dag.json", "--attrs", "attributes.csv", "--labels",
               "labels.csv", "--c", "1e309", "--max-passes", "1", "--out", "out"])
@given(argv=fuzz_argv())
def test_fuzzed_argv_through_main(fuzz_inputs, argv):
    """Any subcommand with any subset of its options returns 0-3 with no exception
    escaping; no run leaves a ``.tmp`` file, and a failed run changes no file."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "inputs"
        shutil.copytree(fuzz_inputs, root)
        before = _tree(root)
        names = set(before) | {"dir", "missing/x", "out"}
        resolved = [str(root / a) if a in names else a for a in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(resolved)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in stderr.getvalue()
        after = _tree(root)
        assert not [name for name in after if name.endswith(".tmp")], argv
        assert code == 0 or after == before, argv


LABEL_LINES = (DATA / "labels.csv").read_text().splitlines(keepends=True)
ATTR_LINES = (DATA / "attributes.csv").read_text().splitlines(keepends=True)


def labeled_outputs(inputs: Path, dag: Path) -> dict[str, str]:
    """The stdout and artifacts of the commands that read labels.csv, run on the
    files in ``inputs``, less the fingerprints (which hash the files' bytes) and
    the report's timestamp."""
    model, preds = str(inputs / "model.json"), str(inputs / "predictions.csv")
    scored = ["--dag", str(dag), "--attrs", str(inputs / "attributes.csv"),
              "--labels", str(inputs / "labels.csv")]
    runs = {
        "train": ["train", *scored, "--out", model],
        "predict": ["predict", "--model", model, *scored, "--out", preds],
        "eval": ["eval", "--model", model, *scored, "--baselines"],
        "grid-search": ["grid-search", *scored, "--out", str(inputs / "surface.json")],
        "csp": ["csp", *scored, "--out", str(inputs / "csp.csv")],
        "report": ["report", "--model", model, *scored, "--predictions", preds,
                   "--corpus", str(DATA / "corpus.json"), "--out", str(inputs / "report.json")],
    }
    outputs = {}
    for name, argv in runs.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0, name
        outputs[name] = stdout.getvalue().replace(str(inputs), "<inputs>")
    for name in ("predictions.csv", "surface.json", "csp.csv"):
        outputs[name] = (inputs / name).read_text()
    stored = json.loads((inputs / "model.json").read_text())
    del stored["corpus_fingerprint"]
    report = json.loads((inputs / "report.json").read_text())
    del report["run"]["corpus_fingerprint"], report["run"]["timestamp"]
    outputs["model.json"], outputs["report.json"] = json.dumps(stored), json.dumps(report)
    return outputs


@pytest.fixture(scope="module")
def listed_order(tmp_path_factory):
    """The bundled dag, and the labeled outputs with the rows as the files list them."""
    root = tmp_path_factory.mktemp("row-order")
    dag = root / "dag.json"
    assert main(["ingest", "--corpus", str(DATA / "corpus.json"), "--out", str(dag)]) == 0
    inputs = root / "inputs"
    inputs.mkdir()
    for name in ("labels.csv", "attributes.csv"):
        shutil.copy(DATA / name, inputs / name)
    return dag, labeled_outputs(inputs, dag)


@settings(max_examples=10, deadline=None)
@example(labels=list(range(len(LABEL_LINES) - 2, -1, -1)),
         attrs=list(range(len(ATTR_LINES) - 2, -1, -1)))
@given(labels=st.permutations(range(len(LABEL_LINES) - 1)),
       attrs=st.permutations(range(len(ATTR_LINES) - 1)))
def test_row_order_of_labels_and_attributes_changes_no_output(listed_order, labels, attrs):
    """labels.csv and attributes.csv carry the same information in any row order,
    so every learner's output, and every artifact, is the same for each order."""
    dag, want = listed_order
    with tempfile.TemporaryDirectory() as scratch:
        inputs = Path(scratch)
        for name, lines, order in (("labels.csv", LABEL_LINES, labels),
                                   ("attributes.csv", ATTR_LINES, attrs)):
            (inputs / name).write_text(lines[0] + "".join(lines[1 + k] for k in order))
        got = labeled_outputs(inputs, dag)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name
