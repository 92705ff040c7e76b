import csv
import io
import json
import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import attackdag.storage as storage_module
from attackdag.features import ATTRS_CSV_HEADER, AttributeTable
from attackdag.graph import CycleIntroduced
from attackdag.learn import SvmParams, train_svm
from attackdag.learn.svm import SCORE_BLOCK_ROWS, decision_labels
from attackdag.model import normalize_description
from attackdag.negatives import EXCEPTIONS_CSV_HEADER, ExceptionList
from attackdag.storage import (
    ANNOTATIONS_HEADER,
    BRANCH_WIDTH,
    LABELS_HEADER,
    CorpusLoadError,
    DagLoadError,
    EXPLOIT_BUCKETS,
    ExpressionParseFailure,
    FingerprintMismatch,
    ModelLoadError,
    PREDICTIONS_DTYPE,
    PREDICTIONS_HEADER,
    DagFile,
    append_annotation,
    csv_text,
    dump_json,
    file_fingerprint,
    json_chunks,
    label_columns,
    load_annotations,
    load_corpus,
    load_dag,
    load_labels,
    load_model,
    load_predictions,
    positives_chunks,
    read_prediction_rows,
    save_dag,
    save_labels,
    save_model,
    save_predictions,
    write_chunks_atomic,
    write_text_atomic,
)

from oracles import expr_blocks


def prediction_columns(rows):
    """``save_predictions``' id column and one block for (origin, dest, label, decision)
    rows; the writer labels each row from its decision."""
    ids, at, _ = label_columns([row[:3] for row in rows])
    return ids, [(at, np.array([row[3] for row in rows], dtype=float))]


class TestPrimitives:
    def test_atomic_write_replaces_and_cleans_up(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(target, "first")
        write_text_atomic(target, "second")
        assert target.read_text() == "second"
        assert list(tmp_path.iterdir()) == [target]

    def test_dump_json_is_deterministic(self):
        a = dump_json({"b": 1, "a": [2, 3]})
        b = dump_json({"a": [2, 3], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a) == {"a": [2, 3], "b": 1}

    def test_dump_json_edge_cases_match_json_dumps(self):
        rows = [{"b": "x", "a": 1.5}, {"b": None, "a": -0.0}]
        cases = [
            # equal keys of different types encode differently
            [{1: "a"}, {1.0: "a"}, {True: "a"}, {None: 0}],
            {2: [], 0.5: {}, False: (), -3: float("nan")},
            {"b": {"y": [1, (2.5, None)], "x": {}}, "a": "\u00e9\u2603\x00\n\"\\"},
            {"f": [float("inf"), -float("inf"), -0.0, 5e-324, 1e16, np.float64(0.1)]},
            "top-level string", 12, None, [], {},
            # lists of flat dicts are plain JSON values
            {"rows": rows, "more": rows[::-1]},
            {"rows": tuple(rows)},
        ]
        for case in cases:
            assert dump_json(case) == json.dumps(case, indent=2, sort_keys=True) + "\n"

    def test_positives_splice_lands_only_on_its_own_entry(self):
        """Only the top-level entry is replaced, not a string that spells it or a
        nested key of the same name."""
        columns = positive_columns([3, -1], ["x", "y"], [0, 1], [1, 0], [1.5, -0.0], [0, 1],
                                   ("crypto", None))
        spelled, nested = 'x\n  "predicted_positives": null', {"predicted_positives": None}
        for payload in ({"a": spelled, "n": nested}, {"n": nested, "zz": spelled}, {}):
            text, expected = spliced_report(payload, columns)
            assert text == expected

    def test_fingerprint_sensitive_to_content_and_order(self, tmp_path):
        f1 = tmp_path / "a"
        f2 = tmp_path / "b"
        f1.write_text("xx")
        f2.write_text("yy")
        base = file_fingerprint(f1, f2)
        assert file_fingerprint(f2, f1) != base
        f2.write_text("yz")
        assert file_fingerprint(f1, f2) != base

    def test_fingerprint_separator_prevents_boundary_shifts(self, tmp_path):
        f1 = tmp_path / "a"
        f2 = tmp_path / "b"
        f1.write_text("ab")
        f2.write_text("c")
        g1 = tmp_path / "c"
        g2 = tmp_path / "d"
        g1.write_text("a")
        g2.write_text("bc")
        assert file_fingerprint(f1, f2) != file_fingerprint(g1, g2)


def corpus_json(attacks, **extra):
    payload = {"category_map": {"x": "memory"}, "attacks": attacks}
    payload.update(extra)
    return json.dumps(payload, indent=1)


def write_corpus(tmp_path, text):
    path = tmp_path / "corpus.json"
    path.write_text(text)
    return path


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16]),
    st.text(),
    st.text(st.characters(exclude_categories=())),  # lone surrogates too
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
    ),
    max_leaves=40,
)


PERCENT_TEXT = st.sampled_from(["%", "%s", "%%d", "100%", "\u00e9\u2603", "\ud800"])
NODE_TEXTS = st.text(st.characters(exclude_categories=())) | PERCENT_TEXT  # lone surrogates too
INT64_IDS = st.integers(min_value=-(2**63), max_value=2**63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16])


def positive_columns(node_ids, node_texts, origin_at, dest_at, decisions, bucket, bucket_names):
    """``positives_chunks``' arguments, as report passes them, from lists."""
    return (node_ids, node_texts, np.array(origin_at, dtype=np.intp),
            np.array(dest_at, dtype=np.intp), np.array(decisions, dtype=float),
            np.array(bucket, dtype=np.int8), bucket_names)


def spliced_report(payload, columns):
    """``json_chunks`` of ``payload`` with ``positives_chunks(*columns)`` spliced in as
    its predicted_positives, and json.dumps of the rows those columns stand for,
    built one by one."""
    node_ids, node_texts, origin_at, dest_at, decisions, bucket, bucket_names = columns
    rows = [{"bucket": bucket_names[b], "decision": v, "dest": node_ids[d],
             "dest_text": node_texts[d], "origin": node_ids[o], "origin_text": node_texts[o]}
            for o, d, v, b in zip(origin_at.tolist(), dest_at.tolist(), decisions.tolist(),
                                  bucket.tolist())]
    text = "".join(json_chunks(payload, "predicted_positives", positives_chunks(*columns)))
    plain = {**payload, "predicted_positives": rows}
    return text, json.dumps(plain, indent=2, sort_keys=True) + "\n"


@st.composite
def positive_tables(draw):
    """Up to 4 nodes and 3 buckets, and 0 to 6 rows of positions into them."""
    k = draw(st.integers(1, 4))
    node_ids = draw(st.lists(INT64_IDS, min_size=k, max_size=k))
    node_texts = draw(st.lists(NODE_TEXTS, min_size=k, max_size=k))
    names = draw(st.lists(st.none() | st.text(max_size=3) | PERCENT_TEXT, min_size=1, max_size=3))
    n = draw(st.integers(0, 6))
    at = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    return positive_columns(node_ids, node_texts, draw(at), draw(at),
                            draw(st.lists(FINITE, min_size=n, max_size=n)),
                            draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n)),
                            tuple(names))


@settings(max_examples=300, deadline=None)
@given(columns=positive_tables(), key=st.text(max_size=3), other=JSON_VALUES)
def test_positives_match_json(columns, key, other):
    """The renderer writes what json writes for the list of dicts, wherever the
    key sorts among the others."""
    text, expected = spliced_report({key: other}, columns)
    assert text == expected


@pytest.mark.parametrize("offset", [None, 1 - storage_module.POSITIVES_BLOCK_ROWS, -1, 0, 1],
                         ids=["0-rows", "1-row", "block-1", "block", "block+1"])
def test_positives_across_blocks_match_json(offset):
    """0 rows, 1 row, and one block of rows less one, exactly one and one more,
    over int64-extreme ids, texts json must escape, a None bucket and the
    decisions whose repr is shortest or longest."""
    n = 0 if offset is None else storage_module.POSITIVES_BLOCK_ROWS + offset
    rng = np.random.default_rng(n)
    node_ids = [-(2**63), -5, 0, 7, 2**63 - 1]
    node_texts = ["a%sb", "\u00e9\u2603", "\ud800 lone", 'say "hi" \\ 100%', ""]
    decisions = rng.normal(size=n)
    decisions[:3] = [-0.0, 5e-324, 1e16][:n]
    columns = positive_columns(node_ids, node_texts, rng.integers(0, 5, n), rng.integers(0, 5, n),
                               decisions, rng.integers(0, 3, n), ("crypto", None, "%d"))
    text, expected = spliced_report({"a": 1, "z": [None]}, columns)
    assert text == expected
    blocks = -(-n // storage_module.POSITIVES_BLOCK_ROWS)
    chunks = json_chunks({"a": 1}, "predicted_positives", positives_chunks(*columns))
    # json's text before and after, and one chunk a block and the closer, or "[]"
    assert len(list(chunks)) == 2 + (blocks + 1 if n else 1)


class TestChunkedWriter:
    def test_chunks_are_written_in_order(self, tmp_path):
        target = tmp_path / "out.txt"
        write_chunks_atomic(target, iter(["a", "", "b\n", "c"]))
        assert target.read_bytes() == b"a" + b"b\n" + b"c"
        assert list(tmp_path.iterdir()) == [target]

    def test_failing_chunks_keep_the_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(target, "old\n")

        def chunks():
            yield "new " * 100_000
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError, match="producer failed"):
            write_chunks_atomic(target, chunks())
        assert target.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failing_prediction_blocks_keep_the_old_file(self, tmp_path):
        target = tmp_path / "preds.csv"
        ids = np.array([0, 1])
        save_predictions(target, ids, [(np.array([[0, 1]]), np.array([0.5]))])
        before = target.read_bytes()

        def blocks():
            yield np.array([[0, 1], [1, 0]]), np.array([0.5, -0.5])
            raise ValueError("scoring failed")

        with pytest.raises(ValueError, match="scoring failed"):
            save_predictions(target, ids, blocks())
        assert target.read_bytes() == before
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_decision_raises_before_anything_is_written(self, tmp_path, monkeypatch,
                                                                  bad):
        monkeypatch.setattr(storage_module, "POSITIVES_BLOCK_ROWS", 1)
        columns = positive_columns([0, 1], ["a", "b"], [0, 1], [1, 0], [0.5, bad], [0, 0],
                                   ("crypto",))
        with pytest.raises(ValueError, match="not finite"):
            positives_chunks(*columns)
        target = tmp_path / "report.json"
        write_text_atomic(target, "old\n")

        def chunks():  # the renderer called once the file is open
            yield from json_chunks({"first": 1}, "predicted_positives", positives_chunks(*columns))

        with pytest.raises(ValueError, match="not finite"):
            write_chunks_atomic(target, chunks())
        assert target.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [target]


class TestCorpusLoader:
    def test_bundled_corpus_loads(self, corpus, corpus_expressions):
        assert len(corpus.cdfgs) == 27
        assert list(corpus.blocks) == list(range(49))
        assert all(corpus.blocks[node].id == node for node in corpus.blocks)
        assert [name for name, _ in corpus.cdfgs] == [name for name, _ in corpus_expressions]
        # interning is first-appearance: ids follow attack order, then leaf order
        norms = [normalize_description(leaf.description)
                 for _, expression in corpus_expressions for leaf in expr_blocks(expression)]
        assert [blk.norm_text for blk in corpus.blocks.values()] == list(dict.fromkeys(norms))

    def test_each_leaf_is_normalized_once(self, data_dir, corpus_expressions, monkeypatch):
        calls = []

        def counted(text):
            calls.append(text)
            return normalize_description(text)

        monkeypatch.setattr(storage_module, "normalize_description", counted)
        load_corpus(data_dir / "corpus.json")
        assert calls == [leaf.description for _, expression in corpus_expressions
                         for leaf in expr_blocks(expression)]

    def test_cycle_within_one_attack_raises_while_loading(self, tmp_path):
        path = write_corpus(tmp_path, corpus_json([
            {"name": "loop", "categories": ["x"], "expression": "bb_i(p).bb_j(q).bb_k(p)"},
        ]))
        with pytest.raises(CycleIntroduced, match="cycle: 0 -> 1 -> 0"):
            load_corpus(path)

    def test_not_json(self, tmp_path):
        path = write_corpus(tmp_path, "{nope")
        with pytest.raises(CorpusLoadError):
            load_corpus(path)

    def test_no_attacks(self, tmp_path):
        path = write_corpus(tmp_path, json.dumps({"attacks": []}))
        with pytest.raises(CorpusLoadError):
            load_corpus(path)

    def test_duplicate_attack_name(self, tmp_path):
        path = write_corpus(tmp_path, corpus_json([
            {"name": "a", "categories": ["x"], "expression": "bb_i(p)"},
            {"name": "a", "categories": ["x"], "expression": "bb_i(q)"},
        ]))
        with pytest.raises(CorpusLoadError, match="duplicate attack name"):
            load_corpus(path)

    def test_missing_categories(self, tmp_path):
        path = write_corpus(tmp_path, corpus_json([
            {"name": "a", "categories": [], "expression": "bb_i(p)"},
        ]))
        with pytest.raises(CorpusLoadError, match="no categories"):
            load_corpus(path)

    def test_unmapped_category_label(self, tmp_path):
        path = write_corpus(tmp_path, corpus_json([
            {"name": "a", "categories": ["y"], "expression": "bb_i(p)"},
        ]))
        with pytest.raises(CorpusLoadError, match="unmapped category label"):
            load_corpus(path)

    def test_bad_category_class(self, tmp_path):
        path = write_corpus(tmp_path, json.dumps({
            "category_map": {"x": "not_a_class"},
            "attacks": [{"name": "a", "categories": ["x"], "expression": "bb_i(p)"}],
        }))
        with pytest.raises(CorpusLoadError, match="unknown class"):
            load_corpus(path)

    def test_expression_error_carries_file_position(self, tmp_path):
        path = write_corpus(tmp_path, corpus_json([
            {"name": "broken", "categories": ["x"], "expression": "bb_i(p)."},
        ]))
        with pytest.raises(ExpressionParseFailure) as err:
            load_corpus(path)
        message = str(err.value)
        assert str(path) in message
        assert "broken" in message
        assert f":{err.value.line}:{err.value.col}:" in message
        assert (err.value.line, err.value.col) == (11, 27)  # just past "bb_i(p)."

    @pytest.mark.parametrize("first, second", [("first", "second"), ("x", "bb_1(a")],
                             ids=["prefix of an earlier expression", "equal to its name"])
    def test_expression_error_points_into_its_own_attack(self, tmp_path, first, second):
        # the broken text "bb_1(a" appears earlier in the file
        path = write_corpus(tmp_path, (
            '{"category_map": {"x": "memory"}, "attacks": [\n'
            f' {{"name": "{first}", "categories": ["x"],\n'
            '  "expression": "bb_1(a).bb_2(b)"},\n'
            f' {{"name": "{second}", "categories": ["x"],\n'
            '  "expression": "bb_1(a"}\n'
            ']}\n'))
        with pytest.raises(ExpressionParseFailure) as err:
            load_corpus(path)
        assert (err.value.line, err.value.col) == (5, 22)  # the unclosed "("
        assert str(err.value).startswith(f"{path}:5:22: attack {second!r}: ")

    def test_escaped_expression_error_is_placed_within_the_expression(self, tmp_path):
        # the file holds \" where the expression has ", so offsets do not map
        path = write_corpus(tmp_path, corpus_json([
            {"name": "quoted", "categories": ["x"], "expression": 'bb_1(say "a").bb_2(b'},
        ]))
        with pytest.raises(ExpressionParseFailure) as err:
            load_corpus(path)
        assert (err.value.line, err.value.col) == (1, 19)  # bb_2's "("

    def test_override_changes_node_category(self, tmp_path):
        path = write_corpus(tmp_path, corpus_json(
            [{"name": "a", "categories": ["x"], "expression": "bb_i(p).bb_j(q)"}],
            node_category_overrides={"q": "malware"},
        ))
        corpus = load_corpus(path)
        by_norm = {b.norm_text: b for b in corpus.blocks.values()}
        assert by_norm["p"].category.value == "memory"
        assert by_norm["q"].category.value == "malware"

    def test_unknown_nodes_in_side_maps_rejected(self, tmp_path):
        base = [{"name": "a", "categories": ["x"], "expression": "bb_i(p)"}]
        for extra in (
            {"socially_delivered": ["ghost"]},
            {"node_category_overrides": {"ghost": "malware"}},
            {"bucket_map": {"ghost": "crypto"}},
        ):
            path = write_corpus(tmp_path, corpus_json(base, **extra))
            with pytest.raises(CorpusLoadError, match="ghost"):
                load_corpus(path)

    def test_unknown_bucket_rejected(self, tmp_path):
        path = write_corpus(tmp_path, corpus_json(
            [{"name": "a", "categories": ["x"], "expression": "bb_i(p)"}],
            bucket_map={"p": "warp_drive"},
        ))
        with pytest.raises(CorpusLoadError, match="unknown exploit bucket"):
            load_corpus(path)

    def test_bucket_vocabulary(self):
        assert EXPLOIT_BUCKETS == (
            "access_control", "crypto", "network", "malware", "bios_boot", "cache_poisoning",
        )


class TestDagFile:
    def test_round_trip(self, tmp_path, corpus):
        dag = corpus.attack_dag()
        blocks, buckets = corpus.blocks, corpus.buckets
        path = tmp_path / "dag.json"
        save_dag(path, DagFile(dag, blocks, buckets, "attrs.csv"))
        loaded = load_dag(path)
        assert loaded.dag.nodes == dag.nodes
        assert loaded.dag.edges == dag.edges
        assert loaded.dag.heads == dag.heads
        assert loaded.dag.leaves == dag.leaves
        assert loaded.dag.edge_provenance == dag.edge_provenance
        assert loaded.dag.mean_depth == dag.mean_depth
        assert loaded.blocks == blocks
        assert loaded.buckets == buckets
        assert loaded.attrs_ref == "attrs.csv"

    @pytest.mark.parametrize("payload, missing", [
        ({"edges": []}, "'nodes'"),
        ({"nodes": []}, "'edges'"),
        ({"nodes": [{"id": 0, "norm_text": "a", "category": "memory"}], "edges": []},
         "node 0 has no 'raw_text'"),
        ([], "not a JSON object"),
    ])
    def test_malformed_dag_is_typed_error(self, tmp_path, payload, missing):
        path = tmp_path / "dag.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DagLoadError, match=missing):
            load_dag(path)

    def test_save_is_deterministic(self, tmp_path, corpus):
        dagfile = DagFile(corpus.attack_dag(), corpus.blocks, corpus.buckets)
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        save_dag(p1, dagfile)
        save_dag(p2, dagfile)
        assert p1.read_bytes() == p2.read_bytes()


class TestLabels:
    def test_round_trip(self, tmp_path):
        rows = [(0, 1, 1), (2, 3, -1), (4, 0, 1)]
        path = tmp_path / "labels.csv"
        save_labels(path, *label_columns(rows))
        assert load_labels(path) == rows
        assert path.read_text().splitlines()[0] == "origin,dest,label"

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_blocks_match_csv_text(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(storage_module, "LABEL_BLOCK_ROWS", block)
        rows = [(5, -3, -1), (-3, 5, 1), (2**63 - 1, 5, 1), (5, -(2**63), -1), (7, 5, 1)]
        for n in range(len(rows) + 1):
            path = tmp_path / f"labels{n}.csv"
            save_labels(path, *label_columns(rows[:n]))
            assert path.read_text() == csv_text(LABELS_HEADER, rows[:n])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a,b,c\n0,1,1\n")
        with pytest.raises(ValueError, match="bad labels header"):
            load_labels(path)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("origin,dest,label\n0,1,2\n")
        with pytest.raises(ValueError, match="label must be 1 or -1"):
            load_labels(path)

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("origin,dest,label\n0,1,1\n0,1,-1\n")
        with pytest.raises(ValueError, match="duplicate pair"):
            load_labels(path)


class TestAnnotations:
    def test_append_only_log(self, tmp_path):
        path = tmp_path / "ann.csv"
        append_annotation(path, 0, 1, "feasible", "alice", "checked by hand")
        append_annotation(path, 0, 1, "infeasible", "bob", "")
        rows = load_annotations(path)
        assert rows == [
            (0, 1, "feasible", "alice", "checked by hand"),
            (0, 1, "infeasible", "bob", ""),
        ]
        # exactly one header line even after two appends
        lines = path.read_text().splitlines()
        assert lines.count("origin,dest,verdict,annotator,note") == 1

    def test_bad_verdict(self, tmp_path):
        with pytest.raises(ValueError):
            append_annotation(tmp_path / "ann.csv", 0, 1, "maybe", "alice", "")


def branch_rows(rows: list[list[float]]) -> np.ndarray:
    """``rows`` padded with zero columns to a branch's feature width; the zeros
    leave every kernel value as it was."""
    x = np.array(rows)
    return np.pad(x, ((0, 0), (0, BRANCH_WIDTH - x.shape[1])))


class TestModelFile:
    def make_model(self):
        x = branch_rows([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        return train_svm(x, y, SvmParams(gamma=0.5, tolerance=1e-6))

    def test_round_trip(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_model(path, model, "f" * 64)
        loaded = load_model(path)
        assert loaded.params == model.params
        assert np.array_equal(loaded.support_vectors, model.support_vectors)
        assert np.array_equal(loaded.dual_coefs, model.dual_coefs)
        assert loaded.bias == model.bias
        assert loaded.sv_indices == model.sv_indices
        assert np.array_equal(loaded.sv_alphas, model.sv_alphas)
        assert loaded.n_samples == model.n_samples
        assert loaded.converged == model.converged
        assert loaded.fingerprint == "f" * 64
        # iteration count is a training detail, not part of the artifact
        assert loaded.iterations == 0

    def test_fingerprint_enforced(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, self.make_model(), "f" * 64)
        with pytest.raises(FingerprintMismatch):
            load_model(path, expected_fingerprint="0" * 64)
        forced = load_model(path, expected_fingerprint="0" * 64, force=True)
        assert forced.fingerprint == "f" * 64
        unchecked = load_model(path, expected_fingerprint=None)
        assert unchecked.bias == forced.bias

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_model(path, model, "f" * 64)
        loaded = load_model(path)
        probes = branch_rows([[0.5, 0.5], [2.5, 1.5], [-1.0, 4.0]])
        assert np.array_equal(model.decision_values(probes), loaded.decision_values(probes))

    def test_support_vector_width_checked(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, self.make_model(), "f" * 64)
        payload = json.loads(path.read_text())
        rows = payload["support_vectors"]
        for width in (BRANCH_WIDTH - 1, BRANCH_WIDTH + 1):
            payload["support_vectors"] = [(row + [0.0])[:width] for row in rows]
            path.write_text(json.dumps(payload))
            with pytest.raises(ModelLoadError, match=f"^{re.escape(str(path))}: "
                               f"'support_vectors' rows have {width} features, expected 20"):
                load_model(path)


    @pytest.mark.parametrize("value", [True, 10**400, float("nan")], ids=["true", "10**400", "nan"])
    @pytest.mark.parametrize("key, message", [
        ("support_vectors", "rows are not all finite numbers of one length"),
        ("sv_alphas", "is not a list of finite numbers"),
    ])
    def test_number_lists_reject_bools_huge_ints_and_nan(self, tmp_path, value, key, message):
        path = tmp_path / "model.json"
        save_model(path, self.make_model(), "f" * 64)
        payload = json.loads(path.read_text())
        if key == "support_vectors":
            payload[key][0][1] = value
        else:
            payload[key][0] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelLoadError, match=f"^{re.escape(f'{path}: {key!r} {message}')}$"):
            load_model(path)


class TestPredictions:
    def test_round_trip_preserves_exact_floats(self, tmp_path):
        rows = [(0, 1, 1, 0.1 + 0.2), (2, 3, -1, -1.2345678901234567e-05)]
        path = tmp_path / "preds.csv"
        save_predictions(path, *prediction_columns(rows))
        loaded = load_predictions(path)
        assert loaded.dtype == PREDICTIONS_DTYPE
        assert loaded.tolist() == rows

    def test_bad_header(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(ValueError, match="bad predictions header"):
            load_predictions(path)

    def test_save_matches_csv_writer(self, tmp_path):
        decisions = np.array([1e-05, 1e16, 5e-324, -0.0, 0.1 + 0.2, -2.5, 123456789.0, 1e-300])
        labels = np.where(decisions >= 0.0, 1, -1)  # as predict labels them
        rows = list(zip(range(8), range(8, 16), labels.tolist(), decisions.tolist()))
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(PREDICTIONS_HEADER)
        for origin, dest, label, decision in rows:
            writer.writerow([origin, dest, label, repr(float(decision))])
        path = tmp_path / "preds.csv"
        ids, [(at, decisions)] = prediction_columns(rows)
        save_predictions(path, ids, [(at[:3], decisions[:3]), (at[3:3], decisions[3:3]),
                                     (at[3:], decisions[3:])])
        assert path.read_bytes() == reference.getvalue().encode("utf-8")
        assert load_predictions(path).tolist() == rows

    @pytest.mark.parametrize("row", ["1,2,1", "1,2,x,0.5", "1,2,1,0.5,9", "1,2,7,0.5",
                                     "1,2,0,0.5", "1,2,1,nan", "1,2,-1,-inf", "1,2,1,-3.0",
                                     "1,2,-1,0.0", "1,2,-1,-0.0", "0,1,1,2.5", " 0 ,+1,1,1e5",
                                     "9223372036854775808,2,1,0.5", "1,-9223372036854775809,1,0.5",
                                     "1,2,1,0.5\x1f",
                                     pytest.param("1,2,1," + " " * csv.field_size_limit() + "0.5",
                                                  id="field-beyond-csv-limit")])
    def test_malformed_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "preds.csv"
        path.write_text(f"origin,dest,label,decision\n0,1,1,0.5\n\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: ")):
            load_predictions(path)

    def test_blocks_keep_absolute_line_numbers(self, tmp_path):
        rows = [f"{i},{i + 1},1,0.{i + 1}" for i in range(8)]
        path = tmp_path / "preds.csv"
        path.write_text("origin,dest,label,decision\n" + "\n".join(rows) + "\n\n\n")
        assert load_predictions(path).tolist() == [(i, i + 1, 1, float(f"0.{i + 1}"))
                                                   for i in range(8)]
        rows[5] = "5,6,1,x"
        path.write_text("origin,dest,label,decision\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:7: ")):
            load_predictions(path)

    def test_line_beyond_csv_limit_in_a_later_block_goes_to_the_row_reader(self, tmp_path):
        # numpy would read the padded field as 0.5; csv refuses it.
        path = tmp_path / "preds.csv"
        long_row = "4,5,1," + " " * csv.field_size_limit() + "0.5"
        path.write_text(f"origin,dest,label,decision\n0,1,1,0.5\n2,3,-1,-1.0\n{long_row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: ")):
            load_predictions(path)

    def test_vertical_tab_and_form_feed_are_not_line_ends(self, tmp_path):
        # str.splitlines() would end a line at either; csv and numpy do not.
        path = tmp_path / "preds.csv"
        for sep in "\x0b\x0c":
            path.write_text(f"origin,dest,label,decision\n0,1,1,0.5{sep}\n{sep}2,3,-1,-1\n")
            assert load_predictions(path).tolist() == [(0, 1, 1, 0.5), (2, 3, -1, -1.0)]
            path.write_text(f"origin,dest,label,decision\n0,1,1,0.5\n2,3,1,1{sep}4,5,1,1\n")
            with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 4 fields")):
                load_predictions(path)

    @pytest.mark.parametrize("final_newline", [True, False])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    def test_line_beyond_csv_limit_at_any_offset_goes_to_the_row_reader(
            self, tmp_path, place, shift, final_newline):
        # The shortest over-limit line, starting one character before, at or
        # after a boundary of the half-limit spans load_predictions checks.
        limit = csv.field_size_limit()
        half = limit // 2
        header = "origin,dest,label,decision\n"
        long_row = "4,5,1," + " " * (limit - 2) + "0.5"
        lead = "" if place == "first" else "0,1,1,0.5\n2,3,-1,-1.0\n"
        blanks = (shift - len(lead)) % half  # so the long row starts at len(header) + k * half + shift
        tail = "6,7,1,0.5" if place == "middle" else ""
        text = header + lead + "\n" * blanks + long_row + ("\n" + tail if tail else "")
        path = tmp_path / "preds.csv"
        path.write_text(text + ("\n" if final_newline else ""))
        line = 2 + lead.count("\n") + blanks
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
            load_predictions(path)

    def test_path_ending_in_gz_is_read_as_plain_text(self, tmp_path):
        rows = [(0, 1, 1, 0.5), (2, 3, -1, -1.0)]
        path = tmp_path / "preds.csv.gz"
        save_predictions(path, *prediction_columns(rows))
        assert load_predictions(path).tolist() == rows

    def test_spellings_numpy_rejects_load_as_int_and_float_read_them(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("origin,dest,label,decision\n1_0,\u0663,1,0.5\n 4 ,5,-1,-1_0.5\n")
        assert load_predictions(path).tolist() == [(10, 3, 1, 0.5), (4, 5, -1, -10.5)]


# Each headed-CSV loader with its header and the source its errors name
# (None: the path it was given).  The two tables parsed from text get it
# undecoded by universal newlines, so a lone "\r" reaches the CSV reader.
CSV_LOADERS = {
    "labels": (load_labels, LABELS_HEADER, None),
    "annotations": (load_annotations, ANNOTATIONS_HEADER, None),
    "predictions": (load_predictions, PREDICTIONS_HEADER, None),
    "attributes": (lambda p: AttributeTable.from_csv(p.read_bytes().decode("utf-8")),
                   ATTRS_CSV_HEADER, "attribute table"),
    "exceptions": (lambda p: ExceptionList.from_csv(p.read_bytes().decode("utf-8")),
                   EXCEPTIONS_CSV_HEADER, "exception list"),
}

# Valid values of every table's columns, numbers that break a range or a
# type, and text with CSV metacharacters and non-ASCII letters.
CSV_FIELDS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "0.5", "1e999", "nan", "-0.0", "", " ", "x",
                     "feasible", "infeasible", "published", "reconstructed",
                     "a,b", 'say "no"', "two\nlines", "été", "攻撃"]),
    st.integers(-5, 60).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_fuzz")


_INT64 = np.iinfo(np.int64)
# Id columns for the pair writers: negative, int64-extreme, unsorted and repeated ids.
NODE_IDS = st.lists(st.integers(_INT64.min, _INT64.max)
                    | st.sampled_from([_INT64.min, _INT64.max, -1, 0, 7]), min_size=1, max_size=8)
DECISIONS = (st.floats(allow_nan=False, allow_infinity=False)
             | st.sampled_from([-0.0, 5e-324, 1e16, 1e-05]))


@st.composite
def pair_blocks(draw):
    """An id column and 0 to 4 windows of 0 to 5 rows: positions in the ids, and
    decisions labeled as predict labels them (-0.0 takes label 1)."""
    ids = np.array(draw(NODE_IDS), dtype=np.int64)
    position = st.integers(0, len(ids) - 1)
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.integers(0, 5))
        at = np.array(draw(st.lists(st.tuples(position, position), min_size=m, max_size=m)),
                      dtype=np.intp).reshape(-1, 2)
        decisions = np.array(draw(st.lists(DECISIONS, min_size=m, max_size=m)), dtype=float)
        blocks.append((at, decision_labels(decisions), decisions))
    return ids, blocks


def pair_rows(ids, at, labels, *more):
    """The rows a pair writer is given, built one by one from the columns."""
    ids = ids.tolist()
    return [(ids[o], ids[d], *rest) for (o, d), *rest in zip(at.tolist(), labels.tolist(),
                                                            *(m.tolist() for m in more))]


@settings(max_examples=300, deadline=None)
@given(table=pair_blocks())
def test_save_labels_matches_csv_text(fuzz_dir, table):
    ids, blocks = table
    at = np.concatenate([np.empty((0, 2), np.intp)] + [block[0] for block in blocks])
    labels = np.concatenate([np.empty(0, np.int64)] + [block[1] for block in blocks])
    rows = pair_rows(ids, at, labels)
    expected = csv_text(LABELS_HEADER, rows).encode()
    path = fuzz_dir / "labels.csv"
    save_labels(path, ids, at, labels)
    assert path.read_bytes() == expected
    save_labels(path, *label_columns(rows))
    assert path.read_bytes() == expected


@settings(max_examples=300, deadline=None)
@given(table=pair_blocks())
def test_save_predictions_matches_per_row_format(fuzz_dir, table):
    ids, blocks = table
    lines = ["%d,%d,%d,%r\n" % row for block in blocks for row in pair_rows(ids, *block)]
    path = fuzz_dir / "predictions.csv"
    save_predictions(path, ids, ((at, decisions) for at, _, decisions in blocks))
    assert path.read_bytes() == (",".join(PREDICTIONS_HEADER) + "\n" + "".join(lines)).encode()


# A small pool, so decisions repeat within a block and across blocks: 0.0 and
# -0.0 are equal but print apart, and the rest print shortest, longest, in
# exponent form at both ends, and as a sum that is not its decimal.
REPEATED_DECISIONS = [0.0, -0.0, 5e-324, 1e16, 1e-05, -1e-05, 0.1 + 0.2, -2.5]
NODE_TEXT_COLUMN = ["a%sb", "\u00e9\u2603", "\ud800 lone", 'say "hi" \\ 100%', ""]


def per_row_predictions(ids, blocks):
    """predictions.csv's bytes for ``(at, decisions)`` blocks, each row formatted alone."""
    ids = ids.tolist()
    lines = ["%d,%d,%d,%r\n" % (ids[o], ids[d], 1 if v >= 0.0 else -1, v)
             for at, decisions in blocks for (o, d), v in zip(at.tolist(), decisions.tolist())]
    return (",".join(PREDICTIONS_HEADER) + "\n" + "".join(lines)).encode()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_repeated_decisions_match_per_row_format(fuzz_dir, data):
    """Blocks whose decisions repeat within and across blocks, the first holding
    both 0.0 and -0.0, are written as each row formatted alone."""
    ids = np.array(data.draw(NODE_IDS), dtype=np.int64)
    position = st.integers(0, len(ids) - 1)
    blocks = []
    for first in [True] + data.draw(st.lists(st.just(False), max_size=3)):
        decisions = data.draw(st.permutations(
            [0.0, -0.0] * first + data.draw(st.lists(st.sampled_from(REPEATED_DECISIONS),
                                                     max_size=8))))
        at = data.draw(st.lists(st.tuples(position, position), min_size=len(decisions),
                                max_size=len(decisions)))
        blocks.append((np.array(at, dtype=np.intp).reshape(-1, 2),
                       np.array(decisions, dtype=float)))
    path = fuzz_dir / "predictions.csv"
    save_predictions(path, ids, iter(blocks))
    assert path.read_bytes() == per_row_predictions(ids, blocks)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_repeated_positives_match_json(data):
    """Positives whose decisions repeat within and across blocks of 2 to 5 rows,
    the first block holding both 0.0 and -0.0, are what json writes."""
    n = data.draw(st.integers(0, 14))
    decisions = [0.0, -0.0] + data.draw(st.lists(st.sampled_from(REPEATED_DECISIONS),
                                                 min_size=n, max_size=n))
    at = st.lists(st.integers(0, 4), min_size=n + 2, max_size=n + 2)
    columns = positive_columns([-(2**63), -5, 0, 7, 2**63 - 1], NODE_TEXT_COLUMN, data.draw(at),
                               data.draw(at), decisions, [0] * (n + 2), ("crypto",))
    with mock.patch.object(storage_module, "POSITIVES_BLOCK_ROWS", data.draw(st.integers(2, 5))):
        text, expected = spliced_report({"a": 1}, columns)
    assert text == expected


@pytest.mark.parametrize("offset", [-1, 0, 1, SCORE_BLOCK_ROWS + 1])
def test_repeated_decisions_across_full_blocks(tmp_path, offset):
    """One block of rows less one, exactly one, one more, and two and one more,
    with decisions from a small pool: predictions.csv in SCORE_BLOCK_ROWS windows
    as predict writes it, and the positives in POSITIVES_BLOCK_ROWS blocks."""
    assert SCORE_BLOCK_ROWS == storage_module.POSITIVES_BLOCK_ROWS
    n = SCORE_BLOCK_ROWS + offset
    rng = np.random.default_rng(n)
    ids = np.array([-(2**63), -5, 0, 7, 2**63 - 1], dtype=np.int64)
    at, decisions = rng.integers(0, 5, (n, 2)), rng.choice(REPEATED_DECISIONS, n)
    blocks = [(at[start:start + SCORE_BLOCK_ROWS], decisions[start:start + SCORE_BLOCK_ROWS])
              for start in range(0, n, SCORE_BLOCK_ROWS)]
    path = tmp_path / "predictions.csv"
    save_predictions(path, ids, iter(blocks))
    assert path.read_bytes() == per_row_predictions(ids, blocks)
    columns = positive_columns(ids.tolist(), NODE_TEXT_COLUMN, at[:, 0], at[:, 1], decisions,
                               rng.integers(0, 3, n), ("crypto", None, "%d"))
    text, expected = spliced_report({"a": 1, "z": [None]}, columns)
    assert text == expected


class TestCsvLoadersFuzz:
    """Every input either loads or raises a ValueError naming source and line."""

    @staticmethod
    def check(name, text, directory):
        load, _, source = CSV_LOADERS[name]
        path = directory / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        try:
            load(path)
        except ValueError as exc:
            located = re.match(rf"{re.escape(source or str(path))}:(\d+): ", str(exc))
            assert located, str(exc)
            assert 2 <= int(located.group(1)) <= len(re.split(r"\r\n|\r|\n", text))

    @pytest.mark.parametrize("name", CSV_LOADERS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_written_rows(self, fuzz_dir, name, data):
        width = len(CSV_LOADERS[name][1])
        rows = data.draw(st.lists(st.one_of(
            st.just([]),  # a blank line
            st.lists(CSV_FIELDS, min_size=max(width - 2, 1), max_size=width + 2),
        ), max_size=6))
        body = io.StringIO()
        csv.writer(body, lineterminator="\n").writerows([CSV_LOADERS[name][1], *rows])
        self.check(name, body.getvalue(), fuzz_dir)

    @pytest.mark.parametrize("name", CSV_LOADERS)
    @settings(max_examples=150, deadline=None)
    @given(body=st.text(st.sampled_from('01-x.,"\n\r é'), max_size=40))
    def test_raw_text(self, fuzz_dir, name, body):
        self.check(name, ",".join(CSV_LOADERS[name][1]) + "\n" + body, fuzz_dir)


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


# The fields of a predictions row: valid values, spellings that numpy reads
# differently from int() and float() or not at all, ids either side of the
# int64 range, padding that one of them strips as whitespace, and CSV_FIELDS.
PADDING = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
                           "\u3000"])
ID_TEXTS = st.one_of(
    st.integers(-2, 12).map(str),
    st.integers(2**63 - 2, 2**63 + 1).map(str),
    st.integers(-2**63 - 1, -2**63 + 1).map(str),
    st.sampled_from(["1_0", "+3", "007", "-0", "\u0663", "1.0", "1e1"]),
    CSV_FIELDS,
)
FLOAT_REPRS = st.integers(0, 2**64 - 1).map(lambda bits: repr(_float_from_bits(bits)))
DECISION_TEXTS = st.one_of(
    FLOAT_REPRS,
    st.sampled_from(["1e5", "0.50", "+.5", " 1.5 ", "1_0", "5.", "-0", "1E-400", "0x1p3",
                     "\u0661.5", "infinity"]),
    CSV_FIELDS,
)


@st.composite
def prediction_texts(draw):
    """A predictions file: mostly clean rows (small ids, a float from any bit
    pattern, the label its sign gives), with rows of the fields above, blank
    lines, repeated rows, rows of CSV_FIELDS, and now and then a bad header."""
    lines = [draw(st.sampled_from([",".join(PREDICTIONS_HEADER)] * 6
                                  + ["origin,dest,label", "origin, dest,label,decision"]))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["clean"] * 6 + ["row", "row", "blank", "repeat", "fields"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " "])))
        elif kind == "repeat":
            lines.append(lines[-1])
        elif kind == "fields":
            lines.append(",".join(draw(st.lists(CSV_FIELDS, max_size=6))))
        else:
            clean = kind == "clean"
            ids = st.integers(-2, 40).map(str) if clean else ID_TEXTS
            decision = draw(FLOAT_REPRS if clean else DECISION_TEXTS)
            try:
                label = "1" if float(decision) >= 0.0 else "-1"
            except ValueError:
                label = draw(ID_TEXTS)
            if not clean and draw(st.integers(0, 4)) == 0:
                label = draw(ID_TEXTS)
            pad = st.just("") if clean else PADDING
            fields = (draw(ids), draw(ids), label, decision)
            lines.append(",".join(draw(pad) + field + draw(pad) for field in fields))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


class TestPredictionsReader:
    """``load_predictions`` gives the per-row reader's rows, or its located error."""

    @staticmethod
    def outcome(read):
        try:
            return read()
        except ValueError as exc:
            return str(exc)

    @settings(max_examples=400, deadline=None)
    @given(text=prediction_texts())
    def test_matches_per_row_reader(self, fuzz_dir, text):
        path = fuzz_dir / "predictions.csv"
        path.write_text(text, encoding="utf-8")
        text = path.read_text(encoding="utf-8")  # as load_predictions reads it
        expected = self.outcome(lambda: read_prediction_rows(text, str(path)))
        assert self.outcome(lambda: load_predictions(path).tolist()) == expected

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=12),
           arrange=st.sampled_from(["ascending", "descending", "unique", "as drawn"]))
    def test_rows_hold_rejects_exactly_a_repeated_pair(self, pairs, arrange):
        # Ascending rows take the one-pass order check, the others the sort.
        pairs = {"ascending": sorted(set(pairs)),
                 "descending": sorted(set(pairs), reverse=True),
                 "unique": list(dict.fromkeys(pairs)),
                 "as drawn": pairs}[arrange]
        table = np.array([(o, d, 1, 0.5) for o, d in pairs], dtype=PREDICTIONS_DTYPE)
        assert storage_module._rows_hold(table) == (len(set(pairs)) == len(pairs))


# Any JSON value, with a few that are nearly right for a dag.json entry.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.floats() | st.text(max_size=4)
    | st.sampled_from(["memory", EXPLOIT_BUCKETS[0], "0->1", "1->0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
NODE_KEYS = ("id", "raw_text", "norm_text", "category", "socially_delivered", "bucket")


@st.composite
def dag_bodies(draw):
    """A well-formed dag.json body over up to four nodes, with at most one part
    (a whole list, an entry, a node field, a provenance key or its names)
    replaced by a JSON value."""
    n = draw(st.integers(1, 4))
    nodes = [{"id": i, "raw_text": "x", "norm_text": f"x{i}", "category": "memory"}
             for i in range(n)]
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=5))
    body = {"nodes": nodes, "edges": edges, "provenance": {f"{u}->{v}": ["a"] for u, v in edges}}
    value = draw(JSON_VALUES)
    part = draw(st.sampled_from(["none", "list", "node", "field", "edge", "key", "names"]))
    if part == "list":
        body[draw(st.sampled_from(sorted(body)))] = value
    elif part == "node":
        nodes[draw(st.integers(0, n - 1))] = value
    elif part == "field":
        nodes[draw(st.integers(0, n - 1))][draw(st.sampled_from(NODE_KEYS))] = value
    elif part == "edge" and edges:
        edges[draw(st.integers(0, len(edges) - 1))] = value
    elif part in ("key", "names") and edges:
        key = draw(st.sampled_from(sorted(body["provenance"])))
        names = body["provenance"].pop(key)
        if part == "key":
            body["provenance"][value if isinstance(value, str) else json.dumps(value)] = names
        else:
            body["provenance"][key] = value
    return body


class TestDagLoaderFuzz:
    """Every dag.json either loads or raises a ValueError opening with its path.

    The one other outcome is a cycle among well-formed entries, which is an
    invariant violation (CycleIntroduced, exit 3), not a malformed file.
    """

    @settings(max_examples=300, deadline=None)
    @given(body=dag_bodies())
    def test_entries(self, fuzz_dir, body):
        path = fuzz_dir / "dag.json"
        path.write_text(json.dumps(body))
        try:
            load_dag(path)
        except CycleIntroduced:
            pass
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)


MODEL_ARRAYS = ("support_vectors", "dual_coefs", "sv_indices", "sv_alphas", "sv_labels")
# JSON values, and as often values near the edges of what a model entry allows.
MODEL_VALUES = st.one_of(
    st.sampled_from([0, 1, -1, 5, 0.0, -0.5, 0.5, 1.0, 3.0, 1e300, math.nan, math.inf, True,
                     "1"]),
    JSON_VALUES,
)


@pytest.fixture(scope="module")
def model_body(fuzz_dir):
    x = branch_rows([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0], [0.5, 0.5]])
    y = np.array([1.0, 1.0, -1.0, -1.0, 1.0])
    path = fuzz_dir / "model_seed.json"
    save_model(path, train_svm(x, y, SvmParams(gamma=0.5, tolerance=1e-6)), "f" * 64)
    return path.read_text()


class TestModelLoaderFuzz:
    """Every model.json either loads a model that keeps the file's invariants
    or raises ModelLoadError naming the file."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_entries(self, fuzz_dir, model_body, data):
        body = json.loads(model_body)
        value = data.draw(MODEL_VALUES)
        part = data.draw(st.sampled_from(["none", "key", "drop", "param", "entry", "row",
                                          "append", "pop"]))
        if part == "key":
            body[data.draw(st.sampled_from(sorted(body)))] = value
        elif part == "drop":
            del body[data.draw(st.sampled_from(sorted(body)))]
        elif part == "param":
            body["params"][data.draw(st.sampled_from(sorted(body["params"]) + ["extra"]))] = value
        elif part in ("entry", "append", "pop"):
            values = body[data.draw(st.sampled_from(MODEL_ARRAYS))]
            if part == "entry":
                values[data.draw(st.integers(0, len(values) - 1))] = value
            elif part == "append":
                values.append(value)
            else:
                values.pop()
        elif part == "row":
            rows = body["support_vectors"]
            row = rows[data.draw(st.integers(0, len(rows) - 1))]
            row[data.draw(st.integers(0, len(row) - 1))] = value
        alphas, labels = body.get("sv_alphas"), body.get("sv_labels")
        if (data.draw(st.booleans()) and type(alphas) is list and type(labels) is list
                and all(type(v) in (int, float) for v in alphas + labels)):
            # Keep dual_coefs the product, so a bad alpha or label meets its own check.
            body["dual_coefs"] = [a * label for a, label in zip(alphas, labels)]
        path = fuzz_dir / "model.json"
        path.write_text(json.dumps(body))
        try:
            model = load_model(path)
        except ModelLoadError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            return
        n_sv = len(model.sv_indices)
        assert model.support_vectors.shape[0] == n_sv >= 1
        assert model.sv_alphas.shape == model.sv_labels.shape == model.dual_coefs.shape == (n_sv,)
        assert np.isfinite(model.support_vectors).all() and math.isfinite(model.bias)
        assert set(model.sv_labels.tolist()) <= {1.0, -1.0}
        assert ((model.sv_alphas > 0.0) & (model.sv_alphas <= model.params.c)).all()
        assert len(set(model.sv_indices)) == n_sv
        assert all(type(i) is int and 0 <= i < model.n_samples for i in model.sv_indices)
        assert type(model.converged) is bool
        assert np.array_equal(np.asarray(body["dual_coefs"], dtype=float), model.dual_coefs)
