import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attackdag.features import ATTRS_CSV_HEADER, AttributeTable
from attackdag.learn import SvmParams, fit_svm
from attackdag.negatives import EXCEPTIONS_CSV_HEADER, ExceptionList
from attackdag.storage import (
    ANNOTATIONS_HEADER,
    LABELS_HEADER,
    CorpusLoadError,
    DagLoadError,
    EXPLOIT_BUCKETS,
    ExpressionParseFailure,
    FingerprintMismatch,
    PREDICTIONS_HEADER,
    append_annotation,
    dag_payload,
    dump_json,
    file_fingerprint,
    load_annotations,
    load_corpus,
    load_dag,
    load_labels,
    load_model,
    load_predictions,
    save_dag,
    save_labels,
    save_model,
    save_predictions,
    write_text_atomic,
)


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
        cases = [
            # equal keys of different types must not share a cached key prefix
            [{1: "a"}, {1.0: "a"}, {True: "a"}, {None: 0}],
            {2: [], 0.5: {}, False: (), -3: float("nan")},
            {"b": {"y": [1, (2.5, None)], "x": {}}, "a": "\u00e9\u2603\x00\n\"\\"},
            {"f": [float("inf"), -float("inf"), -0.0, 5e-324, 1e16, np.float64(0.1)]},
            "top-level string", 12, None, [], {},
        ]
        for case in cases:
            assert dump_json(case) == json.dumps(case, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("bad", [{1, 2}, b"bytes", np.int64(3), object(), {(1, 2): 0}])
    def test_dump_json_rejects_what_json_rejects(self, bad):
        with pytest.raises(TypeError):
            json.dumps({"k": [bad]}, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dump_json({"k": [bad]})

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


@settings(max_examples=150, deadline=None)
@given(value=JSON_VALUES)
def test_dump_json_equals_json_dumps(value):
    assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(value=st.lists(st.dictionaries(st.text(max_size=2) | st.integers(0, 3),
                                      JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3),
                                      max_size=4), max_size=4))
def test_dump_json_repeated_and_mixed_keys_match_json(value):
    """Dicts sharing key tuples reuse cached prefixes; mixed str/int keys raise alike."""
    try:
        expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            dump_json(value)
    else:
        assert dump_json(value) == expected


class TestCorpusLoader:
    def test_bundled_corpus_loads(self, corpus, data_dir):
        assert len(corpus.records) == 27
        assert len(corpus.blocks) == 49
        ids = [b.id for b in corpus.blocks]
        assert ids == list(range(49))
        # interning is first-appearance: ids follow record order
        first = corpus.records[0]
        from attackdag.model import expr_blocks, normalize_description
        first_norm = normalize_description(next(iter(expr_blocks(first.expression))).description)
        assert corpus.block_ids()[first_norm] == 0
        import hashlib
        raw = (data_dir / "corpus.json").read_text()
        assert corpus.fingerprint == hashlib.sha256(raw.encode()).hexdigest()

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

    def test_override_changes_node_category(self, tmp_path):
        path = write_corpus(tmp_path, corpus_json(
            [{"name": "a", "categories": ["x"], "expression": "bb_i(p).bb_j(q)"}],
            node_category_overrides={"q": "malware"},
        ))
        corpus = load_corpus(path)
        by_norm = {b.norm_text: b for b in corpus.blocks}
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
        blocks = corpus.blocks_by_id()
        buckets = {b.id: corpus.bucket_map[b.norm_text]
                   for b in corpus.blocks if b.norm_text in corpus.bucket_map}
        path = tmp_path / "dag.json"
        save_dag(path, dag_payload(dag, blocks, buckets, "attrs.csv"))
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
        dag = corpus.attack_dag()
        blocks = corpus.blocks_by_id()
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        save_dag(p1, dag_payload(dag, blocks))
        save_dag(p2, dag_payload(dag, blocks))
        assert p1.read_bytes() == p2.read_bytes()


class TestLabels:
    def test_round_trip(self, tmp_path):
        rows = [(0, 1, 1), (2, 3, -1), (4, 0, 1)]
        path = tmp_path / "labels.csv"
        save_labels(path, rows)
        assert load_labels(path) == rows
        assert path.read_text().splitlines()[0] == "origin,dest,label"

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
        append_annotation(path, 0, 1, "infeasible", "bob")
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
            append_annotation(tmp_path / "ann.csv", 0, 1, "maybe", "alice")


class TestModelFile:
    def make_model(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        return fit_svm(x, y, SvmParams(gamma=0.5, tolerance=1e-6))

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
        probes = np.array([[0.5, 0.5], [2.5, 1.5], [-1.0, 4.0]])
        assert np.array_equal(model.decision_values(probes), loaded.decision_values(probes))


class TestPredictions:
    def test_round_trip_preserves_exact_floats(self, tmp_path):
        rows = [(0, 1, 1, 0.1 + 0.2), (2, 3, -1, -1.2345678901234567e-05)]
        path = tmp_path / "preds.csv"
        save_predictions(path, rows)
        assert load_predictions(path) == rows

    def test_bad_header(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(ValueError, match="bad predictions header"):
            load_predictions(path)

    def test_save_matches_csv_writer(self, tmp_path):
        decisions = np.array([1e-05, 1e16, 5e-324, -0.0, 0.1 + 0.2, -2.5, 123456789.0, 1e-300])
        rows = list(zip(range(8), range(8, 16), [1, -1] * 4, decisions.tolist()))
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(PREDICTIONS_HEADER)
        for origin, dest, label, decision in rows:
            writer.writerow([origin, dest, label, repr(float(decision))])
        path = tmp_path / "preds.csv"
        save_predictions(path, rows)
        assert path.read_bytes() == reference.getvalue().encode("utf-8")
        assert load_predictions(path) == rows

    @pytest.mark.parametrize("row", ["1,2,1", "1,2,x,0.5", "1,2,1,0.5,9"])
    def test_malformed_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "preds.csv"
        path.write_text(f"origin,dest,label,decision\n0,1,1,0.5\n\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: ")):
            load_predictions(path)


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
