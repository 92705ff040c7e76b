"""Command-line pipeline: ingest -> attrs -> negatives -> train -> predict -> report.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 invariant
violation (cycles, stale attributes, fingerprint mismatches).
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np

from .csp import csp_classify, csp_facts
from .features import (
    AttributeTable,
    branch_features,
    enumerate_candidates,
    search_space_size,
)
from .graph import (
    CycleIntroduced,
    PathExplosion,
    UnknownNode,
    UnknownPath,
    discover_unexploited,
    enumerate_attack_paths,
    known_attack_paths,
    project_subgraph,
)
from .learn import (
    GridSpec,
    SvmParams,
    evaluate,
    format_reduction,
    grid_search_min_fn,
    knn_predict,
    train_gnb,
    train_sgd_svm,
    train_svm,
    train_tree,
)
from .learn.svm import as_arrays
from .model import (
    BranchSample,
    Metrics,
    NodeAttributes,
    format_ratio,
    normalize_description,
    validate_dag,
)
from .negatives import (
    ExceptionList,
    NegativeFilterThresholds,
    REFERENCE_BRANCH_STATS,
    corpus_stats,
    generate_negative_candidates,
)
from .storage import (
    EXPLOIT_BUCKETS,
    FingerprintMismatch,
    dag_payload,
    dump_json,
    file_fingerprint,
    load_annotations,
    load_corpus,
    load_dag,
    load_labels,
    load_model,
    load_predictions,
    append_annotation,
    save_dag,
    save_labels,
    save_model,
    save_predictions,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


class InvariantViolation(RuntimeError):
    """A result broke a property the pipeline guarantees (exit 3)."""


def _read_table(path: str) -> AttributeTable:
    return AttributeTable.from_csv(Path(path).read_text(encoding="utf-8"), source=path)


def _labeled_samples(labels_path: str, table: AttributeTable) -> list[BranchSample]:
    rows = load_labels(labels_path)
    return [
        BranchSample(origin=o, dest=d, features=branch_features(o, d, table), label=l)
        for o, d, l in rows
    ]


def _print_metrics(metrics: Metrics) -> None:
    print(f"counts: tp={metrics.tp} fp={metrics.fp} tn={metrics.tn} fn={metrics.fn}")
    print(
        "accuracy={} precision={} recall={} fpr={} f1={}".format(
            format_ratio(metrics.accuracy),
            format_ratio(metrics.precision),
            format_ratio(metrics.recall),
            format_ratio(metrics.fpr),
            format_ratio(metrics.f1),
        )
    )


def cmd_ingest(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    dag = corpus.attack_dag()
    problems = validate_dag(dag)
    if problems:
        for p in problems:
            print(f"invariant violation: {p}", file=sys.stderr)
        return EXIT_INVARIANT
    buckets = {
        blk.id: corpus.bucket_map[blk.norm_text]
        for blk in corpus.blocks
        if blk.norm_text in corpus.bucket_map
    }
    save_dag(args.out, dag_payload(dag, corpus.blocks_by_id(), buckets, args.attrs_ref))
    print(
        f"ingested {len(corpus.records)} attacks: "
        f"{len(dag.nodes)} nodes, {len(dag.edges)} edges, "
        f"{len(dag.heads)} heads, {len(dag.leaves)} leaves"
    )
    return EXIT_OK


def cmd_attrs(args: argparse.Namespace) -> int:
    dagfile = load_dag(args.dag)
    table = _read_table(args.attrs)
    if args.refresh_structural:
        # The input table may be structurally stale (e.g. after a projection),
        # so only the facet bits are trusted; head/leaf/depth come from the dag.
        refreshed_rows = {}
        provenance = {}
        for node in sorted(dagfile.dag.nodes):
            old = table[node]
            refreshed_rows[node] = NodeAttributes(
                *old.binary_bits()[:7],
                head=int(node in dagfile.dag.heads),
                leaf=int(node in dagfile.dag.leaves),
                mean_depth=dagfile.dag.mean_depth[node],
            )
            provenance[node] = table.provenance[node]
        new_table = AttributeTable(rows=refreshed_rows, provenance=provenance)
        write_text_atomic(args.refresh_structural, new_table.to_csv())
        print(f"wrote refreshed table for {len(refreshed_rows)} nodes "
              f"to {args.refresh_structural}")
        return EXIT_OK
    problems = table.check_against(dagfile.dag)
    if problems:
        for p in problems:
            print(f"attribute mismatch: {p}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"attribute table consistent with dag ({len(dagfile.dag.nodes)} nodes)")
    if args.attach:
        payload = dag_payload(dagfile.dag, dagfile.blocks, dagfile.buckets, str(args.attrs))
        save_dag(args.dag, payload)
        print(f"attached {args.attrs} to {args.dag}")
    return EXIT_OK


def cmd_negatives(args: argparse.Namespace) -> int:
    dagfile = load_dag(args.dag)
    table = _read_table(args.attrs)
    exceptions = ExceptionList.empty()
    if args.exceptions:
        exceptions = ExceptionList.from_csv(Path(args.exceptions).read_text(encoding="utf-8"),
                                            source=args.exceptions)
    if args.independence_only:
        thresholds = NegativeFilterThresholds.disabled()
    else:
        thresholds = NegativeFilterThresholds(
            ht_diff_below=args.ht_below,
            ht_diff_above=args.ht_above,
            min_hamming=args.min_hamming,
            head_to_leaf=not args.no_head_to_leaf,
            leaf_to_leaf=not args.no_leaf_to_leaf,
        )
    candidates = generate_negative_candidates(
        dagfile.dag, table, dagfile.blocks, exceptions, thresholds
    )
    save_labels(args.out, zip(candidates.origins.tolist(), candidates.dests.tolist(),
                              repeat(candidates.label)))
    print(f"{len(candidates)} negative candidates written to {args.out} (label -1, unreviewed)")
    return EXIT_OK


def cmd_annotate_add(args: argparse.Namespace) -> int:
    append_annotation(args.annotations, args.origin, args.dest, args.verdict,
                      args.annotator, args.note)
    print(f"recorded {args.verdict} for ({args.origin}, {args.dest})")
    return EXIT_OK


def cmd_annotate_fold(args: argparse.Namespace) -> int:
    labels = load_labels(args.labels)
    existing = {(o, d): l for o, d, l in labels}
    verdicts: dict[tuple[int, int], int] = {}
    for origin, dest, verdict, _, _ in load_annotations(args.annotations):
        verdicts[(origin, dest)] = 1 if verdict == "feasible" else -1
    for pair, label in sorted(verdicts.items()):
        if pair in existing and existing[pair] != label:
            print(
                f"conflict: pair {pair} labeled {existing[pair]:+d} but annotated {label:+d}",
                file=sys.stderr,
            )
            return EXIT_INVARIANT
    merged = dict(existing)
    merged.update(verdicts)
    save_labels(args.out, [(o, d, l) for (o, d), l in sorted(merged.items())])
    added = len(merged) - len(existing)
    print(f"folded {len(verdicts)} verdicts ({added} new pairs) into {args.out}")
    return EXIT_OK


def _svm_params(args: argparse.Namespace) -> SvmParams:
    return SvmParams(
        c=args.c,
        kernel=args.kernel,
        gamma=args.gamma,
        tolerance=args.tolerance,
        shrinking=not args.no_shrinking,
        max_passes=args.max_passes,
    )


def cmd_train(args: argparse.Namespace) -> int:
    table = _read_table(args.attrs)
    samples = _labeled_samples(args.labels, table)
    model = train_svm(samples, _svm_params(args))
    fingerprint = file_fingerprint(args.dag, args.attrs, args.labels)
    save_model(args.out, model, fingerprint)
    x, y = as_arrays(samples)
    preds = model.predict_many(x)
    metrics = evaluate([int(p) for p in preds], [int(t) for t in y])
    print(
        f"trained on {len(samples)} branches: {len(model.sv_indices)} support vectors, "
        f"{model.iterations} iterations, converged={model.converged}"
    )
    _print_metrics(metrics)
    return EXIT_OK


def cmd_grid_search(args: argparse.Namespace) -> int:
    table = _read_table(args.attrs)
    samples = _labeled_samples(args.labels, table)
    grid = GridSpec(
        c_values=tuple(float(v) for v in args.c_values.split(",")),
        kernels=tuple(args.kernels.split(",")),
        gamma_values=tuple(float(v) for v in args.gamma_values.split(",")),
    )
    best, surface = grid_search_min_fn(samples, grid)
    rows = []
    for cell in surface:
        rows.append(
            {
                "c": cell.params.c,
                "kernel": cell.params.kernel,
                "gamma": cell.params.gamma,
                "fn": cell.fn,
                "fp": cell.fp,
                "error": cell.error,
            }
        )
    if args.out:
        write_text_atomic(
            args.out,
            dump_json(
                {"best": {"c": best.c, "kernel": best.kernel, "gamma": best.gamma},
                 "cells": rows}
            ),
        )
    failed = sum(1 for cell in surface if cell.fn is None)
    best_cell = next(
        c for c in surface
        if (c.params.c, c.params.kernel, c.params.gamma) == (best.c, best.kernel, best.gamma)
    )
    print(
        f"best cell: c={best.c} kernel={best.kernel} gamma={best.gamma} "
        f"(fn={best_cell.fn}, fp={best_cell.fp}; {len(surface)} cells, {failed} failed)"
    )
    return EXIT_OK


def _verify_fingerprint(args: argparse.Namespace):
    fingerprint = file_fingerprint(args.dag, args.attrs, args.labels)
    return load_model(args.model, expected_fingerprint=fingerprint, force=args.force)


def cmd_predict(args: argparse.Namespace) -> int:
    model = _verify_fingerprint(args)
    dagfile = load_dag(args.dag)
    table = _read_table(args.attrs)
    labels = load_labels(args.labels)
    training = {(o, d) for o, d, _ in labels}
    candidates = enumerate_candidates(dagfile.dag, table, training)
    expected = search_space_size(len(dagfile.dag.nodes), len(training))
    if len(candidates) != expected:
        raise InvariantViolation(
            f"{len(candidates)} candidate branches, search space is {expected}"
        )
    decisions = model.decision_values(candidates.features)
    labels = np.where(decisions >= 0.0, 1, -1)
    positives = int(np.count_nonzero(labels == 1))
    save_predictions(args.out, zip(candidates.origins.tolist(), candidates.dests.tolist(),
                                   labels.tolist(), decisions.tolist()))
    print(
        f"{len(candidates)} candidate branches, {positives} predicted feasible, "
        f"search-space reduction {format_reduction(positives, len(candidates))}"
    )
    return EXIT_OK


def cmd_paths(args: argparse.Namespace) -> int:
    dagfile = load_dag(args.dag)
    paths = enumerate_attack_paths(dagfile.dag, cap=args.cap)
    payload: dict = {"total": len(paths)}
    if args.corpus:
        corpus = load_corpus(args.corpus)
        rebuilt = corpus.attack_dag()
        if rebuilt.nodes != dagfile.dag.nodes or rebuilt.edges != dagfile.dag.edges:
            print("corpus does not rebuild this dag", file=sys.stderr)
            return EXIT_INVARIANT
        known = known_attack_paths(dagfile.dag, corpus.record_cdfgs())
        novel = discover_unexploited(dagfile.dag, known)
        payload["known"] = len(known)
        payload["unexploited"] = len(novel)
        known_set = {p.nodes for p in known}
        payload["paths"] = [
            {
                "nodes": list(p.nodes),
                "provenance": "known" if p.nodes in known_set else "unexploited",
            }
            for p in paths
        ]
        print(f"{len(paths)} head-to-leaf paths: {len(known)} known, {len(novel)} unexploited")
    else:
        payload["paths"] = [{"nodes": list(p.nodes), "provenance": "known"} for p in paths]
        print(f"{len(paths)} head-to-leaf paths")
    if args.out:
        write_text_atomic(args.out, dump_json(payload))
    return EXIT_OK


def cmd_project(args: argparse.Namespace) -> int:
    dagfile = load_dag(args.dag)
    tokens: list[str] = []
    if args.keep:
        tokens.extend(t.strip() for t in args.keep.split(",") if t.strip())
    if args.keep_file:
        for line in Path(args.keep_file).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                tokens.append(line)
    if not tokens:
        print("nothing to keep: pass --keep and/or --keep-file", file=sys.stderr)
        return EXIT_USAGE
    by_norm = {blk.norm_text: blk.id for blk in dagfile.blocks.values()}
    keep: set[int] = set()
    for token in tokens:
        if token.lstrip("-").isdigit():
            keep.add(int(token))
        else:
            norm = normalize_description(token)
            if norm not in by_norm:
                raise UnknownNode(f"keep list references unknown node {token!r}")
            keep.add(by_norm[norm])
    sub = project_subgraph(dagfile.dag, keep)
    blocks = {n: dagfile.blocks[n] for n in sub.nodes}
    buckets = {n: b for n, b in dagfile.buckets.items() if n in sub.nodes}
    save_dag(args.out, dag_payload(sub, blocks, buckets, None))
    print(
        f"projected to {len(sub.nodes)} nodes, {len(sub.edges)} edges "
        f"({len(sub.heads)} heads, {len(sub.leaves)} leaves)"
    )
    return EXIT_OK


def cmd_csp(args: argparse.Namespace) -> int:
    dagfile = load_dag(args.dag)
    table = _read_table(args.attrs)
    samples = _labeled_samples(args.labels, table)
    verdicts = [csp_classify(csp_facts(s.origin, s.dest, dagfile.dag, table)) for s in samples]
    metrics = evaluate([v.label for v in verdicts], [s.label for s in samples])
    fire_counts: dict[str, int] = {"R1": 0, "R2": 0, "R3": 0}
    for v in verdicts:
        for rule in v.fired:
            fire_counts[rule] += 1
    _print_metrics(metrics)
    print("rule fires: " + " ".join(f"{k}={v}" for k, v in sorted(fire_counts.items())))
    if args.out:
        lines = ["origin,dest,label,rules"]
        for s, v in zip(samples, verdicts):
            lines.append(f"{s.origin},{s.dest},{v.label},{';'.join(v.fired)}")
        write_text_atomic(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    model = _verify_fingerprint(args)
    table = _read_table(args.attrs)
    samples = _labeled_samples(args.labels, table)
    x, y = as_arrays(samples)
    preds = model.predict_many(x)
    metrics = evaluate([int(p) for p in preds], [int(t) for t in y])
    print("svm:")
    _print_metrics(metrics)
    if args.baselines:
        truths = [int(t) for t in y]
        for k in (2, 3, 4, 5):
            preds_k = [knn_predict(samples, s.features, k) for s in samples]
            m = evaluate(preds_k, truths)
            print(f"knn k={k}: accuracy={format_ratio(m.accuracy)} fn={m.fn} fp={m.fp}")
        gnb = train_gnb(samples)
        m = evaluate([gnb.predict(s.features) for s in samples], truths)
        print(f"gaussian nb: accuracy={format_ratio(m.accuracy)} fn={m.fn} fp={m.fp}")
        tree = train_tree(samples)
        m = evaluate([tree.predict(s.features) for s in samples], truths)
        print(f"decision tree: accuracy={format_ratio(m.accuracy)} fn={m.fn} fp={m.fp}")
        sgd = train_sgd_svm(samples)
        m = evaluate([sgd.predict(s.features) for s in samples], truths)
        print(f"sgd linear svm: accuracy={format_ratio(m.accuracy)} fn={m.fn} fp={m.fp}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    model = _verify_fingerprint(args)
    dagfile = load_dag(args.dag)
    table = _read_table(args.attrs)
    samples = _labeled_samples(args.labels, table)
    x, y = as_arrays(samples)
    preds = model.predict_many(x)
    metrics = evaluate([int(p) for p in preds], [int(t) for t in y])

    predictions = load_predictions(args.predictions)
    positives = [(o, d, dec) for o, d, label, dec in predictions if label == 1]
    histogram = {bucket: 0 for bucket in EXPLOIT_BUCKETS}
    positive_rows = []
    for origin, dest, decision in sorted(positives, key=lambda r: -r[2]):
        bucket = dagfile.buckets.get(dest, dagfile.buckets.get(origin))
        if bucket is not None:
            histogram[bucket] += 1
        positive_rows.append(
            {
                "origin": origin,
                "dest": dest,
                "origin_text": dagfile.blocks[origin].raw_text,
                "dest_text": dagfile.blocks[dest].raw_text,
                "decision": decision,
                "bucket": bucket,
            }
        )

    stats = corpus_stats(samples, table)
    payload: dict = {
        "run": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "corpus_fingerprint": model.fingerprint,
            "params": {
                "c": model.params.c,
                "kernel": model.params.kernel,
                "gamma": model.params.gamma,
                "tolerance": model.params.tolerance,
                "shrinking": model.params.shrinking,
            },
        },
        "training": {
            "counts": {"tp": metrics.tp, "fp": metrics.fp, "tn": metrics.tn, "fn": metrics.fn},
            "metrics": {
                "accuracy": metrics.accuracy,
                "precision": metrics.precision,
                "recall": metrics.recall,
                "fpr": metrics.fpr,
                "f1": metrics.f1,
            },
        },
        "candidates": {
            "total": len(predictions),
            "predicted_positive": len(positives),
            "reduction": format_reduction(len(positives), len(predictions))
            if predictions
            else None,
        },
        "predicted_positives": positive_rows,
        "bucket_histogram": histogram,
        "branch_stats": {
            "mean_hd_feasible": stats.mean_hd_feasible,
            "mean_hd_infeasible": stats.mean_hd_infeasible,
            "ht_diff_feasible": list(stats.ht_diff_feasible),
            "ht_diff_infeasible": list(stats.ht_diff_infeasible),
            "headleaf_infeasible_ratio": stats.headleaf_infeasible_ratio,
        },
        # Orientation values measured on the original, larger corpus this
        # reconstruction approximates; reported for context, never asserted.
        "reference_branch_stats": REFERENCE_BRANCH_STATS,
    }

    if args.corpus:
        corpus = load_corpus(args.corpus)
        rebuilt = corpus.attack_dag()
        if rebuilt.nodes == dagfile.dag.nodes and rebuilt.edges == dagfile.dag.edges:
            known = known_attack_paths(dagfile.dag, corpus.record_cdfgs())
            novel = discover_unexploited(dagfile.dag, known)
            payload["paths"] = {
                "total": len(known) + len(novel),
                "known": len(known),
                "unexploited": len(novel),
                "unexploited_paths": [
                    [dagfile.blocks[n].raw_text for n in p.nodes] for p in novel
                ],
            }
        else:
            print("corpus does not rebuild this dag; skipping path section", file=sys.stderr)

    write_text_atomic(args.out, dump_json(payload))
    print(f"report written to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="attackdag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="compile a corpus into an attack dag")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--attrs-ref", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("attrs", help="check an attribute table against a dag")
    p.add_argument("--dag", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--check", action="store_true", help="verify only (default behavior)")
    p.add_argument("--attach", action="store_true", help="record the table path in the dag file")
    p.add_argument("--refresh-structural", metavar="OUT",
                   help="rewrite head/leaf/mean_depth from the dag into OUT")
    p.set_defaults(func=cmd_attrs)

    p = sub.add_parser("negatives", help="generate candidate infeasible branches")
    p.add_argument("--dag", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--exceptions", default=None)
    p.add_argument("--ht-below", type=float, default=-0.09)
    p.add_argument("--ht-above", type=float, default=2.0)
    p.add_argument("--min-hamming", type=int, default=4)
    p.add_argument("--no-head-to-leaf", action="store_true")
    p.add_argument("--no-leaf-to-leaf", action="store_true")
    p.add_argument("--independence-only", action="store_true",
                   help="disable all statistical filters")
    p.set_defaults(func=cmd_negatives)

    p = sub.add_parser("annotate", help="record or fold human verdicts")
    ann = p.add_subparsers(dest="annotate_command", required=True)
    a = ann.add_parser("add", help="append one verdict (the log is append-only)")
    a.add_argument("--annotations", required=True)
    a.add_argument("--origin", type=int, required=True)
    a.add_argument("--dest", type=int, required=True)
    a.add_argument("--verdict", choices=("feasible", "infeasible"), required=True)
    a.add_argument("--annotator", required=True)
    a.add_argument("--note", default="")
    a.set_defaults(func=cmd_annotate_add)
    f = ann.add_parser("fold", help="merge verdicts into a labels file")
    f.add_argument("--annotations", required=True)
    f.add_argument("--labels", required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_annotate_fold)

    def add_svm_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--c", type=float, default=1.0)
        p.add_argument("--kernel", default="rbf", choices=("rbf", "poly", "sigmoid"))
        p.add_argument("--gamma", type=float, default=0.0556)
        p.add_argument("--tolerance", type=float, default=1e-3)
        p.add_argument("--no-shrinking", action="store_true")
        p.add_argument("--max-passes", type=int, default=100_000)

    p = sub.add_parser("train", help="train the SVM on a labeled branch set")
    p.add_argument("--dag", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    add_svm_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-search", help="sweep C/kernel/gamma minimizing FN")
    p.add_argument("--dag", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--c-values", default="1,2,3")
    p.add_argument("--kernels", default="rbf,poly,sigmoid")
    p.add_argument("--gamma-values", default="0.01,0.0556,0.1,0.5,1.0")
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("predict", help="score every unseen branch")
    p.add_argument("--model", required=True)
    p.add_argument("--dag", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true",
                   help="run even if inputs do not match the model fingerprint")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("paths", help="enumerate head-to-leaf attack paths")
    p.add_argument("--dag", required=True)
    p.add_argument("--corpus", default=None,
                   help="tag paths as known/unexploited using the source corpus")
    p.add_argument("--out", default=None)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("project", help="induced subgraph on a node keep-list")
    p.add_argument("--dag", required=True)
    p.add_argument("--keep", default=None, help="comma-separated ids or descriptions")
    p.add_argument("--keep-file", default=None, help="one id or description per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("csp", help="rule-based classification of labeled branches")
    p.add_argument("--dag", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_csp)

    p = sub.add_parser("eval", help="score a trained model on labeled branches")
    p.add_argument("--model", required=True)
    p.add_argument("--dag", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--baselines", action="store_true",
                   help="also fit and score the baseline classifiers")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="assemble the full run report")
    p.add_argument("--model", required=True)
    p.add_argument("--dag", required=True)
    p.add_argument("--attrs", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--corpus", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (CycleIntroduced, FingerprintMismatch, InvariantViolation, UnknownNode, UnknownPath,
            PathExplosion) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
