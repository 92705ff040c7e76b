"""Command-line pipeline: ingest -> attrs -> negatives -> train -> predict -> report.

A command does its work and raises on failure; main alone maps the outcome
to an exit code: 0 success; 1 usage error (an argument the parser rejects, or
nothing for project to keep); 2 an input parse error, a value the library
rejects, or a file that cannot be read or written (ValueError, OSError); 3 an
invariant violation (a cycle, a stale attribute table, a fingerprint
mismatch, an unknown node, too many paths, inputs that contradict
each other).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .csp import RULES, csp_classify, csp_facts
from .features import (
    AttributeTable,
    BranchFrame,
    enumerate_candidates,
    labeled_frame,
    structural_columns,
)
from .graph import (
    CycleIntroduced,
    PATH_CAP,
    PathExplosion,
    UnknownNode,
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
from .learn import svm as svm_module
from .learn.svm import KERNELS, SvmModel, decision_labels
from .model import (
    AttackDag,
    Metrics,
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
    VERDICTS,
    DagFile,
    FingerprintMismatch,
    dump_json,
    file_fingerprint,
    json_chunks,
    load_annotations,
    load_corpus,
    load_dag,
    load_labels,
    load_model,
    load_predictions,
    append_annotation,
    csv_text,
    label_columns,
    parse_node_id,
    positives_chunks,
    save_dag,
    save_labels,
    save_model,
    save_predictions,
    write_chunks_atomic,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


class InvariantViolation(RuntimeError):
    """A result broke a property the pipeline guarantees, or two inputs
    contradict each other (exit 3)."""


def _node_id_arg(text: str) -> int:
    """An --origin or --dest value; argparse prints a range error's own message."""
    try:
        return parse_node_id(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_table(path: str) -> AttributeTable:
    return AttributeTable.from_csv(Path(path).read_text(encoding="utf-8"), source=path)


def _labeled(args: argparse.Namespace) -> BranchFrame:
    """The labeled branches the --labels file gives, over the --attrs table."""
    table = _read_table(args.attrs)
    return labeled_frame(load_labels(args.labels), table)


def _resubstitution(model: SvmModel, branches: BranchFrame) -> Metrics:
    """Metrics of ``model`` scored on ``branches``, the branches it was trained on."""
    return evaluate(model.predict(branches.features), branches.labels)


def _known_and_unexploited(dag: AttackDag, paths: list[tuple[int, ...]], corpus_path: str):
    """The known and unexploited ones among the dag's enumerated ``paths``, or None
    if the corpus does not rebuild the dag.  The rebuilt dag's edge provenance,
    not the file's, decides which paths are known.
    """
    rebuilt = load_corpus(corpus_path).attack_dag()
    if rebuilt.nodes != dag.nodes or rebuilt.edges != dag.edges:
        return None
    known = known_attack_paths(rebuilt, paths)
    return known, discover_unexploited(paths, known)


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


def cmd_ingest(args: argparse.Namespace) -> None:
    corpus = load_corpus(args.corpus)
    dag = corpus.attack_dag()
    problems = validate_dag(dag)
    if problems:
        raise InvariantViolation("; ".join(problems))
    save_dag(args.out, DagFile(dag, corpus.blocks, corpus.buckets, args.attrs_ref))
    print(
        f"ingested {len(corpus.cdfgs)} attacks: "
        f"{len(dag.nodes)} nodes, {len(dag.edges)} edges, "
        f"{len(dag.heads)} heads, {len(dag.leaves)} leaves"
    )


def cmd_attrs(args: argparse.Namespace) -> None:
    dagfile = load_dag(args.dag)
    table = _read_table(args.attrs)
    if args.refresh_structural:
        # The input table may be structurally stale (e.g. after a projection),
        # so only the facet bits are trusted; head/leaf/depth come from the dag.
        kept = table.select(dagfile.dag.nodes)
        for row, node in zip(kept.values, kept.ids.tolist()):
            row[-3:] = structural_columns(dagfile.dag, node)
        write_text_atomic(args.refresh_structural, kept.to_csv())
        print(f"wrote refreshed table for {len(kept.ids)} nodes to {args.refresh_structural}")
        return
    problems = table.check_against(dagfile.dag)
    if problems:
        raise InvariantViolation("attribute mismatch: " + "; ".join(problems))
    print(f"attribute table consistent with dag ({len(dagfile.dag.nodes)} nodes)")
    if args.attach:
        save_dag(args.dag, replace(dagfile, attrs_ref=str(args.attrs)))
        print(f"attached {args.attrs} to {args.dag}")


def _thresholds(args: argparse.Namespace) -> NegativeFilterThresholds:
    if args.independence_only:
        return NegativeFilterThresholds.disabled()
    return NegativeFilterThresholds(
        ht_diff_below=args.ht_below,
        ht_diff_above=args.ht_above,
        min_hamming=args.min_hamming,
        head_to_leaf=not args.no_head_to_leaf,
        leaf_to_leaf=not args.no_leaf_to_leaf,
    )


def cmd_negatives(args: argparse.Namespace) -> None:
    dagfile = load_dag(args.dag)
    table = _read_table(args.attrs)
    exceptions = None
    if args.exceptions:
        exceptions = ExceptionList.from_csv(Path(args.exceptions).read_text(encoding="utf-8"),
                                            source=args.exceptions)
    candidates = generate_negative_candidates(
        dagfile.dag, table, dagfile.blocks, exceptions, _thresholds(args)
    )
    save_labels(args.out, candidates.nodes.ids, candidates.at, candidates.labels)
    print(f"{len(candidates)} negative candidates written to {args.out} (label -1, unreviewed)")


def cmd_annotate_add(args: argparse.Namespace) -> None:
    append_annotation(args.annotations, args.origin, args.dest, args.verdict,
                      args.annotator, args.note)
    print(f"recorded {args.verdict} for ({args.origin}, {args.dest})")


def cmd_annotate_fold(args: argparse.Namespace) -> None:
    labels = load_labels(args.labels)
    existing = {(o, d): l for o, d, l in labels}
    verdicts: dict[tuple[int, int], int] = {}
    for origin, dest, verdict, _, _ in load_annotations(args.annotations):
        verdicts[(origin, dest)] = 1 if verdict == "feasible" else -1
    for pair, label in sorted(verdicts.items()):
        if pair in existing and existing[pair] != label:
            raise InvariantViolation(
                f"conflict: pair {pair} labeled {existing[pair]:+d} but annotated {label:+d}")
    merged = dict(existing)
    merged.update(verdicts)
    save_labels(args.out, *label_columns([(o, d, l) for (o, d), l in sorted(merged.items())]))
    added = len(merged) - len(existing)
    print(f"folded {len(verdicts)} verdicts ({added} new pairs) into {args.out}")


def _svm_params(args: argparse.Namespace) -> SvmParams:
    return SvmParams(
        c=args.c,
        kernel=args.kernel,
        gamma=args.gamma,
        tolerance=args.tolerance,
        max_passes=args.max_passes,
    )


def cmd_train(args: argparse.Namespace) -> None:
    branches = _labeled(args)
    model = train_svm(branches.features, branches.labels, _svm_params(args))
    fingerprint = file_fingerprint(args.dag, args.attrs, args.labels)
    save_model(args.out, model, fingerprint)
    metrics = _resubstitution(model, branches)
    print(
        f"trained on {len(branches)} branches: {len(model.sv_indices)} support vectors, "
        f"{model.iterations} iterations, converged={model.converged}"
    )
    _print_metrics(metrics)


def _grid_spec(args: argparse.Namespace) -> GridSpec:
    return GridSpec(
        c_values=tuple(float(v) for v in args.c_values.split(",")),
        kernels=tuple(args.kernels.split(",")),
        gamma_values=tuple(float(v) for v in args.gamma_values.split(",")),
    )


def _cell(params: SvmParams) -> dict:
    """The grid coordinates of a cell, as surface.json records them."""
    return {"c": params.c, "kernel": params.kernel, "gamma": params.gamma}


def cmd_grid_search(args: argparse.Namespace) -> None:
    branches = _labeled(args)
    best, surface = grid_search_min_fn(branches.features, branches.labels, _grid_spec(args))
    if args.out:
        rows = [{**_cell(cell.params), "fn": cell.fn, "fp": cell.fp, "error": cell.error,
                 "converged": cell.converged} for cell in surface]
        write_text_atomic(args.out, dump_json({"best": _cell(best), "cells": rows}))
    failed = sum(1 for cell in surface if cell.fn is None)
    best_cell = next(cell for cell in surface if cell.params == best)
    print(
        f"best cell: c={best.c} kernel={best.kernel} gamma={best.gamma} "
        f"(fn={best_cell.fn}, fp={best_cell.fp}; {len(surface)} cells, {failed} failed)"
    )


def _verify_fingerprint(args: argparse.Namespace):
    fingerprint = file_fingerprint(args.dag, args.attrs, args.labels)
    return load_model(args.model, expected_fingerprint=fingerprint, force=args.force)


def cmd_predict(args: argparse.Namespace) -> None:
    model = _verify_fingerprint(args)
    dagfile = load_dag(args.dag)
    table = _read_table(args.attrs)
    training = {(o, d) for o, d, _ in load_labels(args.labels)}
    candidates = enumerate_candidates(dagfile.dag, table, training)
    positives = 0

    def scored_windows():
        # One SCORE_BLOCK_ROWS window of features, kernel entries and rows at a
        # time.  decision_values scores a whole frame in the same windows, so
        # every decision is the value it would give.
        nonlocal positives
        block = svm_module.SCORE_BLOCK_ROWS
        for start in range(0, len(candidates), block):
            window = candidates.window(start, start + block)
            decisions = model.decision_values(window.features)
            positives += int(np.count_nonzero(decision_labels(decisions) == 1))
            yield window.at, decisions

    save_predictions(args.out, candidates.nodes.ids, scored_windows())
    reduction = format_reduction(positives, len(candidates)) if len(candidates) else "undefined"
    print(
        f"{len(candidates)} candidate branches, {positives} predicted feasible, "
        f"search-space reduction {reduction}"
    )


def cmd_paths(args: argparse.Namespace) -> None:
    dagfile = load_dag(args.dag)
    paths = enumerate_attack_paths(dagfile.dag, cap=args.cap)
    payload: dict = {"total": len(paths)}
    if args.corpus:
        split = _known_and_unexploited(dagfile.dag, paths, args.corpus)
        if split is None:
            raise InvariantViolation("corpus does not rebuild this dag")
        known, unexploited = split
        novel = set(unexploited)
        payload["known"] = len(known)
        payload["unexploited"] = len(novel)
        payload["paths"] = [
            {"nodes": list(p), "provenance": "unexploited" if p in novel else "known"}
            for p in paths
        ]
        print(f"{len(paths)} head-to-leaf paths: {len(known)} known, {len(novel)} unexploited")
    else:
        payload["paths"] = [{"nodes": list(p)} for p in paths]
        print(f"{len(paths)} head-to-leaf paths")
    if args.out:
        write_text_atomic(args.out, dump_json(payload))


def cmd_project(args: argparse.Namespace) -> None:
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
        args.parser.error("nothing to keep: pass --keep and/or --keep-file")
    by_norm = {blk.norm_text: blk.id for blk in dagfile.blocks.values()}
    keep: set[int] = set()
    for token in tokens:
        if token.removeprefix("-").isdecimal():
            keep.add(int(token))
        else:
            norm = normalize_description(token)
            if norm not in by_norm:
                raise UnknownNode(f"keep list references unknown node {token!r}")
            keep.add(by_norm[norm])
    sub = project_subgraph(dagfile.dag, keep)
    save_dag(args.out, DagFile(sub, dagfile.blocks, dagfile.buckets))
    print(
        f"projected to {len(sub.nodes)} nodes, {len(sub.edges)} edges "
        f"({len(sub.heads)} heads, {len(sub.leaves)} leaves)"
    )


def cmd_csp(args: argparse.Namespace) -> None:
    dagfile = load_dag(args.dag)
    branches = _labeled(args)
    fired = csp_classify(csp_facts(branches, dagfile.dag))
    labels = np.where(fired.any(axis=1), -1, 1)
    _print_metrics(evaluate(labels, branches.labels))
    print("rule fires: " + " ".join(f"{rule}={n}" for rule, n in zip(RULES, fired.sum(axis=0))))
    if args.out:
        rules = (";".join(r for r, f in zip(RULES, row) if f) for row in fired.tolist())
        write_text_atomic(args.out, csv_text(
            ("origin", "dest", "label", "rules"),
            zip(branches.origins.tolist(), branches.dests.tolist(), labels.tolist(), rules)))


def cmd_eval(args: argparse.Namespace) -> None:
    model = _verify_fingerprint(args)
    branches = _labeled(args)
    print("svm:")
    _print_metrics(_resubstitution(model, branches))
    if args.baselines:
        x, y = branches.features, branches.labels
        for k in (2, 3, 4, 5):
            m = evaluate([knn_predict(x, y, row, k) for row in x], y)
            print(f"knn k={k}: accuracy={format_ratio(m.accuracy)} fn={m.fn} fp={m.fp}")
        for name, train in (("gaussian nb", train_gnb), ("decision tree", train_tree),
                            ("sgd linear svm", train_sgd_svm)):
            m = evaluate(train(x, y).predict(x), y)
            print(f"{name}: accuracy={format_ratio(m.accuracy)} fn={m.fn} fp={m.fp}")


def cmd_report(args: argparse.Namespace) -> None:
    model = _verify_fingerprint(args)
    dagfile = load_dag(args.dag)
    branches = _labeled(args)
    metrics = asdict(_resubstitution(model, branches))
    counts = {key: metrics.pop(key) for key in ("tp", "fp", "tn", "fn")}

    predictions = load_predictions(args.predictions)
    origin, dest, decision = (predictions[name] for name in ("origin", "dest", "decision"))
    blocks = dagfile.blocks
    nodes = np.unique(np.concatenate((origin, dest)))
    if not blocks.keys() >= set(nodes.tolist()):
        pairs = zip(origin.tolist(), dest.tolist())
        unknown = next(pair for pair in pairs if not blocks.keys() >= {*pair})
        raise UnknownNode(f"{args.predictions}: predicted branch {unknown} references unknown node")
    # The positives by descending decision, in file order among equal decisions,
    # and each one's endpoints as positions in nodes.
    positive = np.flatnonzero(predictions["label"] == 1)
    kept = positive[np.argsort(-decision[positive], kind="stable")]
    origin_at = np.searchsorted(nodes, origin[kept])
    dest_at = np.searchsorted(nodes, dest[kept])
    # A node's bucket as its index in bucket_names (the last, None, for no
    # bucket); a branch takes its dest's bucket, else its origin's.  The codes
    # are int8 because an intp column per positive (and bincount's copy of it)
    # raised report's peak RSS by 15 MB at 647,427 positives.
    bucket_names = (*EXPLOIT_BUCKETS, None)
    node_bucket = np.array([bucket_names.index(dagfile.buckets.get(n)) for n in nodes.tolist()],
                           dtype=np.int8)
    bucket = node_bucket[dest_at]
    no_dest = bucket == len(EXPLOIT_BUCKETS)
    bucket[no_dest] = node_bucket[origin_at[no_dest]]
    histogram = np.bincount(bucket, minlength=len(bucket_names)).tolist()
    node_ids = nodes.tolist()
    node_texts = [blocks[n].raw_text for n in node_ids]
    positives = positives_chunks(node_ids, node_texts, origin_at, dest_at, decision[kept],
                                 bucket, bucket_names)

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
        "training": {"counts": counts, "metrics": metrics},
        "candidates": {
            "total": len(predictions),
            "predicted_positive": len(kept),
            "reduction": (format_reduction(len(kept), len(predictions)) if len(predictions)
                          else None),
        },
        "bucket_histogram": dict(zip(EXPLOIT_BUCKETS, histogram)),
        "branch_stats": asdict(corpus_stats(branches)),
        # Orientation values measured on the original, larger corpus this
        # reconstruction approximates; reported for context, never asserted.
        "reference_branch_stats": REFERENCE_BRANCH_STATS,
    }

    if args.corpus:
        paths = enumerate_attack_paths(dagfile.dag)
        split = _known_and_unexploited(dagfile.dag, paths, args.corpus)
        if split is None:
            print("corpus does not rebuild this dag; skipping path section", file=sys.stderr)
        else:
            known, novel = split
            payload["paths"] = {
                "total": len(known) + len(novel),
                "known": len(known),
                "unexploited": len(novel),
                "unexploited_paths": [[blocks[n].raw_text for n in p] for p in novel],
            }

    write_chunks_atomic(args.out, json_chunks(payload, {"predicted_positives": positives}))
    print(f"report written to {args.out}")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -1 and -1.5 for negative numbers, so "--gamma -inf"
        # would read the value as an option; exponents, inf and nan are values
        # too, and so is a comma-separated list of numbers such as "-1,2".
        number = r"((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)"
        self._negative_number_matcher = re.compile(
            rf"^-{number}(,[-+]?{number})*$", re.IGNORECASE)

    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # Every default comes from the library's dataclasses, and each option that
    # several subcommands share is declared once, in a parent parser.
    svm, grid, filters = SvmParams(), GridSpec(), NegativeFilterThresholds()
    dag_opt = argparse.ArgumentParser(add_help=False)
    dag_opt.add_argument("--dag", required=True)
    table_opts = argparse.ArgumentParser(add_help=False, parents=[dag_opt])
    table_opts.add_argument("--attrs", required=True)
    labeled_opts = argparse.ArgumentParser(add_help=False, parents=[table_opts])
    labeled_opts.add_argument("--labels", required=True)
    model_opts = argparse.ArgumentParser(add_help=False)
    model_opts.add_argument("--model", required=True)
    model_opts.add_argument("--force", action="store_true",
                            help="run even if inputs do not match the model fingerprint")

    parser = _Parser(prog="attackdag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="compile a corpus into an attack dag")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--attrs-ref", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("attrs", parents=[table_opts],
                       help="check an attribute table against a dag")
    p.add_argument("--check", action="store_true", help="verify only (default behavior)")
    p.add_argument("--attach", action="store_true", help="record the table path in the dag file")
    p.add_argument("--refresh-structural", metavar="OUT",
                   help="rewrite head/leaf/mean_depth from the dag into OUT")
    p.set_defaults(func=cmd_attrs)

    p = sub.add_parser("negatives", parents=[table_opts],
                       help="generate candidate infeasible branches")
    p.add_argument("--out", required=True)
    p.add_argument("--exceptions", default=None)
    p.add_argument("--ht-below", type=float, default=filters.ht_diff_below)
    p.add_argument("--ht-above", type=float, default=filters.ht_diff_above)
    p.add_argument("--min-hamming", type=int, default=filters.min_hamming)
    p.add_argument("--no-head-to-leaf", action="store_true")
    p.add_argument("--no-leaf-to-leaf", action="store_true")
    p.add_argument("--independence-only", action="store_true",
                   help="disable all statistical filters")
    p.set_defaults(func=cmd_negatives)

    p = sub.add_parser("annotate", help="record or fold human verdicts")
    ann = p.add_subparsers(dest="annotate_command", required=True)
    a = ann.add_parser("add", help="append one verdict (the log is append-only)")
    a.add_argument("--annotations", required=True)
    a.add_argument("--origin", type=_node_id_arg, required=True)
    a.add_argument("--dest", type=_node_id_arg, required=True)
    a.add_argument("--verdict", choices=VERDICTS, required=True)
    a.add_argument("--annotator", required=True)
    a.add_argument("--note", default="")
    a.set_defaults(func=cmd_annotate_add)
    f = ann.add_parser("fold", help="merge verdicts into a labels file")
    f.add_argument("--annotations", required=True)
    f.add_argument("--labels", required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_annotate_fold)

    p = sub.add_parser("train", parents=[labeled_opts],
                       help="train the SVM on a labeled branch set")
    p.add_argument("--out", required=True)
    p.add_argument("--c", type=float, default=svm.c)
    p.add_argument("--kernel", default=svm.kernel, choices=KERNELS)
    p.add_argument("--gamma", type=float, default=svm.gamma)
    p.add_argument("--tolerance", type=float, default=svm.tolerance)
    p.add_argument("--max-passes", type=int, default=svm.max_passes)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-search", parents=[labeled_opts],
                       help="sweep C/kernel/gamma minimizing FN")
    p.add_argument("--out", default=None)
    p.add_argument("--c-values", default=",".join(map(str, grid.c_values)))
    p.add_argument("--kernels", default=",".join(grid.kernels))
    p.add_argument("--gamma-values", default=",".join(map(str, grid.gamma_values)))
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("predict", parents=[model_opts, labeled_opts],
                       help="score every unseen branch")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("paths", parents=[dag_opt], help="enumerate head-to-leaf attack paths")
    p.add_argument("--corpus", default=None,
                   help="tag paths as known/unexploited using the source corpus")
    p.add_argument("--out", default=None)
    p.add_argument("--cap", type=int, default=PATH_CAP)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("project", parents=[dag_opt], help="induced subgraph on a node keep-list")
    p.add_argument("--keep", default=None, help="comma-separated ids or descriptions")
    p.add_argument("--keep-file", default=None, help="one id or description per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project, parser=p)

    p = sub.add_parser("csp", parents=[labeled_opts],
                       help="rule-based classification of labeled branches")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_csp)

    p = sub.add_parser("eval", parents=[model_opts, labeled_opts],
                       help="score a trained model on labeled branches")
    p.add_argument("--baselines", action="store_true",
                   help="also fit and score the baseline classifiers")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[model_opts, labeled_opts],
                       help="assemble the full run report")
    p.add_argument("--predictions", required=True)
    p.add_argument("--corpus", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


# Built once per process.  Each func=cmd_* binding reads the module's names
# when it runs, so a command still sees a name that was patched after this.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code, the one mapping of outcome to code."""
    try:
        args = _parser().parse_args(argv)
        args.func(args)
    except SystemExit as exc:  # --help (0), or a usage error from a parser's error()
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (CycleIntroduced, FingerprintMismatch, InvariantViolation, UnknownNode,
            PathExplosion) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
