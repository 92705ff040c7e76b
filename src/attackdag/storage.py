"""On-disk formats: corpus JSON, dag JSON, headed CSV tables, model JSON.

All writes are atomic (temp file, then rename) so a crash never leaves a
half-written artifact, and all serialization is deterministic (sorted keys,
fixed field order) so reruns produce byte-identical files.

Five tables are headed CSV, with these header rows:

- labels: ``origin,dest,label`` (label 1 or -1, one row per pair); the
  negative candidates are written in the same format
- annotations: ``origin,dest,verdict,annotator,note`` (an append-only log)
- predictions: ``origin,dest,label,decision``
- attributes (``features.AttributeTable``): ``node_id``, the ten attribute
  names, ``provenance``
- exceptions (``negatives.ExceptionList``): ``origin_node_id,dest_node_id,note``,
  extra columns ignored

``read_csv`` reads every one of them by one rule: the first row must be the
header, blank rows are skipped, and each other row's fields go to a parser
as positional arguments.  A row with a field count the parser does not take,
a field it cannot convert, or a value it rejects raises ``ValueError``
starting with ``<source>:<line>:``, which the CLI reports as exit 2.
``csv_text`` writes them all through ``csv.writer``; ``save_predictions``,
the largest table, is the one exception and %-formats its rows (same bytes).

Every JSON artifact is written by ``dump_json``, a small hand-written
encoder whose output is byte-for-byte ``json.dumps(payload, indent=2,
sort_keys=True) + "\\n"``.  With ``indent`` set, ``json`` gives up its C
encoder and walks the payload in pure Python generators; a report with
tens of thousands of predicted positives spent most of its time there.
``dump_json`` walks the same values in one loop instead, still encodes
strings with ``json``'s C ``encode_basestring_ascii``, memoises repeated
strings, and builds each dict's sorted ``"key": `` prefixes once per key
tuple and depth.  It keeps ``json``'s type rules: ``isinstance`` checks
(so ``numpy.float64`` is a float), ``NaN``/``Infinity`` for non-finite
floats, ``json``'s coercion of non-string keys, and ``TypeError`` for
anything else.  It does not detect circular references.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, TypeVar

import numpy as np

from .expr import ExpressionSyntaxError, line_col, parse_expression
from .graph import cdfg_from_expression, merge_cdfgs
from .learn.svm import SvmModel, SvmParams
from .model import (
    AttackDag,
    AttackRecord,
    BasicBlock,
    Cdfg,
    EmptyDescription,
    VulnerabilityCategory,
    expr_blocks,
    normalize_description,
)

EXPLOIT_BUCKETS = (
    "access_control",
    "crypto",
    "network",
    "malware",
    "bios_boot",
    "cache_poisoning",
)


class CorpusLoadError(ValueError):
    pass


class ExpressionParseFailure(CorpusLoadError):
    def __init__(self, message: str, attack: str, path: str, line: int, col: int):
        super().__init__(f"{path}:{line}:{col}: attack {attack!r}: {message}")
        self.attack = attack
        self.line = line
        self.col = col


class FingerprintMismatch(ValueError):
    pass


class DagLoadError(ValueError):
    pass


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_key(key) -> str:
    """A non-string dict key as ``json`` coerces it."""
    if isinstance(key, float):
        text = float.__repr__(key)
        return _FLOAT_SPECIALS.get(text, text)
    if key is True or key is False or key is None:
        return json.dumps(key)
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def dump_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    See the module docstring for why this is not a call to ``json.dumps``.
    """
    chunks: list[str] = []
    append = chunks.append
    strings: dict[str, str] = {}
    # (keys in insertion order, depth) -> (sorted keys, "{"/"," + newline +
    # encoded key + ": " for each of them, newline + "}"); only all-str key
    # tuples are cached, since 1, 1.0 and True compare equal but encode
    # differently.
    heads: dict[tuple, tuple[list, list[str], str]] = {}

    def emit(pairs, depth: int) -> None:
        """Append each (prefix, value) pair's prefix and the value's text."""
        for prefix, value in pairs:
            if isinstance(value, str):
                text = strings.get(value)
                if text is None:
                    text = strings[value] = encode_basestring_ascii(value)
                append(prefix + text)
            elif value is None:
                append(prefix + "null")
            elif value is True:
                append(prefix + "true")
            elif value is False:
                append(prefix + "false")
            elif isinstance(value, int):
                append(prefix + int.__repr__(value))
            elif isinstance(value, float):
                text = float.__repr__(value)
                append(prefix + _FLOAT_SPECIALS.get(text, text))
            elif isinstance(value, (list, tuple)):
                if not value:
                    append(prefix + "[]")
                    continue
                inner = "\n" + "  " * (depth + 1)
                append(prefix + "[")
                emit(zip(chain((inner,), repeat("," + inner)), value), depth + 1)
                append("\n" + "  " * depth + "]")
            elif isinstance(value, dict):
                if not value:
                    append(prefix + "{}")
                    continue
                cache_key = (tuple(value), depth)
                head = heads.get(cache_key)
                if head is None:
                    keys = sorted(value)
                    inner = "\n" + "  " * (depth + 1)
                    texts = [k if isinstance(k, str) else _json_key(k) for k in keys]
                    prefixes = [f",{inner}{encode_basestring_ascii(t)}: " for t in texts]
                    prefixes[0] = prefixes[0][1:]  # the first entry follows "{"
                    head = (keys, prefixes, "\n" + "  " * depth + "}")
                    if all(isinstance(k, str) for k in keys):
                        heads[cache_key] = head
                keys, prefixes, close = head
                append(prefix + "{")
                emit(zip(prefixes, map(value.__getitem__, keys)), depth + 1)
                append(close)
            else:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    emit((("", payload),), 0)
    append("\n")
    return "".join(chunks)


def file_fingerprint(*paths: str | Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


# --- corpus --------------------------------------------------------------------


@dataclass(frozen=True)
class Corpus:
    """A loaded attack corpus: records, interned blocks, and lookup maps."""

    records: tuple[AttackRecord, ...]
    blocks: tuple[BasicBlock, ...]
    category_map: Mapping[str, VulnerabilityCategory]
    socially_delivered: frozenset[str]
    bucket_map: Mapping[str, str]
    fingerprint: str
    path: str = ""

    def block_ids(self) -> dict[str, int]:
        return {b.norm_text: b.id for b in self.blocks}

    def blocks_by_id(self) -> dict[int, BasicBlock]:
        return {b.id: b for b in self.blocks}

    def record_cdfgs(self) -> list[tuple[str, Cdfg]]:
        ids = self.block_ids()

        def id_for(raw: str) -> int:
            return ids[normalize_description(raw)]

        return [(r.name, cdfg_from_expression(r.expression, id_for)) for r in self.records]

    def attack_dag(self) -> AttackDag:
        return merge_cdfgs(self.record_cdfgs())


def _locate_expression(raw_file: str, expression: str, offset: int) -> tuple[int, int]:
    """Best-effort (line, col) of an offset inside an expression within a file.

    The corpus stores each expression as a single JSON string; when the raw
    text appears verbatim (no JSON escaping needed) its file position is
    exact, otherwise we fall back to position within the expression alone.
    """
    at = raw_file.find(expression)
    if at < 0:
        line, col = line_col(expression, offset)
        return line, col
    line, col = line_col(raw_file, at + offset)
    return line, col


def load_corpus(path: str | Path) -> Corpus:
    path = Path(path)
    raw_file = path.read_text(encoding="utf-8")
    try:
        payload = json.loads(raw_file)
    except json.JSONDecodeError as exc:
        raise CorpusLoadError(f"{path}: not valid JSON: {exc}") from exc
    attacks = payload.get("attacks")
    if not isinstance(attacks, list) or not attacks:
        raise CorpusLoadError(f"{path}: corpus has no attacks")

    raw_category_map = payload.get("category_map", {})
    category_map: dict[str, VulnerabilityCategory] = {}
    for label, value in raw_category_map.items():
        try:
            category_map[label] = VulnerabilityCategory(value)
        except ValueError:
            raise CorpusLoadError(
                f"{path}: category_map maps {label!r} to unknown class {value!r}"
            ) from None

    overrides_raw = payload.get("node_category_overrides", {})
    socially = payload.get("socially_delivered", [])
    bucket_map_raw = payload.get("bucket_map", {})

    records: list[AttackRecord] = []
    names: set[str] = set()
    for entry in attacks:
        name = entry.get("name", "")
        if not name:
            raise CorpusLoadError(f"{path}: attack without a name")
        if name in names:
            raise CorpusLoadError(f"{path}: duplicate attack name {name!r}")
        names.add(name)
        categories = tuple(entry.get("categories", ()))
        if not categories:
            raise CorpusLoadError(f"{path}: attack {name!r} has no categories")
        for label in categories:
            if label not in category_map:
                raise CorpusLoadError(
                    f"{path}: attack {name!r} uses unmapped category label {label!r}"
                )
        source_text = entry.get("expression", "")
        try:
            expression = parse_expression(source_text)
        except ExpressionSyntaxError as exc:
            line, col = _locate_expression(raw_file, source_text, exc.position)
            raise ExpressionParseFailure(str(exc), name, str(path), line, col) from exc
        records.append(
            AttackRecord(
                name=name,
                category_text=entry.get("category_text", ""),
                categories=categories,
                expression=expression,
                source=entry.get("source", ""),
            )
        )

    overrides: dict[str, VulnerabilityCategory] = {}
    for norm, value in overrides_raw.items():
        try:
            overrides[norm] = VulnerabilityCategory(value)
        except ValueError:
            raise CorpusLoadError(
                f"{path}: node_category_overrides maps {norm!r} to unknown class {value!r}"
            ) from None

    social_set = frozenset(socially)

    # Intern blocks in first-appearance order; a node's category comes from
    # an explicit override or else from the first category label of the
    # first attack mentioning it.
    blocks: list[BasicBlock] = []
    by_norm: dict[str, int] = {}
    for record in records:
        for leaf in expr_blocks(record.expression):
            try:
                norm = normalize_description(leaf.description)
            except EmptyDescription as exc:
                raise CorpusLoadError(f"{path}: attack {record.name!r}: {exc}") from exc
            if norm in by_norm:
                continue
            category = overrides.get(norm, category_map[record.categories[0]])
            by_norm[norm] = len(blocks)
            blocks.append(
                BasicBlock(
                    id=len(blocks),
                    raw_text=leaf.description.strip(),
                    norm_text=norm,
                    category=category,
                    socially_delivered=norm in social_set,
                )
            )

    for norm in sorted(social_set - set(by_norm)):
        raise CorpusLoadError(f"{path}: socially_delivered lists unknown node {norm!r}")
    for norm in sorted(set(overrides) - set(by_norm)):
        raise CorpusLoadError(f"{path}: node_category_overrides lists unknown node {norm!r}")

    bucket_map: dict[str, str] = {}
    for norm, bucket in bucket_map_raw.items():
        if bucket not in EXPLOIT_BUCKETS:
            raise CorpusLoadError(f"{path}: unknown exploit bucket {bucket!r} for {norm!r}")
        if norm not in by_norm:
            raise CorpusLoadError(f"{path}: bucket_map lists unknown node {norm!r}")
        bucket_map[norm] = bucket

    return Corpus(
        records=tuple(records),
        blocks=tuple(blocks),
        category_map=category_map,
        socially_delivered=social_set,
        bucket_map=bucket_map,
        fingerprint=hashlib.sha256(raw_file.encode("utf-8")).hexdigest(),
        path=str(path),
    )


# --- dag file --------------------------------------------------------------------


@dataclass(frozen=True)
class DagFile:
    dag: AttackDag
    blocks: dict[int, BasicBlock]
    buckets: dict[int, str]
    attrs_ref: Optional[str] = None


def dag_payload(
    dag: AttackDag,
    blocks: Mapping[int, BasicBlock],
    buckets: Mapping[int, str] | None = None,
    attrs_ref: Optional[str] = None,
) -> dict:
    nodes = []
    for node_id in sorted(dag.nodes):
        blk = blocks[node_id]
        entry = {
            "id": blk.id,
            "raw_text": blk.raw_text,
            "norm_text": blk.norm_text,
            "category": blk.category.value,
            "socially_delivered": blk.socially_delivered,
        }
        if buckets and node_id in buckets:
            entry["bucket"] = buckets[node_id]
        nodes.append(entry)
    return {
        "nodes": nodes,
        "edges": [[u, v] for u, v in sorted(dag.edges)],
        "provenance": {
            f"{u}->{v}": sorted(dag.edge_provenance[(u, v)]) for u, v in sorted(dag.edges)
        },
        "attrs_ref": attrs_ref,
    }


def save_dag(path: str | Path, payload: dict) -> None:
    write_text_atomic(path, dump_json(payload))


def load_dag(path: str | Path) -> DagFile:
    from .graph import build_dag

    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise DagLoadError(f"{path}: dag file is not a JSON object")
    for key in ("nodes", "edges"):
        if key not in payload:
            raise DagLoadError(f"{path}: dag file has no {key!r}")
    blocks: dict[int, BasicBlock] = {}
    buckets: dict[int, str] = {}
    for index, entry in enumerate(payload["nodes"]):
        try:
            blk = BasicBlock(
                id=entry["id"],
                raw_text=entry["raw_text"],
                norm_text=entry["norm_text"],
                category=VulnerabilityCategory(entry["category"]),
                socially_delivered=entry.get("socially_delivered", False),
            )
        except KeyError as exc:
            raise DagLoadError(f"{path}: node {index} has no {exc.args[0]!r}") from None
        blocks[blk.id] = blk
        if "bucket" in entry:
            buckets[blk.id] = entry["bucket"]
    edges = [tuple(edge) for edge in payload["edges"]]
    provenance: dict[tuple[int, int], set[str]] = {}
    for key, namelist in payload.get("provenance", {}).items():
        u, v = key.split("->")
        provenance[(int(u), int(v))] = set(namelist)
    dag = build_dag(blocks.keys(), edges, provenance)
    return DagFile(dag=dag, blocks=blocks, buckets=buckets, attrs_ref=payload.get("attrs_ref"))


# --- headed CSV tables -------------------------------------------------------------

T = TypeVar("T")


def read_csv(
    text: str, header: Sequence[str], source: str, parse: Callable[..., T], kind: str
) -> list[T]:
    """``parse(*fields)`` for each non-blank row after the header row.

    See the module docstring for the rule; ``source`` (a path, or a name for
    text that did not come from a file) and the line open each error, and
    ``kind`` names the table in a header error.
    """
    reader = csv.reader(io.StringIO(text))
    out: list[T] = []
    try:
        first = next(reader, None)
        if first is None or tuple(first) != tuple(header):
            raise ValueError(f"bad {kind} header: {first!r}, expected {','.join(header)}")
        for row in reader:
            if row:
                out.append(parse(*row))
    except TypeError:
        raise ValueError(
            f"{source}:{reader.line_num}: expected {len(header)} fields "
            f"({','.join(header)}), got {row!r}"
        ) from None
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{source}:{reader.line_num}: {exc}") from None
    return out


def csv_text(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    """The header row, then ``rows``, as ``csv.writer`` writes them with ``\\n`` line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


LABELS_HEADER = ("origin", "dest", "label")
ANNOTATIONS_HEADER = ("origin", "dest", "verdict", "annotator", "note")
VERDICTS = ("feasible", "infeasible")


def load_labels(path: str | Path) -> list[tuple[int, int, int]]:
    seen: set[tuple[int, int]] = set()

    def parse(origin: str, dest: str, label: str) -> tuple[int, int, int]:
        row = int(origin), int(dest), int(label)
        if row[2] not in (1, -1):
            raise ValueError("label must be 1 or -1")
        if row[:2] in seen:
            raise ValueError(f"duplicate pair {row[:2]}")
        seen.add(row[:2])
        return row

    return read_csv(Path(path).read_text(encoding="utf-8"), LABELS_HEADER, str(path), parse,
                    "labels")


def save_labels(path: str | Path, rows: Iterable[tuple[int, int, int]]) -> None:
    write_text_atomic(path, csv_text(LABELS_HEADER, rows))


def append_annotation(
    path: str | Path, origin: int, dest: int, verdict: str, annotator: str, note: str = ""
) -> None:
    """Append one verdict row; the annotation log is never rewritten."""
    if verdict not in VERDICTS:
        raise ValueError(f"verdict must be feasible or infeasible, got {verdict!r}")
    path = Path(path)
    text = csv_text(ANNOTATIONS_HEADER, [(origin, dest, verdict, annotator, note)])
    if path.exists() and path.stat().st_size > 0:
        text = text.partition("\n")[2]  # the header row opens the log only
    with open(path, "a", encoding="utf-8", newline="") as fh:
        fh.write(text)


def load_annotations(path: str | Path) -> list[tuple[int, int, str, str, str]]:
    def parse(origin: str, dest: str, verdict: str, annotator: str, note: str):
        if verdict not in VERDICTS:
            raise ValueError(f"verdict must be feasible or infeasible, got {verdict!r}")
        return int(origin), int(dest), verdict, annotator, note

    return read_csv(Path(path).read_text(encoding="utf-8"), ANNOTATIONS_HEADER, str(path), parse,
                    "annotations")


# --- model ---------------------------------------------------------------------------


def save_model(path: str | Path, model: SvmModel, fingerprint: str) -> None:
    payload = {
        "params": asdict(model.params),
        "support_vectors": model.support_vectors.tolist(),
        "dual_coefs": model.dual_coefs.tolist(),
        "bias": model.bias,
        "sv_indices": list(model.sv_indices),
        "sv_alphas": model.sv_alphas.tolist(),
        "sv_labels": model.sv_labels.tolist(),
        "n_samples": model.n_samples,
        "converged": model.converged,
        "corpus_fingerprint": fingerprint,
    }
    write_text_atomic(path, dump_json(payload))


def load_model(
    path: str | Path, expected_fingerprint: Optional[str] = None, force: bool = False
) -> SvmModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: model file is not a JSON object")
    stored = payload.get("corpus_fingerprint", "")
    if expected_fingerprint is not None and stored != expected_fingerprint and not force:
        raise FingerprintMismatch(
            f"{path}: model was trained on corpus {stored[:12]}..., "
            f"inputs hash to {expected_fingerprint[:12]}... (use --force to override)"
        )
    try:
        return SvmModel(
            params=SvmParams(**payload["params"]),
            support_vectors=np.asarray(payload["support_vectors"], dtype=float),
            dual_coefs=np.asarray(payload["dual_coefs"], dtype=float),
            bias=float(payload["bias"]),
            sv_indices=tuple(payload["sv_indices"]),
            sv_alphas=np.asarray(payload["sv_alphas"], dtype=float),
            sv_labels=np.asarray(payload["sv_labels"], dtype=float),
            n_samples=int(payload["n_samples"]),
            converged=bool(payload["converged"]),
            fingerprint=stored,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: model file has no {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:  # e.g. an unknown params field
        raise ValueError(f"{path}: {exc}") from None


# --- predictions -----------------------------------------------------------------------

PREDICTIONS_HEADER = ("origin", "dest", "label", "decision")


def save_predictions(path: str | Path, rows: Iterable[tuple[int, int, int, float]]) -> None:
    """Write rows of Python ints and a float, as ``ndarray.tolist()`` gives them.

    The one table not written by ``csv_text``: %-formatting is faster on
    tens of thousands of rows, and the text is what ``csv.writer`` would
    write, since it never quotes a number and ``%r`` of a float is its
    shortest round-trip repr.
    """
    header = ",".join(PREDICTIONS_HEADER) + "\n"
    write_text_atomic(path, header + "".join(["%d,%d,%d,%r\n" % row for row in rows]))


def load_predictions(path: str | Path) -> list[tuple[int, int, int, float]]:
    def parse(origin: str, dest: str, label: str, decision: str) -> tuple[int, int, int, float]:
        return int(origin), int(dest), int(label), float(decision)

    return read_csv(Path(path).read_text(encoding="utf-8"), PREDICTIONS_HEADER, str(path), parse,
                    "predictions")
