"""On-disk formats: corpus JSON, dag JSON, headed CSV tables, model JSON.

All writes are atomic (temp file, then rename) so a crash never leaves a
half-written artifact, and all serialization is deterministic (sorted keys,
fixed field order) so reruns produce byte-identical files.

Five tables are headed CSV, with these header rows:

- labels: ``origin,dest,label`` (label 1 or -1, one row per pair); the
  negative candidates are written in the same format
- annotations: ``origin,dest,verdict,annotator,note`` (an append-only log)
- predictions: ``origin,dest,label,decision``
- attributes (``features.AttributeTable``, one ``(n, 10)`` array in
  ascending id order): ``node_id``, the ten attribute names, ``provenance``
- exceptions (``negatives.ExceptionList``): ``origin_node_id,dest_node_id,note``,
  extra columns ignored

``read_csv`` reads every one of them by one rule: the first row must be the
header, blank rows are skipped, and each other row's fields go to a parser
as positional arguments.  A row with a field count the parser does not take,
a field it cannot convert, or a value it rejects raises ``ValueError``
starting with ``<source>:<line>:``, which the CLI reports as exit 2.  Every
node id field is read by ``parse_node_id``, which holds it to the int64
range of the id arrays.

The tables that hold free text (annotations, attributes, exceptions) are
written by ``csv_text``, through ``csv.writer``.  The two pair tables,
labels and predictions, hold only numbers, which ``csv.writer`` never
quotes, so they are written from columns to the same bytes by one row
renderer: the caller passes an id column and each row as a pair of
positions in it (a ``BranchFrame``'s ``nodes.ids`` and ``at``), each id is
rendered once per call, and a label comes from a two-entry table.  A
predictions row's ``label,decision`` text is made once per distinct
decision bit pattern in a block: its ``float.__repr__``, what ``%r``
writes, after ``decision_labels``' label.  A row is then a join of
looked-up fragments; ``label_columns`` gives the columns of a list of
``(origin, dest, label)`` rows.  Rows are rendered a block at a time, so
only one block's rows are ever Python objects: ``save_labels`` renders
``LABEL_BLOCK_ROWS`` at a time and writes one string, and
``save_predictions`` takes the blocks its caller yields and hands each
block's text to the file as it arrives.

``load_predictions`` returns one structured array (``PREDICTIONS_DTYPE``):
numpy's ``loadtxt`` parses the rows from the open file, the columns are
checked at once, and the per-row reader (``read_prediction_rows``,
``read_csv`` under the same rule) runs over the whole text only to locate
an error or to accept a spelling numpy rejects that ``int()`` or
``float()`` takes.

Every JSON artifact is ``json.dumps(payload, indent=2, sort_keys=True) +
"\\n"``, which ``dump_json`` returns.  With ``indent`` set, ``json`` encodes
in pure Python, and the report's tens of thousands of predicted positives
took twice as long there as rendered from columns.  So ``positives_chunks``
renders that one list, from node positions as the pair tables are
rendered: each bucket and each node's two fragments are rendered once, and
a row is a join of four looked-up fragments, ``POSITIVES_BLOCK_ROWS`` rows
at a time, the fourth its decision's ``float.__repr__``, made once per
distinct value in the block.
``json_chunks`` splices those blocks into ``json``'s text of the rest of
the report, and ``write_chunks_atomic`` writes the pieces as they come, so
the report's text is never whole in memory.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

import numpy as np

from .expr import ExpressionSyntaxError, line_col, parse_expression
from .graph import build_dag, cdfg_from_expression, merge_cdfgs
from .learn.svm import SvmModel, SvmParams, decision_labels
from .model import (
    ATTRIBUTE_NAMES,
    AttackDag,
    AttackExpr,
    BasicBlock,
    Cdfg,
    EmptyDescription,
    VulnerabilityCategory,
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
        self.line = line
        self.col = col


class FingerprintMismatch(ValueError):
    pass


class DagLoadError(ValueError):
    pass


class ModelLoadError(ValueError):
    pass


def write_chunks_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in order to ``path`` through a ``.tmp`` file and a rename.

    If anything raises, a chunk's producer included, the ``.tmp`` file is
    removed and an existing file at ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    write_chunks_atomic(path, (text,))


def json_chunks(payload: Mapping, key: str, chunks: Iterable[str]) -> Iterator[str]:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` in pieces, with
    ``chunks`` as the text of top-level ``key``'s value: ``json.dumps`` writes
    ``null`` in its place, and the pieces go around it.

    Every other value is checked, and ``json``'s text built, before this returns.
    """
    text = json.dumps({**payload, key: None}, indent=2, sort_keys=True)
    # ``json`` escapes every newline inside a string, so a line that starts with
    # two spaces and a quote is a top-level entry, and each key has one.
    line = "\n  " + json.dumps(key) + ": "
    at = text.index(line + "null") + len(line)
    return chain([text[:at]], chunks, [text[at + len("null"):] + "\n"])


def dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def file_fingerprint(*paths: str | Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def _read_json(path: str | Path, error_type: type[ValueError]):
    """The JSON value in the file at ``path``; ``error_type`` naming the file if
    the file is not UTF-8, not JSON, or nested too deeply to decode."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise error_type(f"{path}: not valid JSON: {exc}") from None


# --- corpus --------------------------------------------------------------------


@dataclass(frozen=True)
class Corpus:
    """A loaded attack corpus: each attack's name and CDFG, and the interned
    blocks and exploit buckets, keyed by node id as in a ``DagFile``."""

    cdfgs: tuple[tuple[str, Cdfg], ...]
    blocks: Mapping[int, BasicBlock]
    buckets: Mapping[int, str]

    def attack_dag(self) -> AttackDag:
        return merge_cdfgs(self.cdfgs)


def _locate_expression(raw_file: str, expression: str, offset: int) -> tuple[int, int]:
    """Best-effort (line, col) of an offset inside an expression within a file.

    The corpus stores each expression as a single JSON string.  When that
    string needs no escapes, its quoted literal after an "expression" key
    is found in the file, and the position is exact; the quotes and the key
    keep it from matching inside a longer expression or in a name.
    Otherwise it is the position within the expression alone.
    """
    literal = '"' + expression + '"'
    if json.dumps(expression, ensure_ascii=False) == literal:
        found = re.search(r'"expression"\s*:\s*' + re.escape(literal), raw_file)
        if found:
            return line_col(raw_file, found.end() - len(expression) - 1 + offset)
    return line_col(expression, offset)


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus file; a value of the wrong JSON type raises CorpusLoadError
    naming the file and the entry."""
    path = Path(path)
    payload = _read_json(path, CorpusLoadError)
    if not isinstance(payload, dict):
        raise CorpusLoadError(f"{path}: corpus is not a JSON object")
    attacks = payload.get("attacks")
    if not isinstance(attacks, list) or not attacks:
        raise CorpusLoadError(f"{path}: corpus has no attacks")
    for key, kind in (("category_map", dict), ("node_category_overrides", dict),
                      ("socially_delivered", list), ("bucket_map", dict)):
        if type(payload.get(key, kind())) is not kind:
            raise CorpusLoadError(f"{path}: {key!r} is not a {kind.__name__}")
    if not all(type(norm) is str for norm in payload.get("socially_delivered", ())):
        raise CorpusLoadError(f"{path}: 'socially_delivered' is not a list of descriptions")

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

    parsed: list[tuple[str, VulnerabilityCategory, AttackExpr]] = []
    names: set[str] = set()
    for index, entry in enumerate(attacks):
        if type(entry) is not dict:
            raise CorpusLoadError(f"{path}: attack {index} is not a dict: {entry!r}")
        for key, kind in (("name", str), ("categories", list), ("expression", str)):
            if type(entry.get(key, kind())) is not kind:
                raise CorpusLoadError(f"{path}: attack {index}: {key!r} is not a "
                                      f"{kind.__name__}: {entry[key]!r}")
        if not all(type(label) is str for label in entry.get("categories", ())):
            raise CorpusLoadError(f"{path}: attack {index}: 'categories' is not a list of "
                                  f"labels: {entry['categories']!r}")
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
            raw_file = path.read_text(encoding="utf-8")
            line, col = _locate_expression(raw_file, source_text, exc.position)
            raise ExpressionParseFailure(str(exc), name, str(path), line, col) from exc
        parsed.append((name, category_map[categories[0]], expression))

    overrides: dict[str, VulnerabilityCategory] = {}
    for norm, value in overrides_raw.items():
        try:
            overrides[norm] = VulnerabilityCategory(value)
        except ValueError:
            raise CorpusLoadError(
                f"{path}: node_category_overrides maps {norm!r} to unknown class {value!r}"
            ) from None

    social_set = frozenset(socially)

    # Compile each attack once, interning blocks in first-appearance order; a
    # node's category comes from an explicit override or else from the first
    # category label of the first attack mentioning it.  A cycle within one
    # attack raises CycleIntroduced here.
    blocks: dict[int, BasicBlock] = {}
    ids: dict[str, int] = {}

    def id_for(raw: str) -> int:
        norm = normalize_description(raw)
        if norm not in ids:
            ids[norm] = node = len(ids)
            blocks[node] = BasicBlock(
                id=node,
                raw_text=raw.strip(),
                norm_text=norm,
                category=overrides.get(norm, category),
                socially_delivered=norm in social_set,
            )
        return ids[norm]

    cdfgs: list[tuple[str, Cdfg]] = []
    for name, category, expression in parsed:  # category is read by id_for
        try:
            cdfgs.append((name, cdfg_from_expression(expression, id_for)))
        except EmptyDescription as exc:
            raise CorpusLoadError(f"{path}: attack {name!r}: {exc}") from exc

    for norm in sorted(social_set - ids.keys()):
        raise CorpusLoadError(f"{path}: socially_delivered lists unknown node {norm!r}")
    for norm in sorted(overrides.keys() - ids.keys()):
        raise CorpusLoadError(f"{path}: node_category_overrides lists unknown node {norm!r}")

    buckets: dict[int, str] = {}
    for norm, bucket in bucket_map_raw.items():
        if bucket not in EXPLOIT_BUCKETS:
            raise CorpusLoadError(f"{path}: unknown exploit bucket {bucket!r} for {norm!r}")
        if norm not in ids:
            raise CorpusLoadError(f"{path}: bucket_map lists unknown node {norm!r}")
        buckets[ids[norm]] = bucket

    return Corpus(cdfgs=tuple(cdfgs), blocks=blocks, buckets=buckets)


# --- dag file --------------------------------------------------------------------


@dataclass(frozen=True)
class DagFile:
    """A dag file in memory: the dag, each node's block and exploit bucket keyed
    by node id (a node without a bucket has no entry), and the attached
    attribute table's path.  The maps may hold nodes beyond the dag's own."""

    dag: AttackDag
    blocks: Mapping[int, BasicBlock]
    buckets: Mapping[int, str]
    attrs_ref: Optional[str] = None


def save_dag(path: str | Path, dagfile: DagFile) -> None:
    """Write ``dagfile`` as ``load_dag`` reads it, with the dag's own nodes only."""
    dag = dagfile.dag
    nodes = []
    for node_id in sorted(dag.nodes):
        blk = dagfile.blocks[node_id]
        entry = {
            "id": blk.id,
            "raw_text": blk.raw_text,
            "norm_text": blk.norm_text,
            "category": blk.category.value,
            "socially_delivered": blk.socially_delivered,
        }
        if node_id in dagfile.buckets:
            entry["bucket"] = dagfile.buckets[node_id]
        nodes.append(entry)
    edges = sorted(dag.edges)
    write_text_atomic(path, dump_json({
        "nodes": nodes,
        "edges": [[u, v] for u, v in edges],
        "provenance": {f"{u}->{v}": sorted(dag.edge_provenance[(u, v)]) for u, v in edges},
        "attrs_ref": dagfile.attrs_ref,
    }))


# A node entry's fields with their JSON types; an optional "bucket" names
# one of EXPLOIT_BUCKETS.
_NODE_FIELDS = (("id", int), ("raw_text", str), ("norm_text", str), ("category", str),
                ("socially_delivered", bool))
_PROVENANCE_KEY = re.compile(r"(-?[0-9]+)->(-?[0-9]+)")


def load_dag(path: str | Path) -> DagFile:
    """Read a dag file, checking every entry before the dag is built.

    A malformed entry raises DagLoadError naming the file and the entry, and
    so do two nodes with one norm_text, an empty provenance list, a
    provenance key that is not an edge and two keys that name one edge; a
    cycle still raises CycleIntroduced from ``build_dag``.
    """
    payload = _read_json(path, DagLoadError)
    if not isinstance(payload, dict):
        raise DagLoadError(f"{path}: dag file is not a JSON object")
    for key in ("nodes", "edges"):
        if key not in payload:
            raise DagLoadError(f"{path}: dag file has no {key!r}")
    for key, kind in (("nodes", list), ("edges", list), ("provenance", dict)):
        if type(payload.get(key, kind())) is not kind:
            raise DagLoadError(f"{path}: {key!r} is not a {kind.__name__}")
    blocks: dict[int, BasicBlock] = {}
    buckets: dict[int, str] = {}
    indices: dict[str, int] = {}  # the node index of each norm_text
    for index, entry in enumerate(payload["nodes"]):
        if type(entry) is not dict:
            raise DagLoadError(f"{path}: node {index} is not a dict: {entry!r}")
        entry = {"socially_delivered": False, **entry}
        for key, kind in _NODE_FIELDS:
            if key not in entry:
                raise DagLoadError(f"{path}: node {index} has no {key!r}")
            if type(entry[key]) is not kind:
                raise DagLoadError(f"{path}: node {index}: {key!r} is not a {kind.__name__}: "
                                   f"{entry[key]!r}")
        if entry["id"] in blocks:
            raise DagLoadError(f"{path}: node {index} repeats id {entry['id']}")
        first = indices.setdefault(entry["norm_text"], index)
        if first != index:
            raise DagLoadError(f"{path}: nodes {first} and {index} share norm_text "
                               f"{entry['norm_text']!r}")
        if "bucket" in entry and entry["bucket"] not in EXPLOIT_BUCKETS:
            raise DagLoadError(f"{path}: node {index}: unknown bucket {entry['bucket']!r}")
        try:
            category = VulnerabilityCategory(entry["category"])
        except ValueError:
            raise DagLoadError(
                f"{path}: node {index}: unknown category {entry['category']!r}") from None
        blocks[entry["id"]] = BasicBlock(
            id=entry["id"],
            raw_text=entry["raw_text"],
            norm_text=entry["norm_text"],
            category=category,
            socially_delivered=entry["socially_delivered"],
        )
        if "bucket" in entry:
            buckets[entry["id"]] = entry["bucket"]
    provenance: dict[tuple[int, int], set[str]] = {}
    key_of: dict[tuple[int, int], str] = {}  # the provenance key that named each edge
    for key, names in payload.get("provenance", {}).items():
        match = _PROVENANCE_KEY.fullmatch(key)
        if match is None:
            raise DagLoadError(f"{path}: provenance key {key!r} is not '<origin>-><dest>'")
        if type(names) is not list or not all(type(name) is str for name in names):
            raise DagLoadError(f"{path}: provenance {key!r} is not a list of attack names: "
                               f"{names!r}")
        if not names:
            raise DagLoadError(f"{path}: provenance {key!r} is an empty list of attack names")
        edge = (int(match[1]), int(match[2]))
        if edge in key_of:
            raise DagLoadError(
                f"{path}: provenance keys {key_of[edge]!r} and {key!r} name one edge")
        key_of[edge] = key
        provenance[edge] = set(names)
    edges: list[tuple[int, int]] = []
    for index, edge in enumerate(payload["edges"]):
        if (type(edge) is not list or len(edge) != 2
                or not all(type(n) is int and n in blocks for n in edge)):
            raise DagLoadError(f"{path}: edge {index} is not a pair of known node ids: {edge!r}")
        if tuple(edge) not in provenance:
            raise DagLoadError(f"{path}: edge {index} {edge!r} has no provenance")
        edges.append(tuple(edge))
    stray = sorted(provenance.keys() - set(edges))
    if stray:
        raise DagLoadError(f"{path}: provenance '{stray[0][0]}->{stray[0][1]}' is not an edge")
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


_INT64 = np.iinfo(np.int64)


def parse_node_id(text: str, name: str = "node id") -> int:
    """The node id field ``text``, named ``name`` in an error; it must fit in int64."""
    node = int(text)
    if not _INT64.min <= node <= _INT64.max:
        raise ValueError(f"{name} {node} is outside the int64 range")
    return node


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
        row = parse_node_id(origin, "origin"), parse_node_id(dest, "dest"), int(label)
        if row[2] not in (1, -1):
            raise ValueError("label must be 1 or -1")
        if row[:2] in seen:
            raise ValueError(f"duplicate pair {row[:2]}")
        seen.add(row[:2])
        return row

    return read_csv(Path(path).read_text(encoding="utf-8"), LABELS_HEADER, str(path), parse,
                    "labels")


# A label's text in the last field of a labels row.
_LABEL_TEXT = {1: "1", -1: "-1"}


def _pair_renderer(ids: np.ndarray) -> Callable[[np.ndarray, Iterable[str]], str]:
    """``render(at, last)``: the text of pair table rows ``ids[at[i, 0]],
    ids[at[i, 1]]`` and the i-th text of ``last``, each line opened by its "\\n".

    Each id is rendered once, here, so a row is a join of looked-up fragments:
    what ``csv.writer`` writes, as it never quotes a number, and what ``%r`` writes.
    """
    dest = [f"{node}," for node in ids.tolist()]
    origin = ["\n" + text for text in dest]

    def render(at: np.ndarray, last: Iterable[str]) -> str:
        return "".join(chain.from_iterable(zip(map(origin.__getitem__, at[:, 0].tolist()),
                                               map(dest.__getitem__, at[:, 1].tolist()), last)))

    return render


def _once_per_value(decisions: np.ndarray, render: Callable) -> Iterator[str]:
    """``render(distinct)``'s text for each of a block's float64 ``decisions``, with
    each bit pattern among them once in ``distinct``: the key is not the value, as
    0.0 and -0.0 are equal but print apart."""
    patterns, inverse = np.unique(decisions.view(np.int64), return_inverse=True)
    texts = render(patterns.view(np.float64))
    return map(texts.__getitem__, inverse.tolist())


def _reprs(values: np.ndarray) -> list[str]:
    return list(map(float.__repr__, values.tolist()))


def _prediction_fields(decisions: np.ndarray) -> list[str]:  # a row's "label,decision"
    return list(map("{},{}".format, decision_labels(decisions).tolist(), _reprs(decisions)))


# Rows of report's positives rendered per chunk: the text of one block is held at a time.
POSITIVES_BLOCK_ROWS = 4096


def positives_chunks(node_ids: Sequence[int], node_texts: Sequence[str], origin_at: np.ndarray,
                     dest_at: np.ndarray, decisions: np.ndarray, bucket: np.ndarray,
                     bucket_names: Sequence[Optional[str]]) -> Iterator[str]:
    """The text ``json.dumps(indent=2, sort_keys=True)`` writes for report's
    ``predicted_positives`` as a top-level value, in blocks of
    ``POSITIVES_BLOCK_ROWS`` rows.  Row i is ``{"bucket": bucket_names[bucket[i]],
    "decision": decisions[i], "dest": node_ids[dest_at[i]], "dest_text":
    node_texts[dest_at[i]], "origin": ..., "origin_text": ...}``.

    Each bucket is rendered once, with the keys up to the decision, and each
    node once as a dest and once as an origin fragment, so a row is a join of
    three looked-up fragments and the decision's ``float.__repr__``, what
    ``json`` writes for a finite float, made once per distinct value in a
    block.  A decision that is not finite raises ValueError before the first
    chunk.
    """
    if not np.isfinite(decisions).all():
        raise ValueError("a predicted positive's decision is not finite")
    opens = [',\n    {\n      "bucket": ' + json.dumps(name) + ',\n      "decision": '
             for name in bucket_names]
    dest = [f',\n      "dest": {json.dumps(node)},\n      "dest_text": {json.dumps(text)}'
            for node, text in zip(node_ids, node_texts)]
    origin = [f',\n      "origin": {json.dumps(node)},\n      "origin_text": {json.dumps(text)}'
              '\n    }' for node, text in zip(node_ids, node_texts)]

    def chunks() -> Iterator[str]:
        if not len(decisions):
            yield "[]"
            return
        for start in range(0, len(decisions), POSITIVES_BLOCK_ROWS):
            stop = start + POSITIVES_BLOCK_ROWS
            text = "".join(chain.from_iterable(zip(
                map(opens.__getitem__, bucket[start:stop].tolist()),
                _once_per_value(decisions[start:stop], _reprs),
                map(dest.__getitem__, dest_at[start:stop].tolist()),
                map(origin.__getitem__, origin_at[start:stop].tolist()))))
            yield "[" + text[1:] if start == 0 else text
        yield "\n  ]"

    return chunks()


def label_columns(
    rows: Sequence[tuple[int, int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``save_labels``' columns for ``(origin, dest, label)`` rows: the rows' distinct
    ids in ascending order, each row's pair as positions in them, and the labels."""
    pairs = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2)
    ids, at = np.unique(pairs, return_inverse=True)
    return ids, at.reshape(-1, 2), np.array([row[2] for row in rows], dtype=np.int64)


# Labels rows rendered per block: only one block's rows are held as Python
# objects at a time.
LABEL_BLOCK_ROWS = 4096


def save_labels(path: str | Path, ids: np.ndarray, at: np.ndarray, labels: np.ndarray) -> None:
    """Write the labels rows ``ids[at[i, 0]], ids[at[i, 1]], labels[i]``, the bytes
    ``csv_text(LABELS_HEADER, rows)`` gives for them, as one string."""
    render = _pair_renderer(ids)
    texts = [render(at[start:start + LABEL_BLOCK_ROWS],
                    map(_LABEL_TEXT.__getitem__, labels[start:start + LABEL_BLOCK_ROWS].tolist()))
             for start in range(0, len(at), LABEL_BLOCK_ROWS)]
    write_text_atomic(path, "".join([",".join(LABELS_HEADER), *texts, "\n"]))


def append_annotation(
    path: str | Path, origin: int, dest: int, verdict: str, annotator: str, note: str
) -> None:
    """Append one verdict row; the annotation log is never rewritten."""
    if verdict not in VERDICTS:
        raise ValueError(f"verdict must be feasible or infeasible, got {verdict!r}")
    text = csv_text(ANNOTATIONS_HEADER, [(origin, dest, verdict, annotator, note)])
    with open(path, "ab+") as fh:  # writes go to the end wherever reads have been
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            # the header row opens the log only, and the last row must end first
            text = ("" if fh.read(1) == b"\n" else "\n") + text.partition("\n")[2]
        fh.write(text.encode("utf-8"))


def load_annotations(path: str | Path) -> list[tuple[int, int, str, str, str]]:
    def parse(origin: str, dest: str, verdict: str, annotator: str, note: str):
        if verdict not in VERDICTS:
            raise ValueError(f"verdict must be feasible or infeasible, got {verdict!r}")
        return (parse_node_id(origin, "origin"), parse_node_id(dest, "dest"), verdict,
                annotator, note)

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


def _floats(values) -> Optional[np.ndarray]:
    """``values`` as a float array, or None unless it is a list of JSON numbers
    (not bools) that are finite floats."""
    if type(values) is not list or not {int, float}.issuperset(map(type, values)):
        return None
    try:
        array = np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    return array if np.isfinite(array).all() else None


# A branch's feature row: its origin's attribute row, then its destination's.
BRANCH_WIDTH = 2 * len(ATTRIBUTE_NAMES)

# Each SvmParams field's annotated type, as a name: "float", "str", "bool" or "int".
_PARAM_TYPES = {f.name: f.type for f in fields(SvmParams)}


def load_model(
    path: str | Path, expected_fingerprint: Optional[str] = None, force: bool = False
) -> SvmModel:
    """Read a model file, checking every entry before the model is built.

    A malformed entry raises ModelLoadError naming the file and the key:
    a missing or mistyped key, a non-finite number, arrays whose lengths
    disagree, a label other than +1/-1, a multiplier outside (0, C],
    support-vector indices that are not distinct in [0, n_samples), or
    stored ``dual_coefs`` other than ``sv_alphas * sv_labels``, or support
    vectors that are not two attribute rows wide.
    """
    payload = _read_json(path, ModelLoadError)
    if type(payload) is not dict:
        raise ModelLoadError(f"{path}: model file is not a JSON object")
    stored = payload.get("corpus_fingerprint", "")
    if type(stored) is not str:
        raise ModelLoadError(f"{path}: 'corpus_fingerprint' is not a string: {stored!r}")
    if expected_fingerprint is not None and stored != expected_fingerprint and not force:
        raise FingerprintMismatch(
            f"{path}: model was trained on corpus {stored[:12]}..., "
            f"inputs hash to {expected_fingerprint[:12]}... (use --force to override)"
        )

    def entry(key: str):
        if key not in payload:
            raise ModelLoadError(f"{path}: model file has no {key!r}")
        return payload[key]

    def bad(key: str, message: str) -> ModelLoadError:
        return ModelLoadError(f"{path}: {key!r} {message}")

    stored_params = entry("params")
    if type(stored_params) is not dict:
        raise bad("params", f"is not an object: {stored_params!r}")
    unknown = sorted(stored_params.keys() - _PARAM_TYPES.keys())
    if unknown:
        raise bad("params", f"has unknown field {unknown[0]!r}")
    for key, kind in _PARAM_TYPES.items():
        if key not in stored_params:
            raise bad("params", f"has no field {key!r}")
        value = stored_params[key]
        if _floats([value]) is None if kind == "float" else type(value).__name__ != kind:
            kind_name = "finite number" if kind == "float" else kind
            raise bad("params", f"field {key!r} is not a {kind_name}: {value!r}")
    try:
        params = SvmParams(**stored_params)
    except ValueError as exc:
        raise bad("params", str(exc)) from None

    def numbers(key: str, length: int) -> np.ndarray:
        values = entry(key)
        if (array := _floats(values)) is None:
            raise bad(key, "is not a list of finite numbers")
        if len(values) != length:
            raise bad(key, f"has {len(values)} entries, expected {length}, "
                           "one per support vector")
        return array

    rows = entry("support_vectors")
    if type(rows) is not list or not rows or not all(type(r) is list and r for r in rows):
        raise bad("support_vectors", "is not a non-empty list of non-empty rows")
    flat = _floats(list(chain.from_iterable(rows)))
    if len({len(r) for r in rows}) != 1 or flat is None:
        raise bad("support_vectors", "rows are not all finite numbers of one length")
    if len(rows[0]) != BRANCH_WIDTH:
        raise bad("support_vectors", f"rows have {len(rows[0])} features, expected "
                                     f"{BRANCH_WIDTH} (origin and destination attributes)")
    support_vectors = flat.reshape(len(rows), -1)
    n_sv = len(rows)
    sv_alphas = numbers("sv_alphas", n_sv)
    sv_labels = numbers("sv_labels", n_sv)
    dual_coefs = numbers("dual_coefs", n_sv)
    if not np.isin(sv_labels, (1.0, -1.0)).all():
        raise bad("sv_labels", "has a label other than 1 or -1")
    if not ((sv_alphas > 0.0) & (sv_alphas <= params.c)).all():
        raise bad("sv_alphas", f"has a multiplier outside (0, C = {params.c}]")
    if not np.array_equal(dual_coefs, sv_alphas * sv_labels):
        raise bad("dual_coefs", "differs from sv_alphas * sv_labels")
    n_samples = entry("n_samples")
    if type(n_samples) is not int or n_samples < 1:
        raise bad("n_samples", f"is not a positive integer: {n_samples!r}")
    indices = entry("sv_indices")
    if (type(indices) is not list or len(indices) != n_sv
            or not all(type(i) is int and 0 <= i < n_samples for i in indices)
            or len(set(indices)) != n_sv):
        raise bad("sv_indices", f"is not {n_sv} distinct integers in [0, n_samples)")
    bias = entry("bias")
    if _floats([bias]) is None:
        raise bad("bias", f"is not a finite number: {bias!r}")
    converged = entry("converged")
    if type(converged) is not bool:
        raise bad("converged", f"is not true or false: {converged!r}")
    return SvmModel(
        params=params,
        support_vectors=support_vectors,
        bias=float(bias),
        sv_indices=tuple(indices),
        sv_alphas=sv_alphas,
        sv_labels=sv_labels,
        n_samples=n_samples,
        converged=converged,
        fingerprint=stored,
    )


# --- predictions -----------------------------------------------------------------------

PREDICTIONS_HEADER = ("origin", "dest", "label", "decision")


def save_predictions(path: str | Path, ids: np.ndarray,
                     blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> None:
    """Write blocks of predictions rows, each block ``(at, decisions)`` with
    ``at`` as positions in ``ids``, as ``_pair_renderer`` renders them; each
    row's label is ``decision_labels`` of its decision.

    Each block's text is written as the block arrives, so a caller that
    yields blocks lazily never holds more than one block's rows or text.
    """
    render = _pair_renderer(ids)
    texts = (render(at, _once_per_value(decisions, _prediction_fields))
             for at, decisions in blocks)
    write_chunks_atomic(path, chain([",".join(PREDICTIONS_HEADER)], texts, ["\n"]))


PREDICTIONS_DTYPE = np.dtype([("origin", "<i8"), ("dest", "<i8"), ("label", "<i8"),
                              ("decision", "<f8")])
# ASCII text with one of these goes to the per-row reader: csv's quote, NUL, and
# the four separators that numpy strips from a field as whitespace while int()
# and float() reject them.  (``read_text`` has turned every "\r" into "\n".)
# Text that is not ASCII goes there too: numpy 2.4 can crash with a segmentation
# fault on a field it cannot convert that holds some characters beyond U+FFFF
# (seen with U+E0100).
_PER_ROW_ONLY = '"\0\x1c\x1d\x1e\x1f'


def read_prediction_rows(text: str, source: str) -> list[tuple[int, int, int, float]]:
    """The rows of predictions ``text``, read one by one by ``read_csv``: each
    decision is finite, its label is 1 if the decision is at least 0.0, else -1,
    as ``predict`` writes them, the ids fit in int64, and no pair repeats."""
    seen: set[tuple[int, int]] = set()

    def parse(origin: str, dest: str, label: str, decision: str) -> tuple[int, int, int, float]:
        row = (parse_node_id(origin, "origin"), parse_node_id(dest, "dest"), int(label),
               float(decision))
        if not math.isfinite(row[3]):
            raise ValueError(f"decision must be finite, got {decision!r}")
        expected = 1 if row[3] >= 0.0 else -1
        if row[2] != expected:
            raise ValueError(f"label must be {expected} for decision {decision}, got {label!r}")
        if row[:2] in seen:
            raise ValueError(f"duplicate pair {row[:2]}")
        seen.add(row[:2])
        return row

    return read_csv(text, PREDICTIONS_HEADER, source, parse, "predictions")


def _rows_hold(table: np.ndarray) -> bool:
    """Whether ``table`` keeps every rule ``read_prediction_rows`` checks."""
    origin, dest, label, decision = (table[name] for name in PREDICTIONS_DTYPE.names)
    if not np.isfinite(decision).all() or (label != decision_labels(decision)).any():
        return False
    # predict writes pairs in strictly ascending (origin, dest) order, which
    # rules out a repeat in one pass; only another order needs the sort.
    o_prev, o_next, d_prev, d_next = origin[:-1], origin[1:], dest[:-1], dest[1:]
    if ((o_prev < o_next) | ((o_prev == o_next) & (d_prev < d_next))).all():
        return True
    order = np.lexsort((dest, origin))
    origin, dest = origin[order], dest[order]
    return not ((origin[1:] == origin[:-1]) & (dest[1:] == dest[:-1])).any()


def load_predictions(path: str | Path) -> np.ndarray:
    """The rows of a predictions file as one ``PREDICTIONS_DTYPE`` array, in file
    order, under the rules of ``read_prediction_rows``.

    numpy's ``loadtxt`` parses the rows from the open file, and the whole
    columns are checked at once.
    ``read_prediction_rows`` reads the text only where numpy cannot be trusted
    to read it as ``csv`` and ``int()``/``float()`` would (text that is not
    ASCII or holds one of ``_PER_ROW_ONLY``, a line that may pass ``csv``'s
    field size limit, a file with no data rows), where numpy rejects a row, or
    where a check fails.  It then raises the located error, or accepts a
    spelling numpy rejects (``1_0``, non-ASCII digits), so every file loads to
    the same values either way.
    """
    text = Path(path).read_text(encoding="utf-8")
    header = ",".join(PREDICTIONS_HEADER) + "\n"
    body = len(header)  # the offset the rows start at
    # A field beyond csv's size limit makes its line at least 2 * half + 1 long,
    # so the line covers a whole span of half characters aligned at body + k * half:
    # a "\n" in each such span rules it out, and a false alarm only costs the fallback.
    half = csv.field_size_limit() // 2
    if (text.startswith(header) and len(text) - body > text.count("\n", body)
            and text.isascii() and not any(char in text for char in _PER_ROW_ONLY)
            and all(text.find("\n", at, at + half) >= 0
                    for at in range(body, len(text) - half + 1, half))):
        with open(path, encoding="utf-8") as fh:  # not the path: numpy gunzips "*.gz"
            try:
                table = np.loadtxt(fh, delimiter=",", comments=None, skiprows=1,
                                   dtype=PREDICTIONS_DTYPE, ndmin=1)
            except ValueError:
                table = None
        if table is not None and _rows_hold(table):
            return table
    return np.array(read_prediction_rows(text, str(path)), dtype=PREDICTIONS_DTYPE)
