"""Seeded synthetic inputs: corpus.json, attributes.csv, labels.csv, exceptions.csv.

Attacks come in families.  Each family owns a few layers of one or two
blocks; an attack walks a rising subsequence of its family's layers,
taking one block or a union of both at each step, optionally starred.
A small pool of shared entry blocks (rank 0) and shared exit blocks (top
rank) joins families into one graph.  Every edge goes from a lower rank to
a higher one, so the merged graph is acyclic and its path count is bounded
by the layer widths.

Facet bits come from a per-family base vector with a small flip
probability, so feasible edges join similar nodes, as in the bundled set.
Structural columns (head, leaf, mean depth) are computed here from the
graph the expressions describe, independently of the program.

The same spec and seed always give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Category labels and the class each maps to, as in the bundled corpus.
CATEGORY_MAP = {
    "Buffer overflow": "memory",
    "Race condition": "memory",
    "Integer overflow": "memory",
    "Weak authentication": "weak_crypto_auth",
    "Weak password": "weak_crypto_auth",
    "No encryption": "weak_crypto_auth",
    "Replay attacks": "weak_crypto_auth",
    "Malware": "malware",
    "Malware through USB": "malware",
    "Protocol vulnerability": "network_protocol",
    "DDoS": "network_protocol",
    "SQL injection": "network_protocol",
}

# Facet a category class switches on in its family's base vector
# (memory, data_db, security_vuln, port_gateway, sensor, malware, auth_vuln).
CLASS_FACET = {
    "memory": 0,
    "network_protocol": 3,
    "malware": 5,
    "weak_crypto_auth": 6,
}

BUCKETS = ("access_control", "crypto", "network", "malware")

VERBS = ("read", "overwrite", "inject", "replay", "spoof", "escalate", "scan",
         "drop", "forge", "bypass", "flood", "exfiltrate", "tamper", "probe")
OBJECTS = ("session token", "heap buffer", "firmware image", "control frame",
           "sensor reading", "config table", "credential store", "update package",
           "bus message", "log record", "key material", "setpoint")
ASSETS = ("gateway", "controller", "historian", "field device", "hmi",
          "engineering workstation", "plc", "remote terminal", "head unit")


# Layers of family k: FAMILY_DEPTHS[k % 5].  Bundled attacks are mostly one
# to four steps long (mean node depth about 1), and so are these.
FAMILY_DEPTHS = (2, 3, 3, 2, 4)
ATTACKS_PER_FAMILY = 3
FLIP_PROBABILITY = 0.1
EXCEPTIONS = 6


@dataclass(frozen=True)
class Spec:
    """Size knobs for one synthetic corpus."""

    families: int
    shared_entries: int
    shared_exits: int
    labels: int  # every edge plus sampled non-edges up to this many rows


@dataclass
class _Family:
    index: int
    label: str
    layers: list[list[str]]  # block descriptions per layer
    base: list[int]


def _description(rng: random.Random, tag: str) -> str:
    return f"{rng.choice(VERBS)} {rng.choice(OBJECTS)} on {rng.choice(ASSETS)} {tag}"


def _render_step(blocks: list[str], starred: bool, ident: str) -> str:
    parts = [f"bb_{ident}{k}({b})" + ("*" if starred else "") for k, b in enumerate(blocks)]
    return parts[0] if len(parts) == 1 else "(" + " + ".join(parts) + ")"


def generate(spec: Spec, seed: int | str) -> dict[str, str]:
    """File name -> exact file text for one corpus."""
    rng = random.Random(seed)
    category_labels = sorted(CATEGORY_MAP)
    entries = [_description(rng, f"entry {k}") for k in range(spec.shared_entries)]
    exits = [_description(rng, f"exit {k}") for k in range(spec.shared_exits)]

    families: list[_Family] = []
    for f in range(spec.families):
        label = rng.choice(category_labels)
        # Layer widths alternate 1, 2, 1, ... so node counts do not vary by seed.
        layers = [
            [_description(rng, f"f{f} l{layer}{'ab'[w]}") for w in range(1 + layer % 2)]
            for layer in range(FAMILY_DEPTHS[f % len(FAMILY_DEPTHS)])
        ]
        base = [int(rng.random() < 0.25) for _ in range(7)]
        base[CLASS_FACET[CATEGORY_MAP[label]]] = 1
        families.append(_Family(f, label, layers, base))

    attacks = []
    walks: list[tuple[_Family, list[list[str]]]] = []
    for fam in families:
        for a in range(ATTACKS_PER_FAMILY):
            # A family's first attack takes every block of every layer, so
            # each block becomes a node; later attacks take a random walk.
            depth = len(fam.layers)
            chosen = list(range(depth)) if a == 0 else sorted(
                rng.sample(range(depth), rng.randint(min(2, depth), depth)))
            # First attacks also cover every shared block, so the node count
            # is fixed by the spec; later ones join a shared block at random.
            steps: list[list[str]] = []
            if a == 0:
                steps.append([entries[fam.index % len(entries)]])
            elif rng.random() < 0.3:
                steps.append([rng.choice(entries)])
            for layer in chosen:
                options = fam.layers[layer]
                if a == 0 or (len(options) == 2 and rng.random() < 0.35):
                    steps.append(list(options))
                else:
                    steps.append([rng.choice(options)])
            if a == 0:
                steps.append([exits[fam.index % len(exits)]])
            elif rng.random() < 0.25:
                steps.append([rng.choice(exits)])
            walks.append((fam, steps))
            expression = " . ".join(
                _render_step(step, rng.random() < 0.4, "abcdefghijklmnop"[k % 16])
                for k, step in enumerate(steps)
            )
            attacks.append({
                "name": f"synthetic attack {fam.index}.{a}",
                "category_text": f"{fam.label} in family {fam.index}",
                "categories": [fam.label],
                "expression": expression,
                "source": f"Generated family {fam.index}, variant {a}.",
            })

    # Nodes in first-appearance order, as the program interns them; a
    # concatenation joins every block of one step to every block of the next.
    node_ids: dict[str, int] = {}
    node_family: dict[str, _Family | None] = {}
    shared = set(entries) | set(exits)
    edges: set[tuple[int, int]] = set()
    for fam, steps in walks:
        for step in steps:
            for b in step:
                if b not in node_ids:
                    node_ids[b] = len(node_ids)
                    node_family[b] = None if b in shared else fam
        for left, right in zip(steps, steps[1:]):
            for u in left:
                for v in right:
                    if u != v:
                        edges.add((node_ids[u], node_ids[v]))

    n = len(node_ids)
    heads, leaves, depth = _structure(n, edges)

    # Categories: a node takes its first attack's class unless overridden.
    by_id = {i: d for d, i in node_ids.items()}
    overrides = {}
    socially = []
    buckets = {}
    for node in range(n):
        desc = by_id[node]
        if rng.random() < 0.06:
            overrides[desc] = "social_engineering"
        elif rng.random() < 0.04:
            socially.append(desc)
        if rng.random() < 0.5:
            buckets[desc] = rng.choice(BUCKETS)

    corpus = {
        "attacks": attacks,
        "category_map": {label: CATEGORY_MAP[label] for label in category_labels},
        "node_category_overrides": overrides,
        "socially_delivered": socially,
        "bucket_map": buckets,
    }

    attrs = io.StringIO()
    writer = csv.writer(attrs, lineterminator="\n")
    writer.writerow(["node_id", "memory", "data_db", "security_vuln", "port_gateway",
                     "sensor", "malware", "auth_vuln", "head", "leaf", "mean_depth",
                     "provenance"])
    for node in range(n):
        fam = node_family[by_id[node]]
        base = fam.base if fam is not None else [0] * 7
        bits = [b ^ int(rng.random() < FLIP_PROBABILITY) for b in base]
        writer.writerow([node, *bits, int(node in heads), int(node in leaves),
                         repr(depth[node]), "reconstructed"])

    positives = sorted(edges)
    non_edges = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in edges]
    negatives = rng.sample(non_edges, max(0, spec.labels - len(positives)))
    rows = [(u, v, 1) for u, v in positives] + [(u, v, -1) for u, v in negatives]
    rows.sort()
    labels_csv = "origin,dest,label\n" + "".join(f"{u},{v},{l}\n" for u, v, l in rows)

    exceptions_csv = "origin_node_id,dest_node_id,note\n" + "".join(
        f"{u},{v},documented enabling path {k}\n"
        for k, (u, v) in enumerate(sorted(rng.sample(non_edges, EXCEPTIONS)))
    )

    return {
        "corpus.json": json.dumps(corpus, indent=2) + "\n",
        "attributes.csv": attrs.getvalue(),
        "labels.csv": labels_csv,
        "exceptions.csv": exceptions_csv,
    }


def _structure(n: int, edges: set[tuple[int, int]]):
    """Heads, leaves and mean head-to-node path length, by topological DP."""
    succ: dict[int, list[int]] = {u: [] for u in range(n)}
    indeg = [0] * n
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    heads = {u for u in range(n) if indeg[u] == 0}
    leaves = {u for u in range(n) if not succ[u]}
    count = [1 if u in heads else 0 for u in range(n)]
    total = [0] * n
    pending = list(indeg)
    queue = sorted(heads)
    while queue:
        u = queue.pop(0)
        for v in succ[u]:
            count[v] += count[u]
            total[v] += total[u] + count[u]
            pending[v] -= 1
            if pending[v] == 0:
                queue.append(v)
    depth = [total[u] / count[u] if count[u] else 0.0 for u in range(n)]
    return heads, leaves, depth


def write(spec: Spec, seed: int | str, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, text in generate(spec, seed).items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        out[name] = path
    return out
