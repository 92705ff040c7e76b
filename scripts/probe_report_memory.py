#!/usr/bin/env python3
"""Peak memory and wall time of `negatives`, `predict` and `report` on a 994-node corpus.

    python3 scripts/probe_report_memory.py [--runs N]

Generates perfbench's 994-node probe corpus (985,042 candidate branches),
runs `ingest` and `train` on it, then runs `negatives`, `predict` and
`report` each in a fresh interpreter, N times, with the argv perfbench
uses.  For every run it prints the command's wall time (around
`attackdag.cli.main`, imports excluded) and the process's peak RSS.  The
peak is `VmHWM` from /proc/self/status, the high-water mark of the address
space that exec gave the child, so it is the command's own; Linux carries
`ru_maxrss` across exec, so that figure would be at least the probe's own
peak, and it is read only where /proc is absent.  The last line of
standard output is one JSON object with those numbers and the SHA-256
digests of `candidates.csv`, `predictions.csv` and `report.json` less its
timestamp, so two checkouts can be compared.  Its working directory is a
temporary one, removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import gen  # noqa: E402
from attackdag.cli import main  # noqa: E402
from workloads import Inputs, argv, artifact_bytes  # noqa: E402

SPEC = gen.Spec(families=240, shared_entries=20, shared_exits=14, labels=2000)
SEED = "1/0"

# Runs one command in a fresh interpreter and prints its wall time and peak RSS.
CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from attackdag.cli import main
start = time.perf_counter()
code = main(sys.argv[2:])
wall = time.perf_counter() - start
try:
    with open("/proc/self/status") as status:
        hwm = next(line for line in status if line.startswith("VmHWM:"))
    peak, source = int(hwm.split()[1]) / 1024, "VmHWM"
except OSError:
    peak, source = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ru_maxrss"
print(json.dumps({"exit": code, "wall_s": round(wall, 3), "peak_rss_mb": round(peak, 1),
                  "peak_source": source}))
"""


def measured(command: str, inputs: Inputs, out: Path) -> dict:
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *argv(command, inputs, out)],
                          check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if result["exit"] != 0:
        sys.exit(f"{command} exited {result['exit']}: {done.stderr}")
    return result


def probe(work: Path, runs: int) -> dict:
    inputs = Inputs.in_dir(work / "inputs")
    gen.write(SPEC, SEED, work / "inputs")
    out = work / "out"
    out.mkdir()
    for command in ("ingest", "train"):
        if main(argv(command, inputs, out)) != 0:
            sys.exit(f"{command} failed")
    results: dict = {"spec": vars(SPEC), "seed": SEED}
    for command in ("negatives", "predict", "report"):
        results[command] = []
        for _ in range(runs):
            results[command].append(measured(command, inputs, out))
            print(f"{command}: {results[command][-1]}", flush=True)
    for name in ("candidates.csv", "predictions.csv", "report.json"):
        results[f"{name} sha256"] = hashlib.sha256(artifact_bytes(out / name)).hexdigest()
    return results


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1, help="fresh processes per command")
    args = parser.parse_args()
    work = Path(tempfile.mkdtemp(prefix="probe-report-"))
    try:
        results = probe(work, args.runs)
    finally:
        shutil.rmtree(work)
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(run())
