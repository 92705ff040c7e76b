"""Benchmark of the attackdag command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

Runs one workload (or, without --workload, all of them in turn) through
attackdag.cli.main in-process, closed loop: one pass of the workload's
command sequence, then the next.  Inputs are the bundled data/ or corpora
generated from --seed; outputs go to a scratch directory in the checkout
that is removed afterwards.  Each workload's passes run in a fresh worker
process, so its peak memory is its own.

Times are scaled to a fixed host speed by a reference computation timed
beside them (hostspeed.py); the unscaled times are printed too.  --trace 0
prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics plus the tracing overhead.
Every output is checked; the last line of standard output is one JSON
object with "correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import hostspeed
from workloads import WORKLOADS, Inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-work"

SETUP_RUNS = 11
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this

END_TO_END = {
    "setup_s": "s",
    "scaled_pass_s.median": "s",
    "scaled_pass_s.tail": "s",
    "peak_rss_mb": "MB",
    "branches_per_s": "1/s",
    "reduction_pct": "%",
}

PREDICTED = re.compile(r"(\d+) candidate branches, (\d+) predicted feasible")
INGESTED = re.compile(r"(\d+) nodes, (\d+) edges")
TRAIN_FN = re.compile(r"counts: tp=\d+ fp=\d+ tn=\d+ fn=(\d+)")
GRID = re.compile(r"\(fn=(\d+), fp=\d+; (\d+) cells, \d+ failed\)")


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    Below twenty samples that percentile falls under the median, which has
    the best support of any higher percentile, so the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n


def environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_times(env: dict) -> tuple[list[float], list[float]]:
    """Wall times for a fresh interpreter to import attackdag.cli, SETUP_RUNS times,
    and reference times taken between the imports to scale them.

    The first reference run after an import finds the caches cold, so each
    reading is the median of three runs.
    """
    walls, references = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import attackdag.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
        references.append(statistics.median(hostspeed.reference() for _ in range(3)))
    return walls, references


def make_instances(workload, seed: int, work: Path) -> list[tuple[Inputs, Path]]:
    instances = []
    for k in range(workload.instances):
        if workload.spec is None:
            inputs = Inputs.in_dir(ROOT / "data")
        else:
            gen.write(workload.spec, f"{seed}/{k}", work / f"in{k}")
            inputs = Inputs.in_dir(work / f"in{k}")
        out = work / f"out{k}"
        out.mkdir(parents=True)
        instances.append((inputs, out))
    return instances


def run_worker(config: dict, work: Path, env: dict, deadline: float):
    """Run worker.py on config; return (result, resource usage of the worker)."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(config_path)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError("worker did not finish in time")
        time.sleep(0.05)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(Path(config["result"]).read_text(encoding="utf-8")), usage


def failures(passes: list[dict], problems: dict[int, dict[str, list[str]]]) -> dict:
    """(pass index, command) -> reason, for every failed operation."""
    failed = {}
    first_digest: dict[tuple[int, str], str] = {}
    for i, p in enumerate(passes):
        for rec in p["commands"]:
            key = (p["instance"], rec["command"])
            if rec["code"] != 0:
                failed[(i, rec["command"])] = f"exit {rec['code']}: {rec['error']}"
            elif first_digest.setdefault(key, rec["digest"]) != rec["digest"]:
                failed[(i, rec["command"])] = "output differs from the first pass"
            elif problems[p["instance"]].get(rec["command"]):
                failed[(i, rec["command"])] = "; ".join(problems[p["instance"]][rec["command"]])
    return failed


def first_stdout(passes: list[dict], instance: int, command: str) -> str:
    for p in passes:
        if p["instance"] == instance:
            for rec in p["commands"]:
                if rec["command"] == command:
                    return rec["stdout"]
    return ""


def measure(workload, seed: int, seconds: float, trace: bool, spans: str | None) -> dict:
    """Generate inputs, time set-up, run the worker and check its outputs."""
    started = time.monotonic()
    work = SCRATCH / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = environment()
    try:
        instances = make_instances(workload, seed, work)
        setup = setup_times(env)
        config = {
            "workload": workload.name,
            "seconds": seconds,
            "trace": trace,
            "result": str(work / "result.json"),
            "spans": spans,
            "instances": [{"inputs": {k: str(v) for k, v in vars(inputs).items()},
                           "out": str(out)} for inputs, out in instances],
        }
        result, usage = run_worker(config, work, env, started + RUN_LIMIT_S)

        sys.path.insert(0, str(SRC))
        import checks

        ran = sorted({p["instance"] for p in result["passes"]})
        problems = {k: checks.check_outputs(workload.commands, *instances[k], seed,
                                            golden=workload.spec is None)
                    for k in ran}
        labels = {k: sum(1 for line in instances[k][0].labels.read_text(encoding="utf-8")
                         .splitlines()[1:] if line)
                  for k in ran}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it
    return {"result": result, "usage": usage, "setup": setup, "ran": ran,
            "problems": problems, "labels": labels}


def input_sizes(passes: list[dict], ran: list[int], labels: dict[int, int]) -> list[dict]:
    """Nodes, edges, labels, candidates and grid cells of each corpus the run used."""
    sizes = []
    for k in ran:
        ingested = INGESTED.search(first_stdout(passes, k, "ingest"))
        predicted = PREDICTED.search(first_stdout(passes, k, "predict"))
        grid = GRID.search(first_stdout(passes, k, "grid-search"))
        sizes.append({
            "nodes": int(ingested[1]) if ingested else 0,
            "edges": int(ingested[2]) if ingested else 0,
            "labels": labels[k],
            "candidates": int(predicted[1]) if predicted else 0,
            "positives": int(predicted[2]) if predicted else 0,
            "grid_cells": int(grid[2]) if grid else 0,
        })
    return sizes


def reported_metrics(workload, run: dict, failed: int) -> dict:
    """Metrics printed but not gated: unscaled times, which drift with the host's
    load, and metrics that are zero at this commit or exist on one workload only."""
    passes, ran = run["result"]["passes"], run["ran"]
    walls = [p["wall"] for p in passes if p["timed"] and not p["traced"]]
    attempted = sum(len(p["commands"]) for p in passes)
    reported = {
        "pass_s.median": ("s", statistics.median(walls)),
        "pass_s.tail": ("s", tail(walls)[0]),
        "setup_s.unscaled": ("s", statistics.median(run["setup"][0])),
        "reference_s": ("s", statistics.median(r for p in passes for r in p["references"])),
        "error_rate": ("ratio", failed / attempted),
    }
    fns = [TRAIN_FN.search(first_stdout(passes, k, "train")) for k in ran]
    if all(fns):
        reported["train_fn"] = ("count", sum(int(m[1]) for m in fns))
    if "grid-search" in workload.commands:
        grids = [GRID.search(first_stdout(passes, k, "grid-search")) for k in ran]
        reported["grid_best_fn"] = ("count", sum(int(m[1]) for m in grids if m))
        rates = []
        for p in passes:
            for rec in p["commands"]:
                found = GRID.search(rec["stdout"]) if rec["command"] == "grid-search" else None
                if p["timed"] and not p["traced"] and found:
                    rates.append(int(found[2]) / rec["wall"])
        reported["grid_cells_per_s"] = ("1/s", statistics.median(rates) if rates else 0.0)
    return reported


def end_to_end(run: dict, sizes: list[dict]) -> dict[str, float]:
    walls = [hostspeed.scaled(p["wall"], p["references"])
             for p in run["result"]["passes"] if p["timed"]]
    median = statistics.median(walls)
    candidates = sum(s["candidates"] for s in sizes)
    positives = sum(s["positives"] for s in sizes)
    return {
        "setup_s": hostspeed.scaled(statistics.median(run["setup"][0]), run["setup"][1]),
        "scaled_pass_s.median": median,
        "scaled_pass_s.tail": tail(walls)[0],
        "peak_rss_mb": run["usage"].ru_maxrss / 1024.0,
        "branches_per_s": candidates / len(sizes) / median,
        "reduction_pct": 100.0 * (1.0 - positives / candidates) if candidates else 0.0,
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    import tracing

    traced = [p for p in passes if p["traced"]]
    values = {m: statistics.median(p["layers"][m] for p in traced)
              for m in tracing.LAYER_METRICS if m != "trace.overhead_s"}
    # Each step runs one corpus once traced and once untraced.
    pairs: dict[int, dict[bool, float]] = {}
    for p in passes:
        if p["timed"]:
            pairs.setdefault(p["step"], {})[p["traced"]] = p["wall"]
    values["trace.overhead_s"] = statistics.median(
        pair[True] - pair[False] for pair in pairs.values() if len(pair) == 2)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, spans: str | None) -> dict:
    workload = WORKLOADS[name]
    run = measure(workload, seed, seconds, trace, spans)
    passes = run["result"]["passes"]
    failed = failures(passes, run["problems"])
    for (i, command), reason in sorted(failed.items())[:10]:
        print(f"FAILED pass {i} {command}: {reason}", file=sys.stderr)
    sizes = input_sizes(passes, run["ran"], run["labels"])

    if trace:
        import tracing

        units = tracing.LAYER_METRICS
        values = per_layer(passes)
    else:
        units = END_TO_END
        values = end_to_end(run, sizes)
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in units.items()}

    walls = [p["wall"] for p in passes if p["timed"] and not p["traced"]]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": run["result"]["numpy"],
        "blas": run["result"]["blas"],
        "nproc": len(os.sched_getaffinity(0)),
        "load_model": "closed loop, one process, one pass at a time",
        "passes": {"timed": len(walls), "total": len(passes), "tail_percentile": tail(walls)[1]},
        "inputs": sizes,
        "unwrapped_entry_points": sorted({m for p in passes for m in p.get("missing", ())}),
    }
    for metric, body in metrics.items():
        print(f"{name:8s} {metric:36s} {body['value']:.6g} {body['unit']}")
    for metric, (unit, value) in reported_metrics(workload, run, len(failed)).items():
        print(f"{name:8s} {metric:36s} {value:.6g} {unit}  (reported, not gated)")
    print("record " + json.dumps(record, sort_keys=True))
    return {"correct": not failed, "attempted": sum(len(p["commands"]) for p in passes),
            "failed": len(failed), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, also write every span as JSON lines here")
    args = parser.parse_args(argv)

    if not (SRC / "attackdag" / "cli.py").is_file() or not (ROOT / "data" / "corpus.json").is_file():
        print(f"error: {ROOT} holds no attackdag sources (src/attackdag) and data/",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.spans)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
