"""Runs one workload's passes in a fresh process.

    python3 perfbench/worker.py CONFIG.json

The config names the workload, its input instances, the seconds to measure
and whether passes are traced; the worker writes its records to the
config's "result" path.  run.py starts it and reads the result, so the
worker's peak memory belongs to this workload alone.

Schedule: one untimed warm-up pass on instance 0, then steps that cycle
through the instances in order, one pass each (an untraced and a traced
one when tracing), until the next step would overrun the measured seconds.
Each pass also times the host-speed reference before every command and
after the last (outside the command times).  Output checks happen in run.py.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from attackdag.cli import main  # noqa: E402

import hostspeed  # noqa: E402
from workloads import OUTPUTS, WORKLOADS, Inputs, argv, artifact_bytes  # noqa: E402


def run_pass(commands, inputs: Inputs, out: Path, tracer=None) -> dict:
    """Run one pass; the reference computation runs before each command and after the last."""
    records = []
    references = [hostspeed.reference()]
    for name in commands:
        call = main if tracer is None else tracer.wrap(f"cli:{name}", main)
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = call(argv(name, inputs, out))
        except Exception as exc:  # a failed operation is recorded, not fatal
            error = f"{type(exc).__name__}: {exc}"
        records.append({"command": name, "wall": perf_counter() - t0, "code": code,
                        "error": error or stderr.getvalue().strip()[:500],
                        "stdout": stdout.getvalue()})
        references.append(hostspeed.reference())
    wall = sum(rec["wall"] for rec in records)
    for rec in records:
        digest = hashlib.sha256(rec["stdout"].encode("utf-8"))
        for filename in OUTPUTS[rec["command"]]:
            path = out / filename
            digest.update(artifact_bytes(path) if path.exists() else b"<missing>")
        rec["digest"] = digest.hexdigest()
    return {"wall": wall, "references": references, "commands": records}


def blas_info() -> dict:
    """BLAS library and its thread count, read from the loaded OpenBLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def main_worker(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    workload = WORKLOADS[config["workload"]]
    instances = [(Inputs(**{k: Path(v) for k, v in inst["inputs"].items()}), Path(inst["out"]))
                 for inst in config["instances"]]
    traced = bool(config["trace"])
    if traced:
        import tracing  # only traced runs load the wrappers

    passes = []
    spans = []

    def one(k: int, step: int, with_trace: bool) -> None:
        inputs, out = instances[k]
        if with_trace:
            tracer = tracing.Tracer(len(passes))
            with tracing.installed(tracer):
                record = run_pass(workload.commands, inputs, out, tracer)
            record["layers"] = tracing.layer_metrics(tracer)
            record["missing"] = tracer.missing
            spans.extend(tracer.records())
        else:
            record = run_pass(workload.commands, inputs, out)
        record.update(instance=k, step=step, timed=step >= 0, traced=with_trace)
        passes.append(record)

    # A traced step runs its corpus twice, untraced and traced, in an order
    # that alternates so neither side always runs second.
    orders = ((False, True), (True, False)) if traced else ((False,), (False,))
    one(0, -1, with_trace=False)
    begin = perf_counter()
    for step in itertools.count():
        step_start = perf_counter()
        for with_trace in orders[step % 2]:
            one(step % len(instances), step, with_trace)
        now = perf_counter()
        if now - begin + (now - step_start) > config["seconds"]:
            break

    result = {"passes": passes, "blas": blas_info(), "numpy": np.__version__}
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")
    if config.get("spans"):
        Path(config["spans"]).write_text(
            "".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main_worker(sys.argv[1]))
