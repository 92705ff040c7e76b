#!/usr/bin/env python3
"""SHA-256 digests of every artifact and every standard output of a full pass,
on the bundled data and on perfbench's four seed-1 `scale` corpora.

    python3 scripts/artifact_digests.py

For the bundled `data/` directory and for each `scale` corpus (generated
with `perfbench/gen.py`), runs `ingest`, `attrs`, `negatives`, `train`,
`predict`, `paths`, `csp`, `eval --baselines`, `grid-search` and `report`
in-process, with the argv perfbench uses.  It prints one line per artifact
and one per command's standard output, `<corpus> <name> <sha256>`.
`report.json` is digested less its run timestamp.  In standard output the
working directory's path (which holds the outputs and the generated
corpora) and the checkout's path are replaced by fixed tokens, since
`negatives` and `report` print where they wrote.  So two checkouts print
the same lines exactly when they behave the same: run this script from
each under the same BLAS thread count (`scale` decisions depend on it) and
diff the outputs.  The working directory is a temporary one, removed
afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from attackdag.cli import main  # noqa: E402
from workloads import COMMANDS, OUTPUTS, WORKLOADS, Inputs, argv, artifact_bytes  # noqa: E402

SEED = 1


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus_lines(name: str, inputs: Inputs, out: Path, work: Path) -> list[str]:
    """Run every command on one corpus; its artifact and stdout digest lines."""
    out.mkdir(parents=True)
    lines = []
    for command in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv(command, inputs, out))
        if code != 0:
            sys.exit(f"{name}: {command} exited {code}")
        text = stdout.getvalue().replace(str(work), "<work>").replace(str(ROOT), "<root>")
        lines.append(f"{name} {command}.stdout {digest(text.encode())}")
        for artifact in OUTPUTS[command]:
            lines.append(f"{name} {artifact} {digest(artifact_bytes(out / artifact))}")
    return lines


def run() -> int:
    work = Path(tempfile.mkdtemp(prefix="artifact-digests-"))
    try:
        lines = corpus_lines("bundled", Inputs.in_dir(ROOT / "data"), work / "bundled", work)
        scale = WORKLOADS["scale"]
        for k in range(scale.instances):
            name = f"scale-{SEED}/{k}"
            gen.write(scale.spec, f"{SEED}/{k}", work / f"in{k}")
            lines += corpus_lines(name, Inputs.in_dir(work / f"in{k}"), work / f"out{k}", work)
    finally:
        shutil.rmtree(work)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(run())
