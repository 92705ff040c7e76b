"""The bundled run reproduces the tracked out/ artifacts byte for byte.

The nine commands are the ones scripts/run_pipeline.py runs, pointed at a
temporary directory instead of out/.
"""

import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TRACKED = REPO / "out"
IDENTICAL = ("candidates.csv", "model.json", "predictions.csv", "paths.json")
_TIMESTAMP = re.compile(rb'\n *"timestamp": "[^"]*",?')


def _without_timestamp(data: bytes) -> bytes:
    stripped, count = _TIMESTAMP.subn(b"", data, count=1)
    assert count == 1, "report has no run timestamp"
    return stripped


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    spec = importlib.util.spec_from_file_location(
        "run_pipeline", REPO / "scripts" / "run_pipeline.py")
    pipeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pipeline)
    pipeline.OUT = tmp_path_factory.mktemp("golden")
    assert pipeline.main_script() == 0
    return pipeline.OUT


@pytest.mark.parametrize("name", IDENTICAL)
def test_artifact_byte_identical(rerun, name):
    assert (rerun / name).read_bytes() == (TRACKED / name).read_bytes()


def test_report_identical_except_timestamp(rerun):
    got = _without_timestamp((rerun / "report.json").read_bytes())
    assert got == _without_timestamp((TRACKED / "report.json").read_bytes())
