"""The demos run cleanly and print exactly the bytes they printed before.

Each demo is run as a script in a fresh interpreter.  The digests are of
its standard output; a refactor must leave them unchanged.  A different
numpy or scipy build may move printed floats and needs them re-recorded.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: sha256 of each demo's stdout.
DEMO_STDOUT_SHA256 = {
    "01_dsp_primitives.py":
        "0f14d7687f1d3b76f445d5aa58aa0ab369df3bf318092c6c57edddbfa7ac5801",
    "02_vocal_pipeline.py":
        "9f409ea13d8a0cf71604d4cc6a1de8c8ed6bd0fcbb93db00cc16e6d3ece12e98",
    "03_motion_pipeline.py":
        "3feee297600cc7eed015e7a7841280166206be81cc370e9af4b2b487ed6e02ba",
    "04_engagement_apps.py":
        "e9140e44941dc5a83cd740a8ba845de8080ec7ae1d5beefa680ded00d6d9276b",
    "05_filtering_ablation.py":
        "7049af7afb34e62bd109d26152ff34934ebae9ab4bb7a9b1aab5d92bc3ba8430",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(
        DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_prints_its_recorded_bytes(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
