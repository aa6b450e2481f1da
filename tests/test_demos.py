"""Golden stdout of the scripts in demos/, pinned by sha256.

Each demo runs in a fresh interpreter with src/ on the path; its exit code
must be 0 and the sha256 of its stdout must equal the value recorded before
decompose and build_skeleton moved to the standardization edge rule. Demos
01, 03 and 04 go through decompose, build_skeleton and skeleton_stable.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = {
    "01_crystals_and_descent_classes.py":
        "397e2362afd73fd1cf3540a1f8d2f33dc7bd7942d3efaf727002db3cf8d8a0c7",
    "02_counting_and_kostka.py":
        "eea1fee5f306d076db7f37d15c68ec8a792a360f207bdab4063c96d994e49284",
    "03_evacuation_duality.py":
        "7411c153d1c046eff6cb9cb8a62026bddb84f32a0683300fe32854396c667584",
    "04_skeleton_and_dual_equivalence.py":
        "c8003b8bc18e018774fd3d3f9239b42d1ba6bd8e4494debee445935a9b67abcc",
    "05_schur_expansion_roundtrip.py":
        "0c63caec44ff1553160c0bb9027ba9bcf0d58bef57eec4ab8857fbaa34e0df68",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_stdout_is_byte_identical(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == GOLDEN[name]
