"""The demos run to completion and print what they always printed.

Each ``demos/0*.py`` runs in a child process that finds the package the
suite imported. Its stdout is pinned by sha256; a change in any printed
bound, width or count shows up here. If an intended change moves a demo's
output, rerun the demo, read the new output, and update its hash.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpsynt

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_sif_formats.py": "05aac54272d9e150635c3d247df14b535335300dfe4d60a348820dee6ba19195",
    "02_parse_and_inspect.py": "a73176f22d13294025145d3467a59edf75b9ce767910301946bfb62efb578649",
    "03_synthesize_fir4.py": "de3a56360d598b7992535b4f99b492405194105037ff97fe0536655dcbb3589c",
    "04_optimizations.py": "023f899ef7bbc694376eeb48783cc324e37e208f5a876f10cea1b9e5ba1d5c0b",
    "05_generate_code.py": "527966a9c82355daaefcf6487d0bb9bbea0246a8d640a055432f62a5a98b3332",
    "06_accuracy_study.py": "bfa448a3dc4bba09636e9735274552b90e4372938be5dacb2a14c15245c403ea",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("0*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output(name, tmp_path):
    pkg_root = str(Path(fpsynt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name], proc.stdout.decode()
