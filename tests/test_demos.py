"""Every demo runs to completion and prints what it printed when its output
was recorded, byte for byte."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_roots_of_unity.py":
        "f618ee12b76f8372b5895faac356ee61a647ea412d22d82d0c7605a0f3443ba0",
    "02_walsh_spectra.py":
        "9fa83953645ff21174c16504a89189d09bc75d90802e39e8e386487fa82ab920",
    "03_constructions.py":
        "65216022c086347ddc69ee42f2bb54300c3a402f3ff1dd207cf559e0f4227029",
    "04_decision_engine.py":
        "7d1df102eae2fdd76527a044a5e9eb70ec73112aa604077e6c6a477120346038",
    "05_exhaustive_census.py":
        "5f17f7baf07e3dc377dc652730c0f7b97716856457d890eadf84efe66a2e7ad8",
    "06_reference_tables.py":
        "9ae8ffb6feb6cbd91ccad5ec633a17e2aa465891735bf567481c3fe62a3de9a5",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.name]
