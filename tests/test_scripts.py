import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_examples_exits_zero():
    assert "verified    True" in run_script("run_examples.py")


def test_run_large_instance_float64_exits_zero():
    # the rational run (about 4.5 s) is left to the script's own users
    out = run_script("run_large_instance.py", "--arithmetic", "float64")
    assert "verified  True" in out
