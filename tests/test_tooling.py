import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # pytest does not collect perfbench/selftest.py by default; it guards the API names perfbench traces
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
