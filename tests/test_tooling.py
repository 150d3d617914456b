import json
import os
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


def test_cli_exit_codes_reach_the_process(tmp_path):
    # `python -m chantrack.cli` exits through entry() and sys.exit with main()'s code
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"lower": [0.0], "upper": [1.0], "cells": [2]}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for argv, code, printed in (
        (["oracle-check", "--scenarios", "2"], 0, "oracle-check: max belief error"),
        (["experiment", "--config", str(bad), "--out", str(tmp_path / "out")], 2, "config error: missing field"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "chantrack.cli", *argv], env=env, capture_output=True, text=True, timeout=600
        )
        assert proc.returncode == code, proc.stdout[-4000:] + proc.stderr[-4000:]
        assert printed in proc.stdout + proc.stderr
