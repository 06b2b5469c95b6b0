"""Every script in demos/ runs to completion and reports a clean result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path, tmp_path) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("EXPORDER_SEED", None)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_demo_is_covered():
    assert {d.name for d in DEMOS} == {
        "gamma_races.py",
        "identity_sweep.py",
        "limit_experiments.py",
        "sampler_equivalence.py",
    }


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    out = _run(demo, tmp_path)
    lines = out.splitlines()
    if demo.stem == "identity_sweep":
        assert "identical    : True" in lines
        assert any(line.startswith("suite: ") and line.endswith(" 0 mismatches") for line in lines)
    elif demo.stem == "limit_experiments":
        assert lines[-1].endswith("-> 0 violations")
    elif demo.stem == "sampler_equivalence":
        verdicts = [line.split()[-1] for line in lines if line.endswith(("pass", "fail"))]
        assert verdicts and "fail" not in verdicts
    else:
        assert "chunked estimation" in out
