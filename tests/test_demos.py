"""The demos that no subcommand covers run standalone from any working
directory; each writes its outputs there."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["spinodal_decomposition", "tumour_growth"])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if demo == "tumour_growth":
        # row 0 describes the initial level, whose flow already dissipates
        lines = (tmp_path / "tumour_diagnostics.csv").read_text().splitlines()
        row0 = [float(v) for v in lines[1].split(",")]
        assert row0[4] > 0.0 and row0[8:] == [0.0, 0.0]
