"""Every demo under demos/ runs to completion from a clean directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exit_zero(tmp_path):
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"{demo.name}:\n{proc.stderr}"
