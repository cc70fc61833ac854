"""The demos print the recorded bytes, and the README's code runs.

Each script in demos/ runs in a fresh working directory with the package
sources on PYTHONPATH, and its stdout must equal demos/expected/<name>.txt.
A deliberate output change re-records that file. Each ```python block of
README.md runs in a fresh interpreter from the repository root, as its
paths are relative to it, and must exit 0.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def test_every_demo_has_a_record():
    assert DEMOS
    assert ({d.stem for d in DEMOS}
            == {e.stem for e in (ROOT / "demos" / "expected").glob("*.txt")})


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_matches_record(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    expected = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()
    assert run.stdout == expected


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{n}" for n in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
