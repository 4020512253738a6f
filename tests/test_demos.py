"""Every narrative demo, and every Python example in the README, runs to
completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$",
                             (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    result = run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]


def test_readme_examples_found():
    assert README_EXAMPLES


@pytest.mark.parametrize("code", README_EXAMPLES,
                         ids=[f"example{i}" for i in range(len(README_EXAMPLES))])
def test_readme_example_exits_0(code, tmp_path):
    result = run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]
