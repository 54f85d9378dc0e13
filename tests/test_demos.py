"""The documented examples run: each demo script, the README's library
quick start and the module doctests."""

import contextlib
import doctest
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brmult.rings

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demo_scripts_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_script_runs(script):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    if script.name == "03_generalized_samuel.py":
        # lambda(n) and the Samuel function must agree on every printed n
        assert "!=" not in result.stdout


def test_readme_library_quick_start_prints_its_comment():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = block.rstrip().splitlines()[-1]
    assert expected.startswith("# {")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == expected[2:] + "\n"


def test_rings_doctest():
    result = doctest.testmod(brmult.rings)
    assert result.attempted == 4
    assert result.failed == 0
