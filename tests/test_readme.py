"""README's library example runs as printed and its scenario block is the
default scenario, so neither can drift from the code."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from uavrelay.cli import DEFAULT_SCENARIO

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    alpha, outage, baseline = map(float, out.getvalue().split())
    # The reference parameters of the solve_paper golden, whose exact row
    # reads alpha 0.1473229551 and outage 8.5057e-05 against 2.2821e-04.
    assert alpha == pytest.approx(0.1473229551, abs=1e-9)
    assert outage == pytest.approx(8.505655790331e-05, rel=1e-9)
    assert baseline == pytest.approx(2.282111338607e-04, rel=1e-9)


def test_scenario_block_is_the_default_scenario():
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    # Serialized, so key order and int-versus-float must match as well.
    assert json.dumps(json.loads(blocks[0])) == json.dumps(DEFAULT_SCENARIO)
