"""README's library example and command lines run as printed, its
scenario block is the default scenario, and the names it quotes exist, so
none can drift from the code."""

import contextlib
import importlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from uavrelay.cli import DEFAULT_SCENARIO, main

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


def test_quoted_names_exist():
    # A snake_case name in backticks is a scenario section or field, a name
    # in one of the package's modules, or a test.
    names = {name for name in re.findall(r"`([a-z0-9_]+)`", README.read_text(encoding="utf-8")) if "_" in name}
    names -= set(DEFAULT_SCENARIO)
    names -= {key for section in DEFAULT_SCENARIO.values() if isinstance(section, dict) for key in section}
    for module in ["cli", "channel", "outage", "optimizer", "specfun", "mcsim", "_arrays"]:
        names -= set(dir(importlib.import_module(f"uavrelay.{module}")))
    tests = "".join(path.read_text(encoding="utf-8") for path in README.parent.glob("tests/test_*.py"))
    assert {name for name in names if f"def {name}(" not in tests} == set()


def test_command_lines_run(tmp_path, capsys):
    # Each example line runs with scenario.json holding README's scenario block.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```sh\n(.*?)^```", text.split("## Command line\n", 1)[1], re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("uavrelay ")]
    assert [line.split()[1] for line in lines] == ["solve", "sweep-alpha", "sweep-power", "validate"]
    [scenario] = re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
    path = tmp_path / "scenario.json"
    path.write_text(scenario, encoding="utf-8")
    for line in lines:
        argv = [str(path) if arg == "scenario.json" else arg for arg in shlex.split(line)[1:]]
        assert main(argv) == 0, line
        captured = capsys.readouterr()
        assert captured.err == ""
        table = [row for row in captured.out.splitlines() if not row.startswith("#")]
        assert len(table) > 1 and all(row.count(",") == table[0].count(",") for row in table), line
