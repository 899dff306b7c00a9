"""Every benchmark scenario, run in process, gives its golden report.

The benchmark compares each `mhopf run <scenario>` report byte for byte
with `scenario_bench/goldens/<scenario>.json`, and each exit code with
`goldens/exit_codes.json`.  This runs the same comparison through
`cli.main`, so a verdict or witness change fails the test suite, not only
the benchmark.
"""

import json
import pathlib

import pytest

from mhopf import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "scenario_bench"
NAMES = sorted(p.stem for p in (BENCH / "scenarios").glob("*.json"))
EXIT_CODES = json.loads((BENCH / "goldens" / "exit_codes.json").read_text())


def test_every_scenario_has_a_golden():
    assert NAMES
    assert sorted(EXIT_CODES) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_report_and_exit_code_match_golden(name, capsys):
    code = cli.main(["run", str(BENCH / "scenarios" / f"{name}.json")])
    out = capsys.readouterr().out
    assert out == (BENCH / "goldens" / f"{name}.json").read_text()
    assert code == EXIT_CODES[name]
