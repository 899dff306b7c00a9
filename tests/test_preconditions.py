"""The scenario runner validates each input once.

`globalize`, `to_hopf`, `to_group` and `coaction_globalize` are plain
constructions.  The runner checks their inputs against the precondition
table in `scenarios.py`, rejects an input whose precondition lines do not
all pass, and lets a scenario's own check of that input reuse the lines.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from mhopf import cli, coactions, group_actions, partial_actions
from mhopf.scenarios import ScenarioError, load_scenario, run_scenario

BENCH = Path(__file__).resolve().parents[1] / "scenario_bench"

BATTERIES = [
    (partial_actions, "check_partial_action"),
    (partial_actions, "check_symmetric"),
    (group_actions, "check_pga"),
    (group_actions, "check_sigma_conditions"),
    (coactions, "check_partial_coaction"),
]


@pytest.fixture
def calls(monkeypatch):
    """Counts the calls of every precondition battery."""
    counts = Counter()
    for module, name in BATTERIES:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


PGA_ONCE = {"check_pga": 1, "check_sigma_conditions": 1,
            "check_partial_action": 1, "check_symmetric": 1}


@pytest.mark.parametrize("scenario, want", [
    ("pga_C6_full", PGA_ONCE),
    ("envelope_fN_C6", {"check_partial_action": 1, "check_symmetric": 1}),
    ("coaction_C6", {"check_partial_coaction": 1}),
])
def test_each_battery_runs_once(calls, scenario, want):
    path = BENCH / "scenarios" / f"{scenario}.json"
    report = run_scenario(load_scenario(path.read_text(), name=scenario))
    assert report.to_json() == (BENCH / "goldens" / f"{scenario}.json").read_text()
    assert dict(calls) == want


def test_windowless_battery_runs_once_under_a_window(calls):
    # `pga` and `sigma_conditions` read no window: the to_hopf precondition
    # (run without one) and the scenario's own checks share their lines
    path = BENCH / "scenarios" / "pga_C6_full.json"
    report = run_scenario(load_scenario(path.read_text()), window=2)
    assert report.outcome() == "pass"
    assert dict(calls) == PGA_ONCE


def _doc(base, name, structures=(), checks=None):
    doc = json.loads((BENCH / "scenarios" / f"{base}.json").read_text())
    doc["name"] = name
    doc["structures"] += list(structures)
    if checks is not None:
        doc["checks"] = checks
    return doc


ALPHA = "input 'M' rejected: pga:M.alpha_multiplicative, pga:M.composition"

REJECTED = [
    (_doc("pga_C6_full_alpha", "alpha_to_hopf",
          [{"id": "Q", "type": "action", "constructor": "to_hopf", "pga": "M"}], []),
     "building 'Q' failed: " + ALPHA),
    (_doc("pga_C6_full_alpha", "alpha_roundtrip",
          checks=[{"check": "pga_roundtrip", "target": "M"}]),
     "check 'pga_roundtrip' failed to run: " + ALPHA),
    (_doc("coaction_C8_e_scale", "e_scale_coenvelope",
          [{"id": "env", "type": "coenvelope", "coaction": "B"}]),
     "building 'env' failed: input 'B' rejected: partial_coaction:B.e_multiplier, "
     "partial_coaction:B.coassoc_covered, partial_coaction:B.coassoc_covered_symmetric, "
     "partial_coaction:B.e_absorbs_rho"),
    (json.loads((BENCH / "pending" / "envelope_fN_S4.json").read_text()),
     "building 'env' failed: input 'P' rejected: partial_action:P.local_units"),
]


@pytest.mark.parametrize("doc, message", REJECTED, ids=[d["name"] for d, _ in REJECTED])
def test_rejected_input_names_its_lines(doc, message):
    with pytest.raises(ScenarioError) as exc:
        run_scenario(doc)
    assert str(exc.value) == f"{doc['name']}: {message}"


@pytest.mark.parametrize("doc, message", REJECTED, ids=[d["name"] for d, _ in REJECTED])
def test_rejected_input_exits_3(tmp_path, capsys, doc, message):
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
