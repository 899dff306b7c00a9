"""The immutable records: start-up cost and no state shared between them.

Every record is a `typing.NamedTuple`, so variants come from `._replace`
and no field may hold a mutable default: one default list or dict would be
shared by every record built without that field.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mhopf
from mhopf.algebras import group_algebra_plain
from mhopf.coactions import coaction_globalize, mutate_coaction, trivial_coaction, with_identity_pi
from mhopf.groups import parse_group
from mhopf.mha import instance_for, mutate_instance
from mhopf.reports import CheckResult
from mhopf.scenarios import load_scenario, run_scenario
from mhopf.vectors import FinVec

SRC = Path(mhopf.__file__).resolve().parent


def test_cli_import_loads_no_dataclasses_or_inspect():
    """`import mhopf.cli` pulls in neither `dataclasses` nor `inspect`
    (which brings `dis`, `ast` and `tokenize`): every `mhopf run` pays for
    its imports before any work."""
    code = (
        "import sys; before = set(sys.modules); import mhopf.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') "
        "if m in sys.modules and m not in before))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == []


def test_no_module_imports_dataclasses():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


SCENARIO = """{
  "schema": 1, "name": "records", "seed": 0, "window": null,
  "structures": [
    {"id": "C2", "type": "group", "spec": "cyclic:2"},
    {"id": "AG_C2", "type": "instance", "kind": "A_G", "group": "C2"}
  ],
  "checks": [{"check": "mha_axioms", "target": "AG_C2"}]
}"""


def test_reports_do_not_share_a_checks_list():
    doc = load_scenario(SCENARIO)
    first, second = run_scenario(doc), run_scenario(doc)
    assert first.checks and first.checks is not second.checks
    assert first.to_json() == second.to_json()


def test_passing_verdicts_do_not_share_details():
    one, two = CheckResult.law("a", []), CheckResult.law("b", [])
    assert one.ok() and two.ok()
    assert one.details is not two.details
    assert one.witnesses is not two.witnesses


def _assert_only(before, after, changed):
    """`after` is a `before` of the same type in which only the fields
    named in `changed` were replaced."""
    assert type(after) is type(before)
    for field in before._fields:
        if field in changed:
            assert getattr(after, field) is not getattr(before, field), field
        else:
            assert getattr(after, field) is getattr(before, field), field


@pytest.mark.parametrize("kind, changed", [
    ("antipode", {"name", "antipode", "antipode_inv"}),
    ("counit", {"name", "counit"}),
    ("delta", {"name", "delta_r"}),
])
def test_mutate_instance_replaces_only_its_fields(S3, kind, changed):
    base = instance_for("A_G", S3)
    _assert_only(base, mutate_instance(base, kind), changed)


@pytest.fixture(scope="module")
def global_coaction():
    C4 = parse_group("cyclic:4")
    kC2 = group_algebra_plain(parse_group("cyclic:2"))
    return trivial_coaction(kC2, instance_for("kG", C4), FinVec.basis(C4.identity))


@pytest.mark.parametrize("kind, changed", [
    ("e_scale", {"name", "E"}),
    ("rho_drop", {"name", "rho_r", "rho_l"}),
])
def test_mutate_coaction_replaces_only_its_fields(global_coaction, kind, changed):
    _assert_only(global_coaction, mutate_coaction(global_coaction, kind), changed)


def test_with_identity_pi_replaces_only_name_and_pi(global_coaction):
    G = coaction_globalize(global_coaction, FinVec.basis(0))
    _assert_only(G, with_identity_pi(G), {"name", "pi_rule"})
