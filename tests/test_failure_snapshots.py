"""Byte-for-byte snapshots of fail and inconclusive report lines.

The bench goldens cover mostly passing batteries.  These scenarios drive the
failing and inconclusive lines the goldens miss: a junk envelope (minimality,
comparison and envelope battery), coaction mutants on C4 (coenvelope with an
identity projection, a dropped coaction term, a non-counitary element), the
group-side failures (a wrong convolutive inverse, the zero-corner partial
group action), the S3 partial action checked on a one-token window, and
`mha_axioms` on kC6 over a two-token window, where `regular` is
``inconclusive`` because a preimage may lie outside the window, and the
standard envelope of the S3 corner action checked on a one-token window,
where `env_product_law` is ``inconclusive`` because three generators
have no cover inside the window.

``registry_fixtures_S3`` is all passing lines.  It runs the four registry
entries that no other scenario reaches: the ``lambda`` and ``from_global``
action constructors (the latter a global action, a partial action whose
e is the counit), the ``conjugation`` group action constructor, and the
``module_algebra`` check.  ``schema_forms_C4`` is all passing lines too.
It reaches the scenario-schema forms that no other fixture does: the
``functions`` algebra constructor, a corner cut by an explicit idempotent
vector, and a ``[num, den]`` coefficient, in ``convolution`` and
``module_algebra`` checks over C4.

``windowed_fN_S3`` pins today's windowed verdicts, including false failures:
on a partial window the existence and span laws (``e_left_compatibility``,
``nondegenerate``, ``right_span``) report ``fail`` on a lawful action.
``windowed_coaction_trivial`` pins the same kind of false failure on the
coaction path: ``coaction_trivial`` on a two-token window fails
``coglobalization.generation``.  ROADMAP item 1 (windows on infinite
groups, honest windowed verdicts) is expected to rewrite both snapshots.

Each snapshot was recorded before a rewrite of the code it runs (the
verdict path ``CheckResult.law``, the acting windows read from the
instance); a change that alters one must say why.
"""

import pathlib

import pytest

from mhopf.scenarios import load_scenario, run_scenario

ROOT = pathlib.Path(__file__).parent / "data" / "failure_snapshots"
NAMES = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))


def test_every_scenario_has_a_snapshot():
    assert NAMES
    assert NAMES == sorted(p.stem for p in (ROOT / "reports").glob("*.json"))


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_snapshot(name):
    text = (ROOT / "scenarios" / f"{name}.json").read_text()
    report = run_scenario(load_scenario(text, name=name))
    want = (ROOT / "reports" / f"{name}.json").read_text()
    assert report.to_json() == want
