"""Pinned failing verdicts of the envelope, projection and convolution
law batteries.

No bundled scenario or failure snapshot makes `env_module_law`,
`env_product_law`, `pi_a_projection`, the two projection identities of
`check_a_projection`, `conv_associative`, `action_product_law` or
`symmetric_product_law` fail.  Each mutant below breaks
some of them, and its full battery output (verdicts, witnesses in their
order, details) is compared with the JSON under `data/law_witnesses`, so
that a change to how a battery loops or caches cannot reorder or alter
what it reports.  Each mutant is built by `_replace` on a lawful
structure, from a noncentral idempotent, or by swapping `homr.conv_mul`.
"""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from mhopf import homr
from mhopf.algebras import group_algebra_plain
from mhopf.groups import alternating_elements, symmetric_group
from mhopf.mha import instance_for
from mhopf.partial_actions import (
    central_idempotent_projection,
    check_a_projection,
    check_enveloping,
    check_partial_action,
    check_symmetric,
    example_fN,
    global_AG_on_kG,
    globalize,
)
from mhopf.scenarios import _random_hom_samples
from mhopf.vectors import FinVec

ROOT = pathlib.Path(__file__).parent / "data" / "law_witnesses"


def s3_envelope():
    S3 = symmetric_group(3)
    return globalize(example_fN(S3, alternating_elements(3)))


def doubled_act():
    """a |> v doubled: the module law fails, the product law finds no cover."""
    G = s3_envelope()
    return check_enveloping(G._replace(act=lambda a, t: G.act(a, t).scale(2)))


def doubled_pi():
    """pi doubled: pi_a_projection and theta_pi_equivalence fail."""
    G = s3_envelope()
    return check_enveloping(G._replace(pi_rule=lambda v: G.pi_rule(v).scale(2)))


def collapsed_slice():
    """One acting token sends its own slice onto one target token: an
    idempotent map, so the module law holds, but not a product map."""
    G = s3_envelope()
    a0, t0 = G.action.instance.basis_window()[1], G.action.algebra.basis[0]

    def act(a, tok):
        if a == a0 and tok[0] == a0:
            return FinVec.basis((a0, t0))
        return G.act(a, tok)

    return check_enveloping(G._replace(act=act))


def doubled_token_act():
    """One acting token acts twice as strongly: the product laws of both
    handednesses fail, since that token is not the whole coproduct."""
    P = example_fN(symmetric_group(3), alternating_elements(3))
    a0 = P.instance.basis_window()[1]

    def act(a, t):
        return P.act(a, t).scale(2) if a == a0 else P.act(a, t)

    Q = P._replace(act=act)
    return check_partial_action(Q) + check_symmetric(Q)


def noncentral_projection():
    """Multiplication by a noncentral idempotent of kS3: both projection
    identities of `check_a_projection` fail."""
    S3 = symmetric_group(3)
    idem = (FinVec.basis(S3.identity) + FinVec.basis((1, 0, 2))).scale(Fraction(1, 2))
    return check_a_projection(central_idempotent_projection(global_AG_on_kG(S3), idem))


def skewed_convolution(monkeypatch):
    """F * G replaced by F * G + F, which is not associative."""
    exact = homr.conv_mul
    monkeypatch.setattr(homr, "conv_mul", lambda M, R, F, G: exact(M, R, F, G) + F)
    S3 = symmetric_group(3)
    source, target = instance_for("A_G", S3), group_algebra_plain(S3)
    samples = _random_hom_samples(random.Random(5), source, target, 5)
    # the `conv_associative` line; `conv_paths_agree` fails as well
    return homr.check_convolution(source, target, samples)[:1]


MUTANTS = {
    "doubled_act": doubled_act,
    "doubled_pi": doubled_pi,
    "collapsed_slice": collapsed_slice,
    "doubled_token_act": doubled_token_act,
    "noncentral_projection": noncentral_projection,
}


def render(results) -> str:
    return json.dumps([r.to_dict() for r in results], indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_matches_pin(name):
    assert render(MUTANTS[name]()) == (ROOT / f"{name}.json").read_text()


def test_skewed_convolution_matches_pin(monkeypatch):
    results = skewed_convolution(monkeypatch)
    assert results[0].outcome == "fail"
    assert render(results) == (ROOT / "skewed_convolution.json").read_text()


@pytest.mark.parametrize("name, law", [
    ("doubled_act", "env_module_law"),
    ("collapsed_slice", "env_product_law"),
    ("doubled_pi", "pi_a_projection"),
    ("doubled_token_act", "action_product_law"),
    ("doubled_token_act", "symmetric_product_law"),
    ("noncentral_projection", "a_projection_identity"),
    ("noncentral_projection", "symmetric_projection_identity"),
])
def test_each_law_has_a_failing_pin(name, law):
    pinned = json.loads((ROOT / f"{name}.json").read_text())
    by_name = {line["name"]: line for line in pinned}
    assert by_name[law]["outcome"] == "fail"
    assert by_name[law]["witnesses"]
