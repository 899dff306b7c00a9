"""Top-level acceptance battery.

One test per headline guarantee; each prints a single summary line so a
plain run reads as a checklist.  Every assertion is exact rational
equality; nothing here is statistical.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mhopf.algebras import group_algebra_plain
from mhopf.coactions import (
    check_coglobalization,
    check_partial_coaction,
    check_quasi_counitary,
    coaction_globalize,
    trivial_coaction,
)
from mhopf.groups import alternating_elements, parse_group
from mhopf.homr import (
    check_convolution,
    check_convolutive_inverse,
    check_module_algebra,
)
from mhopf.group_actions import (
    check_globalizability,
    check_pga,
    check_sigma_conditions,
    roundtrip_check,
    subset_translation_pga,
    to_hopf,
)
from mhopf.mha import check_mha_axioms, instance_for, mutate_instance
from mhopf.partial_actions import (
    central_idempotent_projection,
    check_enveloping,
    check_minimal,
    check_partial_action,
    check_symmetric,
    compare_envelopes,
    example_fN,
    global_AG_on_kG,
    globalize,
    induce_from_projection,
    junk_globalization,
)
from mhopf.scenarios import _random_hom_samples
from mhopf.vectors import FinVec

F = Fraction
CLI = [sys.executable, "-m", "mhopf.cli"]


def report(n, ok, text):
    print(f"[PRIMARY {n}] {'PASS' if ok else 'FAIL'} {text}")
    assert ok, text


def all_pass(results):
    return all(r.outcome == "pass" for r in results)


def test_primary_1_axiom_suite_and_mutations():
    started = time.monotonic()
    suite = [
        ("A_G", "cyclic:2"), ("A_G", "cyclic:4"), ("A_G", "symmetric:3"),
        ("kG", "cyclic:2"), ("kG", "symmetric:3"),
    ]
    ok = True
    for kind, spec in suite:
        inst = instance_for(kind, parse_group(spec))
        ok = ok and all_pass(check_mha_axioms(inst))
    AG_S3 = instance_for("A_G", parse_group("symmetric:3"))
    for kind in ("delta", "counit", "antipode"):
        bad = mutate_instance(AG_S3, kind)
        ok = ok and any(r.outcome == "fail" for r in check_mha_axioms(bad))
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    report(1, ok, f"axiom suite on 5 instances exhaustive, "
                  f"3 mutations each caught, {elapsed:.2f}s < 10s")


def test_primary_2_convolution_algebra():
    S3 = parse_group("symmetric:3")
    source = instance_for("A_G", S3)
    target = group_algebra_plain(S3)
    samples = _random_hom_samples(random.Random(11), source, target, 5)
    assoc, paths = check_convolution(source, target, samples)
    module = check_module_algebra(source, target, samples=samples)
    ok = (assoc.outcome == "pass" and assoc.details["triples"] >= 100
          and paths.outcome == "pass" and all_pass(module))
    report(2, ok, f"convolution associative on {assoc.details['triples']} "
                  "random triples, closed path == coverage path, "
                  "module-algebra law on all basis pairs")


def test_primary_3_convolutive_inverse():
    AC4 = instance_for("A_G", parse_group("cyclic:4"))
    kC2 = instance_for("kG", parse_group("cyclic:2"))
    ident = lambda t: FinVec.basis(t)
    ok = True
    for M in (AC4, kC2):
        for a in M.algebra.basis:
            res = check_convolutive_inverse(M, M.antipode, ident, [a])
            ok = ok and res.outcome == "pass"
    non_identity = [a for a in AC4.algebra.basis if a != 0]
    swapped = check_convolutive_inverse(AC4, ident, ident, non_identity)
    ok = ok and swapped.outcome == "fail"
    witness_toks = {w["a"].support()[0] for w in swapped.witnesses}
    ok = ok and witness_toks <= {1, 3} and len(witness_toks) >= 1
    report(3, ok, "antipode inverts identity per basis element on both "
                  "instances; identity candidate fails over the "
                  "non-identity set with non-involution witnesses")


def test_primary_4_corner_action_reproduction():
    S3 = parse_group("symmetric:3")
    P = example_fN(S3, alternating_elements(3))
    corner = P.aux["corner"]
    kG = corner.ambient
    f = P.aux["idempotent"]
    proj = central_idempotent_projection(global_AG_on_kG(S3), f)
    induced = induce_from_projection(proj)
    pairs = 0
    ok = True
    for a in S3.elements:
        for x in P.algebra.basis:
            ok = ok and induced.act(a, x) == P.act(a, x)
            pairs += 1
    swap01, swap02 = (1, 0, 2), (2, 1, 0)
    fN = lambda g: corner.project(kG.mul(f, FinVec.basis(g)))
    specific = P.act_vec(FinVec.basis(swap01), fN(swap02))
    ok = ok and specific == fN(swap01).scale(F(1, 3))
    battery = check_partial_action(P) + check_symmetric(P)
    ok = ok and all_pass(battery)
    report(4, ok, f"induced action matches on all {pairs} pairs, "
                  "transposition value is (1/3) of the moved corner unit, "
                  "defining battery passes")


def test_primary_5_globalization_theorem(relabel):
    S3 = parse_group("symmetric:3")
    P = example_fN(S3, alternating_elements(3))
    env = globalize(P)
    ok = all_pass(check_enveloping(env))
    for a in S3.elements:
        for x in P.algebra.basis:
            lhs = env.theta(P.act(a, x))
            rhs = env.pi(env.act_vec(FinVec.basis(a), env.theta_map[x]))
            ok = ok and lhs == rhs
    ok = ok and check_minimal(env).outcome == "pass"
    junk = junk_globalization(P)
    ok = ok and check_minimal(junk).outcome == "fail"
    cmp_junk = {r.name: r for r in compare_envelopes(junk, env)}
    ok = ok and cmp_junk["injective"].outcome == "fail"
    twin = relabel(env, lambda t: ("twin", t))
    ok = ok and all_pass(compare_envelopes(env, twin))
    report(5, ok, "envelope battery and minimality pass, junk summand "
                  "caught with nonzero kernel, isomorphic envelopes "
                  "matched bijectively")


def test_primary_6_group_side_bijection():
    S3 = parse_group("symmetric:3")
    C4 = parse_group("cyclic:4")
    P = subset_translation_pga(S3, ((0, 1, 2), (1, 0, 2), (1, 2, 0)))
    ok = all_pass(check_pga(P) + check_sigma_conditions(P)
                  + check_globalizability(P))
    Q = to_hopf(P)
    ok = ok and all_pass(check_partial_action(Q) + check_symmetric(Q))
    ok = ok and all_pass(roundtrip_check(P))
    full = subset_translation_pga(C4, C4.elements)
    for g in C4.elements:
        for t in full.algebra.basis:
            v = FinVec.basis(t)
            ok = ok and full.sigma[g].apply_left(v) == v
            ok = ok and full.sigma[g].apply_right(v) == v
    report(6, ok, "corner-pair batteries pass, induced module algebra "
                  "verified, roundtrip exact, global case has identity "
                  "range multipliers")


def test_primary_7_coaction_globalization():
    S3 = parse_group("symmetric:3")
    AG = instance_for("A_G", S3)
    from mhopf.algebras import Corner, subgroup_average_idempotent

    kG = group_algebra_plain(S3)
    corner = Corner(kG, subgroup_average_idempotent(kG, alternating_elements(3)),
                    name="cornerA3")
    C = trivial_coaction(corner.algebra, AG, FinVec.basis(S3.identity))
    ok = all_pass(check_partial_coaction(C))
    ok = ok and all_pass(check_quasi_counitary(AG, FinVec.basis(S3.identity)))
    for g in S3.elements:
        if g == S3.identity:
            continue
        bad = check_quasi_counitary(AG, FinVec.basis(g))
        ok = ok and any(r.outcome == "fail" for r in bad)
    env = coaction_globalize(C, FinVec.basis(S3.identity))
    results = check_coglobalization(env)
    ok = ok and all_pass(results)
    ok = ok and "e_projection" in {r.name for r in results}
    report(7, ok, "trivial coaction battery passes, quasi-counitary "
                  "accepts only the identity token, coenvelope passes "
                  "every line including the E-projection equation")


def test_primary_8_cli_determinism_and_exit_codes():
    def run(*args):
        return subprocess.run(CLI + list(args), capture_output=True, text=True)

    a = run("run", "coaction_trivial", "--seed", "3")
    b = run("run", "coaction_trivial", "--seed", "3")
    ok = a.stdout.encode() == b.stdout.encode() and a.returncode == 0
    ok = ok and json.loads(a.stdout)["seed"] == 3
    ok = ok and run("run", "mha_axioms").returncode == 0
    ok = ok and run("run", "mutation_antipode").returncode == 1
    ok = ok and run("run", "quasi_unitary_cap").returncode == 2
    report(8, ok, "byte-identical reports for equal seeds; exit codes "
                  "0/1/2 hit by pass, fail, and capped-search fixtures")
