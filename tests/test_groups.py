import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mhopf.errors import StructuralError
from mhopf.groups import (
    alternating_elements,
    closure,
    cyclic_group,
    default_window,
    integers_group,
    is_normal,
    parse_group,
    perm_parity,
    subgroup_elements,
    symmetric_group,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def compose(p, q):
    # independent oracle: apply q first, then p, as functions on points
    return tuple(p[q[i]] for i in range(len(p)))


@pytest.mark.parametrize("n", [3, 4])
def test_symmetric_group_matches_function_composition(n):
    Sn = symmetric_group(n)
    # twice, so the second sweep reads the filled table; the arguments are
    # fresh tuples, equal to the elements but not the same objects
    for _ in range(2):
        for p, q in itertools.product(Sn.elements, repeat=2):
            assert Sn.mul(tuple(p), tuple(q)) == compose(p, q)
    for p in Sn.elements:
        assert Sn.mul(p, Sn.inv(p)) == Sn.identity


def test_cyclic_group_is_addition_mod_n(C4):
    assert sorted(C4.elements) == [0, 1, 2, 3]
    for a, b in itertools.product(C4.elements, repeat=2):
        assert C4.mul(a, b) == (a + b) % 4
        assert C4.inv(a) == (-a) % 4


def test_integers_group_has_no_enumeration():
    Z = integers_group()
    assert not Z.is_finite()
    assert Z.mul(3, -5) == -2
    assert list(default_window(Z, 7)) == sorted(default_window(Z, 7))


def test_perm_parity_counts_inversions():
    assert perm_parity((0, 1, 2)) == 0
    assert perm_parity((1, 0, 2)) == 1
    assert perm_parity((1, 2, 0)) == 0
    assert perm_parity((2, 1, 0)) == 1


def test_alternating_elements_are_the_even_ones(S3):
    a3 = alternating_elements(3)
    assert set(a3) == {p for p in S3.elements if perm_parity(p) == 0}
    assert len(a3) == 3


def test_subgroup_helpers(S3):
    assert subgroup_elements(S3, "trivial") == (S3.identity,)
    assert set(subgroup_elements(S3, "full")) == set(S3.elements)
    assert set(subgroup_elements(S3, "alternating")) == set(alternating_elements(3))
    gen = closure(S3, [(1, 0, 2)])
    assert set(gen) == {S3.identity, (1, 0, 2)}
    assert is_normal(S3, alternating_elements(3))
    assert not is_normal(S3, gen)


def test_generated_subgroup_spec_is_a_json_list(S3):
    C6 = cyclic_group(6)
    assert subgroup_elements(C6, "generated:[2]") == (0, 2, 4)
    assert subgroup_elements(C6, "generated:[2, 3]") == tuple(range(6))
    assert subgroup_elements(S3, "generated:[[1, 0, 2]]") == ((0, 1, 2), (1, 0, 2))


@pytest.mark.parametrize(
    "spec", ["generated:[2", "generated:(2,)", "generated:2"], ids=["unclosed", "tuple", "scalar"]
)
def test_malformed_generated_spec_is_a_structural_error(spec):
    with pytest.raises(StructuralError, match="not a JSON list"):
        subgroup_elements(cyclic_group(6), spec)


def test_generator_outside_the_group_is_named(S3):
    with pytest.raises(StructuralError, match="generator 9 is not an element of cyclic:6"):
        subgroup_elements(cyclic_group(6), "generated:[2, 9]")
    with pytest.raises(StructuralError, match=r"generator \(0,1,5\) is not an element"):
        subgroup_elements(S3, "generated:[[0, 1, 5]]")
    with pytest.raises(StructuralError, match="is not an element of cyclic:6"):
        subgroup_elements(cyclic_group(6), 'generated:[{"g": 1}]')
    # the closure on an infinite group would never end
    with pytest.raises(StructuralError, match="need a finite group"):
        subgroup_elements(integers_group(), "generated:[1]")


def test_generated_spec_does_not_load_ast():
    code = (
        "import sys\n"
        "from mhopf.groups import cyclic_group, subgroup_elements\n"
        "assert 'ast' not in sys.modules, 'ast loaded on import'\n"
        "subgroup_elements(cyclic_group(8), 'generated:[2]')\n"
        "print('ast' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_parse_group_specs():
    assert len(parse_group("cyclic:6").elements) == 6
    assert len(parse_group("symmetric:3").elements) == 6
    assert parse_group("integers").name == "integers"
    with pytest.raises(StructuralError):
        parse_group("dihedral:4")


def group_check(group):
    """The names of the group laws that fail on a finite group: identity,
    inverse, associativity on every triple, closure."""
    els, e, mul = group.elements, group.identity, group.mul
    failed = set()
    if any(mul(e, g) != g or mul(g, e) != g for g in els):
        failed.add("identity")
    if any(mul(g, group.inv(g)) != e or mul(group.inv(g), g) != e for g in els):
        failed.add("inverse")
    if any(mul(mul(a, b), c) != mul(a, mul(b, c)) for a, b, c in itertools.product(els, repeat=3)):
        failed.add("associativity")
    if any(mul(a, b) not in els for a in els for b in els):
        failed.add("closure")
    return failed


def test_group_check_passes_and_catches_broken_mul(S3, C4):
    for g in (S3, C4, symmetric_group(4), cyclic_group(6)):
        assert group_check(g) == set(), g.name
    broken = S3._replace(mul=lambda p, q: p)
    assert group_check(broken) == {"identity", "inverse"}
