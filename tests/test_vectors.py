import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhopf
from mhopf.algebras import struct_const_algebra
from mhopf.errors import WindowError
from mhopf.groups import symmetric_group
from mhopf.mha import instance_for, mha_from_delta
from mhopf.vectors import (
    FinVec,
    as_scalar,
    axpy,
    bilinear,
    bilinear_sum,
    from_grades,
    graded_mul,
    grades,
    lincomb,
    linear,
    on_legs,
    once_per_pair,
    tensor,
    token_key,
)

coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=7)
tokens = st.sampled_from(["a", "b", "c", (0, 1), (1, 0), 2])
vectors = st.dictionaries(tokens, coeffs, max_size=5).map(FinVec)


def test_zero_coefficients_are_dropped():
    v = FinVec({"a": Fraction(1)}) + FinVec({"a": Fraction(-1)})
    assert v.is_zero()
    assert len(v) == 0
    assert not v


def test_basis_and_getitem():
    v = FinVec.basis("x", Fraction(2, 3))
    assert v["x"] == Fraction(2, 3)
    assert v["y"] == 0
    assert "x" in v and "y" not in v


@settings(deadline=None, derandomize=True)
@given(vectors, vectors, vectors)
def test_addition_laws(u, v, w):
    assert u + v == v + u
    assert (u + v) + w == u + (v + w)
    assert u + FinVec() == u
    assert u - u == FinVec()


@settings(deadline=None, derandomize=True)
@given(vectors, coeffs, coeffs)
def test_scaling_is_linear(v, a, b):
    assert v.scale(a).scale(b) == v.scale(a * b)
    assert v.scale(a) + v.scale(b) == v.scale(a + b)
    assert v.scale(0) == FinVec()


def test_token_key_orders_mixed_tokens():
    toks = [(1, 0), "b", 2, "a", (0, 1)]
    ordered = sorted(toks, key=token_key)
    assert ordered == sorted(ordered, key=token_key)
    assert ordered.index("a") < ordered.index("b")
    assert ordered.index((0, 1)) < ordered.index((1, 0))


def test_tensor_matches_pairwise_products():
    u = FinVec({"a": Fraction(2), "b": Fraction(3)})
    v = FinVec({0: Fraction(1, 2)})
    t = tensor(u, v)
    assert t[("a", 0)] == Fraction(1)
    assert t[("b", 0)] == Fraction(3, 2)
    swapped = bilinear(lambda i, j: FinVec.basis((j, i)))(u, v)
    assert swapped[(0, "b")] == Fraction(3, 2)


def fold(pairs):
    """The reference for `lincomb`: one `+` per term."""
    out = FinVec()
    for v, c in pairs:
        out = out + v.scale(c)
    return out


@settings(deadline=None, derandomize=True)
@given(st.lists(st.tuples(vectors, coeffs), max_size=6))
def test_lincomb_matches_the_reference_fold(pairs):
    got = lincomb(pairs)
    assert got == fold(pairs)
    assert all(c != 0 for _, c in got.items())
    # every term cancelled by its negative: the result stores nothing
    cancelled = lincomb(pairs + [(v, -c) for v, c in pairs])
    assert cancelled == FinVec() and len(cancelled) == 0


def overlapping_rule(i, j):
    # images of different pairs share tokens, so terms merge and cancel
    return FinVec([((i, j), 1), (i, 2), (j, -2)])


@settings(deadline=None, derandomize=True)
@given(vectors, vectors)
def test_bilinear_matches_the_double_loop(x, y):
    ref = fold(
        (overlapping_rule(i, j), ci * cj) for i, ci in x.items() for j, cj in y.items()
    )
    assert bilinear(overlapping_rule)(x, y) == ref
    assert linear(lambda i: overlapping_rule(i, i))(x) == fold(
        (overlapping_rule(i, i), c) for i, c in x.items()
    )


@settings(deadline=None, derandomize=True)
@given(st.lists(st.tuples(vectors, vectors), max_size=4))
def test_bilinear_sum_matches_the_lincomb_of_bilinear(pairs):
    product = bilinear(overlapping_rule)
    got = bilinear_sum(overlapping_rule, pairs)
    assert got == lincomb((product(x, y), 1) for x, y in pairs)
    assert all(c != 0 for _, c in got.items())
    # each pair followed by its negative: every term cancels
    cancelled = bilinear_sum(overlapping_rule, pairs + [(-x, y) for x, y in pairs])
    assert cancelled == FinVec() and len(cancelled) == 0


def test_bilinear_sum_of_no_pairs_is_zero():
    assert bilinear_sum(overlapping_rule, []) == FinVec()
    assert bilinear_sum(overlapping_rule, iter(())).is_zero()


graded_vectors = st.dictionaries(
    st.tuples(st.integers(0, 2), tokens), coeffs, max_size=6).map(FinVec)


@settings(deadline=None, derandomize=True)
@given(graded_vectors, graded_vectors)
def test_graded_mul_is_the_bilinear_extension_of_the_graded_rule(x, y):
    # first slots multiply in Z/3, second slots by `overlapping_rule`
    def add3(g, h):
        return (g + h) % 3

    def rule(p, q):
        return overlapping_rule(p[1], q[1]).map_tokens(lambda t: (add3(p[0], q[0]), t))

    got = graded_mul(add3, overlapping_rule, x, y)
    assert got == bilinear(rule)(x, y)
    assert all(c != 0 for _, c in got.items())
    assert from_grades(grades(x)) == x
    assert all(part for part in grades(x).values())


def test_axpy_accumulates_in_place_and_drops_cancelled_entries():
    acc = {"a": 1, "b": Fraction(1, 2)}
    axpy(acc, 2, {"b": Fraction(-1, 4), "c": 3})
    assert acc == {"a": 1, "c": 6}
    assert list(acc) == ["a", "c"]
    axpy(acc, 0, {"a": 5})
    assert acc == {"a": 1, "c": 6}


def fun_C2_eu():
    """Functions on C2 in the basis e = delta_0, u = delta_0 + delta_1,
    where Delta(e) has mixed coefficients, so T1 and T2 are not monomial
    (as in `test_mha.py::test_inverse_table_in_a_non_monomial_basis`)."""
    B = FinVec.basis
    A = struct_const_algebra(
        "fun_C2_eu",
        ("e", "u"),
        {("e", "e"): B("e"), ("e", "u"): B("e"), ("u", "e"): B("e"), ("u", "u"): B("u")},
        one=B("u"),
    )
    deltas = {
        "e": FinVec({("e", "e"): 2, ("e", "u"): -1, ("u", "e"): -1, ("u", "u"): 1}),
        "u": B(("u", "u")),
    }
    return mha_from_delta(A, deltas.__getitem__, lambda t: Fraction(1), B)


LEG_INSTANCES = {
    # permutations are tuples, so these tokens are tuples of tuples
    "A_G:S3": lambda: instance_for("A_G", symmetric_group(3)),
    "kG:S3": lambda: instance_for("kG", symmetric_group(3)),
    "fun_C2_eu": fun_C2_eu,
}


@pytest.mark.parametrize("name", sorted(LEG_INSTANCES))
def test_on_legs_matches_the_linear_map_tokens_composition(name):
    M = LEG_INSTANCES[name]()
    basis = M.algebra.basis
    A = M.algebra
    for a, b, c in itertools.product(basis, repeat=3):
        # 1 -> 2 legs: T2(a (x) .) on leg 0 and T1(. (x) c) on leg 1
        t1_bc, t2_ab = M.delta_r(b, c), M.delta_l(a, b)
        lhs = on_legs(lambda u: M.delta_l(a, u), t1_bc, 0, 1)
        assert lhs == linear(
            lambda uv: M.delta_l(a, uv[0]).map_tokens(lambda st: (*st, uv[1])))(t1_bc)
        rhs = on_legs(lambda t: M.delta_r(t, c), t2_ab, 1, 2)
        assert rhs == linear(
            lambda st: M.delta_r(st[1], c).map_tokens(lambda uw: (st[0], *uw)))(t2_ab)
        # 2 -> 1 legs: the product of legs 1 and 2, then of legs 0 and 1
        prod = on_legs(lambda u, v: tensor(A.mul_basis(u, v)), lhs, 1, 3)
        assert prod == linear(
            lambda tok: A.mul_basis(tok[1], tok[2]).map_tokens(lambda t: (tok[0], t)))(lhs)
        assert on_legs(lambda u, v: tensor(A.mul_basis(u, v)), rhs, 0, 2) == linear(
            lambda tok: A.mul_basis(tok[0], tok[1]).map_tokens(lambda t: (t, tok[2])))(rhs)
    for a, b in itertools.product(basis, repeat=2):
        # both legs: T1 after its inverse, whose mixed coefficients cancel
        # on fun_C2_eu
        back = on_legs(M.delta_r, M.t1_inv(a, b), 0, 2)
        assert back == linear(lambda uv: M.delta_r(*uv))(M.t1_inv(a, b))
        assert back == FinVec.basis((a, b))


def test_on_legs_keeps_tuple_legs_whole():
    # a leg that is itself a tuple is one leg: nothing is read off its shape
    x = FinVec({((0, 1), "a", (2,)): 2, ((1, 0), "a", (2,)): -1})
    swap = on_legs(lambda p, q: FinVec.basis((q, p)), x, 0, 2)
    assert swap == FinVec({("a", (0, 1), (2,)): 2, ("a", (1, 0), (2,)): -1})
    # images that meet are summed, and a sum that cancels is dropped
    merged = on_legs(lambda p: FinVec.basis(("m",)), x, 0, 1)
    assert merged == FinVec.basis(("m", "a", (2,)))
    y = FinVec({((0, 1), "a"): 1, ((1, 0), "a"): -1})
    cancelled = on_legs(lambda p: FinVec.basis(("m",)), y, 0, 1)
    assert cancelled == FinVec() and len(cancelled) == 0
    # an empty run of legs inserts the rule's legs
    assert on_legs(lambda: FinVec.basis(("new",), 3), x, 1, 1) == FinVec(
        {((0, 1), "new", "a", (2,)): 6, ((1, 0), "new", "a", (2,)): -3})
    assert on_legs(lambda p: FinVec.basis(("m",)), x - x, 0, 1) == FinVec()


def test_tensor_has_one_leg_per_factor():
    x = FinVec({(0, 1): 2})
    assert tensor(x) == FinVec({((0, 1),): 2})
    assert tensor(x, FinVec.basis("b", 3)) == FinVec({((0, 1), "b"): 6})
    assert tensor(x, FinVec()) == FinVec()


def test_map_tokens():
    v = FinVec({1: Fraction(2), 2: Fraction(-4)})
    assert v.map_tokens(lambda t: t + 10) == FinVec({11: Fraction(2), 12: Fraction(-4)})


class CountingRule:
    """A pair rule that records every call it gets."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = []

    def __call__(self, i, j):
        self.calls.append((i, j))
        return self.rule(i, j)


def test_once_per_pair_calls_its_rule_once_per_ordered_pair():
    S3 = list(itertools.permutations(range(3)))
    stub = CountingRule(lambda p, q: tuple(p[q[k]] for k in range(3)))
    cached = once_per_pair(stub)
    for _ in range(3):
        for p, q in itertools.product(S3, repeat=2):
            # fresh tuples, equal to the tokens but not the same objects
            assert cached(tuple(p), tuple(q)) == stub.rule(p, q)
    assert sorted(stub.calls) == sorted(itertools.product(S3, repeat=2))
    # (p, q) and (q, p) are kept apart: on S3 their products differ
    p, q = (1, 0, 2), (0, 2, 1)
    assert cached(p, q) != cached(q, p)
    assert cached(p, q) == stub.rule(p, q) and cached(q, p) == stub.rule(q, p)


def test_once_per_pair_hands_out_the_first_result():
    stub = CountingRule(lambda i, j: FinVec([(i, 1), (j, 2)]))
    cached = once_per_pair(stub)
    first = cached("a", "b")
    assert cached("a", "b") is first
    assert cached("b", "a") == FinVec([("b", 1), ("a", 2)])
    assert stub.calls == [("a", "b"), ("b", "a")]


def test_once_per_pair_stores_nothing_when_the_rule_raises():
    def rule(i, j):
        if j == "bad":
            raise WindowError(f"{j} outside window")
        return FinVec.basis((i, j))

    stub = CountingRule(rule)
    cached = once_per_pair(stub)
    for _ in range(2):
        with pytest.raises(WindowError) as info:
            cached("a", "bad")
        # the error is the rule's own, not chained to the cache miss
        assert info.value.__context__ is None
    assert cached("a", "ok") == FinVec.basis(("a", "ok"))
    assert stub.calls == [("a", "bad"), ("a", "bad"), ("a", "ok")]


# Mixed scalars: integral coefficients are stored as int, the others as
# Fraction.  Every result must equal the same computation over vectors that
# hold only Fractions (built with `_of`, which stores its dict as given).
mixed = st.one_of(st.integers(-30, 30), coeffs)
mixed_vectors = st.dictionaries(tokens, mixed, max_size=5).map(FinVec)


def as_fractions(v: FinVec) -> FinVec:
    return FinVec._of({t: Fraction(c) for t, c in v.items()})


def assert_stored_exact(v: FinVec):
    for _, c in v.items():
        assert type(c) in (int, Fraction) and c != 0


@pytest.mark.parametrize(
    "value, expected, kind",
    [
        (3, 3, int),
        (True, 1, int),
        (False, 0, int),
        (Fraction(4, 2), 2, int),
        ("4/2", 2, int),
        ("1/3", Fraction(1, 3), Fraction),
        (Fraction(-2, 6), Fraction(-1, 3), Fraction),
    ],
)
def test_as_scalar_is_int_when_integral(value, expected, kind):
    got = as_scalar(value)
    assert got == expected and type(got) is kind


def test_as_scalar_refuses_floats():
    with pytest.raises(TypeError):
        as_scalar(1.0)
    with pytest.raises(TypeError):
        FinVec({"a": 0.5})


def test_integral_coefficients_are_stored_as_int():
    v = FinVec({"a": Fraction(2), "b": "6/3"})
    assert all(type(c) is int for _, c in v.items())
    assert type(FinVec.basis("x")["x"]) is int
    assert type(FinVec.basis("x", Fraction(3, 3))["x"]) is int
    assert type(v.scale(Fraction(1, 2))["a"]) is Fraction


@settings(deadline=None, derandomize=True)
@given(st.lists(st.tuples(mixed_vectors, mixed), max_size=6))
def test_lincomb_mixed_equals_all_fraction(pairs):
    got = lincomb(pairs)
    assert got == lincomb((as_fractions(v), Fraction(c)) for v, c in pairs)
    assert_stored_exact(got)
    scalars = [c for _, c in pairs] + [c for v, _ in pairs for _, c in v.items()]
    if all(type(c) is int for c in scalars):
        assert all(type(c) is int for _, c in got.items())


@settings(deadline=None, derandomize=True)
@given(mixed_vectors, mixed_vectors)
def test_bilinear_and_tensor_mixed_equal_all_fraction(x, y):
    fx, fy = as_fractions(x), as_fractions(y)
    got = bilinear(overlapping_rule)(x, y)
    assert got == bilinear(overlapping_rule)(fx, fy)
    assert_stored_exact(got)
    t = tensor(x, y)
    assert t == tensor(fx, fy)
    assert_stored_exact(t)
    assert_stored_exact(x + y)
    assert_stored_exact(x - y)


def test_no_true_division_outside_a_fraction():
    """`int / int` is a float, so the only division allowed in the package
    is `Fraction(...) / ...`, which stays exact."""
    offenders = []
    for path in sorted(Path(mhopf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                offenders.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                left = node.left
                if not (
                    isinstance(left, ast.Call)
                    and isinstance(left.func, ast.Name)
                    and left.func.id == "Fraction"
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _names(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.alias, ast.ClassDef)):
        return node.name
    return None


def test_verdicts_come_from_checkresult_law():
    """Every law reaches its verdict through `CheckResult.law`: no module
    but `reports.py` constructs a `CheckResult` or calls the deleted
    `CheckResult.passed` / `failed`, and no module names `ResultSink`."""
    offenders = []
    for path in sorted(Path(mhopf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _names(node) == "ResultSink":
                offenders.append(f"{path.name}:{node.lineno}: ResultSink")
            if path.name == "reports.py" or not isinstance(node, ast.Call):
                continue
            func = node.func
            if _names(func) == "CheckResult":
                offenders.append(f"{path.name}:{node.lineno}: CheckResult(...)")
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("passed", "failed")
                and _names(func.value) == "CheckResult"
            ):
                offenders.append(f"{path.name}:{node.lineno}: CheckResult.{func.attr}")
    assert offenders == []


PURE_CONSTRUCTORS = {
    "globalize", "junk_globalization", "to_hopf", "to_group", "coaction_globalize"}


def test_constructors_run_no_checks():
    """Derived structures come from pure constructors, and the scenario
    runner validates their inputs once: no `def` takes a `*_checks`
    parameter, and no constructor of a derived structure calls a
    `check_*` function."""
    offenders = []
    found = set()
    for path in sorted(Path(mhopf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            offenders += [
                f"{path.name}:{node.lineno}: {node.name}({a.arg})"
                for a in args.posonlyargs + args.args + args.kwonlyargs
                if a.arg.endswith("_checks")]
            if node.name not in PURE_CONSTRUCTORS:
                continue
            found.add(node.name)
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and (_names(call.func) or "").startswith("check_"):
                    offenders.append(
                        f"{path.name}:{call.lineno}: {node.name} calls {_names(call.func)}")
    assert found == PURE_CONSTRUCTORS
    assert offenders == []


def test_no_module_but_vectors_touches_the_coefficient_dict():
    """`once_per_pair` hands the same `FinVec` to every caller, so a vector
    must never change after it is built.  Only `vectors.py` may read or
    write `._c` or wrap a dict with `FinVec._of`, which does not copy it."""
    offenders = []
    for path in sorted(Path(mhopf.__file__).parent.glob("*.py")):
        if path.name == "vectors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_c", "_of"):
                offenders.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert offenders == []
