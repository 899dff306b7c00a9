"""Scenario files: declarative structure construction plus check suites.

A scenario is a JSON document with schema version 1:

    {
      "schema": 1,
      "name": "...",
      "seed": 0,
      "window": null,
      "structures": [ {"id": "G", "type": "group", "spec": "symmetric:3"}, ... ],
      "checks": [ {"check": "mha_axioms", "target": "A"}, ... ]
    }

Structures are built in order by registered constructors (groups, instances,
algebras, corners, actions, group actions, coactions, envelopes) and may
reference earlier ids.  Checks run in order through the check registry; every
registered check carries a human explanation for the `explain` subcommand.
A derived structure is built only from an input whose precondition checks
pass (see PRECONDITIONS); each such check runs once per run, and the
scenario's own check of that input reuses its lines.
Sampled checks draw from a single random.Random seeded by the scenario seed
(overridable from the command line), so identical scenario + seed gives a
byte-identical report.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from . import coactions, group_actions, homr, mha, partial_actions
from .algebras import (
    Algebra,
    Corner,
    group_algebra_plain,
    pointwise_algebra,
    subgroup_average_idempotent,
)
from .errors import MhopfError, StructuralError
from .groups import GroupSpec, parse_group, subgroup_elements
from .reports import CheckResult, Report
from .vectors import FinVec

SCENARIO_SCHEMA = 1


class ScenarioError(MhopfError):
    """Scenario file failed to parse or resolve."""


def _token(value):
    if isinstance(value, list):
        return tuple(_token(v) for v in value)
    return value


def _coeff(value) -> Fraction:
    if isinstance(value, list):
        num, den = value
        return Fraction(num, den)
    return Fraction(value)


def _vector(spec) -> FinVec:
    """[[token, coeff], ...]; coeff is an int or a [num, den] pair."""
    return FinVec(
        (_token(item[0]), _coeff(item[1] if len(item) == 2 else list(item[1:])))
        for item in spec
    )


def _element_e(inst, entry) -> FinVec:
    """The entry's element "e" of the instance; by default its identity."""
    e = entry.get("e", "identity")
    return FinVec.basis(inst.algebra.group.identity) if e == "identity" else _vector(e)


class Context:
    """Built structures by id, with typed resolution, and the lines of the
    precondition checks run so far, by (check, target id, window read)."""

    def __init__(self, name):
        self.name = name
        self.objects = {}
        self.lines = {}

    def add(self, ident, obj):
        if ident in self.objects:
            raise ScenarioError(f"{self.name}: duplicate structure id {ident!r}")
        self.objects[ident] = obj

    def get(self, ident, kind=None):
        if ident not in self.objects:
            raise ScenarioError(f"{self.name}: unresolved reference {ident!r}")
        obj = self.objects[ident]
        if kind is not None and not isinstance(obj, kind):
            if kind is Algebra and isinstance(obj, Corner):
                return obj.algebra
            raise ScenarioError(
                f"{self.name}: {ident!r} is {type(obj).__name__}, expected {kind.__name__}"
            )
        return obj


# ---------------------------------------------------------------------------
# structure constructors


def _build_group(ctx, entry):
    return parse_group(entry["spec"])


def _build_instance(ctx, entry):
    inst = mha.instance_for(entry["kind"], ctx.get(entry["group"], GroupSpec))
    for kind in entry.get("mutate", []):
        inst = mha.mutate_instance(inst, kind)
    return inst


def _build_algebra(ctx, entry):
    ctor = entry["constructor"]
    if ctor == "group_algebra":
        return group_algebra_plain(ctx.get(entry["group"], GroupSpec))
    if ctor == "functions":
        return pointwise_algebra(ctx.get(entry["group"], GroupSpec))
    raise ScenarioError(f"unknown algebra constructor {ctor!r}")


def _build_corner(ctx, entry):
    ambient = ctx.get(entry["ambient"], Algebra)
    idem = entry["idempotent"]
    if isinstance(idem, dict) and "subgroup_average" in idem:
        group = ctx.get(entry["group"], GroupSpec)
        vec = subgroup_average_idempotent(
            ambient, subgroup_elements(group, idem["subgroup_average"])
        )
    else:
        vec = _vector(idem)
    return Corner(ambient, vec, name=entry.get("name"))


def _build_action(ctx, entry):
    ctor = entry["constructor"]
    if ctor == "example_fN":
        group = ctx.get(entry["group"], GroupSpec)
        return partial_actions.example_fN(group, subgroup_elements(group, entry["subgroup"]))
    if ctor == "lambda":
        group = ctx.get(entry["group"], GroupSpec)
        return partial_actions.lambda_action(
            group,
            subgroup_elements(group, entry["subgroup"]),
            ctx.get(entry["target"], Algebra),
        )
    if ctor == "from_global":
        return partial_actions.global_AG_on_kG(ctx.get(entry["group"], GroupSpec))
    if ctor == "to_hopf":
        return group_actions.to_hopf(ctx.get(entry["pga"], group_actions.PartialGroupAction))
    raise ScenarioError(f"unknown action constructor {ctor!r}")


def _build_pga(ctx, entry):
    ctor = entry["constructor"]
    if ctor == "subset_translation":
        group = ctx.get(entry["group"], GroupSpec)
        subset = entry.get("subset", "full")
        if subset == "full":
            subset = group.elements
        else:
            subset = tuple(_token(t) for t in subset)
        return group_actions.subset_translation_pga(group, subset)
    if ctor == "conjugation":
        return group_actions.conjugation_pga(
            ctx.get(entry["ambient_group"], GroupSpec), _token(entry["involution"])
        )
    if ctor == "zero_corner":
        return group_actions.zero_corner_pga()
    if ctor == "mutate":
        base = ctx.get(entry["base"], group_actions.PartialGroupAction)
        g = _token(entry["g"]) if "g" in entry else None
        return group_actions.mutate_pga(base, entry["kind"], g=g)
    raise ScenarioError(f"unknown group action constructor {ctor!r}")


def _build_coaction(ctx, entry):
    ctor = entry["constructor"]
    if ctor == "trivial":
        inst = ctx.get(entry["instance"], mha.MhaInstance)
        return coactions.trivial_coaction(
            ctx.get(entry["target"], Algebra), inst, _element_e(inst, entry))
    if ctor == "mutate":
        return coactions.mutate_coaction(
            ctx.get(entry["base"], coactions.PartialCoactionData), entry["kind"]
        )
    raise ScenarioError(f"unknown coaction constructor {ctor!r}")


def _build_envelope(ctx, entry):
    ctor = entry["constructor"]
    action = ctx.get(entry["action"], partial_actions.PartialActionData)
    if ctor == "globalize":
        return partial_actions.globalize(action)
    if ctor == "junk":
        return partial_actions.junk_globalization(action)
    raise ScenarioError(f"unknown envelope constructor {ctor!r}")


def _build_coenvelope(ctx, entry):
    base = ctx.get(entry["coaction"], coactions.PartialCoactionData)
    env = coactions.coaction_globalize(base, _element_e(base.instance, entry))
    if entry.get("mutate") == "pi_identity":
        env = coactions.with_identity_pi(env)
    return env


STRUCTURES = {
    "group": _build_group,
    "instance": _build_instance,
    "algebra": _build_algebra,
    "corner": _build_corner,
    "action": _build_action,
    "pga": _build_pga,
    "coaction": _build_coaction,
    "envelope": _build_envelope,
    "coenvelope": _build_coenvelope,
}


# ---------------------------------------------------------------------------
# check registry


def _random_hom_samples(rng, source, target, count):
    """`count` random homomorphism tables, vectors on (g, t) tokens with at
    most three group elements and two target tokens each."""
    homr.require_tables(source)
    toks = sorted(source.algebra.basis, key=str)
    ttoks = sorted(target.basis, key=str)
    return [
        FinVec(
            ((g, t), rng.randint(-4, 4))
            for g in rng.sample(toks, k=min(3, len(toks)))
            for t in rng.sample(ttoks, k=min(2, len(ttoks)))
        )
        for _ in range(count)
    ]


def _chk_mha_axioms(ctx, entry, window, rng):
    return mha.check_mha_axioms(ctx.get(entry["target"], mha.MhaInstance), window)


def _chk_convolution(ctx, entry, window, rng):
    source = ctx.get(entry["source"], mha.MhaInstance)
    target = ctx.get(entry["target_algebra"], Algebra) if "target_algebra" in entry else group_algebra_plain(source.algebra.group)
    samples = _random_hom_samples(rng, source, target, entry.get("samples", 5))
    return homr.check_convolution(source, target, samples)


def _chk_module_algebra(ctx, entry, window, rng):
    source = ctx.get(entry["source"], mha.MhaInstance)
    target = ctx.get(entry["target_algebra"], Algebra) if "target_algebra" in entry else group_algebra_plain(source.algebra.group)
    samples = _random_hom_samples(rng, source, target, entry.get("samples", 8))
    return homr.check_module_algebra(source, target, window, samples=samples)


def _chk_convolutive_inverse(ctx, entry, window, rng):
    inst = ctx.get(entry["target"], mha.MhaInstance)
    candidate = entry.get("candidate", "antipode")
    if candidate == "antipode":
        f_rule, g_rule = inst.antipode, FinVec.basis
    elif candidate == "identity":
        f_rule = g_rule = FinVec.basis
    else:
        raise ScenarioError(f"unknown convolutive-inverse candidate {candidate!r}")
    elems = inst.basis_window(window)
    res = homr.check_convolutive_inverse(inst, f_rule, g_rule, elems, window)
    return [res]


def _chk_partial_action(ctx, entry, window, rng):
    return partial_actions.check_partial_action(
        ctx.get(entry["target"], partial_actions.PartialActionData), a_window=window
    )


def _chk_symmetric(ctx, entry, window, rng):
    return partial_actions.check_symmetric(
        ctx.get(entry["target"], partial_actions.PartialActionData), a_window=window
    )


def _chk_quasi_unitary(ctx, entry, window, rng):
    P = ctx.get(entry["target"], partial_actions.PartialActionData)
    elems = [_vector(v) for v in entry["elements"]] if "elements" in entry else [
        FinVec.basis(t) for t in P.algebra.basis
    ]
    res = partial_actions.check_quasi_unitary(
        P, elems, a_window=window,
        max_candidates=entry.get("max_candidates", partial_actions.MAX_CANDIDATES),
    )
    return [res]


def _chk_enveloping(ctx, entry, window, rng):
    return partial_actions.check_enveloping(
        ctx.get(entry["target"], partial_actions.Globalization), a_window=window
    )


def _chk_minimal(ctx, entry, window, rng):
    res = partial_actions.check_minimal(
        ctx.get(entry["target"], partial_actions.Globalization), a_window=window
    )
    return [res]


def _chk_compare_envelopes(ctx, entry, window, rng):
    return partial_actions.compare_envelopes(
        ctx.get(entry["left"], partial_actions.Globalization),
        ctx.get(entry["right"], partial_actions.Globalization),
    )


def _chk_pga(ctx, entry, window, rng):
    return group_actions.check_pga(ctx.get(entry["target"], group_actions.PartialGroupAction))


def _chk_sigma(ctx, entry, window, rng):
    return group_actions.check_sigma_conditions(
        ctx.get(entry["target"], group_actions.PartialGroupAction)
    )


def _chk_globalizability(ctx, entry, window, rng):
    return group_actions.check_globalizability(
        ctx.get(entry["target"], group_actions.PartialGroupAction)
    )


def _chk_pga_roundtrip(ctx, entry, window, rng):
    return group_actions.roundtrip_check(
        ctx.get(entry["target"], group_actions.PartialGroupAction)
    )


def _chk_partial_coaction(ctx, entry, window, rng):
    return coactions.check_partial_coaction(
        ctx.get(entry["target"], coactions.PartialCoactionData), window
    )


def _chk_coaction_range(ctx, entry, window, rng):
    return coactions.check_coaction_range(
        ctx.get(entry["target"], coactions.PartialCoactionData), window
    )


def _chk_quasi_counitary(ctx, entry, window, rng):
    inst = ctx.get(entry["target"], mha.MhaInstance)
    return coactions.check_quasi_counitary(inst, _element_e(inst, entry), window)


def _chk_coglobalization(ctx, entry, window, rng):
    return coactions.check_coglobalization(
        ctx.get(entry["target"], coactions.CoactionGlobalization), window
    )


def _chk_dual_module_law(ctx, entry, window, rng):
    """Sampled module law (w1 * w2) |> v = w1 |> (w2 |> v) on the envelope."""
    G = ctx.get(entry["target"], coactions.CoactionGlobalization)
    inst = G.comodule.instance
    toks = sorted(inst.algebra.basis, key=str)
    witnesses = []
    count = entry.get("samples", 24)
    for _ in range(count):
        w1 = coactions.DualFunctional(
            table=FinVec.basis(rng.choice(toks), rng.randint(1, 5))
        )
        w2 = coactions.DualFunctional(
            table=FinVec.basis(rng.choice(toks), rng.randint(-5, -1))
        )
        v = rng.choice(G.q_basis)
        lhs = coactions.dual_act(G.comodule, coactions.dual_mul(inst, w1, w2), v)
        rhs = coactions.dual_act(G.comodule, w1, coactions.dual_act(G.comodule, w2, v))
        if lhs != rhs:
            witnesses.append({"w1": w1.table, "w2": w2.table})
    return [CheckResult.law("dual_module_law", witnesses[:4], samples=count)]


CHECKS = {
    "mha_axioms": (
        _chk_mha_axioms,
        "Covered coassociativity, counit, antipode, coverage bijection round trips "
        "and regularity for one instance, exhaustively on the window.",
    ),
    "convolution": (
        _chk_convolution,
        "Associativity of the convolution product on seeded random right-multiplier "
        "homomorphism samples, plus agreement of the closed group-convolution path "
        "with the generic coverage path.",
    ),
    "module_algebra": (
        _chk_module_algebra,
        "The acting instance turns the homomorphism space into a module algebra: "
        "module law, local units acting as units, covered product law.",
    ),
    "convolutive_inverse": (
        _chk_convolutive_inverse,
        "Both defining identities of a convolutive inverse of the identity, for the "
        "antipode or for a deliberately wrong candidate.",
    ),
    "partial_action": (
        _chk_partial_action,
        "Partial module-algebra axioms: product law, range-idempotent compatibility, "
        "local units, nondegeneracy, and the globality characterization flag.",
    ),
    "symmetric": (
        _chk_symmetric,
        "Right-handed partial action laws: symmetric product law and right "
        "compatibility of the range multipliers.",
    ),
    "quasi_unitary": (
        _chk_quasi_unitary,
        "Search for one acting element behaving as a unit on the listed targets; "
        "inconclusive when the candidate cap stops the search early.",
    ),
    "enveloping": (
        _chk_enveloping,
        "Envelope battery: the ambient action is global, the embedding is a "
        "monomorphism onto a right ideal, the projection is compatible, and the "
        "envelope is generated by the embedded image.",
    ),
    "minimal": (
        _chk_minimal,
        "Minimality of an envelope: no nonzero submodule is killed by the "
        "projection.",
    ),
    "compare_envelopes": (
        _chk_compare_envelopes,
        "Canonical comparison map between two envelopes of the same partial "
        "action: well defined, equivariant, with kernel witnesses when not "
        "injective.",
    ),
    "pga": (
        _chk_pga,
        "Partial group action axioms: identity component, the maps are "
        "isomorphisms between the corner ideals, translation of intersections, "
        "and composition on the common domain.",
    ),
    "sigma_conditions": (
        _chk_sigma,
        "The range multipliers are central idempotents satisfying the translation, "
        "absorption and containment laws of a multiplier-carried partial action.",
    ),
    "globalizability": (
        _chk_globalizability,
        "Corners are left s-unital and the gamma maps land in the corners, "
        "restricting to the conjugated right multipliers.",
    ),
    "pga_roundtrip": (
        _chk_pga_roundtrip,
        "Group side to Hopf side and back: corners, range multipliers and maps "
        "agree exactly after the round trip.",
    ),
    "partial_coaction": (
        _chk_partial_coaction,
        "Partial comodule-algebra battery: injectivity, the range idempotent is a "
        "slotwise multiplier idempotent, both covered coassociativity laws, "
        "absorption, counit recovery and the globality flag.",
    ),
    "coaction_range": (
        _chk_coaction_range,
        "Exact subspace equality between the covered coaction range and the "
        "E-cut tensor space, on both sides.",
    ),
    "quasi_counitary": (
        _chk_quasi_counitary,
        "The distinguished element is a central idempotent with the covered "
        "comultiplication identity and counit one.",
    ),
    "coglobalization": (
        _chk_coglobalization,
        "Envelope battery for a coaction: comodule algebra, theta monomorphism "
        "onto a right ideal, pi projection, the E-projection equation, "
        "compatibility, generation, and the unital specialization.",
    ),
    "dual_module_law": (
        _chk_dual_module_law,
        "Sampled associativity of the dual-functional action on the envelope: "
        "convolving two functionals then acting equals acting twice.",
    ),
}


# ---------------------------------------------------------------------------
# preconditions

# What a derived structure, or a check that derives one, needs of its input:
# (entry type, constructor) -> (entry field naming the input, checks on it).
# The one rule: any line of those checks that is not "pass" rejects the
# input.  A coenvelope also needs its element e to be quasi-counitary.
PRECONDITIONS = {
    ("envelope", "globalize"): ("action", ("partial_action", "symmetric")),
    ("action", "to_hopf"): ("pga", ("pga", "sigma_conditions")),
    ("check", "pga_roundtrip"): ("target", ("pga", "sigma_conditions")),
    ("coenvelope", None): ("coaction", ("partial_coaction",)),
}
_STORED = {check for _, checks in PRECONDITIONS.values() for check in checks}
# stored checks whose battery reads no window
_WINDOWLESS = {"pga", "sigma_conditions"}


def _check_lines(ctx, name, entry, window, rng):
    """The lines of one check.  A precondition check runs at most once per
    (target, window it reads); none of them draws from `rng`."""
    fn = CHECKS[name][0]
    if name not in _STORED:
        return fn(ctx, entry, window, rng)
    key = (name, entry["target"], None if name in _WINDOWLESS else window)
    if key not in ctx.lines:
        ctx.lines[key] = fn(ctx, entry, window, rng)
    return ctx.lines[key]


def _require(ctx, key, entry):
    """Raise StructuralError naming every line of the input's preconditions
    that does not pass, by its report name."""
    if key not in PRECONDITIONS:
        return
    field, checks = PRECONDITIONS[key]
    target = entry[field]
    named = [
        (f"{check}:{target}", _check_lines(ctx, check, {"target": target}, None, None))
        for check in checks
    ]
    if key[0] == "coenvelope":
        inst = ctx.get(target, coactions.PartialCoactionData).instance
        named.append((f"quasi_counitary:{target}",
                      coactions.check_quasi_counitary(inst, _element_e(inst, entry))))
    bad = [f"{label}.{line.name}" for label, lines in named
           for line in lines if line.outcome != "pass"]
    if bad:
        raise StructuralError(f"input {target!r} rejected: " + ", ".join(bad))


def build_structure(ctx, entry):
    """The structure a scenario entry declares, built once its input passes
    the entry's preconditions."""
    _require(ctx, (entry["type"], entry.get("constructor")), entry)
    return STRUCTURES[entry["type"]](ctx, entry)


# ---------------------------------------------------------------------------
# loading and running


def load_scenario(text: str, name="<scenario>") -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{name}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{name}: scenario document must be an object")
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise ScenarioError(
            f"{name}: unsupported schema {doc.get('schema')!r}, expected {SCENARIO_SCHEMA}"
        )
    for key in ("name", "structures", "checks"):
        if key not in doc:
            raise ScenarioError(f"{name}: missing required field {key!r}")
    window = doc.get("window")
    if window is not None and (not isinstance(window, int) or window <= 0):
        raise ScenarioError(f"{name}: window must be a positive integer")
    return doc


def run_scenario(doc: dict, seed=None, window=None) -> Report:
    seed = doc.get("seed", 0) if seed is None else seed
    window = doc.get("window") if window is None else window
    rng = random.Random(seed)
    ctx = Context(doc["name"])
    for entry in doc["structures"]:
        if entry.get("type") not in STRUCTURES:
            raise ScenarioError(f"{doc['name']}: unknown structure type {entry.get('type')!r}")
        if "id" not in entry:
            raise ScenarioError(f"{doc['name']}: structure entry without id")
        try:
            ctx.add(entry["id"], build_structure(ctx, entry))
        except ScenarioError:
            raise
        except MhopfError as exc:
            raise ScenarioError(
                f"{doc['name']}: building {entry['id']!r} failed: {exc}"
            ) from exc
    report = Report(scenario=doc["name"], seed=seed, window=window, checks=[])
    for entry in doc["checks"]:
        name = entry.get("check")
        if name not in CHECKS:
            raise ScenarioError(f"{doc['name']}: unknown check {name!r}")
        label = entry.get("target", entry.get("left", ""))
        try:
            _require(ctx, ("check", name), entry)
            lines = _check_lines(ctx, name, entry, window, rng)
        except ScenarioError:
            raise
        except KeyError as exc:
            raise ScenarioError(
                f"{doc['name']}: check {name!r} is missing field {exc}"
            ) from exc
        except MhopfError as exc:
            raise ScenarioError(
                f"{doc['name']}: check {name!r} failed to run: {exc}"
            ) from exc
        report.checks.extend(
            line._replace(name=f"{name}:{label}.{line.name}")
            for line in lines
        )
    return report


def builtin_scenarios() -> dict:
    """Name -> raw text of the bundled scenario files."""
    from importlib import resources

    out = {}
    root = resources.files("mhopf").joinpath("data/scenarios")
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if item.name.endswith(".json"):
            out[item.name[: -len(".json")]] = item.read_text()
    return out


def builtin_catalog() -> list[str]:
    """Stable listing of built-in groups, instances, checks and scenarios."""
    # Only groups a scenario can check: every check on "integers" needs an
    # explicit window, which no scenario can give it yet.
    groups = ["cyclic:2", "cyclic:3", "cyclic:4", "symmetric:3"]
    lines = [f"group:{g}" for g in groups]
    lines += [f"instance:A_G:{g}" for g in groups]
    lines += [f"instance:kG:{g}" for g in groups]
    lines += [f"check:{name}" for name in sorted(CHECKS)]
    lines += [f"scenario:{name}" for name in sorted(builtin_scenarios())]
    return sorted(lines)


def explain_check(name: str) -> str:
    if name not in CHECKS:
        raise ScenarioError(f"unknown check {name!r}")
    return CHECKS[name][1]
