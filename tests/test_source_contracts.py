"""Contracts on the package source, checked on its syntax tree.

Four things are kept honest here.  The functions that may leave a law
`inconclusive` are an allowlist, and README names each of them, so a new
source of `inconclusive` (a budget, say) cannot slip in unannounced.  And
every top-level `def` and `class` has a caller inside the package or a
named home on the ROADMAP, so code that nothing reaches fails here instead
of lingering; an export in `mhopf/__init__.py` is not a caller; the
method twin asks the same of every method of a top-level class.  And a
rule is applied to legs of a tensor in one way, `vectors.on_legs`: no
`tensor_map` comes back, and no `linear(...)` argument rebuilds tokens
with `.map_tokens`.  And
every defaulted parameter of a top-level function or method is passed by
some call in the package or its tests, so an option that every caller
leaves at its default, and the branches it keeps alive, do not linger; and,
the record twin, every defaulted field of a `NamedTuple` is left at its
default by some construction, so a default that no record ever takes does
not pose as optional.
"""

import ast
from pathlib import Path

import mhopf

SRC = Path(mhopf.__file__).resolve().parent
README = SRC.parent.parent / "README.md"
TESTS = Path(__file__).resolve().parent

INCONCLUSIVE_SOURCES = {
    ("mha", "check_regular"),
    ("partial_actions", "indicator_verdict"),
    ("partial_actions", "check_enveloping"),
    ("coactions", "check_coglobalization"),
}

# Top-level names that nothing in the package reaches yet, each with the
# ROADMAP item that gives it a use.
ROADMAP_HOMES = {
    "default_window": "item 1",
    "check_nondegenerate": "item 1",
    "check_s_unital_left": "item 1",
    "central_idempotent_projection": "item 7",
    "induce_from_projection": "item 7",
    "mha_from_delta": "item 9",
    "check_associative": "item 11",
}


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def _is_checkresult(node, attr):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "CheckResult"
    )


def _leaves_inconclusive(call):
    if _is_checkresult(call.func, "inconclusive"):
        return True
    return _is_checkresult(call.func, "law") and (
        len(call.args) >= 3 or any(k.arg == "unresolved" for k in call.keywords))


def inconclusive_sources():
    found = set()
    for module, tree in modules():
        if module == "reports":
            continue
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _leaves_inconclusive(node):
                    found.add((module, getattr(top, "name", "<module>")))
    return found


def test_inconclusive_sources_are_the_allowlist():
    assert inconclusive_sources() == INCONCLUSIVE_SOURCES


def test_readme_names_every_inconclusive_source():
    text = README.read_text()
    section = text.split("A check is `inconclusive` when:", 1)[1].split("\n## ", 1)[0]
    missing = sorted(f"{m}.{f}" for m, f in INCONCLUSIVE_SOURCES if f"`{m}.{f}`" not in section)
    assert missing == []


def _used_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def definitions_and_uses():
    """{top-level name: module} and every name used outside its own
    definition.  An import is not a use, so a re-export in
    `mhopf/__init__.py` keeps nothing alive."""
    defined = {}
    used = set()
    for module, tree in modules():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(top.name, module)
                used.update(n for n in _used_names(top) if n != top.name)
            else:
                used.update(_used_names(top))
    return defined, used


def test_every_top_level_definition_is_reached():
    defined, used = definitions_and_uses()
    unreached = sorted(
        f"{module}.{name}" for name, module in defined.items()
        if name not in used and name not in ROADMAP_HOMES)
    assert unreached == []


def unreached_methods():
    """Every non-dunder method of a top-level class whose name is used
    nowhere in the package outside its own definition."""
    uses = {}
    methods = []
    for module, tree in modules():
        for name in _used_names(tree):
            uses[name] = uses.get(name, 0) + 1
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                methods += [(f"{module}.{top.name}.{fn.name}", fn) for fn in top.body
                            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")]
    return sorted(
        label for label, fn in methods
        if uses.get(fn.name, 0) == sum(1 for n in _used_names(fn) if n == fn.name))


def test_every_method_is_reached():
    assert unreached_methods() == []


def test_roadmap_homes_are_defined_and_unreached():
    """A name leaves the allowlist once something reaches it or it goes."""
    defined, used = definitions_and_uses()
    assert sorted(set(ROADMAP_HOMES) - set(defined)) == []
    assert sorted(set(ROADMAP_HOMES) & used) == []


def _calls_map_tokens(node):
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr == "map_tokens"
        for sub in ast.walk(node))


def test_one_leg_wise_helper():
    offenders = []
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "tensor_map":
                offenders.append(f"{module}:{node.lineno}: defines tensor_map")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "linear" and any(
                    _calls_map_tokens(arg) for arg in node.args + node.keywords):
                offenders.append(f"{module}:{node.lineno}: map_tokens inside linear(...)")
    assert offenders == []


def _defaulted(fn, bound):
    """(name, position in a call) of each defaulted parameter of `fn`;
    `bound` leading parameters are not passed by position (self), and a
    keyword-only parameter has no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield positional[i].arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _callables():
    """(label, name it is called by, def, bound) for every top-level
    function outside ROADMAP_HOMES and every method of a top-level class."""
    for module, tree in modules():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name not in ROADMAP_HOMES:
                yield f"{module}.{top.name}", top.name, top, 0
            elif isinstance(top, ast.ClassDef):
                for fn in top.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    callee = top.name if fn.name == "__init__" else fn.name
                    yield f"{module}.{top.name}.{fn.name}", callee, fn, 0 if static else 1


def _calls_by_name():
    calls = {}
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, param, position):
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_default_is_passed_somewhere():
    """A call is matched to a definition by name alone, so a name shared by
    several definitions counts the calls of all of them."""
    calls = _calls_by_name()
    unused = [
        f"{label}({param})"
        for label, callee, fn, bound in _callables()
        for param, position in _defaulted(fn, bound)
        if not any(_passes(c, param, position) for c in calls.get(callee, ()))
    ]
    assert unused == []


def _record_defaults():
    """(label, class name, field, position) of each defaulted field of a
    top-level `NamedTuple` class."""
    for module, tree in modules():
        for top in tree.body:
            if not (isinstance(top, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "NamedTuple" for b in top.bases)):
                continue
            fields = [s for s in top.body if isinstance(s, ast.AnnAssign)]
            for position, field in enumerate(fields):
                if field.value is not None:
                    name = field.target.id
                    yield f"{module}.{top.name}.{name}", top.name, name, position


def test_every_record_default_is_taken_somewhere():
    """A construction is a call by the class name, matched as in
    `test_every_default_is_passed_somewhere`; `_replace` copies a record and
    takes no default."""
    calls = _calls_by_name()
    overridden = [
        label
        for label, cls, field, position in _record_defaults()
        if all(_passes(c, field, position) for c in calls.get(cls, ()))
    ]
    assert overridden == []
