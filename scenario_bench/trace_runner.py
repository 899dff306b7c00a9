"""Run one scenario through `mhopf.cli` with per-layer tracing.

    python3 trace_runner.py <scenario.json> <trace_out.json>

The report goes to stdout and the exit code is the CLI's, exactly as for
`python3 -m mhopf.cli run <scenario.json>`.  Before the run, the runner wraps
layer functions of the `mhopf` package from outside (the package itself is
not modified):

* module functions, in every `mhopf.*` namespace that binds the same
  function object (several modules import by name);
* the `scenarios.STRUCTURES` and `scenarios.CHECKS` registry entries;
* methods: `FinVec` arithmetic, `Algebra.mul`, `Corner.project`,
  `Report.to_json`.

Individual spans are recorded only for the scenario, each structure build,
each check and the render.  Layer calls are aggregated in memory per
(enclosing span, function) into count, total and self time; the `vectors`
layer is counted only, which keeps the tracing overhead bounded.  The trace
is written as one JSON document when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.span = None
        # Each frame accumulates the time of wrapped callees, for self time.
        self.stack = [[0.0]]
        self.depth = {}

    def open(self, kind, attrs):
        rec = {
            "id": len(self.spans),
            "parent": self.span["id"] if self.span else None,
            "kind": kind,
            "attrs": attrs,
            "calls": {},
            "counts": {},
            "outer": {},
            "stats": {},
        }
        self.spans.append(rec)
        prev, self.span = self.span, rec
        return rec, prev

    def close(self, rec, prev, start, dt):
        rec["start"] = start
        rec["duration"] = dt
        self.span = prev


TRACER = Tracer()


def add_stat(name, value):
    stats = TRACER.span["stats"]
    stats[name] = stats.get(name, 0) + value


def max_stat(name, value):
    stats = TRACER.span["stats"]
    stats[name] = max(stats.get(name, 0), value)


def counted(name, fn):
    """Count calls only; their time stays in the caller's self time."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = TRACER.span["counts"]
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def timed(name, fn, group=None, after=None):
    """Count, total and self time per enclosing span.

    `group` names a set of functions whose outermost calls add their inclusive
    time to `outer[group]`, so nested calls inside the set are not counted
    twice.  `after(args, kwargs, result)` records extra statistics.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        stack = tracer.stack
        frame = [0.0]
        stack.append(frame)
        outermost = False
        if group is not None:
            outermost = tracer.depth.get(group, 0) == 0
            tracer.depth[group] = tracer.depth.get(group, 0) + 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - start
            stack.pop()
            stack[-1][0] += dt
            span = tracer.span
            rec = span["calls"].get(name)
            if rec is None:
                rec = span["calls"][name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[0]
            if group is not None:
                tracer.depth[group] -= 1
                if outermost:
                    span["outer"][group] = span["outer"].get(group, 0.0) + dt
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def spanned(kind, fn, attrs, after=None):
    """Record an individual span around every call of `fn`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        rec, prev = tracer.open(kind, attrs(*args))
        frame = [0.0]
        tracer.stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - start
            tracer.stack.pop()
            tracer.stack[-1][0] += dt
            tracer.close(rec, prev, start, dt)
        if after is not None:
            after(rec, result)
        return result

    return wrapper


# Targets that this source tree no longer has; their metrics read 0.
MISSING = []


def patch(module_name, attr, make, cls=None):
    """Wrap `attr` of a mhopf module, or of one of its classes.

    A module function is replaced in every mhopf namespace that binds the
    same object, since several modules import by name.  A target the tree
    no longer has is listed in MISSING instead of failing the run.
    """
    try:
        module = importlib.import_module(f"mhopf.{module_name}")
    except ImportError:
        module = None
    owner = getattr(module, cls, None) if cls else module
    original = getattr(owner, attr, None)
    if original is None:
        MISSING.append(f"{module_name}.{cls + '.' if cls else ''}{attr}")
        return
    wrapped = make(original)
    if cls:
        setattr(owner, attr, wrapped)
        return
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "mhopf" or name.startswith("mhopf."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def install():
    import mhopf.cli  # noqa: F401  (imports every layer the CLI reaches)

    # vectors: counts only
    for attr, name in (
        ("items", "vectors.items"),
        ("__add__", "vectors.add"),
        ("scale", "vectors.scale"),
        ("__init__", "vectors.new"),
    ):
        patch("vectors", attr, functools.partial(counted, name), cls="FinVec")
    patch("vectors", "token_key", functools.partial(counted, "vectors.token_key"))

    # linalg: the elimination kernel and its dense front end
    def rref_stats(args, kwargs, result):
        rows = args[0]
        if rows:
            add_stat("linalg.rref_cells", len(rows) * len(rows[0]))
            max_stat("linalg.rref_rows_max", len(rows))

    patch("linalg", "rref", lambda f: timed("linalg.rref", f, "spans+linalg", rref_stats))
    patch("linalg", "_rref_pairs", lambda f: timed("linalg.rref_pairs", f, "spans+linalg"))
    for attr in ("solve", "nullspace", "rank"):
        patch("linalg", attr, lambda f, a=attr: timed(f"linalg.{a}", f, "spans+linalg"))

    # spans: every public function, so that their summed self time is the
    # layer's own cost (dense conversion and bookkeeping)
    def in_span_stats(args, kwargs, result):
        if result is not None:
            add_stat("spans.in_span_hits", 1)

    for attr in (
        "collect_tokens",
        "to_rows",
        "span_basis",
        "span_dim",
        "in_span",
        "subspace_le",
        "subspace_equal",
        "kernel_of_map",
        "independent_subset",
    ):
        after = in_span_stats if attr == "in_span" else None
        patch("spans", attr, lambda f, a=attr, after=after: timed(f"spans.{a}", f, "spans+linalg", after))

    patch("algebras", "mul", lambda f: timed("algebras.mul", f), cls="Algebra")
    patch("algebras", "project", lambda f: timed("algebras.project", f), cls="Corner")

    patch("mha", "check_regular", lambda f: timed("mha.check_regular", f))
    for attr in ("instance_for", "mutate_instance", "mha_from_delta"):
        patch("mha", attr, lambda f, a=attr: timed(f"mha.{a}", f, "mha.build"))

    patch("homr", "conv_mul", lambda f: timed("homr.conv_mul", f))

    for attr in ("globalize", "check_enveloping"):
        patch("partial_actions", attr, lambda f, a=attr: timed(f"partial_actions.{a}", f))

    def traced_search(original):
        @functools.wraps(original)
        def search(ground, predicate, *args, **kwargs):
            def counted_predicate(b):
                add_stat("partial_actions.search_candidates", 1)
                return predicate(b)

            witness, exhausted = original(ground, counted_predicate, *args, **kwargs)
            add_stat("partial_actions.searches", 1)
            if witness is None and not exhausted:
                add_stat("partial_actions.searches_capped", 1)
            return witness, exhausted

        return timed("partial_actions.search_indicator_witness", search)

    patch("partial_actions", "search_indicator_witness", traced_search)

    patch(
        "group_actions",
        "alpha_inverse_image",
        functools.partial(counted, "group_actions.alpha_inverse_image"),
    )
    for attr in ("check_pga", "check_sigma_conditions", "check_globalizability", "roundtrip_check"):
        patch("group_actions", attr, lambda f, a=attr: timed(f"group_actions.{a}", f, "group_actions.check"))

    patch("coactions", "generated_subcomodule", lambda f: timed("coactions.generated_subcomodule", f))
    for attr in (
        "check_partial_coaction",
        "check_coaction_range",
        "check_quasi_counitary",
        "check_coglobalization",
    ):
        patch("coactions", attr, lambda f, a=attr: timed(f"coactions.{a}", f, "coactions.check"))

    # scenarios: loading, and one span per structure build and per check
    patch("scenarios", "load_scenario", lambda f: timed("scenarios.load_scenario", f))
    patch("scenarios", "run_scenario", lambda f: timed("scenarios.run_scenario", f))
    from mhopf import scenarios

    for kind, builder in list(scenarios.STRUCTURES.items()):
        scenarios.STRUCTURES[kind] = spanned(
            "build",
            builder,
            lambda ctx, entry, *rest: {"id": entry.get("id"), "type": entry.get("type")},
        )
    for name, (fn, doc) in list(scenarios.CHECKS.items()):
        scenarios.CHECKS[name] = (
            spanned(
                "check",
                fn,
                lambda ctx, entry, *rest: {
                    "name": entry.get("check"),
                    "target": entry.get("target", entry.get("left", "")),
                },
            ),
            doc,
        )

    # reports: the canonical render
    def render_bytes(rec, result):
        rec["stats"]["reports.bytes"] = len(result.encode())

    patch(
        "reports",
        "to_json",
        lambda f: spanned("render", f, lambda report: {}, render_bytes),
        cls="Report",
    )


def main(argv):
    if len(argv) != 2:
        print("usage: trace_runner.py <scenario.json> <trace_out.json>", file=sys.stderr)
        return 3
    scenario, out_path = argv
    install()
    from mhopf import cli

    run = spanned("scenario", cli.main, lambda args: {"path": scenario})
    code = run(["run", scenario])
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"spans": TRACER.spans, "missing": MISSING}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
