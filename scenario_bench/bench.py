"""Scenario benchmark for mhopf: fixed scenario ladders through `mhopf run`.

    python3 scenario_bench/bench.py --workload mha_ladder --seed 1 --seconds 36 --trace 0

Each timed sample is one fresh `python -m mhopf.cli run <scenario>` process.
Scenarios run one after another (a closed loop with one client), in passes
over the workload's ladder, up to the pass boundary nearest to `--seconds`.
Every report is compared byte for byte, and every exit code exactly, against
the goldens in `goldens/`; a crash, a timeout, a wrong exit code or a report
byte mismatch is a failed invocation.  `--seed` fixes the inputs: it derives
the PYTHONHASHSEED of every child process, so a dict- or set-order leak into
a report shows up as a failure, not as a speed-up.

The end-to-end times are given in units of a speed meter: a fixed slice of
pure-Python work that a meter process, on the same CPU as the invocations,
times every 50 ms.  Each invocation's wall time is divided by the mean
meter reading taken while it ran.  The speed of a shared host's CPU swings
by tens of percent within seconds; the ratio cancels most of that.

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` one untraced pass is followed by one pass through
`trace_runner.py`, and the last line holds the per-layer metrics.  A
readable summary goes to stderr.

    python3 scenario_bench/bench.py --all --seed 1

prints every metric of every workload, untraced and traced, with its unit.

    python3 scenario_bench/bench.py --write-goldens

regenerates the goldens from the current source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCENARIOS = BENCH_DIR / "scenarios"
GOLDENS = BENCH_DIR / "goldens"
TRACE_DIR = BENCH_DIR / ".traces"

# Kept in this directory, not read from src/mhopf/data/scenarios, so that an
# edit to the bundled scenarios cannot change a workload.
WORKLOADS = {
    "mha_ladder": {
        "scenarios": (
            "mha_axioms",
            "mutation_antipode",
            "mha_AG_C6",
            "mha_AG_C8",
            "mha_AG_C10",
            "mha_kG_C6",
            "mha_kG_C8",
            "mha_AG_C8_delta",
        ),
        "frontier": "mha_AG_C10",
    },
    "envelope_ladder": {
        "scenarios": (
            "example_fN_S3",
            "coaction_trivial",
            "quasi_unitary_cap",
            "envelope_fN_C6",
            "envelope_fN_C8",
            "coaction_C6",
            "coaction_C8",
            "coaction_C8_e_scale",
        ),
        "frontier": "envelope_fN_C8",
    },
    "conv_groupside": {
        "scenarios": (
            "conv_AG_S4",
            "conv_AG_C8",
            "pga_corner_S3",
            "pga_C6_full",
            "pga_C6_full_alpha",
        ),
        "frontier": "conv_AG_S4",
    },
}

INVOKE_TIMEOUT_S = 60.0
# Stop starting work this long after launch, so a run always ends well
# within three minutes even when invocations hang until their timeout.
RUN_LIMIT_S = 165.0

SETUP_CODE = (
    "import sys\n"
    "import mhopf.cli\n"
    "from mhopf.scenarios import load_scenario\n"
    "with open(sys.argv[1]) as fh:\n"
    "    load_scenario(fh.read(), name=sys.argv[1])\n"
)


# The speed meter: an isolated interpreter (`-I`, so nothing in the source
# tree can change it) that times a fixed slice of the kind of work mhopf does
# (Fraction sums in a dict), ~1.5 ms, every 50 ms, and prints
# "<start> <duration>" in perf_counter seconds.  It stops when its parent
# goes away or stops reading.
METER_INTERVAL_S = 0.05
METER_CODE = f"""\
import os, sys, time
from fractions import Fraction
parent = os.getppid()
def work():
    acc = {{}}
    for i in range(300):
        key = ((i * 7919) % 211, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13, 1 + i % 5)
while os.getppid() == parent:
    start = time.perf_counter()
    work()
    print(repr(start), repr(time.perf_counter() - start), flush=True)
    time.sleep({METER_INTERVAL_S})
"""


class Meter:
    """Readings of the speed meter, collected by a reader thread."""

    def __init__(self):
        self.readings = []
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-c", METER_CODE],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            start, duration = map(float, line.split())
            self.readings.append((start, duration))

    def unit(self, start: float, end: float) -> float:
        """Mean meter reading started within [start, end]."""
        inside = [duration for t, duration in self.readings if start <= t <= end]
        if not inside:
            raise RuntimeError("the speed meter gave no reading during an invocation")
        return statistics.fmean(inside)

    def close(self):
        self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()


@dataclass
class Invocation:
    scenario: str
    code: int
    stdout: bytes
    stderr: bytes
    start: float
    wall_s: float
    maxrss_kb: int
    timed_out: bool


def scenario_path(name: str) -> str:
    return str((SCENARIOS / f"{name}.json").relative_to(ROOT))


def child_env(hashseed: int) -> dict:
    # No inherited PYTHON* settings: bytecode caching stays on, as for a
    # user, and nothing like PYTHONOPTIMIZE changes what runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def spawn(argv, hashseed: int, timeout: float, scenario: str = "") -> Invocation:
    """Run one child process to completion; wall time and its own max RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(hashseed),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        # stderr carries one timing line, or a traceback, so reading it after
        # stdout cannot fill its pipe.
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        scenario, proc.returncode, out, err, start, wall, usage.ru_maxrss, killed.is_set()
    )


def run_cli(name: str, hashseed: int, timeout: float) -> Invocation:
    argv = [sys.executable, "-m", "mhopf.cli", "run", scenario_path(name)]
    return spawn(argv, hashseed, timeout, name)


def run_traced(name: str, hashseed: int, timeout: float, trace_file: Path) -> Invocation:
    argv = [
        sys.executable,
        str(BENCH_DIR / "trace_runner.py"),
        scenario_path(name),
        str(trace_file),
    ]
    return spawn(argv, hashseed, timeout, name)


def load_goldens() -> tuple[dict, dict]:
    codes = json.loads((GOLDENS / "exit_codes.json").read_text())
    reports = {name: (GOLDENS / f"{name}.json").read_bytes() for name in codes}
    return reports, codes


def failure(inv: Invocation, reports: dict, codes: dict):
    """Why an invocation fails the oracle, or None when it matches."""
    if inv.timed_out:
        return "timeout"
    if inv.code != codes[inv.scenario]:
        tail = inv.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {inv.code}, expected {codes[inv.scenario]} {tail}"
    if inv.stdout != reports[inv.scenario]:
        return "report bytes differ from the golden"
    return None


class Runner:
    """Invocations of one benchmark run, with failure accounting."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.started = time.perf_counter()
        self.reports, self.codes = load_goldens()
        self.attempted = 0
        self.failures = []

    def timeout(self) -> float:
        """Per-invocation timeout, cut so the run stays within RUN_LIMIT_S."""
        return min(INVOKE_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - self.started))

    def hashseed(self) -> int:
        return self.rng.randrange(2**32)

    def setup_s(self, scenario: str) -> float:
        """Fresh interpreter: import mhopf.cli and load_scenario a workload file."""
        argv = [sys.executable, "-c", SETUP_CODE, scenario_path(scenario)]
        inv = spawn(argv, self.hashseed(), max(self.timeout(), 0))
        if inv.code != 0:
            raise RuntimeError(f"set-up failed: {inv.stderr.decode(errors='replace')}")
        return inv.wall_s

    def run_pass(self, names, trace_dir: Path | None = None, setup: list | None = None):
        """One pass over the ladder; None when the run limit cut it short.

        With a `setup` list, a set-up sample follows each invocation, so the
        set-up samples spread over the whole run.
        """
        invocations = []
        for name in names:
            timeout = self.timeout()
            if timeout <= 0:
                return None
            if trace_dir is None:
                inv = run_cli(name, self.hashseed(), timeout)
            else:
                inv = run_traced(name, self.hashseed(), timeout, trace_dir / f"{name}.json")
            self.attempted += 1
            reason = failure(inv, self.reports, self.codes)
            if reason is not None:
                self.failures.append((name, reason))
            invocations.append(inv)
            if setup is not None:
                setup.append(self.setup_s(name))
        return invocations


def percentile_note(values) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    note = f"median {statistics.median(ordered):.4f} (n={n}"
    if n >= 11:
        k = n - 11
        note += f", p{100 * (k + 1) / n:.0f} {ordered[k]:.4f}"
    return note + ")"


def end_to_end(runner: Runner, workload: dict, seconds: float) -> dict:
    names = workload["scenarios"]
    frontier_name = workload["frontier"]
    # The invocations and the meter share one CPU, so the meter reads the
    # speed the invocations get.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    meter = Meter()
    try:
        setup, passes, last = [], [], 0.0
        measure_start = time.perf_counter()
        # Stop at the pass boundary nearest to `seconds`.
        while not passes or time.perf_counter() - measure_start + last / 2 < seconds:
            pass_start = time.perf_counter()
            result = runner.run_pass(names, setup=setup)
            last = time.perf_counter() - pass_start
            if result is None:
                break
            passes.append(result)
    finally:
        meter.close()
        os.sched_setaffinity(0, affinity)
    if not passes:
        raise RuntimeError("no complete pass within the run limit")
    walls = {name: [] for name in names}
    in_ref = {name: [] for name in names}
    for inv in (inv for p in passes for inv in p):
        walls[inv.scenario].append(inv.wall_s)
        in_ref[inv.scenario].append(inv.wall_s / meter.unit(inv.start, inv.start + inv.wall_s))
    wall_ref = sum(statistics.median(in_ref[name]) for name in names)
    rss = [max(inv.maxrss_kb for inv in p) / 1024 for p in passes]
    readings = [duration for _, duration in meter.readings]
    ok = 1 - len(runner.failures) / runner.attempted
    print(
        f"wall_ref     {wall_ref:.4f} ref per pass (sum of per-rung medians, n={len(passes)})",
        file=sys.stderr,
    )
    frontier = percentile_note(in_ref[frontier_name])
    print(f"frontier_ref {frontier} ref ({frontier_name})", file=sys.stderr)
    print(f"setup_s      {percentile_note(setup)} s", file=sys.stderr)
    print(f"peak_rss_mb  {percentile_note(rss)} MB", file=sys.stderr)
    print(f"meter        {percentile_note(readings)} s per reading", file=sys.stderr)
    pass_walls = [sum(inv.wall_s for inv in p) for p in passes]
    print(f"wall         {percentile_note(pass_walls)} s per pass", file=sys.stderr)
    for name in names:
        print(f"  {name:<22} {percentile_note(walls[name])} s", file=sys.stderr)
    return {
        "wall_ref": (wall_ref, "ref"),
        "frontier_ref": (statistics.median(in_ref[frontier_name]), "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_ratio": (ok, "ratio"),
    }


def layer_metrics(spans: list, overhead_ratio: float) -> dict:
    """Per-layer metrics summed over the spans of every traced scenario."""
    calls, counts, outer, stats = {}, {}, {}, {}
    duration = {"build": 0.0, "check": 0.0, "render": 0.0}
    rref_in_convolution = 0
    linalg_in_checks = 0.0
    for span in spans:
        if span["kind"] in duration:
            duration[span["kind"]] += span["duration"]
        for name, (count, total, own) in span["calls"].items():
            acc = calls.setdefault(name, [0, 0.0, 0.0])
            acc[0] += count
            acc[1] += total
            acc[2] += own
        for table, into in ((span["counts"], counts), (span["outer"], outer)):
            for name, value in table.items():
                into[name] = into.get(name, 0) + value
        for name, value in span["stats"].items():
            if name == "linalg.rref_rows_max":
                stats[name] = max(stats.get(name, 0), value)
            else:
                stats[name] = stats.get(name, 0) + value
        if span["kind"] == "check":
            linalg_in_checks += span["outer"].get("spans+linalg", 0.0)
            if span["attrs"]["name"] == "convolution":
                rref_in_convolution += span["calls"].get("linalg.rref", [0])[0]

    def n(name):
        return calls.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return calls.get(name, [0, 0.0, 0.0])[1]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    count, sec, share = "count", "s", "ratio"
    return {
        "scenarios.load_s": (total("scenarios.load_scenario"), sec),
        "scenarios.build_s": (duration["build"], sec),
        "scenarios.check_s": (duration["check"], sec),
        "vectors.items_calls": (counts.get("vectors.items", 0), count),
        "vectors.token_key_calls": (counts.get("vectors.token_key", 0), count),
        "vectors.add_calls": (counts.get("vectors.add", 0), count),
        "vectors.scale_calls": (counts.get("vectors.scale", 0), count),
        "vectors.new_calls": (counts.get("vectors.new", 0), count),
        "linalg.rref_calls": (n("linalg.rref"), count),
        "linalg.rref_s": (total("linalg.rref"), sec),
        "linalg.elim_s": (total("linalg.rref_pairs"), sec),
        "linalg.rref_cells": (stats.get("linalg.rref_cells", 0), count),
        "linalg.rref_rows_max": (stats.get("linalg.rref_rows_max", 0), count),
        "linalg.rref_calls_in_convolution": (rref_in_convolution, count),
        "spans.in_span_calls": (n("spans.in_span"), count),
        "spans.in_span_hit_ratio": (
            ratio(stats.get("spans.in_span_hits", 0), n("spans.in_span")),
            share,
        ),
        "spans.kernel_of_map_calls": (n("spans.kernel_of_map"), count),
        "spans.span_basis_calls": (n("spans.span_basis"), count),
        "spans.self_s": (
            sum(own for name, (_, _, own) in calls.items() if name.startswith("spans.")),
            sec,
        ),
        "spans.linalg_share_of_check": (ratio(linalg_in_checks, duration["check"]), share),
        "algebras.mul_calls": (n("algebras.mul"), count),
        "algebras.mul_self_s": (calls.get("algebras.mul", [0, 0.0, 0.0])[2], sec),
        "algebras.project_calls": (n("algebras.project"), count),
        "algebras.project_s": (total("algebras.project"), sec),
        "mha.check_regular_s": (total("mha.check_regular"), sec),
        "mha.build_s": (outer.get("mha.build", 0.0), sec),
        "homr.conv_mul_calls": (n("homr.conv_mul"), count),
        "homr.conv_mul_s": (total("homr.conv_mul"), sec),
        "partial_actions.globalize_s": (total("partial_actions.globalize"), sec),
        "partial_actions.check_enveloping_s": (total("partial_actions.check_enveloping"), sec),
        "partial_actions.search_candidates": (
            stats.get("partial_actions.search_candidates", 0),
            count,
        ),
        "partial_actions.search_capped_ratio": (
            ratio(
                stats.get("partial_actions.searches_capped", 0),
                stats.get("partial_actions.searches", 0),
            ),
            share,
        ),
        "group_actions.alpha_inverse_image_calls": (
            counts.get("group_actions.alpha_inverse_image", 0),
            count,
        ),
        "group_actions.check_s": (outer.get("group_actions.check", 0.0), sec),
        "coactions.generated_subcomodule_s": (total("coactions.generated_subcomodule"), sec),
        "coactions.check_s": (outer.get("coactions.check", 0.0), sec),
        "reports.render_s": (duration["render"], sec),
        "reports.bytes": (stats.get("reports.bytes", 0), "bytes"),
        "trace.overhead_ratio": (overhead_ratio, share),
    }


def per_layer(runner: Runner, workload: dict, workload_name: str) -> dict:
    names = workload["scenarios"]
    untraced = runner.run_pass(names)
    trace_dir = TRACE_DIR / workload_name
    trace_dir.mkdir(parents=True, exist_ok=True)
    traced = runner.run_pass(names, trace_dir)
    if untraced is None or traced is None:
        raise RuntimeError("no complete traced pass within the run limit")
    spans, missing = [], set()
    for name in names:
        trace_file = trace_dir / f"{name}.json"
        if trace_file.exists():
            trace = json.loads(trace_file.read_text())
            spans += trace["spans"]
            missing.update(trace["missing"])
            trace_file.unlink()
    if missing:
        print(f"not traced, absent from this tree: {', '.join(sorted(missing))}", file=sys.stderr)
    overhead = sum(inv.wall_s for inv in traced) / sum(inv.wall_s for inv in untraced)
    metrics = layer_metrics(spans, overhead)
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}", file=sys.stderr)
    return metrics


def write_goldens() -> int:
    GOLDENS.mkdir(exist_ok=True)
    codes = {}
    names = sorted({name for w in WORKLOADS.values() for name in w["scenarios"]})
    for name in names:
        inv = run_cli(name, 0, INVOKE_TIMEOUT_S)
        if inv.timed_out or inv.code not in (0, 1, 2):
            print(f"{name}: exit {inv.code}: {inv.stderr.decode()}", file=sys.stderr)
            return 1
        (GOLDENS / f"{name}.json").write_bytes(inv.stdout)
        codes[name] = inv.code
        print(f"{name}: exit {inv.code}, {len(inv.stdout)} bytes", file=sys.stderr)
    (GOLDENS / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    return 0


def run(workload_name: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; the result object the last stdout line carries."""
    workload = WORKLOADS[workload_name]
    runner = Runner(seed)
    # Compile the package's bytecode once, untimed; users pay that only once.
    runner.setup_s(workload["scenarios"][0])
    if trace:
        metrics = per_layer(runner, workload, workload_name)
    else:
        metrics = end_to_end(runner, workload, seconds)
    for name, reason in runner.failures:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    print(f"{runner.attempted} invocations, {len(runner.failures)} failed", file=sys.stderr)
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mhopf" / "cli.py").is_file():
        print(f"error: no mhopf source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_goldens:
        return write_goldens()
    if args.all:
        results = {}
        for name in WORKLOADS:
            results[name] = [run(name, args.seed, args.seconds, trace) for trace in (0, 1)]
            for result in results[name]:
                for metric, m in result["metrics"].items():
                    print(f"{name:<16} {metric:<42} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps(results))
        return 0
    if args.workload is None:
        parser.error("--workload or --all is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
