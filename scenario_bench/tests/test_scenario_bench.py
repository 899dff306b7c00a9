"""Self-tests of the scenario benchmark: the traced runner must not change
what it measures, its counts must repeat, and the oracle must catch a
mismatch."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("scenario_bench_main", BENCH_DIR / "bench.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

# A pass, a fail with witnesses, an inconclusive verdict, and the layers
# the workloads trace (spans, linalg, algebras, group actions, the search).
SMALL = ("mha_AG_C6", "pga_C6_full_alpha", "quasi_unitary_cap", "mutation_antipode")


# Ratios of two counts; the other ratios are built from times.
COUNT_RATIOS = ("spans.in_span_hit_ratio", "partial_actions.search_capped_ratio")


def traced(name, hashseed, tmp_path):
    trace_file = tmp_path / f"{name}-{hashseed}.json"
    inv = bench.run_traced(name, hashseed, bench.INVOKE_TIMEOUT_S, trace_file)
    return inv, json.loads(trace_file.read_text())["spans"]


@pytest.mark.parametrize("name", SMALL)
def test_traced_report_bytes_equal_untraced(name, tmp_path):
    plain = bench.run_cli(name, 11, bench.INVOKE_TIMEOUT_S)
    inv, spans = traced(name, 11, tmp_path)
    assert (inv.code, inv.stdout) == (plain.code, plain.stdout)
    assert [s["kind"] for s in spans][:1] == ["scenario"]
    assert {"build", "check", "render"} <= {s["kind"] for s in spans}


def test_two_traced_runs_give_identical_counts(tmp_path):
    runs = []
    for hashseed in (3, 4):
        spans = []
        for name in SMALL:
            spans += traced(name, hashseed, tmp_path)[1]
        metrics = bench.layer_metrics(spans, overhead_ratio=1.0)
        runs.append(
            {
                name: value
                for name, (value, unit) in metrics.items()
                if unit in ("count", "bytes") or name in COUNT_RATIOS
            }
        )
    assert runs[0] == runs[1]
    assert runs[0]["linalg.rref_calls"] > 0
    assert runs[0]["vectors.token_key_calls"] > 0
    assert runs[0]["partial_actions.search_capped_ratio"] == 1.0


@pytest.fixture
def goldens(tmp_path, monkeypatch):
    copy = tmp_path / "goldens"
    shutil.copytree(bench.GOLDENS, copy)
    monkeypatch.setattr(bench, "GOLDENS", copy)
    return copy


def test_corrupted_golden_report_is_a_failed_invocation(goldens):
    path = goldens / "mutation_antipode.json"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    runner = bench.Runner(seed=0)
    runner.run_pass(["mutation_antipode", "quasi_unitary_cap"])
    assert runner.attempted == 2
    assert runner.failures == [("mutation_antipode", "report bytes differ from the golden")]


def test_wrong_exit_code_is_a_failed_invocation(goldens):
    codes = json.loads((goldens / "exit_codes.json").read_text())
    codes["quasi_unitary_cap"] = 0
    (goldens / "exit_codes.json").write_text(json.dumps(codes))
    runner = bench.Runner(seed=0)
    runner.run_pass(["quasi_unitary_cap"])
    assert [name for name, _ in runner.failures] == ["quasi_unitary_cap"]
