"""End-to-end driver behavior: exit codes, determinism, catalog, formats."""

import json
import os
import subprocess
import sys

import pytest

from mhopf.scenarios import builtin_scenarios

CLI = [sys.executable, "-m", "mhopf.cli"]

BUNDLED_EXIT = {
    "mha_axioms": 0,
    "example_fN_S3": 0,
    "pga_corner_S3": 0,
    "coaction_trivial": 0,
    "mutation_antipode": 1,
    "quasi_unitary_cap": 2,
}


def run_cli(*args, env=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def bundled_runs():
    return {name: run_cli("run", name) for name in BUNDLED_EXIT}


class TestExitCodes:
    def test_bundled_scenarios_hit_the_contract(self, bundled_runs):
        for name, want in BUNDLED_EXIT.items():
            assert bundled_runs[name].returncode == want, (
                name, bundled_runs[name].stderr)

    def test_pass_report_shape(self, bundled_runs):
        doc = json.loads(bundled_runs["mha_axioms"].stdout)
        assert doc["outcome"] == "pass"
        assert doc["schema"] == 1
        assert all(c["outcome"] == "pass" for c in doc["checks"])

    def test_fail_report_names_failing_checks(self, bundled_runs):
        doc = json.loads(bundled_runs["mutation_antipode"].stdout)
        assert doc["outcome"] == "fail"
        failing = [c for c in doc["checks"] if c["outcome"] == "fail"]
        assert failing

    def test_inconclusive_report(self, bundled_runs):
        doc = json.loads(bundled_runs["quasi_unitary_cap"].stdout)
        assert doc["outcome"] == "inconclusive"
        assert any(c["outcome"] == "inconclusive" for c in doc["checks"])
        assert not any(c["outcome"] == "fail" for c in doc["checks"])

    def test_malformed_json_exits_3(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"schema": 1, "name": "x",')
        res = run_cli("run", str(bad))
        assert res.returncode == 3
        assert "parse error at line" in res.stderr

    def test_unresolved_reference_exits_3(self, tmp_path):
        doc = {
            "schema": 1,
            "name": "dangling",
            "structures": [],
            "checks": [{"check": "mha_axioms", "target": "ghost"}],
        }
        f = tmp_path / "dangling.json"
        f.write_text(json.dumps(doc))
        res = run_cli("run", str(f))
        assert res.returncode == 3
        assert "unresolved reference" in res.stderr

    def test_missing_check_field_exits_3(self, tmp_path):
        doc = {
            "schema": 1,
            "name": "incomplete",
            "structures": [],
            "checks": [{"check": "mha_axioms"}],
        }
        f = tmp_path / "incomplete.json"
        f.write_text(json.dumps(doc))
        res = run_cli("run", str(f))
        assert res.returncode == 3
        assert "missing field" in res.stderr

    @pytest.mark.parametrize(
        "subgroup, message",
        [
            ("generated:[2", "generators '[2' are not a JSON list"),
            ("generated:[9]", "generator 9 is not an element of cyclic:6"),
        ],
        ids=["not_json", "outside_group"],
    )
    def test_bad_generated_subgroup_exits_3(self, tmp_path, subgroup, message):
        doc = {
            "schema": 1,
            "name": "bad_generators",
            "structures": [
                {"id": "G", "type": "group", "spec": "cyclic:6"},
                {"id": "P", "type": "action", "constructor": "example_fN",
                 "group": "G", "subgroup": subgroup},
            ],
            "checks": [{"check": "partial_action", "target": "P"}],
        }
        f = tmp_path / "bad_generators.json"
        f.write_text(json.dumps(doc))
        res = run_cli("run", str(f))
        assert res.returncode == 3
        assert message in res.stderr
        assert "Traceback" not in res.stderr

    def test_unknown_scenario_name_exits_3(self):
        res = run_cli("run", "no_such_scenario")
        assert res.returncode == 3


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self):
        a = run_cli("run", "example_fN_S3")
        b = run_cli("run", "example_fN_S3")
        assert a.stdout == b.stdout
        assert a.stdout.encode() == b.stdout.encode()

    @pytest.mark.parametrize("name", ["example_fN_S3", "pga_corner_S3", "coaction_trivial"])
    def test_reports_byte_identical_across_hash_seeds(self, name):
        # vector arithmetic iterates dicts, whose order for str tokens
        # follows the hash seed; no report may depend on it
        outs = {
            seed: run_cli("run", name, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "4242")
        }
        assert outs["0"] and outs["0"] == outs["4242"]

    def test_seed_recorded_and_changes_report_only_in_seed_field(self):
        base = json.loads(run_cli("run", "mha_axioms").stdout)
        seeded = json.loads(run_cli("run", "mha_axioms", "--seed", "99").stdout)
        assert seeded["seed"] == 99
        assert base["seed"] != 99
        # deterministic checks do not depend on the seed
        assert base["checks"] == seeded["checks"]

    def test_timing_is_on_stderr_not_stdout(self, bundled_runs):
        res = bundled_runs["mha_axioms"]
        assert "checks in" in res.stderr
        assert "checks in" not in res.stdout


class TestCatalog:
    def test_list_contains_required_entries(self):
        res = run_cli("list")
        assert res.returncode == 0
        assert "A_G:symmetric:3" in res.stdout
        assert "scenario:coaction_trivial" in res.stdout

    def test_list_ordering_stable(self):
        a = run_cli("list")
        b = run_cli("list")
        assert a.stdout == b.stdout
        lines = a.stdout.splitlines()
        assert lines == sorted(lines)

    def test_every_listed_instance_passes_mha_axioms(self, tmp_path):
        listed = [line.split(":", 2)[1:] for line in run_cli("list").stdout.splitlines()
                  if line.startswith("instance:")]
        assert listed
        for kind, group in listed:
            doc = {
                "schema": 1,
                "name": f"listed_{kind}",
                "structures": [
                    {"id": "G", "type": "group", "spec": group},
                    {"id": "M", "type": "instance", "kind": kind, "group": "G"},
                ],
                "checks": [{"check": "mha_axioms", "target": "M"}],
            }
            f = tmp_path / "listed.json"
            f.write_text(json.dumps(doc))
            res = run_cli("run", str(f))
            assert res.returncode == 0, (kind, group, res.stderr)

    def test_explain_known_check(self):
        res = run_cli("explain", "partial_coaction")
        assert res.returncode == 0
        assert res.stdout.strip()

    def test_explain_unknown_check(self):
        res = run_cli("explain", "nonsense")
        assert res.returncode == 3
        assert "error:" in res.stderr


class TestOutputOptions:
    def test_human_format(self):
        res = run_cli("run", "mutation_antipode", "--format", "human")
        assert res.returncode == 1
        assert "FAIL" in res.stdout

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        res = run_cli("run", "mha_axioms", "--out", str(target))
        assert res.returncode == 0
        assert res.stdout == ""
        doc = json.loads(target.read_text())
        assert doc["outcome"] == "pass"

    def test_window_flag_accepted(self):
        res = run_cli("run", "mha_axioms", "--window", "2")
        assert res.returncode == 0


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_window_flag_runs_every_bundled_scenario(name, window):
    # a window may turn verdicts into fail or inconclusive, never into a crash
    res = run_cli("run", name, "--window", str(window))
    assert "Traceback" not in res.stderr, res.stderr
    doc = json.loads(res.stdout)
    assert doc["window"] == window
    assert res.returncode == {"pass": 0, "fail": 1, "inconclusive": 2}[doc["outcome"]]
