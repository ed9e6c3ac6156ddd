import hashlib
import json
from pathlib import Path

import pytest

from plengths import Acm, RunConfig, verify_acm, verify_semigroup
from plengths.cli import main
from plengths.verify import cube_min_candidates, find_second_difference_start

QUICK = RunConfig(sweep=60, samples=8, power_limit=4, smooth_limit=20_000, m66_limit=2_000)

# Reference digests of the benchmark's command lines; read only.
REFS = json.loads((Path(__file__).parents[1] / "bench" / "refs.json").read_text())["cli"]

SEMIGROUP_CLAIM_IDS = {
    "l0max-constant", "l0min-periodic", "l1max-recurrence", "l1min-recurrence",
    "l2min-second-difference", "l2min-shift-invariance", "linfmax-closed-form",
    "linfmin-apery-bound", "linfmin-closed-form", "linfmin-lower-bound",
    "lpmax-quasipoly", "qp-table",
}
VERIFY_CLAIM_IDS = {
    "ns verify --gens 2,3 --seed 0":
        SEMIGROUP_CLAIM_IDS | {"l3min-floor-formula", "l3min-not-quasipolynomial"},
    "ns verify --gens 3,5,7 --seed 0": SEMIGROUP_CLAIM_IDS,
    "ns verify --gens 6,9,20 --seed 0": SEMIGROUP_CLAIM_IDS,
    "ns verify --gens 5,7,9,11 --seed 0": SEMIGROUP_CLAIM_IDS,
    "acm verify --a 4 --b 6": {
        "power-sandwich", "smooth-classifier", "max-support-closed-28",
        "max-support-closed-40", "construction-70", "good-atom-lower-bound",
        "evil-slots-bounded",
    },
    "acm verify --a 1 --b 4": {"power-sandwich", "hilbert-441", "stable-power-atoms"},
    "acm verify --a 6 --b 6": {"power-sandwich", "two-atom-split"},
}


class TestHarness:
    def test_semigroup_checks_pass(self, semigroups):
        report = verify_semigroup(semigroups[(3, 5, 7)], QUICK)
        assert report.passed, report.to_json()
        claims = [c.claim for c in report.checks]
        assert claims == sorted(claims)

    def test_cube_checks_only_for_two_three(self, semigroups):
        claims = {c.claim for c in verify_semigroup(semigroups[(2, 3)], QUICK).checks}
        assert "l3min-floor-formula" in claims
        claims357 = {c.claim for c in verify_semigroup(semigroups[(3, 5, 7)], QUICK).checks}
        assert "l3min-floor-formula" not in claims357

    def test_acm_checks_pass(self):
        for a, b in ((4, 6), (1, 4), (6, 6)):
            report = verify_acm(Acm(a, b), QUICK)
            assert report.passed, report.to_json()

    def test_failure_carries_counterexample(self):
        # the two-atom-split property is specific to (6, 6); running the same
        # check against (1, 4) must fail and name a concrete element (125 = 5^3
        # is the first reducible member needing three atoms)
        from plengths.verify import _check_two_atom_split, _run

        result = _run("two-atom-split", *_check_two_atom_split(Acm(1, 4), RunConfig(m66_limit=200)))
        assert not result.passed
        assert result.counterexample == {"x": 125, "l1_min": 3}

    def test_no_counterexamples_on_pass(self, semigroups):
        report = verify_semigroup(semigroups[(2, 3)], QUICK)
        for c in report.checks:
            assert c.counterexample is None

    def test_stabilization_points(self, semigroups):
        assert find_second_difference_start(semigroups[(2, 3)])[0] == 0
        assert find_second_difference_start(semigroups[(3, 5, 7)])[0] == 17
        assert find_second_difference_start(semigroups[(6, 9, 20)])[0] == 124

    def test_cube_candidates_bracket_optimum(self):
        for n in (100, 101, 102, 500, 911):
            cands = cube_min_candidates(n)
            assert all(c >= 0 and 2 * c <= n and (2 * n - c) % 3 == 0 for c in cands)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.budget == 10_000_000 and cfg.fmt == "json"

    def test_file_and_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": 77, "budget": 123}))
        cfg = RunConfig.load(str(path), {"budget": 456})
        assert cfg.sweep == 77 and cfg.budget == 456

    def test_env(self, monkeypatch):
        monkeypatch.setenv("PLENGTHS_SWEEP", "99")
        monkeypatch.setenv("PLENGTHS_WINDOW", "100:200")
        cfg = RunConfig.load()
        assert cfg.sweep == 99 and cfg.window == (100, 200)

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("PLENGTHS_SWEEP", "99")
        assert RunConfig.load(None, {"sweep": 11}).sweep == 11

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            RunConfig.load(None, {"budget": 0})


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_plength(self, capsys):
        code, out = self.run(
            capsys, "ns", "plength", "--gens", "2,3", "--n", "26", "--p", "inf", "--mode", "min"
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 6

    def test_apery(self, capsys):
        code, out = self.run(capsys, "ns", "apery", "--gens", "3,5,7", "--modulus", "3")
        assert code == 0 and json.loads(out)["entries"] == [0, 7, 5]

    def test_frobenius(self, capsys):
        code, out = self.run(capsys, "ns", "frobenius", "--gens", "6,9,20")
        assert code == 0 and json.loads(out)["frobenius"] == 43

    def test_factorizations(self, capsys):
        code, out = self.run(capsys, "ns", "factorizations", "--gens", "2,3", "--n", "6")
        assert code == 0
        assert json.loads(out)["factorizations"] == [[3, 0], [0, 2]]

    def test_acm_factorizations(self, capsys):
        code, out = self.run(capsys, "acm", "factorizations", "--a", "1", "--b", "4", "--x", "441")
        assert code == 0
        data = json.loads(out)
        assert len(data["factorizations"]) == 2

    def test_acm_atoms(self, capsys):
        code, out = self.run(capsys, "acm", "atoms", "--a", "1", "--b", "4", "--limit", "30")
        assert code == 0 and json.loads(out)["atoms"] == [5, 9, 13, 17, 21, 29]

    def test_growth_csv(self, capsys):
        code, out = self.run(
            capsys,
            "acm", "growth", "--a", "4", "--b", "6", "--x", "28",
            "--p", "0", "--mode", "max", "--nmax", "6", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "n,value"

    def test_invalid_input_exit_2(self, capsys):
        assert self.run(capsys, "ns", "frobenius", "--gens", "4,6")[0] == 2
        assert self.run(capsys, "acm", "atoms", "--a", "2", "--b", "4", "--limit", "9")[0] == 2

    def test_byte_identical_output(self, capsys):
        args = ["ns", "qp-table", "--gens", "2,3"]
        _, first = self.run(capsys, *args)
        _, second = self.run(capsys, *args)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "res.json"
        code, _ = self.run(
            capsys, "ns", "frobenius", "--gens", "2,3", "--out", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text())["frobenius"] == 1

    @pytest.mark.parametrize("command", sorted(VERIFY_CLAIM_IDS))
    def test_verify_matches_reference(self, capsys, command):
        code, out = self.run(capsys, *command.split())
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert (code, digest) == (REFS[command]["rc"], REFS[command]["digest"])
        assert {c["claim"] for c in json.loads(out)["checks"]} == VERIFY_CLAIM_IDS[command]

    def test_empty_window_fails(self, capsys):
        code, out = self.run(capsys, "ns", "verify", "--gens", "2,3", "--window", "0:5")
        data = json.loads(out)
        assert code == 1 and not data["passed"]
        empty = {c["claim"]: c for c in data["checks"] if not c["passed"]}
        assert set(empty) == {
            "l0max-constant", "l0min-periodic", "linfmax-closed-form", "linfmin-closed-form"
        }
        for c in empty.values():
            assert c["details"]["checked"] == 0
            assert c["counterexample"] == {"error": "nothing was examined"}

    def test_unknown_config_key_or_type_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        for data in ({"jobs": 2}, {"sweep": "200"}):
            path.write_text(json.dumps(data))
            assert self.run(capsys, "ns", "verify", "--gens", "2,3", "--config", str(path))[0] == 2

    def test_node_budget_is_unknown_exit_2(self, capsys, tmp_path, monkeypatch):
        argv = ["ns", "verify", "--gens", "2,3"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"node_budget": 5}))
        assert self.run(capsys, *argv, "--config", str(path))[0] == 2
        monkeypatch.setenv("PLENGTHS_NODE_BUDGET", "5")
        assert main(argv) == 2
        assert "PLENGTHS_NODE_BUDGET" in capsys.readouterr().err

    def test_window_not_a_pair_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        for window in ("200:800", [200], [200, 800.0]):
            path.write_text(json.dumps({"window": window}))
            assert self.run(capsys, "ns", "verify", "--gens", "2,3", "--config", str(path))[0] == 2

    def test_reversed_window_exit_2(self, capsys, tmp_path, monkeypatch):
        argv = ["ns", "verify", "--gens", "2,3"]
        assert self.run(capsys, *argv, "--window", "9:3")[0] == 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"window": [9, 3]}))
        assert self.run(capsys, *argv, "--config", str(path))[0] == 2
        monkeypatch.setenv("PLENGTHS_WINDOW", "9:3")
        assert self.run(capsys, *argv)[0] == 2

    def test_unknown_format_exit_2(self, capsys, tmp_path, monkeypatch):
        argv = ["acm", "growth", "--a", "4", "--b", "6", "--x", "28", "--p", "0", "--mode", "max"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"fmt": "xml"}))
        assert main([*argv, "--nmax", "2", "--config", str(path)]) == 2
        assert "fmt must be one of json, csv" in capsys.readouterr().err
        monkeypatch.setenv("PLENGTHS_FMT", "xml")
        assert main([*argv, "--nmax", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "fmt must be one of json, csv" in captured.err

    @pytest.mark.parametrize("value", ["9", "a:5"])
    def test_malformed_window_variable_is_named(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PLENGTHS_WINDOW", value)
        assert main(["ns", "verify", "--gens", "2,3"]) == 2
        err = capsys.readouterr().err
        assert "PLENGTHS_WINDOW" in err and "LO:HI" in err and repr(value) in err

    def test_growth_rejects_zero(self):
        argv = ["acm", "growth", "--a", "4", "--b", "6", "--x", "0", "--p", "1", "--mode", "max"]
        assert main([*argv, "--nmax", "3"]) == 2

    def test_qp_table_passes(self, capsys):
        code, out = self.run(capsys, "ns", "qp-table", "--gens", "3,5,7")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] and len(data["rows"]) == 9
