import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from plengths import Acm, RunConfig, verify_acm, verify_semigroup
from plengths.cli import main
from plengths.ns_claims import cube_min_candidates, find_second_difference_start

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
# The benchmark's acm commands that are no report: stdout and exit code only.
ACM_COMMANDS = (
    "acm growth --a 4 --b 6 --x 70 --p inf --mode min --nmax 16",
    f"acm plength --a 4 --b 6 --x {70**11} --p 1 --mode max",
    f"acm plength --a 4 --b 6 --x {70**12} --p 1 --mode max",
)


class TestHarness:
    def test_semigroup_checks_pass(self, semigroups):
        report = verify_semigroup(semigroups[(3, 5, 7)])
        assert report.passed, report.to_json()
        claims = [c.claim for c in report.checks]
        assert claims == sorted(claims)

    def test_cube_checks_only_for_two_three(self, semigroups):
        claims = {c.claim for c in verify_semigroup(semigroups[(2, 3)]).checks}
        assert "l3min-floor-formula" in claims
        claims357 = {c.claim for c in verify_semigroup(semigroups[(3, 5, 7)]).checks}
        assert "l3min-floor-formula" not in claims357

    def test_acm_checks_pass(self):
        for a, b in ((4, 6), (1, 4), (6, 6)):
            report = verify_acm(Acm(a, b))
            assert report.passed, report.to_json()

    def test_failure_carries_counterexample(self):
        # the two-atom-split property is specific to (6, 6); running the same
        # check against (1, 4) must fail and name a concrete element (125 = 5^3
        # is the first reducible member needing three atoms)
        from plengths.acm_claims import _check_two_atom_split
        from plengths.verify import _run

        result = _run("two-atom-split", *_check_two_atom_split(Acm(1, 4), RunConfig(), 200))
        assert not result.passed
        assert result.counterexample == {"x": 125, "l1_min": 3}

    def test_no_counterexamples_on_pass(self, semigroups):
        report = verify_semigroup(semigroups[(2, 3)])
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
        assert RunConfig._fields == ("budget", "window", "seed", "fmt")
        assert cfg.budget == 10_000_000 and cfg.fmt == "json"
        assert not hasattr(RunConfig, "load")

    def test_rejects_bad_budget(self, capsys):
        assert main(["ns", "verify", "--gens", "2,3", "--budget", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: budget must be >= 1\n"

    def test_environment_is_not_read(self, capsys, monkeypatch):
        """Settings come from the command line alone: PLENGTHS_ variables,
        known or not, change neither output nor exit code."""
        monkeypatch.setenv("PLENGTHS_SWEEP", "5")
        monkeypatch.setenv("PLENGTHS_FOO", "1")
        command = "ns verify --gens 2,3 --seed 0"
        code = main(command.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
        assert (code, digest) == (REFS[command]["rc"], REFS[command]["digest"])
        assert main(["ns", "frobenius", "--gens", "2,3"]) == 0


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

    def test_acm_plength_budget(self, capsys):
        """--budget caps the enumeration behind p >= 2 as it caps acm
        factorizations: both refuse 70^6, which has more than 5."""
        x = str(70**6)
        for extra in (["plength", "--p", "2", "--mode", "max"], ["factorizations"]):
            argv = ["acm", extra[0], "--a", "4", "--b", "6", "--x", x, *extra[1:], "--budget", "5"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: more than 5 factorizations of {x}\n"

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

    def test_table_over_byte_limit_exit_2(self, capsys):
        argv = ["ns", "plength", "--gens", "3,5,7", "--n", "1000000000", "--p", "2", "--mode", "max"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and peak < 16 << 20
        assert captured.out == ""
        assert captured.err.startswith("error: tables up to 1000000000 would take")
        assert captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("command", sorted(VERIFY_CLAIM_IDS) + list(ACM_COMMANDS))
    def test_verify_matches_reference(self, capsys, command):
        code, out = self.run(capsys, *command.split())
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert (code, digest) == (REFS[command]["rc"], REFS[command]["digest"])
        if command in VERIFY_CLAIM_IDS:
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

    def refused(self, capsys, *argv) -> str:
        """argparse rejects argv: exit 2, nothing on stdout; its stderr."""
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        return captured.err

    def test_unknown_config_key_or_type_exit_2(self, capsys):
        """No config file is read, and the claim bounds are no settings."""
        argv = ["ns", "verify", "--gens", "2,3"]
        assert "unrecognized arguments: --config x.json" in self.refused(
            capsys, *argv, "--config", "x.json"
        )
        assert "unrecognized arguments: --sweep" in self.refused(capsys, *argv, "--sweep", "200")
        assert "argument --budget: invalid int value" in self.refused(
            capsys, *argv, "--budget", "1e6"
        )

    def test_node_budget_is_unknown_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PLENGTHS_NODE_BUDGET", "5")
        assert main(["acm", "atoms", "--a", "1", "--b", "4", "--limit", "9"]) == 0
        capsys.readouterr()
        self.refused(capsys, "acm", "verify", "--a", "4", "--b", "6", "--node-budget", "5")

    def test_window_not_a_pair_exit_2(self, capsys):
        for value in ("200:800.0", "1:2:3"):
            err = self.refused(capsys, "ns", "verify", "--gens", "2,3", "--window", value)
            assert "LO:HI" in err and repr(value) in err

    @pytest.mark.parametrize("value", ["9", "a:5"])
    def test_malformed_window_variable_is_named(self, capsys, monkeypatch, value):
        """A malformed window in PLENGTHS_WINDOW is ignored; the same value
        given to --window is refused, naming the option and the value."""
        monkeypatch.setenv("PLENGTHS_WINDOW", value)
        assert main(["ns", "frobenius", "--gens", "2,3"]) == 0
        capsys.readouterr()
        err = self.refused(capsys, "ns", "verify", "--gens", "2,3", "--window", value)
        assert "--window" in err and "LO:HI" in err and repr(value) in err

    def test_reversed_window_exit_2(self, capsys):
        assert main(["ns", "verify", "--gens", "2,3", "--window", "9:3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: window needs 0 <= start <= end, not (9, 3)\n"

    def test_unknown_format_exit_2(self, capsys):
        argv = ["acm", "growth", "--a", "4", "--b", "6", "--x", "28", "--p", "0", "--mode", "max"]
        err = self.refused(capsys, *argv, "--nmax", "2", "--format", "xml")
        assert "argument --format: invalid choice: 'xml'" in err

    def test_growth_rejects_zero(self):
        argv = ["acm", "growth", "--a", "4", "--b", "6", "--x", "0", "--p", "1", "--mode", "max"]
        assert main([*argv, "--nmax", "3"]) == 2

    def test_qp_table_passes(self, capsys):
        code, out = self.run(capsys, "ns", "qp-table", "--gens", "3,5,7")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] and len(data["rows"]) == 9
