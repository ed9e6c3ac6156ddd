"""What a fresh `plengths` process pays before it runs a command: the
modules `import plengths.cli` loads, and the parser `build_parser` builds."""

import math
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from plengths.cli import build_parser

ROOT = Path(__file__).parents[1]

COMMON_ARGV = [
    "--format", "csv", "--out", "o.txt", "--budget", "5", "--window", "1:9", "--seed", "3",
    "--timing",
]
COMMON = dict(fmt="csv", out="o.txt", budget=5, window=(1, 9), seed=3, timing=True)

# (family, command): (argv after the command without the common flags, parsed values)
FULL_ARGV = {
    ("ns", "apery"): (["--gens", "3,5,7", "--modulus", "3"], dict(gens=[3, 5, 7], modulus=3)),
    ("ns", "frobenius"): (["--gens", "6, 9,20"], dict(gens=[6, 9, 20])),
    ("ns", "factorizations"): (["--gens", "2,3", "--n", "6"], dict(gens=[2, 3], n=6)),
    ("ns", "plength"): (
        ["--gens", "2,3", "--n", "26", "--p", "inf", "--mode", "min"],
        dict(gens=[2, 3], n=26, p=math.inf, mode="min"),
    ),
    ("ns", "verify"): (["--gens", "5,7,9,11"], dict(gens=[5, 7, 9, 11])),
    ("ns", "qp-table"): (["--gens", "3,5,7"], dict(gens=[3, 5, 7])),
    ("acm", "atoms"): (["--a", "1", "--b", "4", "--limit", "30"], dict(a=1, b=4, limit=30)),
    ("acm", "factorizations"): (["--a", "1", "--b", "4", "--x", "441"], dict(a=1, b=4, x=441)),
    ("acm", "plength"): (
        ["--a", "4", "--b", "6", "--x", "70", "--p", "2", "--mode", "max"],
        dict(a=4, b=6, x=70, p=2, mode="max"),
    ),
    ("acm", "verify"): (["--a", "6", "--b", "6"], dict(a=6, b=6)),
    ("acm", "growth"): (
        ["--a", "4", "--b", "6", "--x", "28", "--p", "oo", "--mode", "min", "--nmax", "6"],
        dict(a=4, b=6, x=28, p=math.inf, mode="min", nmax=6),
    ),
}
SUBJECT_FLAGS = {"ns": ["--gens"], "acm": ["--a", "--b"]}


def test_import_loads_every_traced_module_and_nothing_unused():
    """The benchmark's tracer wraps functions in these modules right after
    `import plengths.cli`, so all must be loaded; dataclasses (with inspect)
    and fractions cost start-up time that no command needs."""
    targets = runpy.run_path(str(ROOT / "bench" / "tracer.py"))["TARGETS"]
    wanted = {module for _, module, _ in targets}
    code = "import sys; sys.path.insert(0, sys.argv[1]); import plengths.cli; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(proc.stdout.split())
    assert wanted <= loaded, wanted - loaded
    assert not loaded & {"dataclasses", "inspect", "fractions"}


@pytest.mark.parametrize("command", sorted(FULL_ARGV), ids=" ".join)
def test_full_argv_parses(command):
    argv, values = FULL_ARGV[command]
    family, name = command
    args = build_parser().parse_args([family, name, *argv, *COMMON_ARGV])
    assert vars(args) == {"family": family, "command": name, **values, **COMMON}


@pytest.mark.parametrize("command", sorted(FULL_ARGV), ids=" ".join)
def test_help_lists_subject_flags_first(command, capsys):
    family, name = command
    with pytest.raises(SystemExit):
        build_parser().parse_args([family, name, "--help"])
    options = capsys.readouterr().out.split("options:")[1]
    flags = [line.split()[0].rstrip(",") for line in options.splitlines() if line.startswith("  -")]
    assert flags[: flags.index("--format")] == ["-h", *SUBJECT_FLAGS[family]]
