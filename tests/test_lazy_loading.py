"""Which plengths modules a process runs, and what stays reachable.

The package registers its modules lazily, so a command runs only its own
family's modules; the benchmark's tracer still finds and wraps every target,
and every public name still resolves. The subprocess tests need no pytest:
they also run as plain functions, e.g. under a Python without it.
"""

import json
import subprocess
import sys
from pathlib import Path

import plengths

ROOT = Path(__file__).parents[1]
SRC = str(ROOT / "src")

NS_MODULES = {"plengths.semigroup", "plengths.factor", "plengths.quasipoly", "plengths.ns_claims"}
ACM_MODULES = {"plengths.acm", "plengths.acm46", "plengths.acm_claims"}

# Runs `cli.main` on argv, if any, and prints the plengths modules whose
# bodies ran: a lazy module not yet loaded is of a ModuleType subclass, and
# type() reads no attribute, so listing them loads nothing.
RUN_COMMAND = """
import contextlib, io, json, sys, types
sys.path.insert(0, sys.argv[1])
from plengths import cli
rc = 0
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if sys.argv[2:]:
        rc = cli.main(sys.argv[2:])
ran = sorted(k for k, m in list(sys.modules.items())
             if k.startswith("plengths.") and type(m) is types.ModuleType)
print(json.dumps({"rc": rc, "ran": ran, "fractions": "fractions" in sys.modules}))
"""

# Installs the benchmark's tracer, runs one command of each family through
# `cli.main`, and prints which targets are unwrapped and the call totals.
TRACE_COMMANDS = """
import contextlib, io, json, runpy, sys
sys.path.insert(0, sys.argv[1])
bench = runpy.run_path(sys.argv[2])
tracer = bench["Tracer"]()
tracer.install()
from plengths import cli
rcs = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rcs.append(cli.main(["ns", "verify", "--gens", "2,3"]))
    rcs.append(cli.main(["acm", "growth", "--a", "4", "--b", "6", "--x", "70", "--p", "inf",
                         "--mode", "min", "--nmax", "16"]))
unwrapped = []
for _, modname, attr in bench["TARGETS"]:
    owner = sys.modules[modname]
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    if not hasattr(vars(owner)[name], "__wrapped__"):
        unwrapped.append(modname + "." + attr)
by_name = hasattr(sys.modules["plengths.ns_claims"].qp_detect, "__wrapped__")
calls = {name: total[0] for name, total in tracer.totals.items()}
print(json.dumps({"rcs": rcs, "unwrapped": unwrapped, "by_name": by_name, "calls": calls}))
"""

# Threads that start together on modules no thread has run yet, in a fresh
# process, where nothing has loaded them first. "grow": four threads grow one
# factor table, as test_table_builder's concurrent test does. "replay": four
# threads replay claims, reaching ns_claims, quasipoly, factor, acm_claims and
# acm46 through verify. Prints each thread's error, if any, and whether each
# result equals a sequential rerun.
RUN_THREADS = """
import json, sys, threading
sys.path.insert(0, sys.argv[1])
from plengths import Acm, NumericalSemigroup, factor, verify_acm, verify_semigroup
S = NumericalSemigroup((3, 5, 7))
jobs = {
    "grow": [lambda k=k: [factor.extremal_values(S, n, 2, "min") for n in range(k * 5, 300, 23)]
             for k in range(4)],
    "replay": [lambda: verify_semigroup(NumericalSemigroup((2, 3))).to_json(),
               lambda: verify_acm(Acm(4, 6)).to_json()] * 2,
}[sys.argv[2]]
start = threading.Barrier(len(jobs), timeout=60)
results, errors = [None] * len(jobs), []

def worker(i):
    try:
        start.wait()
        results[i] = jobs[i]()
    except Exception as exc:
        errors.append(repr(exc))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps({"alive": any(t.is_alive() for t in threads), "errors": errors,
                  "same": [r == job() for r, job in zip(results, jobs)]}))
"""


def _child(code: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC, *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def test_each_family_runs_only_its_own_modules():
    res = _child(RUN_COMMAND, "ns", "verify", "--gens", "2,3")
    assert res["rc"] == 0
    ran = set(res["ran"])
    assert NS_MODULES <= ran and not ran & ACM_MODULES, ran

    for argv in (
        ["acm", "verify", "--a", "4", "--b", "6"],
        ["acm", "growth", "--a", "4", "--b", "6", "--x", "70", "--p", "inf", "--mode", "min",
         "--nmax", "16"],
    ):
        res = _child(RUN_COMMAND, *argv)
        assert res["rc"] == 0
        ran = set(res["ran"])
        assert {"plengths.acm", "plengths.acm46"} <= ran and not ran & NS_MODULES, ran
        assert not res["fractions"]


BASE = {"plengths.cli", "plengths.common", "plengths.errors"}
ACM_VERIFY = BASE | {"plengths.acm", "plengths.acm_claims", "plengths.verify"}

# argv -> every plengths module whose body the command runs: the five acm
# commands of the benchmark, `ns verify` and `ns plength`, and (no argv)
# `import plengths.cli` alone.
COMMAND_MODULES = {
    (): BASE,
    ("acm", "verify", "--a", "4", "--b", "6"): ACM_VERIFY | {"plengths.acm46"},
    ("acm", "verify", "--a", "1", "--b", "4"): ACM_VERIFY,
    ("acm", "verify", "--a", "6", "--b", "6"): ACM_VERIFY,
    ("acm", "plength", "--a", "4", "--b", "6", "--x", str(70**11), "--p", "1", "--mode", "max"):
        BASE | {"plengths.acm"},
    ("acm", "growth", "--a", "4", "--b", "6", "--x", "70", "--p", "inf", "--mode", "min",
     "--nmax", "16"): BASE | {"plengths.acm", "plengths.acm46"},
    ("ns", "verify", "--gens", "2,3"): BASE | NS_MODULES | {"plengths.verify"},
    ("ns", "plength", "--gens", "3,5,7", "--n", "100", "--p", "2", "--mode", "min"):
        BASE | {"plengths.semigroup", "plengths.factor"},
}

def test_each_command_runs_exactly_the_modules_it_calls():
    """acm46 runs only for (4, 6) verify and growth, and verify only for
    verify commands; `import plengths.cli` runs neither."""
    wrong = {}
    for argv, want in COMMAND_MODULES.items():
        res = _child(RUN_COMMAND, *argv)
        assert res["rc"] == 0, argv
        if set(res["ran"]) != want:
            wrong[" ".join(argv)] = sorted(set(res["ran"]) ^ want)
    assert wrong == {}


def test_threads_may_share_modules_no_thread_has_run():
    for scenario in ("grow", "replay"):
        res = _child(RUN_THREADS, scenario)
        assert not res["alive"], scenario
        assert res["errors"] == [], scenario
        assert res["same"] == [True] * 4, scenario


def test_benchmark_tracer_wraps_every_target():
    res = _child(TRACE_COMMANDS, str(ROOT / "bench" / "tracer.py"))
    assert res["rcs"] == [0, 0]
    assert res["unwrapped"] == []
    assert res["by_name"]  # a name another module imported is wrapped there too
    for name in ("factor.extremal_values", "acm46.growth_series", "verify.claim", "cli.main"):
        assert res["calls"][name] > 0, name


def test_public_names_resolve_to_their_defining_module():
    star: dict = {}
    exec("from plengths import *", star)
    for name in plengths.__all__:
        obj = getattr(plengths, name)
        home = sys.modules[f"plengths.{plengths._HOMES[name]}"]
        assert obj is getattr(home, name) is star[name], name
        if getattr(obj, "__module__", "").startswith("plengths."):
            assert obj.__module__ == home.__name__, name
    assert set(star) - {"__builtins__"} == set(plengths.__all__)
    assert set(plengths.__all__) <= set(dir(plengths))


def test_unknown_public_name_raises_attribute_error():
    try:
        plengths.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("plengths.no_such_name resolved")
    assert not hasattr(plengths, "_private_helper")
