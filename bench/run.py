#!/usr/bin/env python3
"""plengths benchmark: workloads measured from outside the package.

Usage (from the repository root):
  python3 bench/run.py --workload {ns-verify,acm,ns-query} --seed N --seconds T --trace {0,1}

ns-verify and acm run each operation as a fresh `python3 -m plengths.cli`
process, one at a time, in whole rotations over their inputs. ns-query runs
one long-lived library process (bench/query_worker.py) answering batches of
50 queries; it is not in BENCHMARK.json (see bench/README.md). Every
operation's output is checked against bench/refs.json.

--trace 0 prints the end-to-end metrics, with times scaled to a reference
host's speed (see bench/calib.py) and latency percentiles estimated with
Harrell-Davis (see quantile). --trace 1 runs every operation both
untraced and traced (bench/cli_child.py, or the worker with --trace) and
prints the per-layer metrics, per rotation (per set-up plus
QUERY_TRACE_BATCHES batches for ns-query), and the tracing overhead.

The last line of standard output is the result as one JSON object. Lines
before it give the environment and a readable summary; the full record,
with every operation and, for --trace 1, every span, is written to
bench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import workloads as W
from calib import Calibrator
from tracer import SPAN_NAMES

PY = sys.executable
WORKLOADS = ("ns-verify", "acm", "ns-query")

# Whole rotations per timed run, whatever --seconds says. With 11 or more
# ns-verify rotations the tail percentile (ten operations beyond it) lies at
# or inside the (5,7,9,11) runs, the slowest input; with fewer it would fall
# among a different input's runs from one run to the next.
MIN_ROTATIONS = {"ns-verify": 11, "acm": 12}
# An operation still running after this long has hung: it is killed, counted
# as failed, and the run stops.
OP_TIMEOUT_S = 120
# ns-query set-up is repeated this many times and its median reported.
QUERY_SETUP_SAMPLES = 3
QUERY_TRACE_BATCHES = 200

# Spans reported as <name>.calls and <name>.self_ms; verify.* and cli.main
# are reported through the claim times and cli.main.self_ms instead.
SPANS = tuple(n for n in SPAN_NAMES if not n.startswith(("verify.", "cli.")))
CLAIMS = (
    "l0max-constant",
    "l0min-periodic",
    "l1max-recurrence",
    "l1min-recurrence",
    "l2min-second-difference",
    "l2min-shift-invariance",
    "l3min-floor-formula",
    "l3min-not-quasipolynomial",
    "linfmax-closed-form",
    "linfmin-apery-bound",
    "linfmin-closed-form",
    "linfmin-lower-bound",
    "lpmax-quasipoly",
    "qp-table",
    "construction-70",
    "evil-slots-bounded",
    "good-atom-lower-bound",
    "max-support-closed-28",
    "max-support-closed-40",
    "power-sandwich",
    "smooth-classifier",
    "hilbert-441",
    "stable-power-atoms",
    "two-atom-split",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = W.SRC
    return env


def run_process(argv: list[str], timeout: float = OP_TIMEOUT_S) -> tuple[float, int | None, bytes, bytes]:
    """Run one child to completion: wall seconds, exit code (None when it was
    killed after `timeout` seconds), stdout, stderr. Only this child runs
    meanwhile."""
    t = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=W.ROOT, env=child_env()
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return time.perf_counter() - t, None, out, err
    return time.perf_counter() - t, proc.returncode, out, err


def peak_child_rss_kb() -> int:
    """Largest resident set of any child waited for so far, in KiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def check_cli(key: str, rc: int | None, out: bytes, err: bytes, refs: dict) -> str | None:
    """Why a CLI operation failed, or None when its answer is right."""
    if rc is None:
        return f"timed out after {OP_TIMEOUT_S} s"
    if b"Traceback (most recent call last)" in err:
        return "traceback: " + err.decode(errors="replace").strip().splitlines()[-1]
    ref = refs["cli"][key]
    if rc != ref["rc"]:
        return f"exit code {rc}, expected {ref['rc']}"
    if key.split()[1] == "verify":
        try:
            passed = json.loads(out)["passed"]
        except (ValueError, KeyError):
            return "verify report unreadable"
        if passed is not True:
            return "verify report has passed: false"
    if W.digest(out) != ref["digest"]:
        return "output digest differs from the reference"
    return None


def rotations(workload: str, seed: int):
    """Endless seeded rotations; each holds every input of the workload once."""
    rng = random.Random(seed)
    powers = list(W.ACM_POWERS)
    rng.shuffle(powers)
    for r in itertools.count():
        if workload == "ns-verify":
            yield W.ns_verify_rotation(rng)
        else:
            yield W.acm_rotation(rng, r, powers)


# ---------------------------------------------------------------------------
# Fresh-process workloads: ns-verify and acm.
# ---------------------------------------------------------------------------


def cli_setup(workload: str, seed: int) -> tuple[float, list, dict]:
    """Make the inputs, load the references, and warm the interpreter's
    module cache with one import of plengths in a child process."""
    t = time.perf_counter()
    rots = list(itertools.islice(rotations(workload, seed), 200))
    refs = W.load_refs()
    _, rc, _, err = run_process([PY, "-c", "import plengths.cli"])
    if rc != 0:
        raise SystemExit("cannot import plengths: " + err.decode(errors="replace"))
    return time.perf_counter() - t, rots, refs


def run_cli_op(key: str, traced: bool, refs: dict) -> dict:
    argv = key.split()
    if not traced:
        wall, rc, out, err = run_process([PY, "-m", "plengths.cli", *argv])
        return {"key": key, "wall_s": wall, "rc": rc, "failure": check_cli(key, rc, out, err, refs)}
    wall, rc, raw, err = run_process([PY, os.path.join(W.HERE, "cli_child.py"), *argv])
    op = {"key": key, "wall_s": wall, "rc": rc}
    try:
        res = json.loads(raw)
    except ValueError:
        op["failure"] = check_cli(key, rc, raw, err, refs) or "traced run printed no result"
        return op
    op["failure"] = check_cli(key, res["rc"], res["out"].encode(), err, refs)
    op["import_s"] = res["import_s"]
    op["trace"] = res["trace"]
    return op


def cli_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        return cli_rotations(workload, seed, seconds, None)
    with Calibrator() as calibrator:
        return cli_rotations(workload, seed, seconds, calibrator)


def cli_rotations(workload: str, seed: int, seconds: float, calibrator: Calibrator | None) -> dict:
    # One set-up before the first timed operation, then one more after every
    # rotation, so the reported median spans the whole run. Untraced runs
    # (with a calibrator) measure the host's slowness between every two steps
    # and scale each step by the two measurements around it; they stop once
    # the scaled operation time reaches `seconds`, which makes the number of
    # rotations all but independent of the host's speed. Traced runs stop on
    # wall time.
    trace = calibrator is None
    calibs: list[float] = []

    def scaled(wall: float) -> float:
        calibs.append(calibrator.measure())
        return wall * 2 / (calibs[-2] + calibs[-1])

    if not trace:
        calibs.append(calibrator.measure())
    setup_s, rots, refs = cli_setup(workload, seed)
    setups, scaled_setups = [setup_s], []
    if not trace:
        scaled_setups.append(scaled(setup_s))
    ops, traced_ops = [], []
    timed, done = 0.0, 0
    for keys in rots:
        t_rot = time.perf_counter()
        for i, key in enumerate(keys):
            if not trace:
                op = run_cli_op(key, False, refs)
                op["scaled_s"] = scaled(op["wall_s"])
                timed += op["scaled_s"]
                ops.append(op)
                continue
            # alternate which side runs first, so drift hits both alike
            for traced in ((False, True) if (done + i) % 2 == 0 else (True, False)):
                (traced_ops if traced else ops).append(run_cli_op(key, traced, refs))
        if trace:
            timed += time.perf_counter() - t_rot
        done += 1
        hung = any(op["rc"] is None for op in ops[-len(keys):] + traced_ops[-len(keys):])
        if hung or (timed >= seconds and (trace or done >= MIN_ROTATIONS[workload])):
            break
        if not trace:
            setups.append(cli_setup(workload, seed)[0])
            scaled_setups.append(scaled(setups[-1]))
    return {
        "setups": setups,
        "scaled_setups": scaled_setups,
        "calibs": calibs,
        "ops": ops,
        "traced_ops": traced_ops,
        "timed_s": timed,
        "units": done,
        # before the calibration process ends: it is no plengths process
        "peak_rss_kb": peak_child_rss_kb(),
    }


# ---------------------------------------------------------------------------
# ns-query: one long-lived library process.
# ---------------------------------------------------------------------------


def query_workload(seed: int, seconds: float, trace: bool) -> dict:
    result = {"setups": [], "ops": [], "traced_ops": [], "errors": [], "units": 0}

    def worker(args):
        argv = [PY, os.path.join(W.HERE, "query_worker.py"), "--seed", str(seed), *args]
        _, rc, out, err = run_process(argv, OP_TIMEOUT_S + seconds)
        if rc == 0:
            return json.loads(out)
        why = "timed out" if rc is None else err.decode(errors="replace").strip()[-500:]
        result["errors"].append(why)
        return None

    if not trace:
        for _ in range(QUERY_SETUP_SAMPLES - 1):
            res = worker(["--setup-only"])
            if res:
                result["setups"].append(res["setup_s"])
        res = worker(["--seconds", str(seconds)])
        if res:
            result["setups"].append(res["setup_s"])
            result["run"] = res
        result["peak_rss_kb"] = peak_child_rss_kb()
        return result
    t_start = time.perf_counter()
    batches = ["--batches", str(QUERY_TRACE_BATCHES)]
    while True:
        first, second = (False, True) if result["units"] % 2 == 0 else (True, False)
        for traced in (first, second):
            res = worker(batches + (["--trace"] if traced else []))
            if res:
                (result["traced_ops"] if traced else result["ops"]).append(res)
        result["units"] += 1
        if result["errors"] or time.perf_counter() - t_start >= seconds:
            break
    return result


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of xs (0 < p < 1): the mean
    of the sorted values weighted by how much of a Beta((n+1)p, (n+1)(1-p))
    distribution falls on each one's rank interval [i/n, (i+1)/n]. It uses
    every value, so it moves far less from run to run than the single order
    statistic does, above all where the inputs' latencies form separate
    groups and the quantile falls between two of them."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(u: float) -> float:
        if u <= 0.0 or u >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_beta)

    steps = 16  # Simpson's rule on each rank interval
    total = weights = 0.0
    for i, x in enumerate(xs):
        h = 1.0 / (n * steps)
        u0 = i / n
        w = density(u0) + density(u0 + steps * h)
        w += sum((4 if k % 2 else 2) * density(u0 + k * h) for k in range(1, steps))
        total += w * x
        weights += w
    return total / weights


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten operations beyond it, and
    its Harrell-Davis estimate. Returns (percentile, value)."""
    n = len(latencies)
    if n <= 10:
        return 100.0, max(latencies)
    p = (n - 10) / n
    return 100.0 * p, quantile(latencies, p)


def end_to_end(workload: str, res: dict) -> tuple[dict, int, int, dict]:
    raw = {}
    if workload == "ns-query":
        run = res.get("run") or {"latencies": [], "failed": 0}
        lats = run["latencies"]
        attempted = len(lats) + len(res["errors"])
        failed = run["failed"] + len(res["errors"])
        timed = run.get("run_s", 0.0)
        setups = res["setups"]
    else:
        # Scaled to the reference host (see bench/calib.py); raw times below.
        lats = [op["scaled_s"] for op in res["ops"]]
        attempted = len(lats)
        failed = sum(op["failure"] is not None for op in res["ops"])
        timed = res["timed_s"]
        setups = res["scaled_setups"]
        wall = [op["wall_s"] for op in res["ops"]]
        raw = {
            "raw_ops_per_s": (len(wall) / sum(wall), "1/s"),
            "raw_op_p50_ms": (quantile(wall, 0.5) * 1000, "ms"),
            "raw_op_tail_ms": (tail(wall)[1] * 1000, "ms"),
            "raw_setup_s": (statistics.median(res["setups"]), "s"),
            "host_slowness": (statistics.median(res["calibs"]), "ratio"),
        }
    if not lats or not setups:
        raise SystemExit("no operation completed: " + "; ".join(res.get("errors", [])))
    pct, tail_s = tail(lats)
    metrics = {
        "ops_per_s": (len(lats) / timed, "1/s"),
        "op_p50_ms": (quantile(lats, 0.5) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    # error_rate is 0 when every answer is right, so it is reported here and
    # through the result's attempted/failed counts, not as a gated metric.
    extra = {
        "error_rate": (failed / attempted, "ratio"),
        "op_tail_percentile": pct,
        "op_count": len(lats),
        **raw,
    }
    if workload != "ns-query":
        extra["rotations"] = res["units"]
    return metrics, attempted, failed, extra


def per_layer(workload: str, res: dict) -> tuple[dict, int, int, dict]:
    units = max(res["units"], 1)
    traced = res["traced_ops"]
    totals = {name: [0, 0.0] for name in SPANS + ("cli.main",)}
    counters: dict[str, int] = {}
    claims: dict[str, float] = {}
    for op in traced:
        tr = op.get("trace")
        if not tr:
            continue
        for name, (calls, self_s) in tr["totals"].items():
            if name in totals:
                totals[name][0] += calls
                totals[name][1] += self_s
        for name, n in tr["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for name, s in tr["claims"].items():
            claims[name] = claims.get(name, 0.0) + s
    m: dict[str, tuple] = {}
    for name in SPANS:
        m[f"{name}.calls"] = (totals[name][0] / units, "count")
        m[f"{name}.self_ms"] = (totals[name][1] * 1000 / units, "ms")
    m["factor.extremal_values.cells_requested"] = (
        counters.get("factor.extremal_values.cells_requested", 0) / units, "count")
    m["acm.factorizations.returned"] = (counters.get("acm.factorizations.returned", 0) / units, "count")
    enumerated = counters.get("acm.factorizations.enumerated_for_optimum", 0)
    optima = totals["acm.extremal_plength"][0]
    m["acm.useful_ratio"] = (optima / enumerated if enumerated else 0.0, "ratio")
    for claim in CLAIMS:
        m[f"verify.{claim}.ms"] = (claims.get(claim, 0.0) * 1000 / units, "ms")
    m["verify.checked"] = (counters.get("verify.checked", 0) / units, "count")
    imports = [op["import_s"] for op in traced if "import_s" in op]
    m["cli.import_ms"] = (statistics.mean(imports) * 1000 if imports else 0.0, "ms")
    m["cli.main.self_ms"] = (totals["cli.main"][1] * 1000 / units, "ms")

    plain = sum(op["wall_s"] for op in res["ops"])
    with_trace = sum(op["wall_s"] for op in traced)
    if not plain or not with_trace:
        raise SystemExit("no operation completed: " + "; ".join(res.get("errors", [])))
    m["trace.overhead_pct"] = (100.0 * (with_trace / plain - 1.0), "%")
    if workload == "ns-query":
        runs = res["ops"] + traced
        failed = sum(op["failed"] for op in runs) + len(res["errors"])
        attempted = sum(len(op["latencies"]) for op in runs) + len(res["errors"])
    else:
        failed = sum(op["failure"] is not None for op in res["ops"] + traced)
        attempted = len(res["ops"]) + len(traced)
    return m, attempted, failed, {"error_rate": (failed / attempted, "ratio"), "units": units}


def failure_notes(res: dict) -> list[str]:
    notes = list(res.get("errors", []))
    for op in res.get("ops", []) + res.get("traced_ops", []) + [res.get("run") or {}]:
        if op.get("failure"):
            notes.append(f"{op['key']}: {op['failure']}")
        notes += [json.dumps(f, default=str) for f in op.get("failures", [])]
    return notes


# ---------------------------------------------------------------------------


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(W.ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "source_digest": W.source_digest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(W.SRC, "plengths", "cli.py")):
        print(f"plengths sources not found under {W.SRC}", file=sys.stderr)
        return 2

    if args.workload == "ns-query":
        res = query_workload(args.seed, args.seconds, bool(args.trace))
    else:
        res = cli_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(args)  # after the workload: its git child must not count in peak RSS
    metrics, attempted, failed, extra = (per_layer if args.trace else end_to_end)(args.workload, res)

    os.makedirs(W.OUT_DIR, exist_ok=True)
    path = os.path.join(W.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "summary": extra, "raw": res}, fh, default=str)

    print("env " + json.dumps(env))
    for name, value in list(metrics.items()) + list(extra.items()):
        if isinstance(value, tuple):
            print(f"  {name:48s} {value[0]:14.4f} {value[1]}")
        else:
            print(f"  {name:48s} {value}")
    for note in failure_notes(res)[:5]:
        print("  failure: " + note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
