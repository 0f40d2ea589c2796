"""Benchmark of weyl-canon: three workloads, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

    python3 bench/run.py --workload catalog_classify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is taken from ``src/``
there (pure Python, nothing to build).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; failed checks are listed on standard error.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

SETUP_SAMPLES = 5          # set-up is measured this many times per run
CHILD_GRACE_S = 90         # a child may run this long past --seconds
PIECEWISE_WARMUP = 8       # untimed operations before the piecewise loop
SPAN_KEYS = ("op", "id", "parent", "name", "start_ns", "end_ns", "counts")


class BenchError(RuntimeError):
    pass


class Outcome(NamedTuple):
    attempted: int
    failed: int
    unexpected: list        # messages of failed checks other than the known fault
    values: dict            # metric name -> value
    weakest: tuple          # (digits, label) of the least accurate checked output
    spans: list | None      # traced runs only


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

class Child(NamedTuple):
    code: int
    stdout: str
    stderr: str
    wall_ns: int
    maxrss_mb: float


def run_child(argv, stdin_text="", timeout=120.0):
    """Run one child process to its end: its output, wall time from spawn
    to exit, and its own peak RSS (from wait4).  The child gets the
    checkout's ``src`` as PYTHONPATH and no WEYL_CANON_THREADS."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"child-{os.getpid()}"
    paths = [stem.with_suffix(s) for s in (".in", ".out", ".err")]
    paths[0].write_text(stdin_text)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("WEYL_CANON_THREADS", None)
    try:
        with open(paths[0]) as fin, open(paths[1], "w") as fout, \
                open(paths[2], "w") as ferr:
            env["BENCH_T_SPAWN_NS"] = str(time.monotonic_ns())
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall_ns = time.monotonic_ns() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, paths[1].read_text(), paths[2].read_text(),
                     wall_ns, usage.ru_maxrss / 1024.0)
    finally:
        for p in paths:
            p.unlink(missing_ok=True)


def run_worker(job, seconds=0.0):
    """Run worker.py on one job; returns its result line."""
    child = run_child([sys.executable, str(HERE / "worker.py")], json.dumps(job),
                      timeout=seconds + CHILD_GRACE_S)
    if child.code != 0:
        raise BenchError(f"worker ({job['mode']}) exited with {child.code}:\n"
                         f"{child.stderr[-3000:]}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    module = Path(result["weyl_canon_file"]).resolve()
    if SRC.resolve() not in module.parents:
        raise BenchError(f"weyl_canon was imported from {module}, not from {SRC}")
    return result


def setup_samples(job, trace):
    """Set-up times of SETUP_SAMPLES - 1 fresh processes; the process that
    runs the workload gives one more."""
    if trace:
        return []
    return [run_worker(dict(job, mode="setup"))["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]


def cplx(z):
    return [float(complex(z).real), float(complex(z).imag)]


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def typical_op_ms(times_ns, per_round):
    """Each input's median time over the rounds, averaged over the inputs
    of one round: every input counts equally, and the figure does not jump
    between clusters of unlike inputs as a pooled median would."""
    medians = [statistics.median(times_ns[i::per_round]) for i in range(per_round)]
    return statistics.fmean(medians) / 1e6


def weakest(checked):
    """(digits, label) of the least accurate output of one pass."""
    return min((d for check in checked for d in check.digits),
               default=(0.0, "no output was checked"))


def tally(first_checks, differing, recheck, rounds, is_known=lambda index: False):
    """(attempted, failed, unexpected failure messages) over whole rounds.

    An input whose first-round output failed its checks counts as failed
    in every round; a later output that differed from the first round's
    is checked on its own."""
    failed_by_input = [0 if c.ok else rounds for c in first_checks]
    unexpected = []
    for index, check in enumerate(first_checks):
        if not check.ok and not is_known(index):
            unexpected.extend(check.failures)
    for _, index, out in differing:
        check = recheck(index, out)
        failed_by_input[index] += int(not check.ok) - int(not first_checks[index].ok)
        if not check.ok and not is_known(index):
            unexpected.extend(check.failures)
    return len(first_checks) * rounds, sum(failed_by_input), unexpected


def loop_outcome(res, samples, first, tallied, points, op_ms, trace):
    """Metrics of a workload run in one worker process."""
    attempted, failed, unexpected = tallied
    if trace:
        layers = dict(res["layers"], **{"trace.op_p50_ms": op_ms})
        layers["trace.attributed_share"] = attributed_share(layers)
        return Outcome(attempted, failed, unexpected, layers, weakest(first), res["spans"])
    times = res["times_ns"]
    metrics = {
        "ops_per_s": len(times) / (sum(times) / 1e9),
        "op_p50_ms": op_ms,
        "setup_s": statistics.median(samples + [res["setup_s"]]),
        "peak_rss_mb": res["peak_rss_mb"],
        "accuracy_digits": weakest(first)[0],
        "trace_points": float(points),
    }
    return Outcome(attempted, failed, unexpected, metrics, weakest(first), None)


def attributed_share(layers):
    op = layers["trace.op_ms"]
    return (op - layers["trace.unattributed_ms"]) / op


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def catalog_classify(seed, seconds, trace):
    ops = inputs.catalog_operations(seed)
    job = {"mode": "catalog", "seconds": seconds, "trace": trace,
           "problems": [[name, params] for name, params in inputs.CATALOG],
           "ops": [{"name": op["name"], "params": op["params"], "lam": cplx(op["lam"])}
                   for op in ops]}
    samples = setup_samples(job, trace)
    res = run_worker(job, seconds)
    warm = res["warm"]       # [upper, lower] default-grid traces per input

    def check_op(index, out):
        op = ops[index]
        check = checks.Check()
        checks.check_report(check, out, op["name"], op["params"], op["lam"],
                            checks.last_points(warm[index]))
        for doc, z in zip(warm[index], checks.sides(op["lam"])):
            checks.check_catalog_trace(check, doc, op["name"], op["params"], z)
        return check

    first = [check_op(i, out) for i, out in enumerate(res["first"])]
    tallied = tally(first, res["differing"], check_op, res["rounds"],
                    lambda index: inputs.is_known_failure(ops[index]))
    points = sum(len(doc.get("points", [])) for pair in warm for doc in pair)
    return loop_outcome(res, samples, first, tallied, points,
                        typical_op_ms(res["times_ns"], len(ops)), trace)


def piecewise_trace(seed, seconds, trace):
    ops = inputs.piecewise_operations(seed)
    job = {"mode": "piecewise", "seconds": seconds, "trace": trace,
           "grid": list(inputs.PIECEWISE_GRID), "warmup": PIECEWISE_WARMUP,
           "ops": [{"text": op["text"], "lam": cplx(op["lam"])} for op in ops]}
    samples = setup_samples(job, trace)
    res = run_worker(job, seconds)

    def check_op(index, out):
        check = checks.Check()
        lam = ops[index]["lam"]
        checks.check_piecewise(check, out, ops[index]["model"], lam,
                               f"problem {index} lam={lam:.4g}")
        return check

    first = [check_op(i, out) for i, out in enumerate(res["first"])]
    tallied = tally(first, res["differing"], check_op, res["rounds"])
    points = sum(len(out.get("points", [])) for out in res["first"])
    return loop_outcome(res, samples, first, tallied, points,
                        typical_op_ms(res["times_ns"], len(ops)), trace)


def check_cli(code, stdout, lams, last_c):
    check = checks.Check()
    check.require(f"exit code {code}", code == 0)
    if code != 0:
        return check
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError as exc:
        check.failures.append(f"output is not JSON: {exc}")
        return check
    if not (isinstance(reports, list) and len(reports) == len(lams)):
        check.failures.append("expected one report per lambda")
        return check
    name, params = inputs.CLI_PROBLEM
    for rep, lam, c in zip(reports, lams, last_c):
        checks.check_report(check, rep, name, params, lam, c)
    return check


def cli_process(seed, seconds, trace):
    lams = inputs.cli_lambdas(seed)
    argv = ["classify", "--example", inputs.CLI_EXAMPLE, "--format", "json"]
    for lam in lams:
        argv += ["--lambda", f"{lam.real!r},{lam.imag!r}"]
    name, params = inputs.CLI_PROBLEM
    probe = {"mode": "setup", "entry": "cli", "problems": [[name, params]]}
    samples = setup_samples(probe, trace)

    # the same problem and lambda traced outside the timed processes: the
    # usable trace points, and the c where each side's trace ends
    points = run_worker(dict(probe, mode="points", lambdas=[cplx(z) for z in lams]))
    trace_check = checks.Check()
    for pair, lam in zip(points["traces"], lams):
        for doc, z in zip(pair, checks.sides(lam)):
            checks.check_catalog_trace(trace_check, doc, name, params, z)
    last_c = [checks.last_points(pair) for pair in points["traces"]]
    n_points = sum(len(doc.get("points", [])) for pair in points["traces"] for doc in pair)

    def one():
        """(child, CLI exit code, CLI stdout, traced worker result)."""
        if not trace:
            child = run_child([sys.executable, "-m", "weyl_canon.cli"] + argv,
                              timeout=CHILD_GRACE_S)
            return child, child.code, child.stdout, None
        job = {"mode": "cli", "argv": argv, "trace": 1}
        child = run_child([sys.executable, str(HERE / "worker.py")], json.dumps(job),
                          timeout=CHILD_GRACE_S)
        if child.code != 0:
            raise BenchError(f"traced CLI worker failed:\n{child.stderr[-3000:]}")
        res = json.loads(child.stdout.strip().splitlines()[-1])
        return child, res["exit"], res["stdout"], res

    one()                                   # warm-up: page cache, bytecode
    times, rss, layer_runs, spans = [], [], [], []
    failed = 0
    unexpected = list(trace_check.failures)
    first_check = None
    t_start = time.monotonic()
    while not times or time.monotonic() - t_start < seconds:
        child, code, stdout, res = one()
        check = check_cli(code, stdout, lams, last_c)
        first_check = first_check or check
        failed += int(not check.ok)
        unexpected.extend(check.failures)
        times.append(child.wall_ns)
        rss.append(child.maxrss_mb)
        if res is not None:
            layer_runs.append(res["layers"])
            spans.extend([len(times) - 1] + s[1:] for s in res["spans"])

    if trace:
        layers = {k: statistics.fmean(run[k] for run in layer_runs) for k in layer_runs[0]}
        layers["trace.op_ms"] = statistics.fmean(times) / 1e6
        layers["trace.op_p50_ms"] = statistics.median(times) / 1e6
        layers["trace.unattributed_ms"] = (
            layers["trace.op_ms"] - layers["trace.attributed_ms"]
            - layers["cli.interpreter_ms"] - layers["cli.import_ms"])
        layers["trace.attributed_share"] = attributed_share(layers)
        return Outcome(len(times), failed, unexpected, layers, weakest([first_check]), spans)
    metrics = {
        "ops_per_s": len(times) / (sum(times) / 1e9),
        "op_p50_ms": statistics.median(times) / 1e6,
        "setup_s": statistics.median(samples + [points["setup_s"]]),
        "peak_rss_mb": statistics.median(rss),
        "accuracy_digits": weakest([first_check])[0],
        "trace_points": float(n_points),
    }
    return Outcome(len(times), failed, unexpected, metrics, weakest([first_check]), None)


WORKLOADS = {
    "catalog_classify": catalog_classify,
    "piecewise_trace": piecewise_trace,
    "cli_process": cli_process,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "weyl_canon" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding BENCHMARK.json and the program's "
              f"sources ({SRC / 'weyl_canon'})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(outcome.values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    if outcome.spans is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps([dict(zip(SPAN_KEYS, s)) for s in outcome.spans]))
        print(f"spans written to {path.relative_to(ROOT)}")
    for message in outcome.unexpected[:20]:
        print(f"FAILED CHECK: {message}", file=sys.stderr)
    digits, label = outcome.weakest
    print(f"{args.workload}: {outcome.attempted} operations, {outcome.failed} failed; "
          f"least accurate output: {label} ({digits:.2f} digits)")
    print(json.dumps({
        "correct": not outcome.unexpected,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(outcome.values[k]), "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
