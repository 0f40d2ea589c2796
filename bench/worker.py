"""The process that runs the program for the benchmark.

Started by run.py with ``PYTHONPATH=<checkout>/src``; reads one JSON job
from stdin and prints one JSON result line.  Only this process imports
``weyl_canon``; the benchmark's reference code never runs here, so its
peak RSS is the program's.  Nothing but the standard library is
imported before the timed import of the program.

Modes:
  setup      import the workload's entry module and build its fixed
             problems; report the time taken (one set-up sample)
  catalog    deficiency_indices(problem, lam) over the catalog operations
  piecewise  parse_problem(document) + trace_disks(problem, lam, grid)
  points     count the usable trace points of the CLI problem
  cli        run the CLI in-process under the tracer (traced runs only)
"""

import io
import json
import os
import resource
import sys
import time

T_ENTER_NS = time.monotonic_ns()
_clock = time.perf_counter_ns


def _build_catalog(wc, specs):
    return [wc.builtin_example(name, **params)[0] for name, params in specs]


def _cplx(z):
    return [float(z.real), float(z.imag)]


def _trace_doc(trace):
    """Trace points as plain numbers: c, branch, center or level, radius,
    entries (A, B, C, D), tau, psi and phi norms."""
    points = []
    for p in trace.points:
        ws = p.wset
        disk = ws.branch == "disk"
        points.append({
            "c": p.c, "branch": ws.branch,
            "center": _cplx(ws.center) if disk else None,
            "radius": ws.radius if disk else None,
            "level": None if disk else ws.level,
            "entries": [_cplx(complex(e)) for e in ws.entries],
            "tau": _cplx(complex(p.tau)), "psi": p.psi_norm_sq, "phi": p.phi_norm_sq,
        })
    return {"points": points, "truncated_at": trace.truncated_at}


def _side_traces(wc, problem, lam):
    """Default-grid traces at the upper and lower parameter that
    deficiency_indices(problem, lam) uses."""
    up = lam if lam.imag > 0 else lam.conjugate()
    docs = []
    for z in (up, up.conjugate()):
        try:
            docs.append(_trace_doc(wc.trace_disks(problem, z)))
        except Exception as exc:         # reported, checked as a failure
            docs.append(_error_doc(exc))
    return docs


def _error_doc(exc):
    return {"error": type(exc).__name__, "message": str(exc)[:300]}


class Loop:
    """Timed rounds over a fixed list of operations.

    Every run finishes the round it is in, so each input is attempted
    equally often.  The full output of the first round is kept; a later
    output is kept only if it differs from the first round's, so every
    operation is checked while little memory is held in this process.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.times_ns = []
        self.first = []
        self.differing = []

    def run(self, ops, call, to_doc, seconds):
        op_id = 0
        rounds = 0
        t_start = _clock()
        while True:
            for index, op in enumerate(ops):
                result, elapsed = self._one(op, call, op_id)
                op_id += 1
                self.times_ns.append(elapsed)
                out = _error_doc(result) if isinstance(result, Exception) else to_doc(result)
                text = json.dumps(out)
                if rounds == 0:
                    self.first.append(text)
                elif text != self.first[index]:
                    self.differing.append([rounds, index, out])
            rounds += 1
            if _clock() - t_start >= seconds * 1e9:
                return rounds

    def _one(self, op, call, op_id):
        span = None if self.tracer is None else self.tracer.begin_op(op_id)
        t0 = _clock()
        try:
            result = call(op)
        except Exception as exc:             # counted as a failed operation
            result = exc
        elapsed = _clock() - t0
        if span is not None:
            self.tracer.end_op(span)
        return result, elapsed


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    job = json.loads(sys.stdin.read())
    mode = job["mode"]
    entry = "weyl_canon.cli" if mode in ("cli", "points") or job.get("entry") == "cli" \
        else "weyl_canon"
    t0 = _clock()
    __import__(entry)
    import_ns = _clock() - t0
    import weyl_canon as wc
    tracer = None
    if job.get("trace"):                 # traced runs report no set-up time
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    problems = _build_catalog(wc, job.get("problems", []))
    setup_ns = _clock() - t0
    result = {"setup_s": setup_ns / 1e9, "import_ms": import_ns / 1e6,
              "interpreter_ms": (T_ENTER_NS - int(os.environ["BENCH_T_SPAWN_NS"])) / 1e6
              if "BENCH_T_SPAWN_NS" in os.environ else None,
              "weyl_canon_file": wc.__file__}
    if mode == "setup":
        print(json.dumps(result))
        return

    if mode == "points":
        result["traces"] = [_side_traces(wc, problems[0], complex(*lam))
                            for lam in job["lambdas"]]
    elif mode == "cli":
        result.update(_run_cli(job["argv"], tracer))
    else:
        result.update(_run_loop(wc, mode, job, problems, tracer))

    if tracer is not None:
        summary = tracing.summary(tracer.spans)
        summary["cli.interpreter_ms"] = result["interpreter_ms"]
        summary["cli.import_ms"] = result["import_ms"]
        summary["cli.command_ms"] = (result["command_ms"] if mode == "cli"
                                     else summary["trace.op_ms"])
        result["layers"] = summary
        result["spans"] = tracer.spans
    result["peak_rss_mb"] = _maxrss_mb()
    print(json.dumps(result))


def _run_loop(wc, mode, job, problems, tracer):
    import numpy as np

    if mode == "catalog":
        by_spec = {json.dumps(s): p for s, p in zip(job["problems"], problems)}
        ops = [(by_spec[json.dumps([op["name"], op["params"]])], complex(*op["lam"]))
               for op in job["ops"]]

        def call(op):
            return wc.deficiency_indices(op[0], op[1])

        def to_doc(report):
            return report.to_dict()

        # warm-up: one untimed pass of the traces both half planes need,
        # kept for the trace checks and the trace-point count
        warm = [_side_traces(wc, problem, lam) for problem, lam in ops]
    else:
        grid = np.array(job["grid"])
        ops = [(op["text"], complex(*op["lam"])) for op in job["ops"]]

        def call(op):
            return wc.trace_disks(wc.parse_problem(op[0]), op[1], grid)

        to_doc = _trace_doc

        warm = None
        for op in ops[:job["warmup"]]:
            call(op)

    loop = Loop(tracer)
    rounds = loop.run(ops, call, to_doc, job["seconds"])
    return {"rounds": rounds, "times_ns": loop.times_ns,
            "first": [json.loads(t) for t in loop.first],
            "differing": loop.differing, "warm": warm}


def _run_cli(argv, tracer):
    from contextlib import redirect_stdout

    import weyl_canon.cli as cli

    buffer = io.StringIO()
    span = tracer.begin_op(0)
    t0 = _clock()
    code = 0
    with redirect_stdout(buffer):
        try:
            cli.main(args=argv, prog_name="weyl-canon")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    command_ns = _clock() - t0
    tracer.end_op(span)
    return {"exit": code, "stdout": buffer.getvalue(), "command_ms": command_ns / 1e6}


if __name__ == "__main__":
    main()
