"""planar-init benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload window --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets its inputs up (timed as ``setup_s``), runs whole
rounds of the workload's operations until ``--seconds`` have passed, checks
the outputs, and prints a report followed, on the last line, by one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics of ``BENCHMARK.json`` plus the
tracing overhead.  ``--smoke`` shrinks every workload for the benchmark's
own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# simulator functions that run in the window set-up, reported per set-up
SETUP_TRACED = ("simulator.make_dataset", "simulator.render_tracks",
                "simulator.synthesize_imu", "simulator.write_dataset")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up, for the benchmark's own tests")
    return p.parse_args(argv)


def fresh_import() -> None:
    """Import the CLI in a fresh interpreter, as every CLI invocation does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms, which
    # would round this ~0.3 s import up to the next step
    subprocess.run([sys.executable, "-c", "import planar_init.cli"], cwd=ROOT, env=env,
                   check=True)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def layer_metrics(tracer, setup_end: int, ops: int) -> dict:
    """Per-operation calls, time and work of every traced function."""
    from tracing import FUNCTIONS, SELF_TIMED, WORK_COUNTS

    per_op = tracer.summary(setup_end)
    setup = tracer.summary(0, setup_end)
    zero = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": 0}
    out = {}
    for name in FUNCTIONS:
        agg = per_op.get(name, zero)
        out[f"{name}.calls"] = _metric(agg["calls"] / ops, "calls/op")
        out[f"{name}.ms"] = _metric(agg["ms"] / ops, "ms/op")
    for name in SELF_TIMED:
        out[f"{name}.self_ms"] = _metric(per_op.get(name, zero)["self_ms"] / ops, "ms/op")
    for name, (work, _, _) in WORK_COUNTS.items():
        out[f"{name}.{work}"] = _metric(per_op.get(name, zero)["work"] / ops, "count/op")
    for name in SETUP_TRACED:
        out[f"setup.{name}.ms"] = _metric(setup.get(name, zero)["ms"], "ms")
    return out


def run(args) -> dict:
    import workloads
    from tracing import FUNCTIONS, Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir,
                                                bool(args.trace))
        tracer = Tracer() if args.trace else None

        # set-up: a fresh-interpreter import plus the workload's inputs
        setup_times = []

        def set_up() -> None:
            t0 = time.perf_counter()
            fresh_import()
            if tracer:
                with tracer:
                    wl.setup(len(setup_times))
            else:
                wl.setup(len(setup_times))
            setup_times.append(time.perf_counter() - t0)

        set_up()
        setup_end = len(tracer.spans) if tracer else 0
        setup_reps = 1 if (args.smoke or args.trace) else wl.setup_reps

        # measured rounds; a traced run alternates untraced and traced rounds
        attempted = failed = 0
        stages: dict[str, int] = {}
        lat = {False: [], True: []}
        busy = {False: 0.0, True: 0.0}
        ops = {False: 0, True: 0}
        k = 0
        while (busy[False] + busy[True] < args.seconds
               or (tracer and not (lat[False] and lat[True]))):
            # the other set-ups are spread over the measured time, so that
            # their median does not hang on the host's speed at one moment
            if (len(setup_times) < setup_reps
                    and busy[False] >= len(setup_times) * args.seconds / setup_reps):
                set_up()
            traced = bool(tracer) and k % 2 == 1
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                round_ops, latencies = wl.run_round()
            finally:
                if traced:
                    tracer.uninstall()
            busy[traced] += time.perf_counter() - t0
            lat[traced] += latencies
            ops[traced] += len(round_ops)
            attempted += len(round_ops)
            for op in round_ops:
                if op.stage is not None:
                    failed += 1
                    key = f"{op.label}:{op.stage}"
                    stages[key] = stages.get(key, 0) + 1
            k += 1
        while len(setup_times) < setup_reps:
            set_up()

        problems = wl.check()
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": k, "attempted": attempted, "failed": failed,
            "failures_by_case_and_stage": stages,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "cpus": len(os.sched_getaffinity(0)),
            "setup_s_each": setup_times,
            "measured_s": busy[False] + busy[True],
        }
        untraced = lat[False]
        report["latency_samples"] = len(untraced)
        report["latency_p50_ms"] = 1e3 * statistics.median(untraced)
        if len(untraced) >= 100:  # ten samples beyond p90
            report["latency_p90_ms"] = 1e3 * statistics.quantiles(untraced, n=10)[-1]
        report["accuracy"] = {name: {"value": v, "unit": u}
                              for name, (v, u) in wl.accuracy().items()}

        if tracer:
            missing = sorted(set(tracer.missing))
            if missing:
                problems.append(f"traced functions not found: {missing}")
            seen = {s[0] for s in tracer.spans}
            silent = sorted(wl.expected - seen - set(missing))
            if silent:
                problems.append(f"no span recorded for {silent} on {args.workload}")
            metrics = layer_metrics(tracer, setup_end, ops[True])
            traced_p50 = 1e3 * statistics.median(lat[True])
            metrics["trace.latency_p50_ms"] = _metric(traced_p50, "ms")
            metrics["trace.untraced_latency_p50_ms"] = _metric(report["latency_p50_ms"], "ms")
            metrics["trace.overhead_ms"] = _metric(traced_p50 - report["latency_p50_ms"], "ms")
            spans_path = build / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path)
            report["spans"] = str(spans_path.relative_to(ROOT))
            report["functions_traced"] = len(FUNCTIONS) - len(missing)
        else:
            # latency stays on the report lines: on a host whose speed flips
            # between two levels, a run's median jumps from one to the other,
            # while throughput averages them (see README, run-to-run spread)
            metrics = {
                "setup_s": _metric(statistics.median(setup_times), "s"),
                "ops_per_s": _metric(ops[False] / busy[False], "1/s"),
                "translation_rmse_m": report["accuracy"]["translation_rmse_m"],
            }
        report["problems"] = problems
        return {"report": report,
                "result": {"correct": not problems, "attempted": attempted,
                           "failed": failed, "metrics": metrics}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "planar_init" / "__init__.py").is_file():
        print(f"error: no planar_init package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    out = run(args)
    report = out["report"]
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
