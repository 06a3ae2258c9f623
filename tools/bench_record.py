"""Record benchmark runs of one or more checkouts in a BENCH_<n>.json file.

    python3 tools/bench_record.py --seeds 301-310 --seconds 45 --out BENCH_10.json \\
        --checkout parent=../parent --checkout change=.

For every seed, each checkout runs ``perfbench/run.py`` untraced once per
workload of ``BENCHMARK.json``; the checkouts take turns, and which one goes
first alternates from seed to seed.  Each checkout then makes one traced run
per workload at the first seed.  The record holds, per checkout, workload
and metric, the median and quartiles over the seeds, the traced per-layer
metrics, the commit and the CPU count.  With two or more checkouts it also
counts, per metric, the seeds on which the last checkout beat the first.
``--against FILE`` prints the ratios of the last checkout's medians to those
of the last checkout in an earlier record.  ``--smoke`` passes ``--smoke`` to
the benchmark, for a quick check that the recorder works.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"301-303,7"`` -> ``[301, 302, 303, 7]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_report(text: str) -> dict:
    """The ``key: json`` report lines and the result object on the last line."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the benchmark printed nothing")
    result = json.loads(lines[-1])
    report = {}
    for line in lines[:-1]:
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = json.loads(value)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "latency_p50_ms": report.get("latency_p50_ms"),
            "accuracy": {name: a["value"] for name, a in report.get("accuracy", {}).items()},
            "cpus": report.get("cpus")}


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric over the seeds."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def commit_of(checkout: Path) -> str | None:
    """The checkout's commit, marked ``-dirty`` with uncommitted changes;
    None outside a git work tree."""
    out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                         cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
              smoke: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return {"seed": seed, **parse_report(out.stdout)}


def better(name: str, spec: dict) -> str:
    """``higher`` or ``lower``, from the metric's entry in BENCHMARK.json."""
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if entry["name"] == name:
            return entry["better"]
    return "lower"


def pair_wins(first: dict, last: dict, spec: dict) -> dict:
    """Per workload and end-to-end metric: seeds on which ``last`` beat ``first``."""
    out = {}
    for workload, runs in last["runs"].items():
        base = {r["seed"]: r["metrics"] for r in first["runs"][workload]}
        out[workload] = {}
        for name in runs[0]["metrics"]:
            sign = 1.0 if better(name, spec) == "higher" else -1.0
            pairs = [(base[r["seed"]][name], r["metrics"][name]) for r in runs]
            out[workload][name] = {"wins": sum(1 for a, b in pairs if sign * (b - a) > 0),
                                   "ties": sum(1 for a, b in pairs if a == b),
                                   "pairs": len(pairs)}
    return out


def record(checkouts: dict[str, Path], seeds: list[int], seconds: float,
           smoke: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    entries = {label: {"commit": commit_of(path),
                       "runs": {w: [] for w in workloads}, "traced": {}}
               for label, path in checkouts.items()}
    labels = list(checkouts)
    for k, seed in enumerate(seeds):
        for label in (labels if k % 2 == 0 else labels[::-1]):
            for workload in workloads:
                run = run_bench(checkouts[label], workload, seed, seconds, 0, smoke)
                entries[label]["runs"][workload].append(run)
                print(f"{label} {workload} seed {seed}: {json.dumps(run['metrics'])}"
                      f" correct={run['correct']}", flush=True)
    for label in labels:
        for workload in workloads:
            run = run_bench(checkouts[label], workload, seeds[0], seconds, 1, smoke)
            entries[label]["traced"][workload] = run
            print(f"{label} {workload} traced seed {seeds[0]}: correct={run['correct']}",
                  flush=True)
    for entry in entries.values():
        entry["summary"] = {
            w: {name: summarize([r["metrics"][name] for r in runs])
                for name in runs[0]["metrics"]}
            for w, runs in entry["runs"].items()}
    rec = {"schema_version": 1, "seconds": seconds, "seeds": seeds, "smoke": smoke,
           "cpus": len(os.sched_getaffinity(0)), "checkouts": entries}
    if len(labels) > 1:
        rec["pair_wins"] = pair_wins(entries[labels[0]], entries[labels[-1]], spec)
    return rec


def ratios(new: dict, old: dict) -> list[str]:
    """Lines ``workload metric new/old`` for the last checkout of each record."""
    a = list(new["checkouts"].values())[-1]
    b = list(old["checkouts"].values())[-1]
    lines = []
    for workload, metrics in a["summary"].items():
        for name, s in metrics.items():
            base = b["summary"].get(workload, {}).get(name)
            if base and base["median"]:
                lines.append(f"{workload} {name}: {s['median']:.6g} / {base['median']:.6g}"
                             f" = {s['median'] / base['median']:.3f}")
    for workload, run in a["traced"].items():
        base = b["traced"].get(workload)
        if not base:
            continue
        for name, value in run["metrics"].items():
            ref = base["metrics"].get(name)
            if ref:
                lines.append(f"{workload} traced {name}: {value:.6g} / {ref:.6g}"
                             f" = {value / ref:.3f}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 301-310 or 1,5,9")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    p.add_argument("--checkout", action="append", default=[], metavar="LABEL=DIR",
                   help="a source checkout to run; repeat to alternate several "
                        "(default: this checkout, labelled 'change')")
    p.add_argument("--against", help="an earlier BENCH_<n>.json to compare with")
    p.add_argument("--smoke", action="store_true", help="tiny benchmark inputs")
    args = p.parse_args(argv)
    checkouts = {}
    for item in args.checkout or [f"change={ROOT}"]:
        label, sep, path = item.partition("=")
        if not sep or not label:
            p.error(f"--checkout wants LABEL=DIR, got {item!r}")
        checkouts[label] = Path(path).resolve()
    rec = record(checkouts, parse_seeds(args.seeds), args.seconds, args.smoke)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(rec, indent=1) + "\n")
    for workload, metrics in rec.get("pair_wins", {}).items():
        for name, w in metrics.items():
            print(f"{workload} {name}: last beats first on {w['wins']} of {w['pairs']} seeds"
                  f" ({w['ties']} ties)")
    if args.against:
        for line in ratios(rec, json.loads(Path(args.against).read_text())):
            print(line)
    bad = [(label, r["seed"]) for label, e in rec["checkouts"].items()
           for runs in [*e["runs"].values(), list(e["traced"].values())] for r in runs
           if not r["correct"]]
    if bad:
        print(f"benchmark checks failed: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
