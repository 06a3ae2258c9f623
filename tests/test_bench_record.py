"""The BENCH recorder's parsing and summaries, over a canned benchmark report."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

REPORT = """workload: "sweep-full"
seed: 301
trace: 0
attempted: 48
failed: 0
cpus: 2
latency_p50_ms: 352.5
accuracy: {"translation_rmse_m": {"value": 0.034, "unit": "m"}, "scale_error_pct": {"value": 0.5, "unit": "%"}}
problems: []
{"correct": true, "attempted": 48, "failed": 0, "metrics": {"setup_s": {"value": 0.3, "unit": "s"}, "ops_per_s": {"value": 11.25, "unit": "1/s"}, "translation_rmse_m": {"value": 0.034, "unit": "m"}}}
"""

SPEC = {"end_to_end": [{"name": "ops_per_s", "better": "higher"},
                       {"name": "setup_s", "better": "lower"}],
        "per_layer": []}


def test_parse_report():
    run = bench_record.parse_report(REPORT)
    assert run["correct"] is True
    assert (run["attempted"], run["failed"], run["cpus"]) == (48, 0, 2)
    assert run["metrics"] == {"setup_s": 0.3, "ops_per_s": 11.25, "translation_rmse_m": 0.034}
    assert run["latency_p50_ms"] == 352.5
    assert run["accuracy"] == {"translation_rmse_m": 0.034, "scale_error_pct": 0.5}


def test_parse_report_rejects_empty_output():
    with pytest.raises(ValueError):
        bench_record.parse_report("\n")


def test_parse_seeds():
    assert bench_record.parse_seeds("301-303,7") == [301, 302, 303, 7]


def test_summarize_quartiles():
    s = bench_record.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.0, 2.0, 4.0, 5)
    assert bench_record.summarize([7.0])["q1"] == 7.0


def _entry(ops, setup):
    runs = [{"seed": k, "metrics": {"ops_per_s": o, "setup_s": s}}
            for k, (o, s) in enumerate(zip(ops, setup))]
    return {"runs": {"sweep-full": runs}, "traced": {},
            "summary": {"sweep-full": {name: bench_record.summarize(
                [r["metrics"][name] for r in runs]) for name in ("ops_per_s", "setup_s")}}}


def test_pair_wins_follow_the_better_direction():
    first = _entry([10.0, 11.0, 12.0], [0.3, 0.3, 0.3])
    last = _entry([11.0, 10.5, 13.0], [0.2, 0.3, 0.4])
    wins = bench_record.pair_wins(first, last, SPEC)["sweep-full"]
    assert wins["ops_per_s"] == {"wins": 2, "ties": 0, "pairs": 3}
    assert wins["setup_s"] == {"wins": 1, "ties": 1, "pairs": 3}


def test_ratios_compare_last_checkouts():
    old = {"checkouts": {"change": _entry([10.0], [0.4])}}
    new = {"checkouts": {"parent": _entry([1.0], [1.0]), "change": _entry([12.0], [0.3])}}
    lines = bench_record.ratios(new, old)
    assert "sweep-full ops_per_s: 12 / 10 = 1.200" in lines
    assert "sweep-full setup_s: 0.3 / 0.4 = 0.750" in lines
    json.dumps(new)  # a record stays plain JSON
