"""planar-init command line: generate | init | evaluate | sweep.

Exit codes: 0 success, 1 usage, 2 I/O failure, 3 pipeline failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import PipelineConfig, load_config
from .errors import (
    AlignmentError,
    DatasetError,
    PipelineError,
    PlanarInitError,
    StreamError,
)
from .harness import (
    PLOT_HEADER,
    evaluate_against_dataset,
    run_on_dataset,
    run_sweep,
)
from .geometry import CameraRig
from .initializer import InitializationResult
from .simulator import (
    NoiseModel,
    SCENE_PRESETS,
    TrajectoryProfile,
    load_dataset,
    make_dataset,
    scene_preset,
    write_dataset,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PIPELINE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1 for usage
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="planar-init",
                description="Homography-based visual-inertial initialization toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--scene", default="helipad",
                     help=f"scene preset: {'|'.join(sorted(SCENE_PRESETS))}")
    gen.add_argument("--profile", default="vertical",
                     choices=["vertical", "oblique", "hover"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.add_argument("--noise-px", type=float, default=0.5)
    gen.add_argument("--noiseless", action="store_true",
                     help="zero pixel and IMU noise")
    gen.add_argument("--features", type=int, default=None)

    ini = sub.add_parser("init", help="run initialization on a dataset")
    ini.add_argument("--dataset", required=True)
    ini.add_argument("--config", default=None, help="pipeline config JSON")
    ini.add_argument("--out", required=True, help="output directory for reports")
    ini.add_argument("--seed", type=int, default=0)
    ini.add_argument("--deviation", choices=["fixed", "dynamic"], default=None)

    ev = sub.add_parser("evaluate", help="score result JSONs against ground truth")
    ev.add_argument("--result", required=True, action="append",
                    help="result JSON from init; repeat to compare runs "
                         "(e.g. fixed vs dynamic weighting) side by side")
    ev.add_argument("--dataset", required=True, help="dataset dir with groundtruth.csv")
    ev.add_argument("--out", required=True)

    sw = sub.add_parser("sweep", help="seeded Monte-Carlo trials")
    sw.add_argument("--mode", choices=["selection", "full"], default="selection")
    sw.add_argument("--scenes", default="helipad")
    sw.add_argument("--profiles", default="vertical,oblique")
    sw.add_argument("--trials", type=int, default=100)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--jobs", type=int, default=1,
                    help="processes that run trials, this one included")
    sw.add_argument("--out", required=True, help="aggregate CSV path")
    return p


def _load_pipeline_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "deviation", None):
        cfg = replace(cfg, deviation_mode=args.deviation)
    return cfg


def _cmd_generate(args) -> int:
    try:
        scene = scene_preset(args.scene, seed=args.seed)
        if args.features is not None:
            scene = replace(scene, feature_count=args.features)
        noise = NoiseModel.noiseless() if args.noiseless else NoiseModel(pixel_px=args.noise_px)
        profile = TrajectoryProfile(kind=args.profile)
        ds = make_dataset(scene, profile, rig=CameraRig.default(), noise=noise,
                          seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        digest = write_dataset(args.out, ds)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"dataset written to {args.out}")
    print(f"digest: {digest}")
    return EXIT_OK


def _cmd_init(args) -> int:
    if args.seed < 0:  # checked before --out is created
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _load_pipeline_config(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # also a JSON syntax error
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ds = load_dataset(args.dataset)
    except (OSError, ValueError, StreamError) as exc:  # StreamError: a bad imu.csv
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        result = run_on_dataset(ds, cfg, seed=args.seed)
    except PipelineError as exc:
        (out / "result.json").write_text(json.dumps(
            {"schema_version": 1, "status": f"failed:{exc.stage}",
             "message": str(exc), "diagnostics": exc.diagnostics}, indent=2))
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except DatasetError as exc:  # a pixel field of a frame the run read
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    (out / "result.json").write_text(json.dumps(result.to_json_dict(), indent=2))
    try:
        report = evaluate_against_dataset(result, ds)
    except AlignmentError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    (out / "metrics.json").write_text(json.dumps(report.to_json_dict(), indent=2))
    print(f"status: {result.status}")
    rmse = report.translation_rmse
    print(f"translation RMSE [m]: x={rmse[0]:.4g} y={rmse[1]:.4g} z={rmse[2]:.4g}")
    return EXIT_OK if result.initialized else EXIT_PIPELINE


def _cmd_evaluate(args) -> int:
    try:
        ds = load_dataset(args.dataset)
        results = []
        for path in map(Path, args.result):
            try:
                results.append((path, InitializationResult.from_json_dict(
                    json.loads(path.read_text()))))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    except (OSError, ValueError, StreamError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        runs = {}
        for path, result in results:
            name = result.diagnostics.get("deviation_mode") or path.stem
            if name in runs:
                name = f"{name}:{len(runs)}"
            report = evaluate_against_dataset(result, ds)
            runs[name] = report
            suffix = "" if len(results) == 1 else f"_{name}"
            with open(out / f"errors{suffix}.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(PLOT_HEADER)
                for row in report.plot_rows():
                    w.writerow([repr(v) for v in row])
        if len(runs) == 1:
            doc = next(iter(runs.values())).to_json_dict()
        else:  # side-by-side comparison, keyed by run name
            doc = {"schema_version": 1,
                   "runs": {name: rep.to_json_dict() for name, rep in runs.items()}}
        (out / "metrics.json").write_text(json.dumps(doc, indent=2))
    except AlignmentError as exc:
        print(f"alignment error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"metrics written to {out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenes = [s for s in args.scenes.split(",") if s]
    profiles = [s for s in args.profiles.split(",") if s]
    try:
        # before any trial runs, so that an unwritable --out costs none
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        rows = run_sweep(args.mode, scenes, profiles, args.trials, args.seed,
                         jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(list(rows[0].keys()))
            for row in rows:
                w.writerow([row[k] for k in rows[0].keys()])
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    for row in rows:
        print(row)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "generate": _cmd_generate,
        "init": _cmd_init,
        "evaluate": _cmd_evaluate,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except PlanarInitError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
