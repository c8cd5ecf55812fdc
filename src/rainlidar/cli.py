"""Command-line pipeline: synth | featurize | train | evaluate | predict | bench.

Every command derives all of its randomness from a single ``--seed`` flag
(fanned out internally through fixed stream tags), writes outputs
atomically, and is idempotent: identical inputs and seed give bit-identical
output files.

Exit codes: 0 success, 2 usage or invalid parameters, 3 I/O or file format
problems, 4 numerical/training failures.
"""

from __future__ import annotations

import argparse
import io as _stringio
import json
import sys
import time

import numpy as np

from . import io as rio
from .errors import FileFormatError, InvalidInputError, NumericalError, TrainingError
from .features import CropBox, Scan, scan_features
from .moe import (
    TrainConfig,
    build_tree_spec,
    infer,
    predict_batch,
    quantile_thresholds,
    summarize_predictions,
    train,
)
from .pipeline import (
    DEFAULT_SAVGOL_ORDER,
    DEFAULT_SAVGOL_WINDOW,
    DEFAULT_TRIM,
    DEFAULT_VALIDATION_SPAN,
    SPLIT_TRAIN,
    SPLIT_VALIDATION,
    StreamingPredictor,
    assemble_dataset,
    make_windows,
    preprocess,
    split_validation,
)
from .synth import (
    DisturbanceParams,
    RainProfile,
    SegmentSpec,
    SensorSpec,
    default_profile,
    disdrometer_series,
    write_session_scans,
)
from .vblearn import BasisConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_BENCH_STREAM = 0xBE7C


def _parse_segments(text: str) -> tuple:
    """Parse 'duration:rate[:ramp],...' into segment specs."""
    segments = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise InvalidInputError(f"bad segment {chunk!r}; expected duration:rate[:ramp]")
        try:
            values = [float(v) for v in parts]
        except ValueError as exc:
            raise InvalidInputError(f"bad segment {chunk!r}: {exc}") from exc
        segments.append(SegmentSpec(*values))
    return tuple(segments)


def _parse_float_list(text: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"bad numeric list {text!r}: {exc}") from exc


def cmd_synth(args) -> int:
    sensor = SensorSpec(frame_rate=args.frame_rate, disdrometer_rate=args.disdro_rate)
    if args.segments:
        profile = RainProfile(segments=_parse_segments(args.segments), sensor=sensor)
    else:
        profile = RainProfile(segments=default_profile().segments, sensor=sensor)
    disturbance = None if args.no_disturbance else DisturbanceParams()
    series = disdrometer_series(
        profile,
        seed=args.seed,
        noise_sigma=args.noise_sigma,
        bias=args.bias,
        fluctuation=args.fluctuation,
    )
    # What generate_session returns, with the scans made as they are written.
    n_scans = write_session_scans(
        args.out_scans,
        profile,
        box=CropBox(args.box),
        seed=args.seed,
        fluctuation=args.fluctuation,
        disturbance=disturbance,
    )
    rio.write_disdrometer(args.out_rain, series)
    print(
        f"synth: {n_scans} scans over {profile.total_duration:.0f}s -> {args.out_scans}; "
        f"{len(series)} disdrometer measurements -> {args.out_rain}"
    )
    return EXIT_OK


def cmd_featurize(args) -> int:
    series = rio.read_disdrometer(args.rain)
    config = {
        "duration": args.duration,
        "stride": args.stride if args.stride is not None else args.duration,
        "box_half_extent": args.box,
        "savgol_window": args.savgol_window,
        "savgol_order": args.savgol_order,
        "trim": args.trim,
        "val_span": args.val_span,
        "session_id": args.session_id,
    }
    filtered = preprocess(
        series, window=args.savgol_window, order=args.savgol_order, n_cut=args.trim
    )
    result = make_windows(
        rio.read_scan_blocks(args.scans),
        duration=args.duration,
        box=CropBox(args.box),
        series=filtered,
        stride=args.stride,
        session_id=args.session_id,
        allow_overlap=args.allow_overlap,
    )
    dataset = assemble_dataset(result, filtered, config)
    dataset = split_validation(dataset, per_segment_val_span=args.val_span)
    rio.write_dataset(args.out, dataset)
    if not result.n_scans:
        print("featurize: warning: empty scan file; wrote empty dataset", file=sys.stderr)
    n_val = sum(1 for t in dataset.split_tags if t == SPLIT_VALIDATION)
    print(
        f"featurize: {result.n_windows} windows -> {len(dataset)} samples "
        f"({n_val} validation); skipped {result.n_skipped_no_target} without target, "
        f"{result.n_skipped_few_scans} with too few scans -> {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    dataset = rio.read_dataset(args.dataset)
    samples = dataset.samples if args.train_on_all else dataset.subset(SPLIT_TRAIN)
    if not samples:
        raise InvalidInputError("no training samples in dataset")
    thresholds = _parse_float_list(args.thresholds) if args.thresholds else None
    if thresholds is not None:
        depth = (len(thresholds) + 1).bit_length() - 1
        if 2**depth - 1 != len(thresholds):
            raise InvalidInputError(
                f"threshold count {len(thresholds)} is not 2**depth - 1"
            )
    else:
        depth = args.depth
        thresholds = quantile_thresholds(
            [s.target for s in samples], depth, y_range=(0.0, args.y_max)
        )
    spec = build_tree_spec(depth, y_range=(0.0, args.y_max), thresholds=thresholds)
    basis = (
        BasisConfig(kind="polynomial", degree=args.basis_degree)
        if args.basis_degree > 1
        else BasisConfig()
    )
    config = TrainConfig(basis=basis, gate_prior_precision=args.gate_prior)
    model = train(samples, spec, config=config, seed=args.seed)
    model.metadata["dataset_config"] = dataset.config
    rio.save_model(args.out, model)
    print(f"train: depth {spec.depth}, {len(samples)} samples -> {args.out}")
    for name, info in model.metadata["node_counts"].items():
        print(f"  {name}: {info}")
    for warning in model.metadata["warnings"]:
        print(f"  warning: {warning}")
    return EXIT_OK


def _report_to_text(tag: str, report) -> str:
    parts = [f"{tag}: n={report.n_samples} rmse_all={report.rmse_all:.4g} "
             f"mean_error_prob={report.mean_error_probability:.4g}"]
    for f in report.filtered:
        rmse = "-" if f.rmse is None else f"{f.rmse:.4g}"
        parts.append(
            f"  <{f.threshold:.0%} error prob: rmse={rmse} ({f.retention:.1%} retained)"
        )
    return "\n".join(parts)


def cmd_evaluate(args) -> int:
    model = rio.load_model(args.model)
    dataset = rio.read_dataset(args.dataset)
    if not dataset.samples:
        raise InvalidInputError("dataset is empty")
    thresholds = _parse_float_list(args.error_prob_thresholds)
    preds, targets = predict_batch(
        model, dataset.samples, margin_fraction=args.margin, error_floor=args.floor
    )
    reports = {"overall": summarize_predictions([(preds, targets)], thresholds)}
    split_tags = np.array(dataset.split_tags)
    for tag in (SPLIT_TRAIN, SPLIT_VALIDATION):
        rows = split_tags == tag
        if rows.any():
            reports[tag] = summarize_predictions([(preds[rows], targets[rows])], thresholds)
    doc = {tag: rep.as_dict() for tag, rep in reports.items()}
    if args.report:
        rio.atomic_write_text(args.report, json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if args.plot_data:
        buf = _stringio.StringIO()
        buf.write("target_mm_h,point_estimate_mm_h,error_probability,split\n")
        columns = targets.tolist(), preds.point_estimate.tolist(), preds.error_probability.tolist()
        for target, point, error_prob, tag in zip(*columns, dataset.split_tags):
            buf.write(f"{target!r},{point!r},{error_prob!r},{tag}\n")
        rio.atomic_write_text(args.plot_data, buf.getvalue())
    for tag, report in reports.items():
        print(_report_to_text(tag, report))
    return EXIT_OK


def cmd_predict(args) -> int:
    model = rio.load_model(args.model)
    dataset_config = model.metadata.get("dataset_config", {})
    box = CropBox(args.box if args.box is not None else dataset_config.get("box_half_extent", 10.0))
    buffer_s = args.buffer if args.buffer is not None else dataset_config.get("duration", 10.0)
    predictor = StreamingPredictor(
        model, box, buffer_s, args.emit_period, margin_fraction=args.margin, error_floor=args.floor
    )
    emissions = [e for block in rio.read_scan_blocks(args.scans) for e in predictor.push(block)]
    emissions += predictor.close()
    stream = predictor.windows
    counts = stream.counts
    if not counts.n_scans:
        raise InvalidInputError("no scans to predict on")
    if not emissions:
        print(
            f"predict: warning: no window kept: the buffer is {buffer_s:g} s and the scans "
            f"span {stream.last - stream.t0:g} s ({stream.t0:g} to {stream.last:g} s)",
            file=sys.stderr,
        )
    lines = ["time_s,point_estimate_mm_h,error_probability," + ",".join(
        f"resp_e{m}" for m in range(1, model.spec.n_experts + 1)
    )]
    for emit, pred in emissions:
        resp = ",".join(repr(float(p)) for p in pred.responsibilities)
        lines.append(f"{emit!r},{pred.point_estimate!r},{pred.error_probability!r},{resp}")
    text = "\n".join(lines) + "\n"
    if args.out and args.out != "-":
        rio.atomic_write_text(args.out, text)
        print(f"predict: {len(lines) - 1} emissions ({counts.n_skipped_few_scans} skipped) -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args) -> int:
    for flag, value, least in (
        ("--scan-points", args.scan_points, 2),  # an MST needs two points
        ("--reps", args.reps, 1),
        ("--feature-reps", args.feature_reps, 1),
    ):
        if value < least:
            raise InvalidInputError(f"{flag} must be at least {least}, got {value}")
    model = rio.load_model(args.model)
    dataset_config = model.metadata.get("dataset_config", {})
    box = CropBox(args.box if args.box is not None else dataset_config.get("box_half_extent", 10.0))
    rng = np.random.default_rng([_BENCH_STREAM, args.seed])
    h = box.half_extent
    dense = Scan(
        xyz=rng.uniform(-h, h, (args.scan_points, 3)),
        intensity=rng.gamma(4.0, 0.25, args.scan_points),
        timestamp=0.0,
        frame_id=0,
    )
    t0 = time.perf_counter()
    scan_features(dense, box)
    featurize_cold = time.perf_counter() - t0
    warm = []
    for _ in range(args.feature_reps):
        t0 = time.perf_counter()
        scan_features(dense, box)
        warm.append(time.perf_counter() - t0)
    probe = model.standardization.mean.copy()
    latencies = []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        infer(model, probe)
        latencies.append(time.perf_counter() - t0)
    latencies = np.array(latencies)
    report = {
        "scan_points": args.scan_points,
        "featurize_cold_s": featurize_cold,
        "featurize_warm_mean_s": float(np.mean(warm)),
        "inference_reps": args.reps,
        "inference_mean_s": float(latencies.mean()),
        "inference_p95_s": float(np.percentile(latencies, 95)),
        "tree_depth": model.spec.depth,
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainlidar",
        description="Rainfall rate estimation from lidar noise point clouds",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic session")
    p.add_argument("--out-scans", required=True)
    p.add_argument("--out-rain", required=True)
    p.add_argument("--segments", default=None, help="duration:rate[:ramp],... (default: 25 min, 7/15/30/50 mm/h)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=float, default=10.0, help="crop box half extent (m)")
    p.add_argument("--frame-rate", type=float, default=10.0)
    p.add_argument("--disdro-rate", type=float, default=0.1)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--bias", type=float, default=1.0)
    p.add_argument("--fluctuation", type=float, default=0.12)
    p.add_argument("--no-disturbance", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="windows + targets -> dataset file")
    p.add_argument("--scans", required=True)
    p.add_argument("--rain", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--stride", type=float, default=None)
    p.add_argument("--allow-overlap", action="store_true")
    p.add_argument("--box", type=float, default=10.0)
    p.add_argument("--savgol-window", type=int, default=DEFAULT_SAVGOL_WINDOW)
    p.add_argument("--savgol-order", type=int, default=DEFAULT_SAVGOL_ORDER)
    p.add_argument("--trim", type=int, default=DEFAULT_TRIM)
    p.add_argument("--val-span", type=float, default=DEFAULT_VALIDATION_SPAN)
    p.add_argument("--session-id", default="")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="fit a mixture-of-experts model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument(
        "--thresholds",
        default=None,
        help="heap-ordered gate thresholds, e.g. 20,10,40 "
        "(default: quantiles of the training targets, at least 2 per expert)",
    )
    p.add_argument("--y-max", type=float, default=80.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--basis-degree", type=int, default=1)
    p.add_argument("--gate-prior", type=float, default=0.03)
    p.add_argument("--train-on-all", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics and plot data for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--report", default=None, help="write JSON report here")
    p.add_argument("--plot-data", default=None, help="write per-sample CSV here")
    p.add_argument("--error-prob-thresholds", default="0.25,0.10")
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--floor", type=float, default=0.0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="streaming predictions over a scan file")
    p.add_argument("--model", required=True)
    p.add_argument("--scans", required=True)
    p.add_argument("--buffer", type=float, default=None, help="window seconds (default: model's)")
    p.add_argument("--emit-period", type=float, default=1.0)
    p.add_argument("--box", type=float, default=None)
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--floor", type=float, default=0.0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="timing report for featurization and inference")
    p.add_argument("--model", required=True)
    p.add_argument("--scan-points", type=int, default=2093)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--feature-reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=float, default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_USAGE
    try:
        # numpy seeds its generators from non-negative integers only
        if getattr(args, "seed", 0) < 0:
            raise InvalidInputError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileFormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, TrainingError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
