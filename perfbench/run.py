#!/usr/bin/env python3
"""Layered benchmark of the rainlidar command-line pipeline.

    python3 perfbench/run.py --workload quickstart --seed 8 --seconds 30 --trace 0

The checkout root is the parent of this directory; the package is imported
from its ``src`` and nothing is installed. Each workload is a user session of
the five pipeline commands (synth, featurize, train, evaluate, predict), each
run as a fresh ``python -m rainlidar.cli`` process, one after another from
this process. The workload seed only chooses the synthetic sessions
(``--seed N`` runs session seed ``1 + (N - 1) % 16``, one of the sessions
whose outputs are stored in reference.json); the commands receive nothing but
the generated files.

``--trace 0`` runs the session once, then repeats single commands and
set-up samples (fresh interpreters importing ``rainlidar.cli``), the one with
the least total time so far first, until ``--seconds`` have passed. It prints
the end-to-end metrics: the median wall time of each command and of set-up,
and the peak child RSS.
``--trace 1`` runs the session once untraced and once with every public
function traced in-process (traced_cli.py), and prints the per-layer
metrics, including the tracing overhead (traced minus untraced wall time).
``--workload all`` runs every workload in turn.

Every run checks the outputs (checks.py) and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. Operations are the child
processes started plus the checks made; a failed operation is a non-zero
exit or a failed check.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

import spantrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# BLAS threads stay at or below nproc: one per process, for this process and every
# child. Set in main() before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

IMPORTTIME_REPS = 3
# A run's child processes must end within --seconds plus this margin. A run
# only starts a repeat that fits in --seconds, so the margin covers the first
# session and the checks on a machine running slower than usual.
RUN_MARGIN_S = 100.0
# Sessions are made from a fixed set of session seeds, each with stored
# reference values: --seed N runs session seed 1 + (N - 1) % REFERENCE_SEEDS.
REFERENCE_SEEDS = 16

COMMANDS = ("synth", "featurize", "train", "evaluate", "predict")
OUTPUT_FLAGS = ("--out-scans", "--out-rain", "--out", "--report", "--plot-data")

# (name, unit, better, bound); bound is the share by which the median may worsen.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("synth_s", "s", "lower", 0.25),
    ("featurize_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("evaluate_s", "s", "lower", 0.25),
    ("predict_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    ("import.total_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("import.scipy_special_s", "s", "lower"),
    ("import.scipy_signal_s", "s", "lower"),
    ("io.write_scans_s", "s", "lower"),
    ("io.read_scans_s", "s", "lower"),
    ("io.scans_mb_per_s", "MB/s", "higher"),
    ("io.read_dataset_s", "s", "lower"),
    ("io.load_model_s", "s", "lower"),
    ("io.save_model_s", "s", "lower"),
    ("io.model_bytes", "bytes", "lower"),
    ("synth.generate_session_s", "s", "lower"),
    ("features.scan_features_calls", "count", "lower"),
    ("features.scan_features_s", "s", "lower"),
    ("features.scan_reuse_ratio", "ratio", "higher"),
    ("features.mst_length_calls", "count", "lower"),
    ("features.mst_length_s", "s", "lower"),
    ("features.mst_length_ge64_calls", "count", "lower"),
    ("features.mst_length_ge64_s", "s", "lower"),
    ("features.mst_reference_s", "s", "lower"),
    ("features.window_features_calls", "count", "lower"),
    ("features.window_features_ms_p50", "ms", "lower"),
    ("features.window_features_ms_tail", "ms", "lower"),
    ("features.window_features_tail_pctl", "pct", "higher"),
    ("pipeline.preprocess_s", "s", "lower"),
    ("pipeline.make_windows_self_s", "s", "lower"),
    ("pipeline.target_for_window_calls", "count", "lower"),
    ("pipeline.windows", "count", "higher"),
    ("pipeline.samples", "count", "higher"),
    ("pipeline.skipped_no_target", "count", "lower"),
    ("pipeline.skipped_few_scans", "count", "lower"),
    ("vblearn.fit_vb_logistic_calls", "count", "lower"),
    ("vblearn.fit_vb_logistic_s", "s", "lower"),
    ("vblearn.fit_vb_linear_calls", "count", "lower"),
    ("vblearn.fit_vb_linear_s", "s", "lower"),
    ("vblearn.predict_gate_calls", "count", "lower"),
    ("vblearn.predict_gate_s", "s", "lower"),
    ("vblearn.predict_expert_calls", "count", "lower"),
    ("vblearn.predict_expert_s", "s", "lower"),
    ("moe.train_s", "s", "lower"),
    ("moe.infer_calls", "count", "lower"),
    ("moe.infer_us_p50", "us", "lower"),
    ("moe.infer_us_tail", "us", "lower"),
    ("moe.infer_tail_pctl", "pct", "higher"),
    ("moe.predict_batch_s", "s", "lower"),
    ("cli.synth_self_s", "s", "lower"),
    ("cli.featurize_self_s", "s", "lower"),
    ("cli.train_self_s", "s", "lower"),
    ("cli.evaluate_self_s", "s", "lower"),
    ("cli.predict_self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Step(NamedTuple):
    """One CLI command of a workload session and the counts it must print."""

    command: str
    args: tuple
    expect: dict

    def arg(self, flag: str):
        return self.args[self.args.index(flag) + 1] if flag in self.args else None

    @property
    def outputs(self) -> list:
        return [self.args[i + 1] for i, a in enumerate(self.args) if a in OUTPUT_FLAGS]


def _step(command, *args, **expect) -> Step:
    return Step(command, tuple(str(a) for a in args), expect)


def _model_steps(dataset: str, thresholds: str) -> list:
    return [
        _step("train", "--dataset", dataset, "--out", "model.json", "--thresholds", thresholds),
        _step(
            "evaluate", "--model", "model.json", "--dataset", dataset,
            "--report", "report.json", "--plot-data", "plot.csv",
        ),
    ]


def quickstart(seed: int) -> list:
    """README chain on the 25-minute default session at 10 Hz (15,000 scans)."""
    return [
        _step("synth", "--out-scans", "scans.txt", "--out-rain", "rain.csv", "--seed", seed,
              scans=15000, measurements=150),
        _step("featurize", "--scans", "scans.txt", "--rain", "rain.csv", "--out", "dataset.csv",
              "--duration", 10, "--box", 10,
              windows=150, samples=66, validation=10, skipped_no_target=84, skipped_few_scans=0),
        *_model_steps("dataset.csv", "20,10,40"),
        # One 10 s window scored per minute: each scan is featurized at most
        # once, and the 1 Hz path (README step 5, 57 s here) is left to stream.
        _step("predict", "--model", "model.json", "--scans", "scans.txt", "--out", "stream.csv",
              "--emit-period", 60, emissions=25, skipped=0),
    ]


# Eight 10-minute plateaus from 3 to 70 mm/h, recorded at 1 Hz (4,800 scans):
# one plateau inside each expert range of the depth-3 tree below.
LONG_SEGMENTS = ",".join(f"600:{rate}:30" for rate in (3, 7, 12, 17, 25, 35, 50, 70))
# 110 s held-out stream at 10 Hz (1,100 scans) across the rate range.
STREAM_SEGMENTS = "30:7:10,30:15:10,25:30:10,25:50:10"


def stream(seed: int) -> list:
    """Depth-3 model from a long 1 Hz session, then 1 Hz predict on a held-out 10 Hz stream."""
    return [
        _step("synth", "--out-scans", "long_scans.txt", "--out-rain", "long_rain.csv",
              "--segments", LONG_SEGMENTS, "--frame-rate", 1, "--seed", 2 * seed,
              scans=4800, measurements=480),
        _step("featurize", "--scans", "long_scans.txt", "--rain", "long_rain.csv",
              "--out", "dataset.csv", "--duration", 10, "--box", 10,
              windows=480, samples=312, validation=24, skipped_no_target=168, skipped_few_scans=0),
        *_model_steps("dataset.csv", "20,10,40,5,15,30,60"),
        _step("synth", "--out-scans", "stream_scans.txt", "--out-rain", "stream_rain.csv",
              "--segments", STREAM_SEGMENTS, "--seed", 2 * seed + 1,
              scans=1100, measurements=11),
        _step("predict", "--model", "model.json", "--scans", "stream_scans.txt",
              "--out", "stream.csv", emissions=100, skipped=0),
    ]


WORKLOADS = {"quickstart": quickstart, "stream": stream}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout("run deadline reached")


class Run:
    """Starts the child processes of one benchmark run and books their results."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.peak_rss_kb = 0
        # command -> summed wall seconds of the untraced and the traced session.
        self.session: Counter | None = None
        self.traced_session: Counter | None = None
        self.digests = defaultdict(set)
        self.last_counts: dict = {}
        self._n = 0

    def spawn(self, argv: list, label: str):
        """Run one child to completion; returns (exit code, wall seconds, stdout, stderr)."""
        self._n += 1
        out_path = self.workdir / f"{self._n:03d}-{label}.out"
        err_path = self.workdir / f"{self._n:03d}-{label}.err"
        self.attempted += 1
        remaining = int(self.deadline - time.monotonic())
        if remaining < 1:
            raise RunTimeout(f"no time left for {label}")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.workdir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            signal.alarm(remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        stdout, stderr = out_path.read_text(), err_path.read_text()
        if proc.returncode != 0:
            self.fail(f"{label} exited {proc.returncode}: {stderr.strip()[-300:]}")
        return proc.returncode, wall, stdout, stderr

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, name: str, problems: list) -> None:
        """Book one check; ``problems`` lists what was wrong (empty when it passed)."""
        self.attempted += 1
        if problems:
            self.fail(f"check {name}: " + "; ".join(problems[:5]))
        print(f"check {name}: {'ok' if not problems else 'FAIL'}")

    def run_step(self, step: Step, traced_spans: Path | None = None) -> float | None:
        """Run one command (traced when ``traced_spans`` is set); its wall time, None if it failed."""
        cli = [step.command, *step.args]
        if traced_spans is None:
            argv = [sys.executable, "-m", "rainlidar.cli", *cli]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(traced_spans),
                    traced_spans.stem, *cli]
        code, wall, stdout, _ = self.spawn(argv, step.command)
        if code != 0:
            return None
        for name in step.outputs:
            path = self.workdir / name
            self.digests[name].add(checks.file_digest(path))
            # Write the file back now, untimed, so that its writeback does not
            # land in the timing of a later command.
            with open(path, "rb") as handle:
                os.fsync(handle.fileno())
        try:
            counts = checks.parse_counts(step.command, stdout)
        except ValueError as exc:
            self.check(f"{step.command}.counts", [str(exc)])
            return wall
        if step.expect:
            self.check(
                f"{step.command}.counts",
                [f"{k}={counts.get(k)} expected {v}" for k, v in step.expect.items()
                 if counts.get(k) != v],
            )
        self.last_counts[step.command] = counts
        return wall

    def run_session(self, steps: list, trace_dir: Path | None = None) -> bool:
        """Run every step once; book the per-command wall times of the session."""
        times = Counter()
        for i, step in enumerate(steps):
            spans = None if trace_dir is None else trace_dir / f"{i:02d}-{step.command}.json"
            wall = self.run_step(step, spans)
            if wall is None:
                return False
            times[step.command] += wall
        if trace_dir is None:
            self.session = times
        else:
            self.traced_session = times
        return True


def setup_sample(run: Run) -> float:
    """Wall time of a fresh interpreter importing rainlidar.cli."""
    return run.spawn([sys.executable, "-c", "import rainlidar.cli"], "setup-import")[1]


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds from ``python -X importtime`` output."""
    cumulative = {}
    total = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        seconds = int(cum) / 1e6
        stripped = name.strip()
        cumulative.setdefault(stripped, seconds)
        if name.startswith(" rainlidar"):  # top level: no nesting indent
            total += seconds
    return {
        "import.total_s": total,
        "import.numpy_s": cumulative.get("numpy", 0.0),
        "import.scipy_special_s": cumulative.get("scipy.special", 0.0),
        "import.scipy_signal_s": cumulative.get("scipy.signal", 0.0),
    }


def measure_imports(run: Run) -> dict:
    argv = [sys.executable, "-X", "importtime", "-c", "import rainlidar.cli"]
    samples = []
    for _ in range(IMPORTTIME_REPS):
        code, _, _, stderr = run.spawn(argv, "importtime")
        if code == 0:
            samples.append(parse_importtime(stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]} if samples else {}


def load_spans(path: Path) -> list:
    with open(path) as handle:
        doc = json.load(handle)
    names = doc["names"]
    return [(sid, names[n], start, end, parent, tag) for sid, n, start, end, parent, tag in doc["spans"]]


def layer_metrics(traces: list) -> dict:
    """Per-layer metrics from the span lists of one traced session.

    ``traces`` holds (command, spans) per command; span ids are unique only
    within one command, so trees are processed one command at a time.
    """
    calls = Counter()
    inclusive = Counter()
    self_ns = Counter()
    cli_self_ns = Counter()
    durations = defaultdict(list)
    ge64_calls = ge64_ns = scan_bytes = distinct_scans = n_spans = 0
    for command, spans in traces:
        n_spans += len(spans)
        selfs = spantrace.self_times(spans)
        frames = set()
        for sid, name, start, end, _, tag in spans:
            calls[name] += 1
            self_ns[name] += selfs[sid]
            inclusive[name] += end - start
            if name.startswith("cli."):
                cli_self_ns[command] += selfs[sid]
            if name == "features.mst_length" and tag >= 64:
                ge64_calls += 1
                ge64_ns += end - start
            elif name == "features.scan_features":
                frames.add(tag)
            elif name == "io.read_scans":
                scan_bytes += tag
            if name in ("features.window_features", "moe.infer"):
                durations[name].append(end - start)
        distinct_scans += len(frames)

    def secs(name):
        return inclusive[name] / 1e9

    def tail(name, scale):
        values = durations[name]
        if not values:
            return 0.0, 0.0, 0.0
        p = spantrace.tail_percentile(len(values))
        return (spantrace.percentile(values, 50) / scale,
                spantrace.percentile(values, p) / scale, p)

    wf_p50, wf_tail, wf_p = tail("features.window_features", 1e6)
    inf_p50, inf_tail, inf_p = tail("moe.infer", 1e3)
    metrics = {
        "io.write_scans_s": secs("io.write_scans"),
        "io.read_scans_s": secs("io.read_scans"),
        "io.scans_mb_per_s": scan_bytes / 1e6 / secs("io.read_scans") if calls["io.read_scans"] else 0.0,
        "io.read_dataset_s": secs("io.read_dataset"),
        "io.load_model_s": secs("io.load_model"),
        "io.save_model_s": secs("io.save_model"),
        "synth.generate_session_s": secs("synth.generate_session"),
        "features.scan_features_calls": calls["features.scan_features"],
        "features.scan_features_s": secs("features.scan_features"),
        "features.scan_reuse_ratio": (
            distinct_scans / calls["features.scan_features"] if calls["features.scan_features"] else 0.0
        ),
        "features.mst_length_calls": calls["features.mst_length"],
        "features.mst_length_s": secs("features.mst_length"),
        "features.mst_length_ge64_calls": ge64_calls,
        "features.mst_length_ge64_s": ge64_ns / 1e9,
        "features.mst_reference_s": secs("features.uniform_mst_reference"),
        "features.window_features_calls": calls["features.window_features"],
        "features.window_features_ms_p50": wf_p50,
        "features.window_features_ms_tail": wf_tail,
        "features.window_features_tail_pctl": wf_p,
        "pipeline.preprocess_s": secs("pipeline.preprocess"),
        "pipeline.make_windows_self_s": self_ns["pipeline.make_windows"] / 1e9,
        "pipeline.target_for_window_calls": calls["pipeline.target_for_window"],
        "moe.train_s": secs("moe.train"),
        "moe.infer_calls": calls["moe.infer"],
        "moe.infer_us_p50": inf_p50,
        "moe.infer_us_tail": inf_tail,
        "moe.infer_tail_pctl": inf_p,
        "moe.predict_batch_s": secs("moe.predict_batch"),
        "trace.spans": n_spans,
    }
    for fn in ("fit_vb_logistic", "fit_vb_linear", "predict_gate", "predict_expert"):
        metrics[f"vblearn.{fn}_calls"] = calls[f"vblearn.{fn}"]
        metrics[f"vblearn.{fn}_s"] = secs(f"vblearn.{fn}")
    for command in COMMANDS:
        metrics[f"cli.{command}_self_s"] = cli_self_ns[command] / 1e9
    return metrics


def session_seed(seed: int) -> int:
    return 1 + (seed - 1) % REFERENCE_SEEDS


def observed_values(work: Path, steps: list) -> dict:
    """The values of a session's outputs that are compared with reference.json."""
    by_command = {s.command: s for s in steps}
    return {
        "dataset_rows": checks.dataset_rows(work / by_command["featurize"].arg("--out")),
        "stream_rows": checks.stream_rows(work / by_command["predict"].arg("--out")),
        "validation": checks.validation_report(work / by_command["evaluate"].arg("--report")),
    }


def check_outputs(run: Run, steps: list, workload: str, seed: int) -> None:
    """Recompute sampled outputs in-process and compare with the stored reference."""
    by_command = {s.command: s for s in steps}
    featurize, evaluate, predict = by_command["featurize"], by_command["evaluate"], by_command["predict"]
    work = run.workdir
    train_scans = rio.read_scans(work / featurize.arg("--scans"))
    stream_scans = (
        train_scans if predict.arg("--scans") == featurize.arg("--scans")
        else rio.read_scans(work / predict.arg("--scans"))
    )
    observed = observed_values(work, steps)
    for name, recompute in (
        ("dataset_rows", lambda: checks.recompute_dataset_rows(
            train_scans, work / featurize.arg("--rain"), work / featurize.arg("--out"))),
        ("stream_rows", lambda: checks.recompute_stream_rows(
            stream_scans, work / predict.arg("--model"), work / predict.arg("--out"))),
    ):
        problems: list = []
        checks.compare(name, observed[name], recompute(), problems)
        run.check(f"{name}.recomputed", problems)
    problems = []
    with open(work / evaluate.arg("--report")) as handle:
        report = json.load(handle)
    checks.compare("report", report, checks.recompute_report(
        work / evaluate.arg("--model"), work / evaluate.arg("--dataset")), problems)
    run.check("report.recomputed", problems)

    stored = checks.load_reference().get(workload, {}).get(str(seed))
    problems = []
    if stored is None:
        problems.append(f"no stored values for {workload} session seed {seed}")
    else:
        checks.compare("reference", observed, stored, problems)
    run.check("reference", problems)

    val = observed["validation"]
    print(f"quality val_rmse_mm_h {val['rmse_all']!r} mm/h")
    print(f"quality val_rmse_at_25_mm_h {val['rmse_at_25']!r} mm/h")
    print(f"quality val_retention_25 {val['retention_25']!r} ratio")


def check_determinism(run: Run) -> None:
    run.check(
        "byte_identical_reruns",
        [f"{name} differs between runs" for name, seen in sorted(run.digests.items()) if len(seen) > 1],
    )


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def end_to_end_metrics(run: Run, samples: dict) -> dict:
    """Median wall time of each command and of set-up, and the peak RSS."""
    metrics = {name: statistics.median(times) for name, times in samples.items()}
    metrics["peak_rss_mb"] = run.peak_rss_kb / 1024.0
    return metrics


def next_job(totals: dict, typical: dict, remaining: float) -> str | None:
    """The job with the least total time so far among those that fit in ``remaining``."""
    fitting = [name for name in totals if typical[name] <= remaining]
    return min(fitting, key=lambda name: totals[name]) if fitting else None


def measure(run: Run, steps: list, seconds: float, trace: bool, metrics: dict) -> None:
    """Run the commands of one benchmark run and put what they measure in ``metrics``.

    ``metrics`` is updated as the run goes, so that a run cut by its deadline
    still reports what it measured.
    """
    if not trace:
        # The session runs once in order, since each step reads the files of
        # the ones before it. Then single commands (all of a command's steps:
        # stream runs synth twice) and set-up samples repeat until --seconds
        # have passed, the one with the least total time first, so that every
        # metric gets about the same share of the run (the short, import-bound
        # commands many samples) and its samples spread over the whole run.
        start = time.perf_counter()
        by_command = {c: [s for s in steps if s.command == c] for c in COMMANDS}

        def run_command(command: str) -> float | None:
            total = 0.0
            for step in by_command[command]:
                wall = run.run_step(step)
                if wall is None:
                    return None
                total += wall
            return total

        if not run.run_session(steps):
            return
        samples = {f"{c}_s": [run.session[c]] for c in COMMANDS}
        samples["setup_s"] = [setup_sample(run)]
        while True:
            metrics.update(end_to_end_metrics(run, samples))
            name = next_job({n: sum(v) for n, v in samples.items()},
                            {n: statistics.median(v) for n, v in samples.items()},
                            seconds - (time.perf_counter() - start))
            if name is None:
                break
            wall = setup_sample(run) if name == "setup_s" else run_command(name[:-2])
            if wall is None:
                return
            samples[name].append(wall)
        for name, times in samples.items():
            print(f"samples {name} " + " ".join(f"{v:.4f}" for v in times))
        return

    metrics.update(measure_imports(run))
    if not run.run_session(steps):
        return
    trace_dir = run.workdir / "spans"
    trace_dir.mkdir()
    if not run.run_session(steps, trace_dir):
        return
    traces = [(p.stem.split("-", 1)[1], load_spans(p)) for p in sorted(trace_dir.glob("*.json"))]
    metrics.update(layer_metrics(traces))
    untraced = sum(run.session.values())
    traced = sum(run.traced_session.values())
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    metrics["io.model_bytes"] = (run.workdir / "model.json").stat().st_size
    counts = run.last_counts["featurize"]
    for key in ("windows", "samples", "skipped_no_target", "skipped_few_scans"):
        metrics[f"pipeline.{key}"] = counts[key]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns its result line."""
    shutil.rmtree(WORK, ignore_errors=True)
    workdir = WORK / f"{workload}-{seed}"
    workdir.mkdir(parents=True)
    run = Run(workdir, time.monotonic() + seconds + RUN_MARGIN_S)
    steps = WORKLOADS[workload](seed)
    metrics: dict = {}
    try:
        measure(run, steps, seconds, trace, metrics)
        if run.failed == 0:
            check_outputs(run, steps, workload, seed)
            check_determinism(run)
    except RunTimeout as exc:
        # The command that was cut counts as a failed operation.
        run.fail(f"timeout: {exc}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    units = {name: unit for name, unit, *_ in (PER_LAYER if trace else END_TO_END)}
    missing = [name for name in units if name not in metrics]
    if missing and run.failed == 0:
        run.fail(f"metrics not measured: {missing}")
    for name in units:
        if name in metrics:
            print(f"metric {name} {metrics[name]!r} {units[name]}")
    for message in run.failures:
        print(f"failure: {message}", file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rainlidar" / "cli.py").is_file():
        print(f"error: no rainlidar sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    global checks, rio
    import checks  # imports rainlidar from SRC
    import rainlidar
    from rainlidar import io as rio

    if not Path(rainlidar.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: rainlidar imported from {rainlidar.__file__}, not {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    print("environment " + json.dumps(environment(), sort_keys=True))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        seed = session_seed(args.seed)
        print(f"workload {workload} seed {args.seed} (session seed {seed}) trace {args.trace}")
        results[workload] = result = run_workload(workload, seed, args.seconds, bool(args.trace))
        if len(workloads) > 1:
            print(f"result {workload} " + json.dumps(result))
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
