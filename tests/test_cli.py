"""End-to-end tests for the command-line pipeline."""

import json
import os
import pathlib
import pickle
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import rainlidar
from rainlidar import features, pipeline, synth
from rainlidar import io as rio
from rainlidar.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from rainlidar.errors import FileFormatError, InvalidInputError
from rainlidar.features import CropBox, Scan, ScanTable, WindowSample
from rainlidar.moe import infer_batch
from rainlidar.pipeline import EDGE_TOLERANCE, Dataset, StreamingPredictor
from rainlidar.synth import (
    DisturbanceParams,
    NoiseRegimeParams,
    RainProfile,
    RegimeParams,
    SegmentSpec,
    SensorSpec,
    _draw_bursts,
    generate_session,
)
from conftest import (
    assert_no_child_process,
    exit_holding_the_token,
    slide_windows_oracle,
    time_limit,
    use_cpus,
    wait_until,
)

SMALL_SEGMENTS = "300:7:10,300:15:10,300:30:10,300:50:10"
# A read block larger than any scan file of these tests: one block, the whole table.
WHOLE = 1 << 24


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small synth -> featurize -> train chain shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    scans = root / "scans.txt"
    rain = root / "rain.csv"
    dataset = root / "dataset.csv"
    model = root / "model.json"
    assert main([
        "synth", "--out-scans", str(scans), "--out-rain", str(rain),
        "--segments", SMALL_SEGMENTS, "--seed", "1",
    ]) == EXIT_OK
    assert main([
        "featurize", "--scans", str(scans), "--rain", str(rain),
        "--out", str(dataset), "--duration", "10", "--box", "10",
    ]) == EXIT_OK
    assert main([
        "train", "--dataset", str(dataset), "--out", str(model),
        "--thresholds", "20,10,40", "--seed", "0",
    ]) == EXIT_OK
    return {"root": root, "scans": scans, "rain": rain, "dataset": dataset, "model": model}


class TestSynth:
    def test_outputs_readable(self, workspace):
        scans = rio.read_scans(workspace["scans"])
        series = rio.read_disdrometer(workspace["rain"])
        assert len(scans) == 12_000  # 1200 s at 10 Hz
        assert len(series) == 120

    def test_seed_repetition_identical_files(self, workspace, tmp_path):
        out_scans = tmp_path / "scans2.txt"
        out_rain = tmp_path / "rain2.csv"
        assert main([
            "synth", "--out-scans", str(out_scans), "--out-rain", str(out_rain),
            "--segments", SMALL_SEGMENTS, "--seed", "1",
        ]) == EXIT_OK
        assert out_scans.read_bytes() == workspace["scans"].read_bytes()
        assert out_rain.read_bytes() == workspace["rain"].read_bytes()

    def test_streamed_files_equal_generate_session(self, tmp_path, capsys, monkeypatch):
        profile = RainProfile(
            (SegmentSpec(300.0, 7.0, 10.0), SegmentSpec(300.0, 45.0, 10.0)), SensorSpec(frame_rate=2.0)
        )
        # the session has disturbance bursts
        assert _draw_bursts(DisturbanceParams(), profile.total_duration, 5)
        scans, series = generate_session(profile, seed=5)
        ref_scans, ref_rain = tmp_path / "ref_scans.txt", tmp_path / "ref_rain.csv"
        rio.write_scans(ref_scans, scans)
        rio.write_disdrometer(ref_rain, series)
        out_scans, out_rain = tmp_path / "scans.txt", tmp_path / "rain.csv"
        # many blocks, each written as soon as its scans are made
        monkeypatch.setattr(synth, "SESSION_BLOCK_FRAMES", 7)
        assert main([
            "synth", "--out-scans", str(out_scans), "--out-rain", str(out_rain),
            "--segments", "300:7:10,300:45:10", "--frame-rate", "2", "--seed", "5",
        ]) == EXIT_OK
        assert len(scans) > 50 * synth.SESSION_BLOCK_FRAMES
        assert out_scans.read_bytes() == ref_scans.read_bytes()
        assert out_rain.read_bytes() == ref_rain.read_bytes()
        # the counts line as the benchmark's checks parse it
        stdout = capsys.readouterr().out
        m = re.search(r"synth: (?P<scans>\d+) scans over .*; (?P<measurements>\d+) disdrometer", stdout)
        assert m, stdout
        assert (int(m["scans"]), int(m["measurements"])) == (len(scans), len(series)) == (1200, 60)


class TestSessionWriter:
    """synth writes a session with one process, or with a forked worker;
    each process claims the next block when it is free, and the file is
    the same."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "segments, frame_rate, seed, disturbance",
        [
            # 303 frames: three full blocks and a last one of three frames
            ("20.3:7:5,10:30:2", 10.0, 2, True),
            ("20.3:7:5,10:30:2", 10.0, 2, False),
            # 60 frames: shorter than one block
            ("6:7:2", 10.0, 4, True),
            # 1 Hz, 505 frames, with disturbance bursts
            ("250:7:10,255:45:10", 1.0, 5, True),
        ],
        ids=["303-frames", "no-disturbance", "one-block", "1hz"],
    )
    def test_file_equals_write_scans_of_generate_session(
        self, tmp_path, monkeypatch, cpus, segments, frame_rate, seed, disturbance
    ):
        use_cpus(monkeypatch, cpus)
        worker_ran = tmp_path / "worker-ran"
        send_blocks = rio._send_blocks

        def spied_send_blocks(*args):
            worker_ran.touch()
            send_blocks(*args)

        monkeypatch.setattr(rio, "_send_blocks", spied_send_blocks)
        profile = RainProfile(
            tuple(SegmentSpec(*map(float, s.split(":"))) for s in segments.split(",")),
            SensorSpec(frame_rate=frame_rate),
        )
        disturbance_params = DisturbanceParams() if disturbance else None
        if frame_rate == 1.0:
            assert _draw_bursts(DisturbanceParams(), profile.total_duration, seed)
        scans, series = generate_session(profile, seed=seed, disturbance=disturbance_params)
        ref_scans, ref_rain = tmp_path / "ref_scans.txt", tmp_path / "ref_rain.csv"
        rio.write_scans(ref_scans, scans)
        rio.write_disdrometer(ref_rain, series)
        several_blocks = len(scans) > synth.SESSION_BLOCK_FRAMES
        if cpus == 2 and several_blocks:
            # this process's blocks wait for the worker, so it certainly runs
            block = synth._SessionFrames.block

            def waiting_block(self, start, stop):
                assert wait_until(worker_ran.exists)
                return block(self, start, stop)

            monkeypatch.setattr(synth._SessionFrames, "block", waiting_block)
        out_scans, out_rain = tmp_path / "scans.txt", tmp_path / "rain.csv"
        flags = [] if disturbance else ["--no-disturbance"]
        assert main([
            "synth", "--out-scans", str(out_scans), "--out-rain", str(out_rain),
            "--segments", segments, "--frame-rate", str(frame_rate), "--seed", str(seed), *flags,
        ]) == EXIT_OK
        assert out_scans.read_bytes() == ref_scans.read_bytes()
        assert out_rain.read_bytes() == ref_rain.read_bytes()
        assert worker_ran.exists() == (cpus == 2 and several_blocks)
        assert_no_child_process()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["ref_scans.txt", "ref_rain.csv", "scans.txt", "rain.csv"]
            + (["worker-ran"] if worker_ran.exists() else [])
        )

    def test_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch):
        profile = RainProfile((SegmentSpec(40.0, 30.0, 5.0),))
        files = []
        for frames in (1, 13, 100, 1000):
            monkeypatch.setattr(synth, "SESSION_BLOCK_FRAMES", frames)
            path = tmp_path / f"scans-{frames}.txt"
            assert synth.write_session_scans(path, profile, seed=3) == 400
            files.append(path.read_bytes())
        assert len(files[0]) > 0 and files.count(files[0]) == len(files)
        assert_no_child_process()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_sensors_noise_table_reaches_the_file(self, tmp_path, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        table = NoiseRegimeParams(
            (RegimeParams((0.0, 400.0), (20.0, 0.1, 0.0), 1.0, 0.0, (0.0, 0.1), (0.1, 0.3), 0.3),)
        )
        # 300 frames, three blocks, at a rate where the default table draws no points
        profile = RainProfile((SegmentSpec(30.0, 300.0, 5.0),), SensorSpec(noise=table))
        scans, _ = generate_session(profile, seed=3)
        assert scans[-1].n_points > 0
        ref, path = tmp_path / "ref.txt", tmp_path / "scans.txt"
        rio.write_scans(ref, scans)
        assert synth.write_session_scans(path, profile, seed=3) == 300
        assert path.read_bytes() == ref.read_bytes()
        assert_no_child_process()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_missing_directory_is_io_error(self, tmp_path, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        code = main([
            "synth", "--out-scans", str(tmp_path / "missing" / "scans.txt"),
            "--out-rain", str(tmp_path / "rain.csv"), "--segments", "30:7:5",
        ])
        assert code == EXIT_IO
        assert_no_child_process()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("frames", [7, 40, 100])
    @pytest.mark.parametrize("slow", ["neither", "worker", "this-process"])
    def test_file_does_not_depend_on_the_cpus(self, tmp_path, monkeypatch, frames, slow):
        monkeypatch.setattr(synth, "SESSION_BLOCK_FRAMES", frames)
        profile = RainProfile((SegmentSpec(60.0, 30.0, 5.0),))
        use_cpus(monkeypatch, 1)
        one = tmp_path / "one.txt"
        assert synth.write_session_scans(one, profile, seed=4) == 600
        # one process making its blocks more slowly shifts the claims
        block, parent = synth._SessionFrames.block, os.getpid()

        def timed_block(self, start, stop):
            if slow != "neither" and (os.getpid() == parent) == (slow == "this-process"):
                time.sleep(0.002)
            return block(self, start, stop)

        monkeypatch.setattr(synth._SessionFrames, "block", timed_block)
        use_cpus(monkeypatch, 2)
        two = tmp_path / "two.txt"
        assert synth.write_session_scans(two, profile, seed=4) == 600
        assert two.read_bytes() == one.read_bytes()
        assert_no_child_process()

    @pytest.mark.parametrize("nth", [1, 3])
    def test_worker_that_exits_holding_the_token_leaves_the_rest_here(
        self, tmp_path, monkeypatch, nth
    ):
        monkeypatch.setattr(synth, "SESSION_BLOCK_FRAMES", 20)
        profile = RainProfile((SegmentSpec(60.0, 30.0, 5.0),))
        use_cpus(monkeypatch, 1)
        one = tmp_path / "one.txt"
        synth.write_session_scans(one, profile, seed=4)
        use_cpus(monkeypatch, 2)
        exit_holding_the_token(monkeypatch, nth)
        two = tmp_path / "two.txt"
        with time_limit(30):
            assert synth.write_session_scans(two, profile, seed=4) == 600
        assert two.read_bytes() == one.read_bytes()
        assert_no_child_process()

    @pytest.fixture
    def fail_in_block(self, monkeypatch, flags):
        """A function that makes the first block at or after ``index`` that
        the worker (``in_worker``) or this process makes call ``failure()``.
        The other process waits in each of its blocks until then, so that
        block is certain to come."""

        def fail_in_block(index, in_worker, failure):
            block, parent, failing = synth._SessionFrames.block, os.getpid(), flags()

            def failing_block(self, start, stop):
                if (os.getpid() != parent) != in_worker:
                    assert failing.wait()
                elif start >= index * synth.SESSION_BLOCK_FRAMES:
                    failing.raise_()
                    failure()
                return block(self, start, stop)

            monkeypatch.setattr(synth._SessionFrames, "block", failing_block)

        return fail_in_block

    def synth_into(self, tmp_path):
        return main([
            "synth", "--out-scans", str(tmp_path / "scans.txt"),
            "--out-rain", str(tmp_path / "rain.csv"), "--segments", "120:7:5", "--seed", "3",
        ])

    def raise_invalid(self):
        raise InvalidInputError("injected")

    def test_error_in_a_worker_block_fails_the_command(
        self, tmp_path, monkeypatch, capsys, fail_in_block
    ):
        use_cpus(monkeypatch, 2)
        fail_in_block(3, True, self.raise_invalid)
        assert self.synth_into(tmp_path) == EXIT_USAGE
        assert capsys.readouterr().err == "error: injected\n"
        assert_no_child_process()
        assert list(tmp_path.iterdir()) == []

    def test_worker_that_dies_leaves_the_rest_here(self, tmp_path, monkeypatch, capsys, fail_in_block):
        one, two = tmp_path / "one", tmp_path / "two"
        one.mkdir(), two.mkdir()
        use_cpus(monkeypatch, 1)
        assert self.synth_into(one) == EXIT_OK
        use_cpus(monkeypatch, 2)
        fail_in_block(1, True, lambda: os._exit(7))
        assert self.synth_into(two) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert_no_child_process()
        for name in ("scans.txt", "rain.csv"):
            assert (two / name).read_bytes() == (one / name).read_bytes()
        assert sorted(p.name for p in two.iterdir()) == ["rain.csv", "scans.txt"]

    @pytest.mark.parametrize(
        "error", [InvalidInputError("injected"), KeyError("frame", 3)], ids=repr
    )
    def test_error_in_a_worker_block_reaches_this_process_as_itself(
        self, tmp_path, monkeypatch, fail_in_block, error
    ):
        use_cpus(monkeypatch, 2)

        def fail():
            raise error

        fail_in_block(3, True, fail)
        profile = RainProfile((SegmentSpec(120.0, 7.0, 5.0),))
        with pytest.raises(type(error)) as caught:
            synth.write_session_scans(tmp_path / "scans.txt", profile, seed=3)
        assert type(caught.value) is type(error) and caught.value.args == error.args
        assert_no_child_process()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failure", [InvalidInputError, KeyboardInterrupt])
    def test_error_in_this_process_kills_the_worker(
        self, tmp_path, monkeypatch, fail_in_block, failure
    ):
        use_cpus(monkeypatch, 2)

        def fail():
            raise failure("injected")

        # this process's first block, while the worker waits in one of its own
        fail_in_block(0, False, fail)
        if failure is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                self.synth_into(tmp_path)
        else:
            assert self.synth_into(tmp_path) == EXIT_USAGE
        assert_no_child_process()
        assert list(tmp_path.iterdir()) == []


class TestFeaturize:
    def test_sample_count_matches_counters(self, workspace, capsys):
        out = workspace["root"] / "dataset_again.csv"
        assert main([
            "featurize", "--scans", str(workspace["scans"]), "--rain", str(workspace["rain"]),
            "--out", str(out), "--duration", "10", "--box", "10",
        ]) == EXIT_OK
        stdout = capsys.readouterr().out
        dataset = rio.read_dataset(out)
        assert f"-> {len(dataset)} samples" in stdout
        # windows = samples + skips
        m = re.search(r"(\d+) windows .* skipped (\d+) without target, (\d+) with too few", stdout)
        assert m, stdout
        windows, no_target, few = map(int, m.groups())
        assert windows == len(dataset) + no_target + few

    def test_hundred_frame_windows(self, workspace):
        dataset = rio.read_dataset(workspace["dataset"])
        for sample in dataset.samples:
            start, end = sample.window
            assert end - start == pytest.approx(10.0)

    def test_empty_scan_file(self, tmp_path, capsys):
        scans = tmp_path / "empty.txt"
        scans.write_text("")
        rain = tmp_path / "rain.csv"
        rain.write_text("timestamp_s,rate_mm_h,segment_id\n0.0,5.0,0\n")
        out = tmp_path / "dataset.csv"
        assert main([
            "featurize", "--scans", str(scans), "--rain", str(rain), "--out", str(out),
        ]) == EXIT_OK
        assert "empty" in capsys.readouterr().err
        assert len(rio.read_dataset(out)) == 0

    @pytest.mark.parametrize(
        "options, code",
        [
            (["--duration", "-5"], EXIT_USAGE),
            (["--duration", "nan"], EXIT_USAGE),
            (["--stride", "0"], EXIT_USAGE),
            (["--savgol-order", "-1"], EXIT_USAGE),
            (["--val-span", "nan"], EXIT_USAGE),
            (["--box", "-1"], EXIT_USAGE),
            (["--trim", "-3"], EXIT_USAGE),
            (["--stride", "2"], EXIT_USAGE),
            ([], EXIT_OK),
            (["--stride", "2", "--allow-overlap", "--duration", "4", "--trim", "0"], EXIT_OK),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else f"exit{value}",
    )
    def test_empty_scan_file_checks_the_options(self, workspace, tmp_path, capsys, options, code):
        # an empty file takes the path of any other, so its options are checked as theirs
        scans = tmp_path / "empty.txt"
        scans.write_text("")
        out = tmp_path / "dataset.csv"
        argv = ["featurize", "--scans", str(scans), "--rain", str(workspace["rain"]), "--out", str(out)]
        assert main(argv + options) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert "warning: empty scan file" in err
            dataset = rio.read_dataset(out)
            assert len(dataset) == 0 and dataset.segment_spans
        else:
            assert err.startswith("error: ") and not out.exists()


class TestScanColumns:
    def test_featurize_and_predict_build_no_scan(self, workspace, tmp_path, monkeypatch):
        # both commands work on the columns of the ScanTable read from the file
        built = []
        real = Scan.__post_init__

        def counting(scan):
            built.append(scan.frame_id)
            real(scan)

        monkeypatch.setattr(Scan, "__post_init__", counting)
        monkeypatch.setattr(features, "crop", lambda *a: built.append("crop"))
        assert main([
            "featurize", "--scans", str(workspace["scans"]), "--rain", str(workspace["rain"]),
            "--out", str(tmp_path / "dataset.csv"), "--duration", "10", "--box", "10",
        ]) == EXIT_OK
        assert main([
            "predict", "--model", str(workspace["model"]), "--scans", str(workspace["scans"]),
            "--emit-period", "30", "--out", str(tmp_path / "stream.csv"),
        ]) == EXIT_OK
        assert built == []
        assert (tmp_path / "dataset.csv").read_bytes() == workspace["dataset"].read_bytes()


class TestTrain:
    def test_model_file_valid(self, workspace):
        model = rio.load_model(workspace["model"])
        assert model.spec.depth == 2
        assert model.spec.thresholds == (20.0, 10.0, 40.0)
        assert model.metadata["dataset_config"]["duration"] == 10.0

    def test_retrain_identical_bytes(self, workspace, tmp_path):
        out = tmp_path / "model2.json"
        assert main([
            "train", "--dataset", str(workspace["dataset"]), "--out", str(out),
            "--thresholds", "20,10,40", "--seed", "0",
        ]) == EXIT_OK
        assert out.read_bytes() == workspace["model"].read_bytes()

    def test_depth_four_thresholds_accepted(self, tmp_path):
        # Hand-built dataset with targets spread over every depth-4 range.
        rng = np.random.default_rng(2)
        targets = np.concatenate([rng.uniform(lo, hi, 3) for lo, hi in zip(
            [0, 2.5, 5, 7.5, 10, 12.5, 15, 17.5, 20, 25, 30, 35, 40, 50, 60, 70],
            [2.5, 5, 7.5, 10, 12.5, 15, 17.5, 20, 25, 30, 35, 40, 50, 60, 70, 80],
        )])
        samples = [
            WindowSample(
                features=np.abs(rng.normal(size=8)) + np.array([y, 0, 0, 0, 0, 0, 0, 0]),
                target=float(y),
                window=(i * 10.0, i * 10.0 + 10.0),
            )
            for i, y in enumerate(targets)
        ]
        dataset_path = tmp_path / "spread.csv"
        rio.write_dataset(
            dataset_path,
            Dataset(samples=samples, split_tags=["train"] * len(samples), config={}),
        )
        out = tmp_path / "deep.json"
        code = main([
            "train", "--dataset", str(dataset_path), "--out", str(out),
            "--thresholds", "20,10,40,5,15,30,60,2.5,7.5,12.5,17.5,25,35,50,70",
            "--seed", "0",
        ])
        assert code == EXIT_OK
        assert rio.load_model(out).spec.depth == 4

    def test_empty_expert_range_is_numeric_error(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = [
            WindowSample(
                features=np.abs(rng.normal(size=8)),
                target=float(rng.uniform(0, 9)),
                window=(i * 10.0, i * 10.0 + 10.0),
            )
            for i in range(10)
        ]
        dataset_path = tmp_path / "low.csv"
        rio.write_dataset(
            dataset_path,
            Dataset(samples=samples, split_tags=["train"] * 10, config={}),
        )
        code = main([
            "train", "--dataset", str(dataset_path), "--out", str(tmp_path / "m.json"),
            "--thresholds", "20,10,40",
        ])
        assert code == EXIT_NUMERIC


class TestDefaultThresholds:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_default_chain(self, workspace, tmp_path, depth):
        model = tmp_path / "model.json"
        assert main([
            "train", "--dataset", str(workspace["dataset"]), "--out", str(model),
            "--depth", str(depth),
        ]) == EXIT_OK
        loaded = rio.load_model(model)
        assert loaded.spec.depth == depth
        dataset = rio.read_dataset(workspace["dataset"])
        targets = np.array([s.target for s in dataset.subset("train")])
        for lo, hi in loaded.spec.expert_ranges:
            assert np.count_nonzero((targets >= lo) & (targets < hi)) >= 2
        assert main([
            "evaluate", "--model", str(model), "--dataset", str(workspace["dataset"]),
            "--report", str(tmp_path / "report.json"),
        ]) == EXIT_OK

    def test_tied_targets_exit_numeric(self, tmp_path, capsys):
        samples = [
            WindowSample(
                features=np.full(8, float(i)),
                target=0.0 if i < 8 else 5.0,
                window=(i * 10.0, i * 10.0 + 10.0),
            )
            for i in range(10)
        ]
        dataset_path = tmp_path / "ties.csv"
        rio.write_dataset(
            dataset_path,
            Dataset(samples=samples, split_tags=["train"] * 10, config={}),
        )
        code = main([
            "train", "--dataset", str(dataset_path), "--out", str(tmp_path / "m.json"),
            "--depth", "1",
        ])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "depth-1" in err and "2 distinct" in err


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        # scipy is a test dependency only: even scipy.special alone takes
        # longer to import than the rest of a command's start-up.
        src = str(pathlib.Path(rainlidar.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, rainlidar.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestEvaluate:
    def test_report_and_plot_data(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        plot = tmp_path / "plot.csv"
        assert main([
            "evaluate", "--model", str(workspace["model"]), "--dataset", str(workspace["dataset"]),
            "--report", str(report), "--plot-data", str(plot),
        ]) == EXIT_OK
        doc = json.loads(report.read_text())
        assert "overall" in doc and "train" in doc and "validation" in doc
        for key in ("rmse_all", "mean_error_probability", "rmse_at_25",
                    "retention_25", "rmse_at_10", "retention_10"):
            assert key in doc["overall"]
        lines = plot.read_text().strip().splitlines()
        dataset = rio.read_dataset(workspace["dataset"])
        assert lines[0] == "target_mm_h,point_estimate_mm_h,error_probability,split"
        assert len(lines) - 1 == len(dataset)

    def test_custom_thresholds(self, workspace, tmp_path):
        report = tmp_path / "report2.json"
        assert main([
            "evaluate", "--model", str(workspace["model"]), "--dataset", str(workspace["dataset"]),
            "--report", str(report), "--error-prob-thresholds", "0.5,0.2",
        ]) == EXIT_OK
        doc = json.loads(report.read_text())
        assert "rmse_at_50" in doc["overall"] and "rmse_at_20" in doc["overall"]

    def test_thresholds_sharing_a_report_key_are_usage_error(self, workspace, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main([
            "evaluate", "--model", str(workspace["model"]), "--dataset", str(workspace["dataset"]),
            "--report", str(report), "--error-prob-thresholds", "0.1,0.104",
        ])
        assert code == EXIT_USAGE
        assert "share the report key suffix 10" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("value", ["0", "nan", "1.5", "-0.1"])
    def test_threshold_outside_unit_interval_is_usage_error(self, workspace, tmp_path, capsys, value):
        report, plot = tmp_path / "report.json", tmp_path / "plot.csv"
        code = main([
            "evaluate", "--model", str(workspace["model"]), "--dataset", str(workspace["dataset"]),
            "--report", str(report), "--plot-data", str(plot), "--error-prob-thresholds", value,
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: threshold must be in (0, 1]\n"
        assert not report.exists() and not plot.exists()

    def test_unknown_model_version_is_io_error(self, workspace, tmp_path, capsys):
        doc = json.loads(workspace["model"].read_text())
        doc["version"] = 3
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = main(["evaluate", "--model", str(model), "--dataset", str(workspace["dataset"])])
        assert code == EXIT_IO
        assert "unsupported model version 3" in capsys.readouterr().err


class TestPredict:
    def test_streaming_emissions(self, workspace, tmp_path):
        out = tmp_path / "stream.csv"
        assert main([
            "predict", "--model", str(workspace["model"]), "--scans", str(workspace["scans"]),
            "--buffer", "10", "--emit-period", "1.0", "--out", str(out),
        ]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["time_s", "point_estimate_mm_h", "error_probability"]
        assert header[3:] == ["resp_e1", "resp_e2", "resp_e3", "resp_e4"]
        # scans span [0, 1199.9]: emissions at 10.0, 11.0, ..., 1199.0
        assert len(lines) - 1 == 1190
        first = lines[1].split(",")
        assert float(first[0]) == 10.0
        resp = np.array([float(v) for v in first[3:]])
        assert abs(resp.sum() - 1.0) < 1e-9

    def test_featurizes_each_scan_of_an_emitted_window_once(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        # 10 Hz over 0..14.9 s and 28..39.9 s: the emissions at 25..28 s have
        # no scans, and the scans after the last emission (39 s) are in none.
        times = np.concatenate([np.arange(0, 150), np.arange(280, 400)]) / 10
        rng = np.random.default_rng(9)
        scans = [
            Scan(rng.uniform(-5, 5, (8, 3)), rng.random(8), float(t), i)
            for i, t in enumerate(times)
        ]
        scan_path = tmp_path / "gappy_scans.txt"
        rio.write_scans(scan_path, scans)
        seen = []
        real = pipeline.scan_feature_rows

        def counting(scans, box, indices=None, out=None):
            seen.extend(ScanTable.from_scans(scans).frame_ids[indices].tolist())
            return real(scans, box, indices, out)

        monkeypatch.setattr(pipeline, "scan_feature_rows", counting)
        out = tmp_path / "stream.csv"
        assert main([
            "predict", "--model", str(workspace["model"]), "--scans", str(scan_path),
            "--buffer", "10", "--emit-period", "1", "--out", str(out),
        ]) == EXIT_OK
        assert "predict: 26 emissions (4 skipped)" in capsys.readouterr().out
        emitted = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        inside = {
            i for emit in emitted for i, t in enumerate(times) if emit - 10 <= t < emit
        }
        assert seen == sorted(inside)
        assert len(seen) == 260

    def test_no_window_with_two_scans_writes_header_only(self, workspace, tmp_path, capsys):
        # One scan every 20 s: no 10 s buffer holds two of them.
        scans = [Scan(np.ones((3, 3)), np.ones(3), 20.0 * i, i) for i in range(6)]
        scan_path = tmp_path / "sparse_scans.txt"
        rio.write_scans(scan_path, scans)
        out = tmp_path / "stream.csv"
        assert main([
            "predict", "--model", str(workspace["model"]), "--scans", str(scan_path),
            "--buffer", "10", "--emit-period", "1", "--out", str(out),
        ]) == EXIT_OK
        assert "predict: 0 emissions (91 skipped)" in capsys.readouterr().out
        assert out.read_text() == (
            "time_s,point_estimate_mm_h,error_probability,resp_e1,resp_e2,resp_e3,resp_e4\n"
        )

    @pytest.mark.parametrize("buffer", ["500", "1e300"])
    def test_no_window_kept_warns_with_buffer_and_span(self, workspace, tmp_path, capsys, buffer):
        # 11 scans over 0..10 s: no buffer this long ends within them
        scans = [Scan(np.ones((3, 3)), np.ones(3), 1.0 * i, i) for i in range(11)]
        scan_path = tmp_path / "short_scans.txt"
        rio.write_scans(scan_path, scans)
        out = tmp_path / "stream.csv"
        assert main([
            "predict", "--model", str(workspace["model"]), "--scans", str(scan_path),
            "--buffer", buffer, "--out", str(out),
        ]) == EXIT_OK
        captured = capsys.readouterr()
        assert "predict: 0 emissions (0 skipped)" in captured.out
        assert captured.err == (
            f"predict: warning: no window kept: the buffer is {float(buffer):g} s "
            "and the scans span 10 s (0 to 10 s)\n"
        )
        assert len(out.read_text().splitlines()) == 1

    def test_unordered_scans_are_usage_error(self, workspace, tmp_path, capsys):
        scans = [Scan(np.ones((2, 3)), np.ones(2), t, i) for i, t in enumerate([0.0, 2.0, 1.0])]
        scan_path = tmp_path / "unordered.txt"
        rio.write_scans(scan_path, scans)
        code = main([
            "predict", "--model", str(workspace["model"]), "--scans", str(scan_path),
            "--buffer", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE
        assert "time-ordered" in capsys.readouterr().err

    def test_dimension_mismatch_names_both(self, workspace, tmp_path, capsys):
        # a standardization of 4 features under nodes of 8 is a broken model file
        doc = json.loads(workspace["model"].read_text())
        doc["standardization"]["mean"] = doc["standardization"]["mean"][:4]
        doc["standardization"]["scale"] = doc["standardization"]["scale"][:4]
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code = main([
            "predict", "--model", str(bad), "--scans", str(workspace["scans"]),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "has dimension 9" in err and "of 4 features" in err


def gappy_scans():
    """10 Hz over 0..14.9 s and 28..39.9 s, eight points a scan."""
    times = np.concatenate([np.arange(0, 150), np.arange(280, 400)]) / 10
    rng = np.random.default_rng(9)
    return [Scan(rng.uniform(-5, 5, (8, 3)), rng.random(8), float(t), i) for i, t in enumerate(times)]


class TestEmissionLatency:
    def test_each_emission_returned_by_the_first_push_that_reaches_it(self, workspace):
        # A 10 Hz session pushed 1 s at a time, as a live sensor would.
        model = rio.load_model(workspace["model"])
        table = ScanTable.from_scans(gappy_scans())
        seconds = np.floor(table.timestamps)
        starts = np.flatnonzero(np.diff(seconds, prepend=-1.0)).tolist()
        predictor = StreamingPredictor(model, CropBox(10.0), 10.0, 1.0)
        pushed, previous = [], -np.inf
        for a, b in zip(starts, [*starts[1:], len(table)]):
            last = float(table.timestamps[b - 1])
            for emit, pred in predictor.push(table[a:b]):
                # from the first push whose last scan reaches the emission time
                assert previous < emit - EDGE_TOLERANCE <= last
                pushed.append((emit, pred))
            previous = last
        assert predictor.close() == []
        whole = StreamingPredictor(model, CropBox(10.0), 10.0, 1.0)
        want = whole.push(table) + whole.close()
        assert len(pushed) == len(want) == 26
        for (t, p), (t_want, p_want) in zip(pushed, want):
            assert t == t_want
            assert p.point_estimate == p_want.point_estimate
            assert p.error_probability == p_want.error_probability


def stream_csv(model, windows) -> str:
    """stream.csv as ``rainlidar predict`` writes it, from (start, end, target, vector) windows."""
    preds = infer_batch(model, [v for *_, v in windows])
    lines = ["time_s,point_estimate_mm_h,error_probability," + ",".join(
        f"resp_e{m}" for m in range(1, model.spec.n_experts + 1)
    )]
    for (_, emit, _, _), pred in zip(windows, preds):
        resp = ",".join(repr(float(p)) for p in pred.responsibilities)
        lines.append(f"{emit!r},{pred.point_estimate!r},{pred.error_probability!r},{resp}")
    return "\n".join(lines) + "\n"


class TestStreamedCommands:
    """featurize and predict read, push block by block, and write at the end."""

    FEATURIZE = ["--duration", "4", "--stride", "2", "--allow-overlap", "--trim", "2",
                 "--savgol-window", "5", "--savgol-order", "1", "--val-span", "10"]

    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("streamed")
        scans, rain = root / "scans.txt", root / "rain.csv"
        assert main([
            "synth", "--out-scans", str(scans), "--out-rain", str(rain), "--seed", "3",
            "--segments", "60:7:5,60:30:5", "--frame-rate", "2", "--disdro-rate", "0.5",
        ]) == EXIT_OK
        gappy = root / "gappy.txt"
        rio.write_scans(gappy, gappy_scans())
        return {"scans": scans, "rain": rain, "gappy": gappy}

    def outputs(self, monkeypatch, tmp_path, session, model, block):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", block)
        out = {}
        name = f"dataset{block}.csv"
        assert main([
            "featurize", "--scans", str(session["scans"]), "--rain", str(session["rain"]),
            "--out", str(tmp_path / name), *self.FEATURIZE,
        ]) == EXIT_OK
        out["dataset"] = (tmp_path / name).read_bytes()
        for key in ("scans", "gappy"):
            name = f"stream_{key}{block}.csv"
            assert main([
                "predict", "--model", str(model), "--scans", str(session[key]),
                "--buffer", "10", "--emit-period", "1", "--out", str(tmp_path / name),
            ]) == EXIT_OK
            out[key] = (tmp_path / name).read_bytes()
        return out

    def test_small_blocks_give_the_whole_table_bytes(self, workspace, session, tmp_path, monkeypatch):
        whole = self.outputs(monkeypatch, tmp_path, session, workspace["model"], WHOLE)
        # a few hundred bytes (lines many blocks long) and sizes that cut lines mid-scan
        for block in (300, 777, 4097, 65536):
            assert self.outputs(monkeypatch, tmp_path, session, workspace["model"], block) == whole
        # the whole-table path that the streamed one replaced
        model = rio.load_model(workspace["model"])
        for key in ("scans", "gappy"):
            table = rio.read_scans(session[key])
            _, windows = slide_windows_oracle(
                table, CropBox(10.0), 10.0, 1.0, limit=float(table.timestamps[-1]), end_anchored=True
            )
            assert whole[key].decode() == stream_csv(model, windows)
        table = rio.read_scans(session["scans"])
        series = pipeline.preprocess(rio.read_disdrometer(session["rain"]), window=5, order=1, n_cut=2)
        gap = float(np.median(np.diff(table.timestamps)))
        _, windows = slide_windows_oracle(
            table, CropBox(10.0), 4.0, 2.0, limit=float(table.timestamps[-1]) + gap, series=series
        )
        samples = rio.read_dataset(tmp_path / f"dataset{WHOLE}.csv").samples
        assert len(samples) == len(windows) > 10
        for sample, (start, end, target, vector) in zip(samples, windows):
            assert sample.window == (start, end) and sample.target == target
            assert sample.features.tobytes() == vector.tobytes()

    @staticmethod
    def bad_file(path, unsorted, bad_line, stamp=None):
        """Scan lines 1..30 at 10 Hz; line ``unsorted`` goes back in time,
        line ``bad_line`` (if any) has a malformed value, and ``stamp``
        (if any), a pair of a line and a text, gives that line that text as
        its timestamp."""
        lines = []
        for i in range(30):
            t = repr(0.1 * i if i + 1 != unsorted else 0.0)
            if stamp and i + 1 == stamp[0]:
                t = stamp[1]
            value = "1.5x" if i + 1 == bad_line else "1.5"
            lines.append(f"{i} {t} 1.0 2.0 3.0 {value} -1.0 0.5 2.0 0.25")
        path.write_text("\n".join(lines) + "\n")
        return path

    @staticmethod
    def commands(workspace, scans, out):
        return {
            "featurize": ["featurize", "--scans", str(scans), "--rain", str(workspace["rain"]),
                          "--out", str(out), "--duration", "1"],
            "predict": ["predict", "--model", str(workspace["model"]), "--scans", str(scans),
                        "--buffer", "1", "--out", str(out)],
        }

    @pytest.mark.parametrize("command", ["featurize", "predict"])
    def test_unsorted_pair_ahead_of_a_malformed_line_is_io_error(
        self, workspace, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 200)
        scans = self.bad_file(tmp_path / "bad.txt", unsorted=3, bad_line=25)
        out = tmp_path / "out.csv"
        assert main(self.commands(workspace, scans, out)[command]) == EXIT_IO
        assert f"{scans}:25: " in capsys.readouterr().err
        assert not out.exists()
        # without the malformed line, the order is what is wrong
        scans = self.bad_file(tmp_path / "unsorted.txt", unsorted=3, bad_line=None)
        assert main(self.commands(workspace, scans, out)[command]) == EXIT_USAGE
        assert "time-ordered" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["featurize", "predict", "predict-stdout"])
    @pytest.mark.parametrize(
        "stamp", [(1, "nan"), (5, "nan"), (30, "nan"), (30, "inf"), (1, "-inf"), (5, "inf")],
        ids=lambda stamp: f"{stamp[1]}@{stamp[0]}",
    )
    def test_non_finite_timestamp_is_usage_error(
        self, workspace, tmp_path, monkeypatch, capsys, command, stamp
    ):
        # the reader takes any float timestamp; the window stream rejects it as disorder
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 200)
        scans = self.bad_file(tmp_path / "bad.txt", unsorted=None, bad_line=None, stamp=stamp)
        out = tmp_path / "out.csv"
        argv = self.commands(workspace, scans, out)[command.split("-")[0]]
        if command == "predict-stdout":
            argv[-1] = "-"
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "time-ordered" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == [scans]
        # a later malformed line still decides the error
        if stamp[0] < 30:
            scans = self.bad_file(tmp_path / "bad.txt", unsorted=None, bad_line=30, stamp=stamp)
            assert main(argv) == EXIT_IO
            assert f"{scans}:30: " in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == [scans]

    @pytest.mark.parametrize("command", ["featurize", "predict", "predict-stdout"])
    def test_bad_line_in_the_last_block_leaves_no_output(
        self, workspace, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 200)
        scans = self.bad_file(tmp_path / "bad.txt", unsorted=None, bad_line=30)
        out = tmp_path / "out.csv"
        argv = self.commands(workspace, scans, out)[command.split("-")[0]]
        if command == "predict-stdout":
            argv[-1] = "-"
        assert main(argv) == EXIT_IO
        captured = capsys.readouterr()
        assert f"{scans}:30: " in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [scans]


class TestTwoProcessReader:
    """Where two CPUs may run it, read_scan_blocks parses a regular file
    with a forked worker, each process claiming the next block when it is
    free; what it yields, every error and every output file are those of
    one process."""

    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("two-process")
        scans, rain = root / "scans.txt", root / "rain.csv"
        assert main([
            "synth", "--out-scans", str(scans), "--out-rain", str(rain), "--seed", "3",
            "--segments", "60:7:5,60:30:5", "--frame-rate", "2", "--disdro-rate", "0.5",
        ]) == EXIT_OK
        return {"scans": scans, "rain": rain}

    @pytest.fixture
    def worker_ran(self, tmp_path, monkeypatch):
        """A file that the worker body touches when it starts."""
        path = tmp_path / "worker-ran"
        send_blocks = rio._send_blocks

        def spied_send_blocks(*args):
            path.touch()
            send_blocks(*args)

        monkeypatch.setattr(rio, "_send_blocks", spied_send_blocks)
        return path

    @staticmethod
    def first_push_waits(monkeypatch, worker_ran):
        """Make each window stream's first push wait until a worker has
        started, so that one certainly runs."""
        push = pipeline.WindowStream.push

        def waiting_push(self, scans):
            if self.t0 is None:
                assert wait_until(worker_ran.exists)
            return push(self, scans)

        monkeypatch.setattr(pipeline.WindowStream, "push", waiting_push)

    @staticmethod
    def table_bytes(table) -> list:
        return [a.tobytes() for a in (table.frame_ids, table.timestamps, table.offsets,
                                      table.xyz, table.intensity)]

    def outputs(self, monkeypatch, tmp_path, session, model, cpus) -> dict:
        use_cpus(monkeypatch, cpus)
        out = {"table": self.table_bytes(rio.read_scans(session["scans"]))}
        dataset, stream = tmp_path / f"dataset{cpus}.csv", tmp_path / f"stream{cpus}.csv"
        assert main([
            "featurize", "--scans", str(session["scans"]), "--rain", str(session["rain"]),
            "--out", str(dataset), *TestStreamedCommands.FEATURIZE,
        ]) == EXIT_OK
        assert main([
            "predict", "--model", str(model), "--scans", str(session["scans"]),
            "--buffer", "10", "--emit-period", "1", "--out", str(stream),
        ]) == EXIT_OK
        out["dataset"], out["stream"] = dataset.read_bytes(), stream.read_bytes()
        assert_no_child_process()
        return out

    @pytest.mark.parametrize("block", [300, 4097])
    def test_outputs_do_not_depend_on_the_cpus(
        self, workspace, session, tmp_path, monkeypatch, worker_ran, block
    ):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", block)
        assert session["scans"].stat().st_size > 50 * block
        one = self.outputs(monkeypatch, tmp_path, session, workspace["model"], 1)
        assert not worker_ran.exists()
        self.first_push_waits(monkeypatch, worker_ran)
        two = self.outputs(monkeypatch, tmp_path, session, workspace["model"], 2)
        assert worker_ran.exists()
        assert one == two
        assert len(rio.read_dataset(tmp_path / "dataset2.csv")) > 10

    @pytest.mark.parametrize("block", [200, 300, 777, 4097])
    @pytest.mark.parametrize("consumer", ["fast", "slow"])
    def test_every_block_is_yielded_once_in_file_order(
        self, session, monkeypatch, block, consumer
    ):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", block)
        runs = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            blocks = []
            for table in rio.read_scan_blocks(session["scans"]):
                blocks.append(self.table_bytes(table))
                if consumer == "slow":  # the worker runs ahead
                    time.sleep(0.0005)
            runs.append(blocks)
            assert_no_child_process()
        assert runs[0] == runs[1]
        # the session's frame ids count up from 0, one a line
        ids = np.concatenate([np.frombuffer(frame_ids, dtype=np.int64) for frame_ids, *_ in runs[1]])
        assert len(runs[1]) > 10
        assert ids.tolist() == list(range(session["scans"].read_bytes().count(b"\n")))

    def test_this_process_makes_the_next_block_while_the_worker_makes_one(
        self, session, tmp_path, monkeypatch, flags
    ):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 300)
        use_cpus(monkeypatch, 1)
        want = [self.table_bytes(table) for table in rio.read_scan_blocks(session["scans"])]
        use_cpus(monkeypatch, 2)
        parse_claimed, parent = rio._parse_claimed, os.getpid()
        worker_started, made_ahead = flags(), flags()
        first_of_worker = tmp_path / "first-of-worker"
        ahead = []

        def spied_parse_claimed(job):
            offset = job[0]
            if os.getpid() == parent:
                # a block past the worker's first, made while the worker waits in that one
                assert worker_started.wait()
                if offset > int(first_of_worker.read_text()):
                    ahead.append(offset)
                    made_ahead.raise_()
            else:  # the worker's blocks wait until this process has made one ahead
                if not first_of_worker.exists():
                    first_of_worker.write_text(str(offset))
                worker_started.raise_()
                assert made_ahead.wait()
            return parse_claimed(job)

        monkeypatch.setattr(rio, "_parse_claimed", spied_parse_claimed)
        got = []
        for table in rio.read_scan_blocks(session["scans"]):
            if not got:
                assert worker_started.wait()
            got.append(self.table_bytes(table))
        assert got == want
        assert ahead
        assert_no_child_process()

    def test_worker_that_exits_holding_the_token_leaves_the_rest_to_the_reader(
        self, session, monkeypatch
    ):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 300)
        use_cpus(monkeypatch, 1)
        want = self.table_bytes(rio.read_scans(session["scans"]))
        use_cpus(monkeypatch, 2)
        for nth in (1, 2, 5):
            with monkeypatch.context() as patch, time_limit(30):
                exit_holding_the_token(patch, nth)
                assert self.table_bytes(rio.read_scans(session["scans"])) == want
            assert_no_child_process()

    @staticmethod
    def fourth_block_line(path) -> int:
        """The number of the first line of the fourth block of ``path``."""
        lines, rest = 0, b""
        with open(path, "rb") as handle:
            for _ in range(3):
                data, rest = rio._next_lines(handle, rest)
                lines += data.count(b"\n")
        return lines + 1

    @pytest.mark.parametrize(
        "value, code, message",
        [("1x5", EXIT_IO, ": could not convert"), ("-15", EXIT_USAGE, "intensities must be finite and non-negative")],
        ids=["malformed", "negative-intensity"],
    )
    @pytest.mark.parametrize("command", ["featurize", "predict"])
    def test_bad_line_in_an_odd_block(
        self, workspace, tmp_path, monkeypatch, capsys, worker_ran, command, value, code, message
    ):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 200)
        good = TestStreamedCommands.bad_file(tmp_path / "good.txt", unsorted=None, bad_line=None)
        bad_line = self.fourth_block_line(good)
        # the same length as "1.5", so the blocks are cut where they were
        text = good.read_text().splitlines(keepends=True)
        text[bad_line - 1] = text[bad_line - 1].replace(" 1.5 ", f" {value} ")
        scans = tmp_path / "bad.txt"
        scans.write_text("".join(text))
        assert self.fourth_block_line(scans) == bad_line > 4
        out = tmp_path / "out.csv"
        results = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            if cpus == 2:
                self.first_push_waits(monkeypatch, worker_ran)
            results.append((main(TestStreamedCommands.commands(workspace, scans, out)[command]),
                            capsys.readouterr().err))
            assert_no_child_process()
            assert not out.exists()
        assert worker_ran.exists()
        assert results[0] == results[1]
        assert results[0][0] == code and message in results[0][1]
        if code == EXIT_IO:
            assert results[0][1].startswith(f"I/O error: {scans}:{bad_line}: ")

    def test_closed_generator_and_error_leave_no_process(
        self, session, tmp_path, monkeypatch, worker_ran
    ):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 300)
        use_cpus(monkeypatch, 2)
        blocks = rio.read_scan_blocks(session["scans"])
        assert next(blocks)
        # closed while the worker has blocks left to send
        assert wait_until(worker_ran.exists)
        blocks.close()
        assert_no_child_process()
        # a malformed last line, raised after the worker has parsed blocks ahead of it
        text = session["scans"].read_bytes()
        bad = tmp_path / "bad.txt"
        bad.write_bytes(text[:-1] + b" 1.0\n")
        last_line = text.count(b"\n")
        with pytest.raises(FileFormatError, match=f"{bad}:{last_line}: "):
            for _ in rio.read_scan_blocks(bad):
                pass
        assert_no_child_process()

    def test_consumer_error_leaves_no_process(
        self, workspace, session, tmp_path, monkeypatch, capsys, worker_ran
    ):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 300)
        use_cpus(monkeypatch, 2)
        push = pipeline.WindowStream.push
        pushed = []

        def failing_push(self, scans):
            # the third block: the worker has blocks ahead of it to send
            pushed.append(len(scans))
            if len(pushed) == 1:
                assert wait_until(worker_ran.exists)
            if len(pushed) == 3:
                raise InvalidInputError("injected")
            return push(self, scans)

        monkeypatch.setattr(pipeline.WindowStream, "push", failing_push)
        scans = session["scans"]
        for argv in TestStreamedCommands.commands(workspace, scans, tmp_path / "out.csv").values():
            pushed.clear()
            assert main(argv) == EXIT_USAGE
            assert capsys.readouterr().err == "error: injected\n"
            assert_no_child_process()
            assert worker_ran.exists()
            worker_ran.unlink()

    def test_fifo_is_read_by_one_process(self, session, tmp_path, monkeypatch, worker_ran):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 300)
        use_cpus(monkeypatch, 2)
        fifo = tmp_path / "scans.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as handle:
                handle.write(session["scans"].read_bytes())

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            table = rio.read_scans(fifo)
        finally:
            writer.join()
        regular = self.read_with_the_worker(session["scans"], lambda: wait_until(worker_ran.exists))
        assert self.table_bytes(table) == self.table_bytes(regular)
        assert worker_ran.exists()  # for the regular file only
        worker_ran.unlink()
        writer = threading.Thread(target=feed)
        writer.start()
        try:
            blocks = list(rio.read_scan_blocks(fifo))
        finally:
            writer.join()
        assert len(blocks) > 10 and not worker_ran.exists()

    @staticmethod
    def read_with_the_worker(path, wait) -> ScanTable:
        """read_scans of ``path``, with a consumer that waits at the first
        block until ``wait()`` says that the worker has done its part, so
        the worker certainly parses the blocks that it claims meanwhile."""
        blocks = []
        for block in rio.read_scan_blocks(path):
            if not blocks:
                assert wait()
            blocks.append(block)
        return ScanTable.concat(blocks)

    @pytest.mark.parametrize("failure", ["declines", "dies", "dies-inside-an-item", "misplaced"])
    def test_worker_that_fails_leaves_its_blocks_to_the_reader(
        self, session, tmp_path, monkeypatch, flags, failure
    ):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 300)
        use_cpus(monkeypatch, 1)
        want = self.table_bytes(rio.read_scans(session["scans"]))
        use_cpus(monkeypatch, 2)
        parse_claimed, dump, load, parent = rio._parse_claimed, pickle.dump, pickle.load, os.getpid()
        late, worker_late, last = 10 * rio.SCAN_BLOCK_BYTES, flags(), [None]

        def failing_parse_claimed(job):
            made = parse_claimed(job)
            if os.getpid() == parent:
                return made
            offset, size, parsed = made
            if offset > late:
                worker_late.raise_()
            if failure == "declines":
                return None
            elif failure == "dies" and offset > late:
                os._exit(7)
            elif failure == "misplaced":
                # as if the file changed before the worker read it: another
                # block's scans, one byte further on
                offset, parsed, last[0] = offset + 1, last[0], parsed
            return offset, size, parsed

        def dump_half_then_exit(obj, file, protocol=None):
            """Write half of a late item's pickle, then end the worker."""
            if obj[1][0] > late:
                data = pickle.dumps(obj, protocol)
                file.write(data[: len(data) // 2])
                file.flush()
                os._exit(7)
            dump(obj, file, protocol=protocol)

        errors = []

        def spied_load(file):
            try:
                return load(file)
            except Exception as exc:
                errors.append(type(exc))
                raise

        monkeypatch.setattr(rio, "_parse_claimed", failing_parse_claimed)
        if failure == "dies-inside-an-item":
            monkeypatch.setattr(pickle, "dump", dump_half_then_exit)
            monkeypatch.setattr(pickle, "load", spied_load)
        assert self.table_bytes(self.read_with_the_worker(session["scans"], worker_late.wait)) == want
        assert_no_child_process()
        assert errors == ([pickle.UnpicklingError] if failure == "dies-inside-an-item" else [])

    def test_frame_ids_beyond_int64_are_parsed_by_the_worker(
        self, session, tmp_path, monkeypatch, flags
    ):
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 300)
        lines = session["scans"].read_text().splitlines(keepends=True)
        scans = tmp_path / "big-ids.txt"
        scans.write_text("".join(f"{2**70 + i} {line.split(' ', 1)[1]}" for i, line in enumerate(lines)))
        parse_claimed, parsed_ids = rio._parse_claimed, tmp_path / "parsed-ids"
        worker_parsed, parent = flags(), os.getpid()

        def spied_parse_claimed(job):
            made = parse_claimed(job)
            if os.getpid() != parent:
                with open(parsed_ids, "a") as handle:
                    handle.write(f"{min(made[2][0])}\n" if made else "none\n")
                worker_parsed.raise_()
            return made

        monkeypatch.setattr(rio, "_parse_claimed", spied_parse_claimed)
        tables = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            table = rio.read_scans(scans) if cpus == 1 else self.read_with_the_worker(scans, worker_parsed.wait)
            tables.append([table.frame_ids.tolist(), *self.table_bytes(table)[1:]])
            assert_no_child_process()
        assert tables[0] == tables[1]
        assert tables[0][0] == [2**70 + i for i in range(len(lines))]
        worker_ids = parsed_ids.read_text().split()
        assert len(worker_ids) >= 1
        assert all(int(i) > 2**63 for i in worker_ids)


class TestBench:
    def test_report_schema(self, workspace, capsys):
        assert main([
            "bench", "--model", str(workspace["model"]), "--scan-points", "400",
            "--reps", "50", "--feature-reps", "2",
        ]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        for key in ("featurize_cold_s", "featurize_warm_mean_s",
                    "inference_mean_s", "inference_p95_s", "scan_points"):
            assert key in doc
        assert doc["scan_points"] == 400

    @pytest.mark.parametrize(
        "flag, value, least",
        [
            ("--reps", "0", 1),
            ("--reps", "-5", 1),
            ("--feature-reps", "0", 1),
            ("--feature-reps", "-2", 1),
            ("--scan-points", "1", 2),
            ("--scan-points", "0", 2),
        ],
    )
    def test_count_below_its_least_is_usage(self, workspace, capsys, flag, value, least):
        argv = ["bench", "--model", str(workspace["model"]), "--scan-points", "400",
                "--reps", "5", "--feature-reps", "1"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} must be at least {least}, got {value}\n"

    def test_least_counts_run(self, workspace, capsys):
        assert main([
            "bench", "--model", str(workspace["model"]), "--scan-points", "2",
            "--reps", "1", "--feature-reps", "1",
        ]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["scan_points"] == 2 and doc["inference_reps"] == 1


def break_model_doc(doc, what):
    """Give a saved depth-2 model document one inconsistency of the kind ``what``."""
    if what == "gate-basis":
        # a polynomial of degree 1 expands as the linear basis does
        doc["gates"][1]["basis"]["kind"] = "polynomial"
    elif what == "expert-basis":
        doc["experts"][-1]["basis"].update(kind="polynomial", degree=2)
    elif what == "expert-ranges":
        # contiguous, but the inner boundary is not the threshold 10
        doc["spec"]["expert_ranges"][:2] = [[0.0, 12.0], [12.0, 20.0]]
    elif what == "depth":
        doc["spec"]["depth"] = 3
    elif what == "standardization":
        for key in ("mean", "scale"):
            del doc["standardization"][key][-1]
    else:
        assert what == "gate-covariance"
        cov = np.eye(len(doc["gates"][0]["mean"]))
        cov[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues 3 and -1
        doc["gates"][0]["covariance"] = cov.tolist()


class TestExitCodes:
    def test_missing_required_flag_is_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_file_is_io_error(self, tmp_path):
        code = main([
            "evaluate", "--model", str(tmp_path / "nope.json"),
            "--dataset", str(tmp_path / "nope.csv"),
        ])
        assert code == EXIT_IO

    @pytest.mark.parametrize("command", ["synth", "train", "bench"])
    def test_negative_seed_is_usage_before_any_output(self, workspace, tmp_path, capsys, command):
        flags = {
            "synth": ["--out-scans", str(tmp_path / "scans.txt"), "--out-rain", str(tmp_path / "rain.csv")],
            "train": ["--dataset", str(workspace["dataset"]), "--out", str(tmp_path / "model.json")],
            "bench": ["--model", str(workspace["model"]), "--reps", "1", "--feature-reps", "1"],
        }[command]
        assert main([command, *flags, "--seed", "-1"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --seed must be a non-negative integer, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flag",
        [("featurize", "--duration"), ("featurize", "--stride"),
         ("predict", "--buffer"), ("predict", "--emit-period")],
    )
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_window_length_is_usage(
        self, workspace, tmp_path, capsys, command, flag, value
    ):
        out = tmp_path / "out.csv"
        flags = {
            "featurize": ["--scans", str(workspace["scans"]), "--rain", str(workspace["rain"])],
            "predict": ["--model", str(workspace["model"]), "--scans", str(workspace["scans"])],
        }[command]
        assert main([command, *flags, "--out", str(out), flag, value]) == EXIT_USAGE
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_bad_box_is_usage(self, workspace, tmp_path, capsys, value):
        out = tmp_path / "dataset.csv"
        assert main([
            "featurize", "--scans", str(workspace["scans"]), "--rain", str(workspace["rain"]),
            "--out", str(out), "--box", value,
        ]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: crop box half extent must be finite and positive\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--savgol-order", "-1", "polynomial order must be in [0, window), got -1"),
            ("--val-span", "nan", "validation span must be positive, got nan"),
        ],
    )
    def test_featurize_option_that_would_corrupt_the_dataset_is_usage(
        self, workspace, tmp_path, capsys, flag, value, message
    ):
        # both exited 0: every target 0.0, or no training sample at all
        scans = TestStreamedCommands.bad_file(tmp_path / "scans.txt", unsorted=None, bad_line=None)
        out = tmp_path / "dataset.csv"
        assert main([
            "featurize", "--scans", str(scans), "--rain", str(workspace["rain"]),
            "--out", str(out), "--duration", "1", flag, value,
        ]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--savgol-window", "1000"], "window must be a positive odd integer"),
            (["--savgol-window", "1001", "--savgol-order", "1001"],
             "polynomial order must be in [0, window), got 1001"),
        ],
    )
    def test_bad_filter_longer_than_every_segment_is_usage(
        self, workspace, tmp_path, capsys, flags, message
    ):
        # Every segment is shorter than the window, so none is filtered; the
        # options are checked all the same.
        assert len(rio.read_disdrometer(workspace["rain"])) < 1000
        out = tmp_path / "dataset.csv"
        assert main([
            "featurize", "--scans", str(workspace["scans"]), "--rain", str(workspace["rain"]),
            "--out", str(out), *flags,
        ]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_bad_gate_prior_is_usage(self, workspace, tmp_path, capsys, value):
        out = tmp_path / "model.json"
        assert main([
            "train", "--dataset", str(workspace["dataset"]), "--out", str(out),
            "--thresholds", "20,10,40", "--gate-prior", value,
        ]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: prior precision must be finite and positive, got {float(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("flag", ["--margin", "--floor"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_margin_or_floor_is_usage(self, workspace, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out.csv"
        flags = {
            "evaluate": ["--dataset", str(workspace["dataset"]), "--plot-data", str(out)],
            "predict": ["--scans", str(workspace["scans"]), "--out", str(out)],
        }[command]
        assert main([command, "--model", str(workspace["model"]), *flags, flag, value]) == EXIT_USAGE
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith("error: margin fraction and floor must be finite and non-negative")
        assert not out.exists()

    @pytest.mark.parametrize(
        "node, key, value",
        [("gates", "mean", "nan"), ("experts", "mean", "nan"), ("standardization", "mean", "inf")],
    )
    def test_non_finite_model_number_is_io_error(self, workspace, tmp_path, capsys, node, key, value):
        doc = json.loads(workspace["model"].read_text())
        (doc[node][0] if node != "standardization" else doc[node])[key][0] = float(value)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert main([
            "evaluate", "--model", str(model), "--dataset", str(workspace["dataset"]),
            "--report", str(report),
        ]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"I/O error: {model}: non-finite number")
        assert not report.exists()

    @pytest.mark.parametrize("node, key", [("gates", "mean"), ("experts", "covariance")])
    def test_string_model_number_is_io_error(self, workspace, tmp_path, capsys, node, key):
        doc = json.loads(workspace["model"].read_text())
        values = doc[node][0][key]
        (values[0] if isinstance(values[0], list) else values)[0] = "a"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert main([
            "evaluate", "--model", str(model), "--dataset", str(workspace["dataset"]),
            "--report", str(report),
        ]) == EXIT_IO
        assert capsys.readouterr().err == f"I/O error: {model}: non-number in the model parameters\n"
        assert not report.exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize(
        "what, message",
        [
            ("gate-basis", "share one basis"),
            ("expert-basis", "share one basis"),
            ("expert-ranges", "do not match the thresholds"),
            ("depth", "do not match the thresholds"),
            (
                "standardization",
                "gate z1 has dimension 9, but the linear-with-bias basis of 7 features "
                "has dimension 8",
            ),
            ("gate-covariance", "gate covariance not positive definite"),
        ],
    )
    def test_inconsistent_model_file_is_io_error(
        self, workspace, tmp_path, capsys, command, what, message
    ):
        doc = json.loads(workspace["model"].read_text())
        break_model_doc(doc, what)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "out"
        inputs = {
            "evaluate": ["--dataset", str(workspace["dataset"]), "--report", str(out)],
            "predict": ["--scans", str(workspace["scans"]), "--out", str(out)],
        }[command]
        assert main([command, "--model", str(model), *inputs]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"I/O error: {model}: ") and message in err
        assert not out.exists()

    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "synth" in capsys.readouterr().out

    def test_bad_parameter_is_usage(self, workspace, tmp_path):
        code = main([
            "train", "--dataset", str(workspace["dataset"]), "--out", str(tmp_path / "m.json"),
            "--thresholds", "20,10",  # not 2**depth - 1
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags",
        [
            ["--segments", "abc:5"],
            ["--segments", "10"],
            ["--segments", "nan:5"],
            ["--segments", "inf:5"],
            ["--segments", "10:nan"],
            ["--segments", "10:inf"],
            ["--segments", "10:5:nan"],
            ["--frame-rate", "nan"],
            ["--frame-rate", "inf"],
            ["--disdro-rate", "nan"],
            ["--segments", "60:300:5"],
            ["--segments", "60:1e300:5"],
            # counts whose float64 arrays numpy refuses as too big
            ["--segments", "1e300:7"],
            ["--disdro-rate", "1e300"],
            ["--noise-sigma", "-1"],
            ["--fluctuation", "5"],
            ["--fluctuation", "-0.5"],
        ],
        ids=" ".join,
    )
    def test_bad_synth_argument_is_usage_before_any_output(self, tmp_path, capsys, flags):
        out_scans, out_rain = tmp_path / "scans.txt", tmp_path / "rain.csv"
        code = main(["synth", "--out-scans", str(out_scans), "--out-rain", str(out_rain), *flags])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []
