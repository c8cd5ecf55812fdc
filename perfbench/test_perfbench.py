"""Tests of the benchmark harness: tracing, self times, percentiles, metric lists."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import spantrace

rainlidar = pytest.importorskip("rainlidar")
import rainlidar.cli  # noqa: E402  (loads the one module the package does not import)


def _bindings(originals: dict) -> dict:
    """(module name, attribute) -> bound object, for every binding of ``originals``."""
    ids = {id(fn) for fn in originals.values()}
    return {
        (module.__name__, attr): value
        for module in spantrace.package_modules("rainlidar")
        for attr, value in vars(module).items()
        if id(value) in ids
    }


def test_tracer_patches_every_binding_and_restores_them():
    originals = spantrace.public_functions("rainlidar")
    before = _bindings(originals)
    # Functions re-bound by name elsewhere must be among the bindings.
    assert ("rainlidar.cli", "scan_features") in before
    assert ("rainlidar", "mst_length") in before
    assert ("rainlidar.io", "FEATURE_NAMES") not in before

    tracer = spantrace.Tracer("test")
    with tracer:
        assert tracer.install("rainlidar") == len(before)
        for (module_name, attr), original in before.items():
            bound = getattr(__import__(module_name, fromlist=["_"]), attr)
            assert bound is not original and bound.__wrapped__ is original, (module_name, attr)
        rng = np.random.default_rng(0)
        points = rng.random((5, 3))
        rainlidar.normalized_mst(points, rainlidar.CropBox(1.0))
        rainlidar.cli.scan_features(rainlidar.Scan(points, np.ones(5)), rainlidar.CropBox(1.0))

    names = [s[1] for s in tracer.spans]
    assert names.count("features.scan_features") == 1
    assert names.count("features.normalized_mst") == 2
    by_id = {s[0]: s for s in tracer.spans}
    mst = [s for s in tracer.spans if s[1] == "features.mst_length"]
    assert mst and all(by_id[s[4]][1] in ("features.normalized_mst", "features.uniform_mst_reference")
                       for s in mst)
    assert _bindings(originals) == before


def test_tracer_restores_bindings_when_the_traced_code_raises():
    originals = spantrace.public_functions("rainlidar")
    before = _bindings(originals)
    with pytest.raises(rainlidar.InvalidInputError):
        with spantrace.Tracer("test") as tracer:
            tracer.install("rainlidar")
            rainlidar.mst_length(np.zeros((1, 3)))
    assert _bindings(originals) == before
    assert [s[1] for s in tracer.spans] == ["features.mst_length"]


def test_self_time_of_hand_built_span_tree():
    spans = [
        (0, "root", 0, 100, -1, None),
        (1, "a", 10, 40, 0, None),
        (2, "b", 50, 70, 0, None),
        (3, "c", 15, 25, 1, None),
    ]
    assert spantrace.self_times(spans) == {0: 50, 1: 20, 2: 20, 3: 10}


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        (0, "root", 0, 100, -1, None),
        (1, "a", 10, 40, 0, None),
        (2, "b", 30, 60, 0, None),
        (3, "c", 90, 120, 0, None),
    ]
    assert spantrace.self_times(spans)[0] == 100 - 50 - 10


@pytest.mark.parametrize(
    "n, expected",
    [(5, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert spantrace.tail_percentile(n) == expected


def test_percentile_interpolates():
    assert spantrace.percentile([5, 1, 3, 2, 4], 50) == 3
    assert spantrace.percentile([0, 10], 90) == 9


def test_importtime_parser_sums_top_level_package_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |     150000 |     numpy",
        "import time:        10 |      20000 |   scipy.special",
        "import time:       200 |     900000 | rainlidar",
        "import time:        30 |       3000 | rainlidar.cli",
    ])
    got = run.parse_importtime(stderr)
    assert got["import.total_s"] == pytest.approx(0.903)
    assert got["import.numpy_s"] == pytest.approx(0.15)
    assert got["import.scipy_special_s"] == pytest.approx(0.02)
    assert got["import.scipy_signal_s"] == 0.0


def test_benchmark_json_declares_what_the_harness_reports():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]


@pytest.mark.parametrize("seed, expected", [(1, 1), (16, 16), (17, 1), (0, 16), (-1, 15), (42, 10)])
def test_every_seed_maps_to_a_session_seed_with_stored_reference(seed, expected):
    reference = json.loads((Path(run.HERE) / "reference.json").read_text())
    assert run.session_seed(seed) == expected
    for workload in run.WORKLOADS:
        assert set(reference[workload]) == {str(s) for s in range(1, run.REFERENCE_SEEDS + 1)}


def test_next_job_picks_least_total_time_among_jobs_that_fit():
    totals = {"synth_s": 9.0, "train_s": 1.5, "setup_s": 3.0}
    typical = {"synth_s": 9.0, "train_s": 1.5, "setup_s": 1.5}
    assert run.next_job(totals, typical, remaining=30.0) == "train_s"
    assert run.next_job({**totals, "train_s": 4.5}, typical, remaining=30.0) == "setup_s"
    assert run.next_job({"synth_s": 1.0, "setup_s": 3.0}, typical, remaining=2.0) == "setup_s"
    assert run.next_job(totals, typical, remaining=1.0) is None
