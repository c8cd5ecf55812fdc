"""Round-trip and format tests for the persistence layer."""

import json
import os

import numpy as np
import pytest

from rainlidar import io as rio
from rainlidar.errors import FileFormatError
from rainlidar.features import Scan, WindowSample
from rainlidar.moe import build_tree_spec, infer, train
from rainlidar.pipeline import Dataset, RainSeries
from tests.test_moe import make_samples


def random_scans(seed=0, n_scans=5):
    rng = np.random.default_rng(seed)
    scans = []
    for j in range(n_scans):
        n = int(rng.integers(0, 40))  # occasionally empty
        scans.append(
            Scan(
                xyz=rng.uniform(-12, 12, (n, 3)),
                intensity=rng.gamma(4.0, 0.25, n),
                timestamp=j * 0.1,
                frame_id=j,
            )
        )
    return scans


def per_point_write_scans(path, scans):
    """The scan writer as it was before it built lines from one list per scan."""
    lines = []
    for scan in scans:
        fields = [str(int(scan.frame_id)), repr(float(scan.timestamp))]
        for (x, y, z), p in zip(scan.xyz, scan.intensity):
            fields.extend((repr(float(x)), repr(float(y)), repr(float(z)), repr(float(p))))
        lines.append(" ".join(fields))
    rio.atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


class TestScanFormat:
    @pytest.mark.parametrize("seed", range(3))
    def test_bytes_equal_per_point_writer(self, tmp_path, seed):
        scans = random_scans(seed=seed, n_scans=12)
        # empty scans, signed zero, integral floats, and values that repr
        # writes in exponent form
        scans.append(Scan(np.zeros((0, 3)), np.zeros(0), 1.5, 12))
        scans.append(
            Scan(
                [[-0.0, 0.0, 1e16], [1e-5, -1e-5, 3.0], [2.0, -7.0, 1e22]],
                [0.0, 1.0, 1e16],
                -0.0,
                13,
            )
        )
        scans.append(Scan(np.zeros((0, 3)), np.zeros(0), 1e16, 14))
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        rio.write_scans(new, scans)
        per_point_write_scans(old, scans)
        assert new.read_bytes() == old.read_bytes()
        assert b" -0.0 0.0 1e+16 " in new.read_bytes()

    def test_no_scans_writes_an_empty_file(self, tmp_path):
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        rio.write_scans(new, [])
        per_point_write_scans(old, [])
        assert new.read_bytes() == old.read_bytes() == b""

    def test_round_trip_bitwise(self, tmp_path):
        scans = random_scans(seed=3, n_scans=8)
        path = tmp_path / "scans.txt"
        rio.write_scans(path, scans)
        back = rio.read_scans(path)
        assert len(back) == len(scans)
        for a, b in zip(scans, back):
            assert a.frame_id == b.frame_id
            assert a.timestamp == b.timestamp
            np.testing.assert_array_equal(a.xyz, b.xyz)
            np.testing.assert_array_equal(a.intensity, b.intensity)

    def test_write_deterministic(self, tmp_path):
        scans = random_scans(seed=4)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        rio.write_scans(p1, scans)
        rio.write_scans(p2, scans)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0.0 1.0 2.0 3.0\n")  # 3 values, not a quadruple
        with pytest.raises(FileFormatError, match="quadruples"):
            rio.read_scans(path)

    def test_no_temp_files_left(self, tmp_path):
        rio.write_scans(tmp_path / "scans.txt", random_scans())
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []


class TestDisdrometerFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        series = RainSeries(
            timestamps=np.arange(20.0) * 10.0,
            rates=rng.uniform(0, 60, 20),
            segment_ids=np.repeat([0, 1], 10),
        )
        path = tmp_path / "rain.csv"
        rio.write_disdrometer(path, series)
        back = rio.read_disdrometer(path)
        np.testing.assert_array_equal(back.timestamps, series.timestamps)
        np.testing.assert_array_equal(back.rates, series.rates)
        np.testing.assert_array_equal(back.segment_ids, series.segment_ids)

    def test_header_required(self, tmp_path):
        path = tmp_path / "rain.csv"
        path.write_text("0.0,5.0,0\n10.0,6.0,0\n")
        with pytest.raises(FileFormatError, match="header"):
            rio.read_disdrometer(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rain.csv"
        path.write_text("")
        with pytest.raises(FileFormatError):
            rio.read_disdrometer(path)


class TestDatasetFormat:
    def _dataset(self):
        rng = np.random.default_rng(7)
        samples = [
            WindowSample(
                features=np.abs(rng.normal(size=8)),
                target=float(rng.uniform(0, 60)),
                window=(10.0 * i, 10.0 * i + 10.0),
                provenance="sess-1",
            )
            for i in range(6)
        ]
        tags = ["train"] * 4 + ["validation"] * 2
        return Dataset(
            samples=samples,
            split_tags=tags,
            config={"duration": 10.0, "box_half_extent": 10.0},
            segment_spans=[(0, 0.0, 290.0)],
        )

    def test_round_trip(self, tmp_path):
        dataset = self._dataset()
        path = tmp_path / "dataset.csv"
        rio.write_dataset(path, dataset)
        back = rio.read_dataset(path)
        assert back.split_tags == dataset.split_tags
        assert back.config == dataset.config
        assert back.segment_spans == [(0, 0.0, 290.0)]
        for a, b in zip(dataset.samples, back.samples):
            np.testing.assert_array_equal(a.features, b.features)
            assert a.target == b.target
            assert a.window == b.window
            assert a.provenance == b.provenance

    def test_version_header_enforced(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("not a dataset\n")
        with pytest.raises(FileFormatError, match="header"):
            rio.read_dataset(path)

    def test_empty_dataset_round_trip(self, tmp_path):
        dataset = Dataset(samples=[], split_tags=[], config={"duration": 5.0})
        path = tmp_path / "empty.csv"
        rio.write_dataset(path, dataset)
        back = rio.read_dataset(path)
        assert back.samples == [] and back.config == {"duration": 5.0}


class TestModelFormat:
    def _model(self):
        samples = make_samples(np.linspace(1.0, 70.0, 28), seed=5)
        spec = build_tree_spec(2, (0.0, 80.0), [20.0, 10.0, 40.0])
        return train(samples, spec, seed=3), samples

    def test_round_trip_predictions_identical(self, tmp_path):
        model, samples = self._model()
        path = tmp_path / "model.json"
        rio.save_model(path, model)
        loaded = rio.load_model(path)
        for s in samples[:8]:
            a = infer(model, s.features)
            b = infer(loaded, s.features)
            assert a.point_estimate == b.point_estimate
            assert a.error_probability == b.error_probability
            np.testing.assert_array_equal(a.responsibilities, b.responsibilities)
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.variances, b.variances)

    def test_save_is_stable(self, tmp_path):
        model, _ = self._model()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        rio.save_model(p1, model)
        rio.save_model(p2, rio.load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_metadata_preserved(self, tmp_path):
        model, _ = self._model()
        path = tmp_path / "model.json"
        rio.save_model(path, model)
        loaded = rio.load_model(path)
        assert loaded.metadata["seed"] == 3
        assert loaded.metadata["branch_convention"] == model.metadata["branch_convention"]

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(FileFormatError, match="not a rainlidar model"):
            rio.load_model(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(FileFormatError, match="malformed"):
            rio.load_model(path)
