"""Tests for scan cropping, MST statistics and window feature vectors."""

import itertools
import warnings
from collections.abc import Sequence

import numpy as np
import pytest

from rainlidar import features
from rainlidar import io as rio
from rainlidar.errors import InvalidInputError
from rainlidar.features import (
    CropBox,
    Scan,
    ScanTable,
    crop,
    mst_length,
    normalized_mst,
    reduce_window,
    scan_feature_rows,
    scan_features,
    standardize_apply,
    standardize_fit,
    standardize_invert,
    uniform_mst_reference,
    window_features,
)


def brute_force_mst(points):
    """Minimum total weight over all spanning trees, via Prufer enumeration."""
    pts = np.asarray(points, float)
    n = len(pts)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    if n == 2:
        return float(dist[0, 1])
    best = np.inf
    for seq in itertools.product(range(n), repeat=n - 2):
        # decode the Prufer sequence into tree edges
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        seq_list = list(seq)
        leaves = sorted(i for i in range(n) if degree[i] == 1)
        for v in seq_list:
            leaf = leaves.pop(0)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                # insert v keeping the leaf pool sorted
                lo = 0
                while lo < len(leaves) and leaves[lo] < v:
                    lo += 1
                leaves.insert(lo, v)
        edges.append((leaves[0], leaves[1]))
        weight = float(np.sort([dist[a, b] for a, b in edges]).sum())
        best = min(best, weight)
    return best


def make_scan(xyz, intensity=None, **kw):
    xyz = np.asarray(xyz, float).reshape(-1, 3)
    if intensity is None:
        intensity = np.ones(len(xyz))
    return Scan(xyz=xyz, intensity=intensity, **kw)


class TestCrop:
    def test_origin_retained(self):
        scan = make_scan([[0.0, 0.0, 0.0]])
        assert crop(scan, CropBox(10.0)).n_points == 1

    def test_boundary_inclusive(self):
        inside = make_scan([[10.0, 0.0, 0.0]])
        outside = make_scan([[10.0001, 0.0, 0.0]])
        assert crop(inside, CropBox(10.0)).n_points == 1
        assert crop(outside, CropBox(10.0)).n_points == 0

    def test_binomial_bound(self):
        # Uniform points in a side-40 cube: the side-20 crop box keeps each
        # with probability (20/40)^3 = 1/8; 1000 points -> 125 +/- 3 sigma.
        rng = np.random.default_rng(123)
        scan = make_scan(rng.uniform(-20, 20, (1000, 3)))
        kept = crop(scan, CropBox(10.0)).n_points
        sigma = np.sqrt(1000 * 0.125 * 0.875)
        assert abs(kept - 125) <= 3 * sigma

    def test_idempotent_and_order_preserving(self):
        rng = np.random.default_rng(7)
        scan = make_scan(rng.uniform(-15, 15, (200, 3)), intensity=rng.random(200))
        box = CropBox(10.0)
        once = crop(scan, box)
        twice = crop(once, box)
        np.testing.assert_array_equal(once.xyz, twice.xyz)
        np.testing.assert_array_equal(once.intensity, twice.intensity)
        # order: the kept subsequence appears in original order
        mask = np.all(np.abs(scan.xyz) <= 10.0, axis=1)
        np.testing.assert_array_equal(once.xyz, scan.xyz[mask])


class TestMSTLength:
    def test_two_points(self):
        assert mst_length([[0, 0, 0], [3, 0, 0]]) == 3.0

    def test_collinear(self):
        pts = [[0, 0, 0], [1, 0, 0], [5, 0, 0]]
        assert mst_length(pts) == pytest.approx(5.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            pts = rng.uniform(-1, 1, (n, 3))
            assert mst_length(pts) == brute_force_mst(pts)

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, (30, 3))
        base = mst_length(pts)
        for _ in range(5):
            assert mst_length(pts[rng.permutation(30)]) == base

    def test_translation_invariant(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, (25, 3))
        shifted = pts + np.array([100.0, -50.0, 3.0])
        assert mst_length(shifted) == pytest.approx(mst_length(pts), rel=1e-9)

    def test_scales_linearly(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, (25, 3))
        assert mst_length(3.0 * pts) == pytest.approx(3.0 * mst_length(pts), rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            mst_length([[0, 0, 0]])


def boolean_mask_mst_length(points):
    """The Prim loop with a boolean visited mask and a new array per step,
    as mst_length computed it before the loop ran in place."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n >= 64:
        sq_norms = (pts**2).sum(axis=1)
        dist_sq = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (pts @ pts.T)
        np.clip(dist_sq, 0.0, None, out=dist_sq)
    else:
        diff = pts[:, None, :] - pts[None, :, :]
        dist_sq = (diff**2).sum(axis=-1)
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    best_sq = dist_sq[0].copy()
    best_sq[0] = np.inf
    edges_sq = np.empty(n - 1)
    for i in range(n - 1):
        j = int(np.argmin(best_sq))
        edges_sq[i] = best_sq[j]
        visited[j] = True
        best_sq = np.minimum(best_sq, dist_sq[j])
        best_sq[visited] = np.inf
    return float(np.sort(np.sqrt(edges_sq)).sum())


class TestMSTBitIdentity:
    """mst_length returns the boolean-mask loop's value bit for bit."""

    def test_random_point_sets_both_distance_formulas(self):
        rng = np.random.default_rng(2024)
        for n in range(2, 131):
            pts = rng.uniform(-10, 10, (n, 3))
            assert mst_length(pts) == boolean_mask_mst_length(pts), n

    def test_duplicate_points(self):
        # Repeated points give zero-length edges and argmin ties.
        rng = np.random.default_rng(7)
        for n in (3, 20, 63, 64, 90):
            base = rng.uniform(-1, 1, (max(n // 3, 1), 3))
            pts = base[rng.integers(0, base.shape[0], n)]
            assert mst_length(pts) == boolean_mask_mst_length(pts), n

    def test_all_points_identical(self):
        for n in (2, 5, 63, 64, 100):
            pts = np.tile([1.5, -2.0, 0.25], (n, 1))
            got = mst_length(pts)
            assert got == boolean_mask_mst_length(pts)
            assert repr(got) == "0.0"

    def test_collinear_points(self):
        rng = np.random.default_rng(11)
        for n in (2, 10, 63, 64, 120):
            t = rng.uniform(-5, 5, n)
            pts = np.outer(t, [0.3, -1.2, 2.0]) + np.array([1.0, 2.0, 3.0])
            assert mst_length(pts) == boolean_mask_mst_length(pts), n

    @pytest.mark.parametrize(
        "n, expected",
        [
            (2, "0.6608419562758105"),
            (10, "3.1079899161004"),
            (47, "9.125947028155567"),
            (63, "11.15248868202208"),
            (64, "11.410220725458863"),
            (119, "16.608952090928415"),
        ],
    )
    def test_reference_values_pinned(self, n, expected, monkeypatch):
        # Recomputed, not served from the cache; values recorded with the
        # boolean-mask loop.
        monkeypatch.setattr(features, "_reference_cache", {})
        assert repr(uniform_mst_reference(n, CropBox(0.5))) == expected


def tie_heavy_sets(rng):
    """Point sets with argmin ties: duplicate, collinear and all-identical points."""
    sets = []
    for n in (2, 3, 20, 63, 64, 90):
        base = rng.uniform(-1, 1, (max(n // 3, 1), 3))
        sets.append(base[rng.integers(0, base.shape[0], n)])
        t = rng.uniform(-5, 5, n)
        sets.append(np.outer(t, [0.3, -1.2, 2.0]) + np.array([1.0, 2.0, 3.0]))
        sets.append(np.tile([1.5, -2.0, 0.25], (n, 1)))
        # integer grid points: many equal distances
        sets.append(rng.integers(0, 3, (n, 3)).astype(float))
    return sets


class TestBatchedMSTKernel:
    """``_mst_lengths`` on a batch equals the boolean-mask loop on each set, bit for bit."""

    @staticmethod
    def assert_bit_identical(sets):
        got = features._mst_lengths(sets)
        assert got.shape == (len(sets),)
        expected = [boolean_mask_mst_length(p) for p in sets]
        mismatched = [p.shape[0] for p, a, b in zip(sets, got.tolist(), expected) if a != b]
        assert mismatched == []

    def test_mixed_sizes_both_distance_formulas(self):
        rng = np.random.default_rng(41)
        sizes = rng.permutation(np.concatenate([np.arange(2, 131), rng.integers(2, 131, 200)]))
        self.assert_bit_identical([rng.uniform(-10, 10, (int(n), 3)) for n in sizes])

    def test_ties_mixed_with_random_sets(self):
        rng = np.random.default_rng(42)
        sets = tie_heavy_sets(rng) + [rng.uniform(-1, 1, (int(n), 3)) for n in (2, 5, 47, 64, 100)]
        self.assert_bit_identical([sets[i] for i in rng.permutation(len(sets))])

    def test_batch_larger_than_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(43)
        sets = [rng.uniform(-10, 10, (int(n), 3)) for n in rng.integers(30, 70, 700)]
        assert sum(p.shape[0] ** 2 for p in sets) > features._CHUNK_ELEMENTS
        chunks = []
        real = features._prim_chunk

        def counting(point_sets):
            chunks.append(len(point_sets))
            return real(point_sets)

        monkeypatch.setattr(features, "_prim_chunk", counting)
        self.assert_bit_identical(sets)
        assert len(chunks) > 1 and sum(chunks) == len(sets)

    def test_small_chunk_budget(self, monkeypatch):
        # Chunks of a few sets each, so most chunks mix sizes and pad.
        monkeypatch.setattr(features, "_CHUNK_ELEMENTS", 20_000)
        rng = np.random.default_rng(44)
        sets = tie_heavy_sets(rng) + [rng.uniform(-3, 3, (int(n), 3)) for n in rng.integers(2, 120, 80)]
        self.assert_bit_identical(sets)

    def test_single_set(self):
        rng = np.random.default_rng(45)
        for n in (2, 47, 63, 64, 119):
            self.assert_bit_identical([rng.uniform(-10, 10, (n, 3))])

    def test_empty_batch(self):
        assert features._mst_lengths([]).shape == (0,)


class TestUniformReference:
    def test_two_point_expected_distance(self):
        # Mean distance of two uniform points in a unit cube is the Robbins
        # constant 0.661707...; the reference scales it by the box side.
        ref = uniform_mst_reference(2, CropBox(5.0), reps=100_000)
        assert ref == pytest.approx(0.661707 * 10.0, rel=0.01)

    def test_monotone_in_n(self):
        # Adjacent-n growth is larger than the Monte-Carlo error once the
        # estimate uses enough repetitions.
        box = CropBox(1.0)
        values = [uniform_mst_reference(n, box, reps=256) for n in range(2, 101)]
        assert np.all(np.diff(values) > 0)

    def test_exact_scaling_in_box_size(self):
        a = uniform_mst_reference(40, CropBox(1.0))
        b = uniform_mst_reference(40, CropBox(2.0))
        assert b == 2.0 * a

    def test_deterministic(self):
        assert uniform_mst_reference(17, CropBox(3.0)) == uniform_mst_reference(
            17, CropBox(3.0)
        )


class TestNormalizedMST:
    def test_uniform_near_one(self):
        rng = np.random.default_rng(31)
        box = CropBox(10.0)
        vals = [
            normalized_mst(rng.uniform(-10, 10, (200, 3)), box) for _ in range(50)
        ]
        assert 0.9 <= np.mean(vals) <= 1.1

    def test_tight_cluster_below_half(self):
        rng = np.random.default_rng(32)
        box = CropBox(10.0)
        pts = rng.normal(0.0, 10.0 / 50.0, (200, 3))
        assert normalized_mst(pts, box) < 0.5

    def test_boundary_spread_above_one(self):
        # Points pushed to the box faces in a regular (beam-like) pattern
        # are farther apart than uniform scatter, driving the ratio above 1.
        rng = np.random.default_rng(33)
        box = CropBox(10.0)
        grid = np.linspace(-9.0, 9.0, 6)
        faces = []
        for axis in range(3):
            for sign in (-10.0, 10.0):
                u, v = np.meshgrid(grid, grid)
                face = np.zeros((36, 3))
                face[:, axis] = sign
                others = [a for a in range(3) if a != axis]
                face[:, others[0]] = u.ravel()
                face[:, others[1]] = v.ravel()
                faces.append(face)
        face_pts = np.vstack(faces)
        vals = []
        for _ in range(10):
            pick = face_pts[rng.choice(len(face_pts), 200, replace=False)]
            pick = pick + rng.normal(0, 0.2, pick.shape)
            vals.append(normalized_mst(pick, box))
        assert np.mean(vals) > 1.0

    def test_corner_points_above_one_at_low_count(self):
        # A handful of returns sitting in the box corners is maximally
        # spread out relative to uniform scatter of the same small count.
        rng = np.random.default_rng(34)
        box = CropBox(10.0)
        corners = np.array(
            [[sx, sy, sz] for sx in (-9.5, 9.5) for sy in (-9.5, 9.5) for sz in (-9.5, 9.5)]
        )
        pts = np.vstack([corners, corners]) + rng.normal(0, 0.2, (16, 3))
        assert normalized_mst(pts, box) > 1.0

    def test_scale_invariance_within_tolerance(self):
        rng = np.random.default_rng(35)
        pts = rng.uniform(-1, 1, (80, 3))
        small = normalized_mst(pts, CropBox(1.0))
        large = normalized_mst(10.0 * pts, CropBox(10.0))
        assert large == pytest.approx(small, rel=1e-12)


class TestScanFeatures:
    def test_empty_scan(self):
        feats = scan_features(make_scan(np.zeros((0, 3))), CropBox(10.0))
        assert feats.n_points == 0
        assert feats.mean_intensity is None
        assert feats.mean_radial is None
        assert feats.norm_mst is None

    def test_single_point_3_4_5(self):
        feats = scan_features(
            make_scan([[3.0, 4.0, 0.0]], intensity=[7.0]), CropBox(10.0)
        )
        assert feats.n_points == 1
        assert feats.mean_intensity == 7.0
        assert feats.mean_radial == pytest.approx(5.0)
        assert feats.norm_mst is None

    def test_independent_recomputation(self):
        rng = np.random.default_rng(44)
        xyz = rng.uniform(-12, 12, (6, 3))
        intensity = rng.random(6)
        box = CropBox(10.0)
        feats = scan_features(make_scan(xyz, intensity), box)
        keep = np.all(np.abs(xyz) <= 10.0, axis=1)
        kept = xyz[keep]
        assert feats.n_points == int(keep.sum())
        assert feats.mean_intensity == pytest.approx(float(intensity[keep].mean()))
        assert feats.mean_radial == pytest.approx(
            float(np.sqrt((kept**2).sum(axis=1)).mean())
        )
        expected_mst = brute_force_mst(kept)
        assert feats.norm_mst == pytest.approx(
            expected_mst / uniform_mst_reference(len(kept), box), rel=1e-12
        )


class TestWindowFeatures:
    def test_identical_scans_zero_std(self):
        rng = np.random.default_rng(50)
        scan = make_scan(rng.uniform(-5, 5, (20, 3)), intensity=rng.random(20))
        vec = window_features([scan, scan, scan], CropBox(10.0))
        np.testing.assert_allclose(vec[1::2], 0.0, atol=1e-12)

    def test_count_statistics_population(self):
        rng = np.random.default_rng(51)
        s1 = make_scan(rng.uniform(-5, 5, (100, 3)))
        s2 = make_scan(rng.uniform(-5, 5, (200, 3)))
        vec = window_features([s1, s2], CropBox(10.0))
        assert vec[0] == 150.0
        assert vec[1] == 50.0

    def test_absent_values_excluded(self):
        rng = np.random.default_rng(52)
        full = make_scan(rng.uniform(-5, 5, (10, 3)), intensity=np.full(10, 2.0))
        single = make_scan([[1.0, 0.0, 0.0]], intensity=[4.0])
        vec = window_features([full, single], CropBox(10.0))
        # MST defined only for the 10-point scan: std contribution excluded
        assert vec[7] == 0.0
        # intensity defined for both
        assert vec[2] == pytest.approx(3.0)

    def test_all_absent_substitutes_zero_and_warns(self):
        empty = make_scan(np.zeros((0, 3)))
        with pytest.warns(UserWarning, match="undefined in all"):
            vec = window_features([empty, empty], CropBox(10.0))
        np.testing.assert_array_equal(vec, np.zeros(8))

    def test_order_free(self):
        rng = np.random.default_rng(53)
        scans = [make_scan(rng.uniform(-5, 5, (rng.integers(3, 30), 3))) for _ in range(6)]
        a = window_features(scans, CropBox(10.0))
        b = window_features(scans[::-1], CropBox(10.0))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_single_scan_rejected(self):
        with pytest.raises(InvalidInputError):
            window_features([make_scan([[0, 0, 0]])], CropBox(10.0))


def random_window(rng, n_scans):
    """Scans with 0, 1 or several points, so every per-scan feature can be undefined."""
    scans = []
    for i in range(n_scans):
        n = int(rng.choice([0, 1, rng.integers(2, 25)]))
        scans.append(
            make_scan(rng.uniform(-12, 12, (n, 3)), intensity=rng.random(n), frame_id=i)
        )
    return scans


def window_features_from_dataclass(scans, box):
    """The window vector built straight from ``scan_features`` (None = undefined)."""
    per_scan = [scan_features(s, box) for s in scans]
    columns = (
        [float(f.n_points) for f in per_scan],
        [f.mean_intensity for f in per_scan],
        [f.mean_radial for f in per_scan],
        [f.norm_mst for f in per_scan],
    )
    out = []
    for values in columns:
        present = np.array([v for v in values if v is not None], dtype=float)
        out += [float(present.mean()), float(present.std())] if present.size else [0.0, 0.0]
    return np.array(out)


class TestScanFeatureRows:
    def test_rows_match_scan_features(self):
        rng = np.random.default_rng(60)
        box = CropBox(10.0)
        scans = random_window(rng, 40)
        rows = scan_feature_rows(scans, box)
        assert rows.shape == (40, 4)
        for scan, row in zip(scans, rows):
            f = scan_features(scan, box)
            expected = [f.n_points, f.mean_intensity, f.mean_radial, f.norm_mst]
            np.testing.assert_array_equal(
                row, [np.nan if v is None else v for v in expected]
            )

    def test_batched_rows_equal_scan_features_exactly(self):
        # Crops from 0 to about 120 points, both sides of the Gram switch.
        rng = np.random.default_rng(63)
        box = CropBox(5.0)
        scans = [
            make_scan(rng.uniform(-6, 6, (n, 3)), intensity=rng.random(n), frame_id=i)
            for i, n in enumerate(rng.permutation(np.arange(0, 200, 2)).tolist())
        ]
        rows = scan_feature_rows(scans, box)
        for scan, row in zip(scans, rows.tolist()):
            f = scan_features(scan, box)
            expected = [f.n_points, f.mean_intensity, f.mean_radial, f.norm_mst]
            assert [None if np.isnan(v) else v for v in row] == expected
        assert np.nanmax(rows[:, 0]) >= 64 and np.nanmin(rows[:, 0]) < 2

    def test_only_given_indices_computed(self, monkeypatch):
        rng = np.random.default_rng(61)
        scans = random_window(rng, 12)
        # the scans whose points are gathered for the crop
        seen = []
        real = ScanTable.take

        def counting(table, indices):
            taken = real(table, indices)
            seen.extend(taken.frame_ids.tolist())
            return taken

        monkeypatch.setattr(ScanTable, "take", counting)
        rows = scan_feature_rows(scans, CropBox(10.0), indices=[3, 7, 8])
        assert seen == [3, 7, 8]
        assert not np.isnan(rows[[3, 7, 8], 0]).any()
        assert np.isnan(np.delete(rows, [3, 7, 8], axis=0)).all()
        # filling into an existing table leaves the other rows alone
        scan_feature_rows(scans, CropBox(10.0), indices=[0], out=rows)
        assert seen == [3, 7, 8, 0]
        assert not np.isnan(rows[[0, 3, 7, 8], 0]).any()

    @pytest.mark.parametrize("seed", range(8))
    def test_reduced_table_equals_dataclass_path_bitwise(self, seed):
        rng = np.random.default_rng([62, seed])
        box = CropBox(10.0)
        scans = random_window(rng, int(rng.integers(2, 12)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vec = window_features(scans, box)
        assert np.array_equal(vec, window_features_from_dataclass(scans, box))
        undefined = sum(
            all(getattr(scan_features(s, box), name) is None for s in scans)
            for name in ("mean_intensity", "mean_radial", "norm_mst")
        )
        assert sum("undefined in all" in str(w.message) for w in caught) == undefined

    def test_reduce_window_rejects_single_row(self):
        with pytest.raises(InvalidInputError):
            reduce_window(np.ones((1, 4)))


def edge_scans(rng, box):
    """Scans at the edges of the flat crop: faces, empty crops, few and many points."""
    h = box.half_extent
    face = rng.uniform(-h, h, (40, 3))
    face[::2, 0] = h
    face[1::4, 1] = -h
    face[3::4, 2] = np.nextafter(h, np.inf)  # just outside
    signed_zero = rng.uniform(-h, h, (6, 3))
    signed_zero[:, 1] = -0.0
    signed_zero[::2, 0] = 0.0
    point_sets = [
        face,
        rng.uniform(h * 1.01, h * 2, (7, 3)) * rng.choice([-1.0, 1.0], (7, 3)),  # all outside
        np.zeros((0, 3)),
        rng.uniform(-h, h, (1, 3)),
        rng.uniform(-h, h, (2, 3)),
        np.array([[h, -h, h], [-h, h, -h]]),  # two corners
        rng.uniform(-h, h, (64, 3)),
        rng.uniform(-h * 1.2, h * 1.2, (150, 3)),  # about 86 kept
        signed_zero,
        np.full((3, 3), -0.0),
    ]
    return [
        make_scan(p, intensity=rng.random(len(p)), timestamp=0.1 * i, frame_id=i)
        for i, p in enumerate(point_sets)
    ]


def expected_row(scan, box) -> np.ndarray:
    f = scan_features(scan, box)
    values = [f.n_points, f.mean_intensity, f.mean_radial, f.norm_mst]
    return np.array([np.nan if v is None else v for v in values])


class TestFlatCrop:
    """The per-scan table over a ScanTable against per-scan scan_features."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_scan_features_bitwise(self, seed):
        rng = np.random.default_rng([64, seed])
        box = CropBox(float(rng.choice([1.0, 2.5, 10.0])))
        scans = edge_scans(rng, box)
        order = rng.permutation(len(scans))
        scans = [scans[i] for i in order]
        table = ScanTable.from_scans(scans)
        rows = scan_feature_rows(table, box)
        for i, scan in enumerate(scans):
            assert rows[i].tobytes() == expected_row(scan, box).tobytes()
            assert rows[i].tobytes() == expected_row(table[i], box).tobytes()
        assert rows[:, 0].tolist().count(0) >= 2  # the empty and all-outside scans
        assert np.nanmax(rows[:, 0]) >= 64

    def test_rows_of_a_read_file_equal_scan_features_bitwise(self, tmp_path):
        # the reader's table holds its points as views of one (N, 4) array
        rng = np.random.default_rng(68)
        box = CropBox(2.5)
        scans = edge_scans(rng, box)
        path = tmp_path / "scans.txt"
        rio.write_scans(path, scans)
        rows = scan_feature_rows(rio.read_scans(path), box)
        for i, scan in enumerate(scans):
            assert rows[i].tobytes() == expected_row(scan, box).tobytes()

    def test_face_points_kept(self):
        box = CropBox(2.0)
        scan = make_scan([[2.0, -2.0, 0.0], [-2.0, 2.0, 2.0], [2.0 + 1e-15, 0.0, 0.0]])
        assert scan_feature_rows([scan], box)[0, 0] == 2

    def test_subset_rows_equal_full_table(self):
        rng = np.random.default_rng(65)
        box = CropBox(2.0)
        table = ScanTable.from_scans(edge_scans(rng, box))
        full = scan_feature_rows(table, box)
        part = scan_feature_rows(table, box, indices=[8, 0, 6])
        assert part[[0, 6, 8]].tobytes() == full[[0, 6, 8]].tobytes()
        assert np.isnan(np.delete(part, [0, 6, 8], axis=0)).all()

    def test_window_features_of_a_table_slice_equal_the_list(self):
        rng = np.random.default_rng(66)
        box = CropBox(10.0)
        scans = random_window(rng, 30)
        table = ScanTable.from_scans(scans)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = window_features(table[5:17], box)
            assert np.array_equal(got, window_features(scans[5:17], box))


class TestScanTable:
    def _scans(self, n=6):
        rng = np.random.default_rng(67)
        return [
            make_scan(
                rng.uniform(-3, 3, (k, 3)), intensity=rng.random(k), timestamp=0.1 * i, frame_id=10 + i
            )
            for i, k in enumerate([3, 0, 5, 1, 0, 4][:n])
        ]

    def test_sequence_of_scans(self):
        scans = self._scans()
        table = ScanTable.from_scans(scans)
        assert isinstance(table, Sequence)
        assert len(table) == 6 and table.xyz.shape == (13, 3)
        assert table.offsets.tolist() == [0, 3, 3, 8, 9, 9, 13]
        for got, want in zip(table, scans):
            assert isinstance(got, Scan)
            assert (got.frame_id, got.timestamp) == (want.frame_id, want.timestamp)
            assert np.array_equal(got.xyz, want.xyz)
            assert np.array_equal(got.intensity, want.intensity)
        assert len(list(table)) == 6
        assert table[-1].frame_id == 15
        with pytest.raises(IndexError):
            table[6]

    def test_int_index_is_a_view(self):
        table = ScanTable.from_scans(self._scans())
        scan = table[2]
        assert np.shares_memory(scan.xyz, table.xyz)
        assert np.shares_memory(scan.intensity, table.intensity)

    def test_slice_is_a_table_view(self):
        scans = self._scans()
        table = ScanTable.from_scans(scans)
        part = table[2:5]
        assert isinstance(part, ScanTable)
        assert np.shares_memory(part.xyz, table.xyz)
        assert np.shares_memory(part.intensity, table.intensity)
        assert part.offsets.tolist() == [0, 5, 6, 6]
        assert [s.frame_id for s in part] == [12, 13, 14]
        assert len(table[4:2]) == 0
        assert [s.frame_id for s in table[::2]] == [10, 12, 14]
        assert [s.frame_id for s in table[::-1]] == [15, 14, 13, 12, 11, 10]

    def test_take(self):
        table = ScanTable.from_scans(self._scans())
        taken = table.take([5, 0, -4])
        assert taken.frame_ids.tolist() == [15, 10, 12]
        assert taken.offsets.tolist() == [0, 4, 7, 12]
        assert np.array_equal(taken.xyz, np.concatenate([table[5].xyz, table[0].xyz, table[2].xyz]))
        assert len(table.take([])) == 0

    def test_from_scans_round_trip(self):
        scans = self._scans()
        table = ScanTable.from_scans(scans)
        assert ScanTable.from_scans(table) is table
        again = ScanTable.from_scans(list(table))
        for name in ("frame_ids", "timestamps", "offsets", "xyz", "intensity"):
            assert np.array_equal(getattr(again, name), getattr(table, name))
        empty = ScanTable.from_scans([])
        assert len(empty) == 0 and empty.xyz.shape == (0, 3)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"intensity": [1.0, -1.0, 1.0]}, "non-negative"),
            ({"xyz": [[0.0, 0.0, np.inf]] * 3}, "finite"),
            ({"offsets": [0, 2, 1, 3]}, "offsets"),
            ({"offsets": [0, 1, 2]}, "one frame id"),
        ],
    )
    def test_validated_once_over_flat_arrays(self, change, message):
        columns = {
            "frame_ids": [0, 1, 2],
            "timestamps": [0.0, 0.1, 0.2],
            "offsets": [0, 1, 2, 3],
            "xyz": np.zeros((3, 3)),
            "intensity": np.ones(3),
        }
        ScanTable(**columns)
        with pytest.raises(InvalidInputError, match=message):
            ScanTable(**{**columns, **change})


class TestStandardize:
    def test_zero_mean_unit_sd(self):
        rng = np.random.default_rng(60)
        X = rng.normal(3.0, 2.5, size=(100, 8))
        stats = standardize_fit(X)
        Z = standardize_apply(stats, X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_dimension(self):
        X = np.column_stack([np.full(10, 4.0), np.arange(10.0)])
        with pytest.warns(UserWarning, match="zero-variance"):
            stats = standardize_fit(X)
        assert stats.scale[0] == 1.0
        Z = standardize_apply(stats, X)
        np.testing.assert_allclose(Z[:, 0], 0.0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(61)
        X = rng.normal(size=(20, 8))
        stats = standardize_fit(X)
        v = rng.normal(size=8)
        np.testing.assert_allclose(
            standardize_invert(stats, standardize_apply(stats, v)), v, atol=1e-12
        )


class TestReferenceCacheConcurrency:
    def test_parallel_featurization_consistent(self):
        # The uniform-reference cache must serve concurrent readers and
        # inserters without changing any value.
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(90)
        box = CropBox(10.0)
        scans = [
            make_scan(rng.uniform(-10, 10, (int(rng.integers(5, 60)), 3)))
            for _ in range(40)
        ]
        expected = [scan_features(s, box) for s in scans]
        # force the parallel pass to re-insert reference entries concurrently
        from rainlidar.features import _reference_cache

        _reference_cache.clear()
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda s: scan_features(s, box), scans))
        assert got == expected
