"""Deterministic synthetic rain-noise generator.

Produces scan streams and disdrometer tracks whose point-cloud statistics
vary nonlinearly with rainfall rate: the expected point count follows a
different quadratic curve per rate regime (with a deliberate dip, so no
single linear model fits the whole range), intensity decays with rate, and
a rate-dependent fraction of points is placed in droplet-like clusters
(pulling the normalized MST length below 1).

Sessions add a slow multiplicative fluctuation to the programmed rate (real
rainfall is never perfectly flat), lognormal observation noise on the
disdrometer, and occasional disturbance bursts (clutter bursts with droopy
intensity) that corrupt scans independently of the rainfall rate. Bursts
make some windows genuinely unmodelable, which is what uncertainty
filtering is meant to catch.

Everything is a pure function of the seed: same seed, byte-identical
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .features import CropBox, Scan
from .pipeline import RainSeries

# Fixed sub-stream tags fanned out from the session seed.
_SCAN_STREAM = 0x5CA9
_DISDRO_STREAM = 0xD15D
_FLUCT_STREAM = 0xF10C
_DISTURB_STREAM = 0xD157

# Fluctuation harmonics: periods (s) and relative weights. Periods stay
# well above the ground-truth smoothing span (~90 s at 0.1 Hz), so the
# filtered disdrometer track still follows the fluctuation the scans see.
_FLUCT_PERIODS = (311.0, 197.0, 127.0)
_FLUCT_WEIGHTS = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class SensorSpec:
    """Acquisition rates: lidar frames and disdrometer measurements (Hz)."""

    frame_rate: float = 10.0
    disdrometer_rate: float = 0.1

    def __post_init__(self):
        if not all(math.isfinite(r) and r > 0 for r in (self.frame_rate, self.disdrometer_rate)):
            raise InvalidInputError("sensor rates must be positive and finite")


@dataclass(frozen=True)
class SegmentSpec:
    """One experiment segment: duration (s), target rate (mm/h), ramp-in (s)."""

    duration: float
    rate: float
    ramp: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.duration, self.rate, self.ramp)):
            raise InvalidInputError("segment duration, rate and ramp must be finite")
        if self.duration <= 0:
            raise InvalidInputError("segment duration must be positive")
        if self.rate < 0:
            raise InvalidInputError("segment rate must be non-negative")
        if self.ramp < 0 or self.ramp > self.duration:
            raise InvalidInputError("ramp must be within the segment duration")


@dataclass(frozen=True)
class RainProfile:
    """Programmed rainfall session: segments plus sensor rates."""

    segments: tuple
    sensor: SensorSpec = SensorSpec()

    def __post_init__(self):
        if not self.segments:
            raise InvalidInputError("profile needs at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))


def default_profile() -> RainProfile:
    """25-minute session: four plateaus at 7/15/30/50 mm/h with 30 s ramps."""
    return RainProfile(
        segments=(
            SegmentSpec(375.0, 7.0, 30.0),
            SegmentSpec(375.0, 15.0, 30.0),
            SegmentSpec(375.0, 30.0, 30.0),
            SegmentSpec(375.0, 50.0, 30.0),
        )
    )


def segment_index(profile: RainProfile, t: float) -> int:
    """Index of the segment containing time t (last segment for t past the end)."""
    elapsed = 0.0
    for i, seg in enumerate(profile.segments):
        elapsed += seg.duration
        if t < elapsed:
            return i
    return len(profile.segments) - 1


def profile_rate(profile: RainProfile, t: float) -> float:
    """Programmed rate at time t: linear ramp-in, then plateau, per segment."""
    previous = 0.0
    start = 0.0
    last = len(profile.segments) - 1
    for i, seg in enumerate(profile.segments):
        end = start + seg.duration
        if t < end or i == last:
            if seg.ramp > 0 and t < start + seg.ramp:
                frac = max((t - start) / seg.ramp, 0.0)
                return previous + frac * (seg.rate - previous)
            return seg.rate
        previous = seg.rate
        start = end
    return previous


@dataclass(frozen=True)
class RegimeParams:
    """Noise parameters for one rainfall-rate interval [lo, hi).

    ``count_coeffs`` (c0, c1, c2) define the expected point count
    c0 + c1*(r-lo) + c2*(r-lo)^2. Intensity decays exponentially from
    ``intensity_scale`` at the regime start. ``radial_pull`` and
    ``cluster_fraction`` interpolate linearly across the regime.
    """

    rate_range: tuple
    count_coeffs: tuple
    intensity_scale: float
    intensity_decay: float
    radial_pull: tuple
    cluster_fraction: tuple
    cluster_scale: float

    def __post_init__(self):
        lo, hi = self.rate_range
        if not 0 <= lo < hi:
            raise InvalidInputError("regime rate range must satisfy 0 <= lo < hi")
        if self.intensity_scale <= 0 or self.cluster_scale <= 0:
            raise InvalidInputError("regime scales must be positive")
        if not all(0 <= p < 1 for p in self.radial_pull):
            raise InvalidInputError("radial pull must be in [0, 1)")
        if not all(0 <= c <= 1 for c in self.cluster_fraction):
            raise InvalidInputError("cluster fraction must be in [0, 1]")

    def _progress(self, rate: float) -> float:
        lo, hi = self.rate_range
        return min(max((rate - lo) / (hi - lo), 0.0), 1.0)

    def expected_count(self, rate: float) -> float:
        c0, c1, c2 = self.count_coeffs
        dr = max(rate - self.rate_range[0], 0.0)
        return max(c0 + c1 * dr + c2 * dr * dr, 0.0)

    def expected_intensity(self, rate: float) -> float:
        dr = max(rate - self.rate_range[0], 0.0)
        return self.intensity_scale * float(np.exp(-self.intensity_decay * dr))

    def radial_pull_at(self, rate: float) -> float:
        a, b = self.radial_pull
        return a + (b - a) * self._progress(rate)

    def cluster_fraction_at(self, rate: float) -> float:
        a, b = self.cluster_fraction
        return a + (b - a) * self._progress(rate)


@dataclass(frozen=True)
class NoiseRegimeParams:
    """Piecewise noise model: regimes must tile [0, r_max) contiguously."""

    regimes: tuple

    def __post_init__(self):
        object.__setattr__(self, "regimes", tuple(self.regimes))
        if not self.regimes:
            raise InvalidInputError("need at least one regime")
        expected_lo = 0.0
        for reg in self.regimes:
            lo, hi = reg.rate_range
            if lo != expected_lo:
                raise InvalidInputError("regime intervals must tile [0, r_max) contiguously")
            expected_lo = hi

    @property
    def r_max(self) -> float:
        return self.regimes[-1].rate_range[1]

    def regime_for(self, rate: float) -> RegimeParams:
        for reg in self.regimes:
            if rate < reg.rate_range[1]:
                return reg
        return self.regimes[-1]


def default_regime_params() -> NoiseRegimeParams:
    """Regime breakpoints at 10/20/40 mm/h; count curve dips in [20, 40).

    Curves are continuous across breakpoints, but every statistic
    alternates between steep and flat (and the count slope flips sign in
    the third regime), so no single linear model tracks rate across the
    whole range while each regime keeps at least two locally informative
    statistics.
    """
    return NoiseRegimeParams(
        regimes=(
            RegimeParams((0.0, 10.0), (5.0, 4.2, -0.15), 1.000, 0.040, (0.00, 0.02), (0.04, 0.30), 0.35),
            RegimeParams((10.0, 20.0), (32.0, 2.6, 0.02), 0.670, 0.006, (0.02, 0.30), (0.30, 0.32), 0.28),
            RegimeParams((20.0, 40.0), (60.0, -1.2, 0.022), 0.631, 0.017, (0.30, 0.32), (0.32, 0.50), 0.20),
            RegimeParams((40.0, 80.0), (44.8, 2.2, -0.014), 0.449, 0.002, (0.32, 0.55), (0.50, 0.52), 0.15),
        )
    )


@dataclass(frozen=True)
class DisturbanceParams:
    """Poisson bursts of rate-independent scan corruption within a session.

    Bursts are rare but long enough to cover whole windows: strong enough
    that windows touching one are mispredicted and flagged uncertain, rare
    enough that they do not dominate the experts' noise estimates during
    training.
    """

    rate_per_minute: float = 0.15
    duration_range: tuple = (8.0, 20.0)
    count_scale_range: tuple = (1.3, 1.6)
    intensity_scale_range: tuple = (0.5, 0.8)
    extra_cluster_range: tuple = (0.15, 0.3)


@dataclass(frozen=True)
class _Burst:
    start: float
    duration: float
    count_scale: float
    intensity_scale: float
    extra_cluster: float


def generate_scan(
    rate: float,
    params: NoiseRegimeParams,
    box: CropBox,
    seed,
    timestamp: float = 0.0,
    frame_id: int = 0,
    count_scale: float = 1.0,
    intensity_scale: float = 1.0,
    extra_cluster: float = 0.0,
) -> Scan:
    """One synthetic noise scan at the given rainfall rate.

    Point count is Poisson around the regime curve; a cluster fraction of
    points is placed in droplet-like Gaussian clumps, the rest uniform in
    the box with a radial pull towards the sensor. Intensities are Gamma
    distributed around the regime's decaying mean. The scale/extra
    arguments let a session overlay disturbance bursts; with the defaults
    the scan follows the regime model exactly.
    """
    if rate < 0:
        raise InvalidInputError("rainfall rate must be non-negative")
    rng = np.random.default_rng(seed)
    regime = params.regime_for(rate)
    lam = regime.expected_count(rate) * count_scale
    n = int(rng.poisson(lam))
    h = box.half_extent
    cluster_frac = min(regime.cluster_fraction_at(rate) + extra_cluster, 0.95)
    n_cluster = int(rng.binomial(n, cluster_frac)) if n else 0
    n_background = n - n_cluster
    parts = []
    if n_cluster:
        n_clumps = max(1, n_cluster // 20)
        centers = rng.uniform(-h, h, (n_clumps, 3))
        member = rng.integers(0, n_clumps, n_cluster)
        clustered = centers[member] + rng.normal(0.0, regime.cluster_scale, (n_cluster, 3))
        parts.append(np.clip(clustered, -h, h))
    if n_background:
        background = rng.uniform(-h, h, (n_background, 3))
        pull = regime.radial_pull_at(rate) * rng.random(n_background)
        parts.append(background * (1.0 - pull)[:, None])
    xyz = np.vstack(parts) if parts else np.zeros((0, 3))
    mean_intensity = regime.expected_intensity(rate) * intensity_scale
    intensity = rng.gamma(4.0, mean_intensity / 4.0, n) if n else np.zeros(0)
    return Scan(xyz=xyz, intensity=intensity, timestamp=timestamp, frame_id=frame_id)


def _fluctuation(times: np.ndarray, amplitude: float, seed: int) -> np.ndarray:
    """Slow smooth multiplicative rate fluctuation, deterministic in t."""
    if amplitude == 0:
        return np.zeros_like(times)
    rng = np.random.default_rng([_FLUCT_STREAM, int(seed)])
    phases = rng.uniform(0.0, 2.0 * np.pi, len(_FLUCT_PERIODS))
    out = np.zeros_like(times, dtype=float)
    for period, weight, phase in zip(_FLUCT_PERIODS, _FLUCT_WEIGHTS, phases):
        out += weight * np.sin(2.0 * np.pi * times / period + phase)
    return amplitude * out


def _draw_bursts(params: DisturbanceParams, total: float, seed: int) -> list:
    rng = np.random.default_rng([_DISTURB_STREAM, int(seed)])
    if params.rate_per_minute <= 0:
        return []
    mean_gap = 60.0 / params.rate_per_minute
    bursts = []
    t = float(rng.exponential(mean_gap))
    while t < total:
        bursts.append(
            _Burst(
                start=t,
                duration=float(rng.uniform(*params.duration_range)),
                count_scale=float(rng.uniform(*params.count_scale_range)),
                intensity_scale=float(rng.uniform(*params.intensity_scale_range)),
                extra_cluster=float(rng.uniform(*params.extra_cluster_range)),
            )
        )
        t += float(rng.exponential(mean_gap))
    return bursts


def generate_session(
    profile: RainProfile,
    params: NoiseRegimeParams | None = None,
    box: CropBox = CropBox(10.0),
    seed: int = 0,
    noise_sigma: float = 0.05,
    bias: float = 1.0,
    fluctuation: float = 0.12,
    disturbance: DisturbanceParams | None = DisturbanceParams(),
) -> tuple:
    """Generate (scan stream, disdrometer series) for a full session.

    The true rate is the programmed profile times (1 + fluctuation(t)).
    Disdrometer observations get multiplicative lognormal noise of the
    given sigma and an optional constant bias factor. ``disturbance=None``
    disables corruption bursts. Fully deterministic per seed. The scans
    are :func:`session_scans` as a list, the series
    :func:`disdrometer_series`.
    """
    scans = list(session_scans(profile, params, box, seed, fluctuation, disturbance))
    return scans, disdrometer_series(profile, seed, noise_sigma, bias, fluctuation)


def session_scans(
    profile: RainProfile,
    params: NoiseRegimeParams | None = None,
    box: CropBox = CropBox(10.0),
    seed: int = 0,
    fluctuation: float = 0.12,
    disturbance: DisturbanceParams | None = DisturbanceParams(),
):
    """The scans of :func:`generate_session`, as an iterator that makes each on demand.

    The frame times, rates and bursts are set up here, so a bad profile
    raises before the first scan is asked for; each scan is generated when
    the iterator reaches it.
    """
    params = params or default_regime_params()
    total = profile.total_duration
    frame_rate = profile.sensor.frame_rate
    n_frames = int(round(total * frame_rate))
    frame_times = np.arange(n_frames) / frame_rate
    base = np.array([profile_rate(profile, t) for t in frame_times])
    rates = np.clip(base * (1.0 + _fluctuation(frame_times, fluctuation, seed)), 0.0, None)
    bursts = _draw_bursts(disturbance, total, seed) if disturbance else []

    def scans():
        for j, t in enumerate(frame_times.tolist()):
            count_scale = intensity_scale = 1.0
            extra_cluster = 0.0
            for burst in bursts:
                if burst.start <= t < burst.start + burst.duration:
                    count_scale = burst.count_scale
                    intensity_scale = burst.intensity_scale
                    extra_cluster = burst.extra_cluster
                    break
            yield generate_scan(
                float(rates[j]),
                params,
                box,
                seed=[_SCAN_STREAM, int(seed), j],
                timestamp=t,
                frame_id=j,
                count_scale=count_scale,
                intensity_scale=intensity_scale,
                extra_cluster=extra_cluster,
            )

    return scans()


def disdrometer_series(
    profile: RainProfile,
    seed: int = 0,
    noise_sigma: float = 0.05,
    bias: float = 1.0,
    fluctuation: float = 0.12,
) -> RainSeries:
    """The disdrometer series of :func:`generate_session`."""
    total = profile.total_duration
    disdro_rate = profile.sensor.disdrometer_rate
    n_meas = int(round(total * disdro_rate))
    meas_times = np.arange(n_meas) / disdro_rate
    base_meas = np.array([profile_rate(profile, t) for t in meas_times])
    true_meas = np.clip(base_meas * (1.0 + _fluctuation(meas_times, fluctuation, seed)), 0.0, None)
    noise_rng = np.random.default_rng([_DISDRO_STREAM, int(seed)])
    observed = true_meas * bias * np.exp(noise_sigma * noise_rng.standard_normal(n_meas))
    segments = np.array([segment_index(profile, t) for t in meas_times])
    return RainSeries(timestamps=meas_times, rates=observed, segment_ids=segments)
