"""Spectral estimation: averaged periodogram, window resolution, and the
ephemeris-guided three-line statistic at the sidereal frequency and its
annual sidebands.

One-sided PSD convention throughout: the density integrates to the
variance of a zero-mean stationary input, with the DC and Nyquist bins
carrying half weight.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import EphemerisConstants, check_daily_sampling
from .timeseries import TimeSeries, grid_phasor, turns


@dataclass(frozen=True)
class WindowSpec:
    """Taper choice and segmentation for the averaged periodogram."""

    kind: str = "hann"
    segment_length: float = 0.0  # seconds; 0 means one segment spanning the record
    overlap: float = 0.5

    def __post_init__(self):
        if self.kind not in ("rectangular", "hann"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if not 0.0 <= self.overlap <= 0.9:
            raise ValueError(f"overlap must be in [0, 0.9], got {self.overlap}")
        if not 0.0 <= self.segment_length < math.inf:
            raise ValueError(
                f"segment_length must be finite and non-negative, got {self.segment_length}"
            )

    def taper(self, n: int) -> np.ndarray | None:
        """The taper's n weights, or None for rectangular: the segment is
        used as is, which is exact and saves a pass."""
        return None if self.kind == "rectangular" else np.hanning(n)


@dataclass
class Spectrum:
    """One-sided power spectral density on the grid k df from 0 Hz, and
    the number of segments averaged; cli writes it as psd.csv."""

    df: float
    psd: np.ndarray
    n_averages: int

    @property
    def frequencies(self) -> np.ndarray:
        return self.df * np.arange(len(self.psd))


# _rfft_power splits a length n = p m at its largest prime factor p only
# where the split was timed faster than np.fft.rfft (2 cores, numpy 2.4):
# p of at least _SPLIT_MIN_PRIME and m of at least _SPLIT_MIN_COFACTOR.
# Below p = 400 pocketfft's own pass for p wins at every m tried (the
# split is up to 4.6x slower at p = 13, 3.2x at p = 101); at m = 2 the
# two paths are level near p = 400.
_SPLIT_MIN_PRIME = 400
_SPLIT_MIN_COFACTOR = 3
# complex elements per block of rows twiddled and transformed at once
_SPLIT_ROWS = 1 << 16


def _split_prime(n: int) -> int:
    """The largest prime factor p of n when p >= _SPLIT_MIN_PRIME and
    n / p >= _SPLIT_MIN_COFACTOR, else 0: the factor at which
    _rfft_power splits its transform."""
    rest, p, q = n, 1, 2
    while q * q <= rest:
        while rest % q == 0:
            p, rest = q, rest // q
        q += 1
    p = max(p, rest)
    return p if p >= _SPLIT_MIN_PRIME and n // p >= _SPLIT_MIN_COFACTOR else 0


def _rfft_power(seg: np.ndarray) -> np.ndarray:
    """|rfft(seg)|^2 at the segment's own length n.

    pocketfft is slow at a length with a large prime factor: two or
    three times a fast length.  When n = p m with p the largest prime
    factor and _split_prime(n) nonzero, the transform is split at p
    (four-step Cooley-Tukey, k = k1 + p k2): a real length-p transform
    down the columns of seg.reshape(p, m), then, for each block of rows
    of about _SPLIT_ROWS elements, the twiddles exp(-2 pi i k1 n2 / n)
    and a length-m transform along the rows.  With n2 = b c + j, j < b =
    isqrt(m - 1) + 1, each block's twiddles are the products of two
    tables of timeseries.turns, at k1 j and k1 b c mod n: exact integer
    turns, so about 2 sqrt(m) sines and cosines a row where the direct
    form takes m.  Each block is transformed alone, in place, so the
    blocks, fixed by n, define the bytes.
    Only rows k1 <= p // 2 are transformed; the others follow from
    |X[n - k]| = |X[k]| of a real input.  Every other length goes to
    np.fft.rfft unchanged and keeps its bytes.
    """
    n = seg.size
    p = _split_prime(n)
    if not p:
        return np.abs(np.fft.rfft(seg)) ** 2
    m = n // p
    cols = np.fft.rfft(seg.reshape(p, m), axis=0)  # (p // 2 + 1, m): k1 by n2
    h = cols.shape[0]
    b = math.isqrt(m - 1) + 1
    wide = -(-m // b)
    inner, outer = np.arange(b), b * np.arange(wide)
    rows = max(1, _SPLIT_ROWS // m)
    twiddle = np.empty((rows, wide, b), dtype=complex)
    for first in range(0, h, rows):
        block = cols[first : first + rows]
        k1 = np.arange(first, first + block.shape[0])[:, None]
        here = twiddle[: block.shape[0]]
        # exp(-2 pi i k1 (b c + j) / n), each factor at its turn count mod n
        coarse, fine = turns(-k1 * outer % n, n), turns(-k1 * inner % n, n)
        np.multiply(coarse[:, :, None], fine[:, None, :], out=here)
        block *= here.reshape(block.shape[0], -1)[:, :m]
        block[:] = np.fft.fft(block, axis=1)
    half = np.abs(cols)  # |X[k1 + p k2]| for k1 <= p // 2
    del cols
    np.square(half, out=half)
    n_freq = n // 2 + 1
    k2_rows = -(-n_freq // p)
    power = np.empty((k2_rows, p))
    power[:, :h] = half[:, :k2_rows].T
    # p // 2 < k1 < p: n - k = (p - k1) + p (m - 1 - k2)
    power[:, h:] = half[p - h : 0 : -1, ::-1][:, :k2_rows].T
    return power.reshape(-1)[:n_freq]


def periodogram(series: TimeSeries, window: WindowSpec) -> Spectrum:
    """Averaged modified periodogram of a real record.

    Normalized so that sum(psd) * df equals the variance of a zero-mean
    stationary input (within estimator noise).  Segments are tapered,
    overlapped by the configured fraction, and averaged in fixed order.
    Each segment is transformed at its own length, not padded to the
    next fast length: the bin grid k / (nper dt) is the data of record
    in psd.csv, and padding would move it.  A length with a large prime
    factor (a year at dt = 10 s is 3,155,760 = 2^4 3^4 5 487 samples)
    is transformed by splitting at that prime where that was timed
    faster (_rfft_power), which agrees with np.fft.rfft to rounding.
    """
    y = series.samples
    if np.iscomplexobj(y):
        raise ValueError("periodogram expects a real record")
    n = y.size
    dt = series.dt
    nper = n if window.segment_length == 0 else int(round(window.segment_length / dt))
    if nper < 2:
        raise ValueError("segment must contain at least 2 samples")
    if nper > n:
        raise ValueError(f"segment of {nper} samples exceeds the {n}-sample record")

    taper = window.taper(nper)
    u = float(nper) if taper is None else float(np.sum(taper**2))
    step = max(1, int(round(nper * (1.0 - window.overlap))))
    starts = range(0, n - nper + 1, step)

    def power(start):
        seg = y[start : start + nper]
        return _rfft_power(seg if taper is None else seg * taper)

    # the first segment's power is the accumulator: 0.0 + x is x
    psd = power(starts[0])
    for start in starts[1:]:
        psd += power(start)
    psd *= 2.0 * dt / (u * len(starts))
    psd[0] *= 0.5
    if nper % 2 == 0:
        psd[-1] *= 0.5
    return Spectrum(df=1.0 / (nper * dt), psd=psd, n_averages=len(starts))


def window_response(window: WindowSpec) -> float:
    """Resolution bandwidth delta_f (Hz) of a taper over a segment of
    length T: 1/T for rectangular, 1.44/T for hann."""
    if window.segment_length <= 0:
        raise ValueError("window_response needs a positive segment_length")
    factor = 1.0 if window.kind == "rectangular" else 1.44
    return factor / window.segment_length


@dataclass
class TripletResult:
    """Demodulated powers at the carrier and the two annual sidebands,
    the estimated annual depth, and internal signal-to-noise figures."""

    x_star: float
    x_plus: float
    x_minus: float
    f_star: float
    f_plus: float
    f_minus: float
    epsilon_hat: float
    snr_star: float
    snr_pm: float


# samples per block of the blocked line sums; a private constant that sets
# the shape of the (blocks x _BLOCK) @ (_BLOCK x 2 lines) product
_BLOCK = 4096
# blocks per slice of that product: the year's 770 blocks in one
# (770 x 4096) @ (4096 x 22) product woke OpenBLAS's threads, whose worker
# then spun for about 0.1 s of CPU; slices of 8 rows stay on one thread
_SLICE_BLOCKS = 8


def _line_sums(t0: float, dt: float, y, omega: float, offsets) -> np.ndarray:
    """sum_k y_k exp(-i w_j t_k) for each line w_j = omega + d_j, on the
    uniform grid t_k = t0 + k dt of TimeSeries.times.

    With k = b _BLOCK + m, exp(-i w t_k) splits into the per-block phase
    exp(-i w t_{b _BLOCK}) and the in-block phase exp(-i w m dt), so the
    sums are real matrix products of the record's whole blocks, viewed
    as rows of _BLOCK samples, with the cosines and sines of w m dt,
    taken _SLICE_BLOCKS rows at a time, followed by a phase-weighted sum
    over blocks; the partial last block is one short row.  The record is
    neither copied nor mixed, and no trigonometric function runs per
    sample.  Each line's in-block table and per-block phasor is the
    carrier's timeseries.grid_phasor times its offset's, so neither the
    rate omega + d_j nor the phase omega t is rounded in double.
    """
    n = y.size

    def phasors(start, step, size):  # exp(i w_j (start + step k)), one column a line
        carrier = grid_phasor(omega, start, step, 0, size)
        return np.stack([carrier * grid_phasor(d, start, step, 0, size) for d in offsets], axis=1)

    trig = phasors(0.0, dt, _BLOCK).view(float)  # (_BLOCK, 2 lines): cos, sin of each line
    whole = n // _BLOCK
    rows = y[: whole * _BLOCK].reshape(whole, _BLOCK)
    products = np.empty((-(-n // _BLOCK), trig.shape[1]))
    for first in range(0, whole, _SLICE_BLOCKS):
        last = min(first + _SLICE_BLOCKS, whole)
        np.matmul(rows[first:last], trig, out=products[first:last])
    if whole < products.shape[0]:
        products[whole] = y[whole * _BLOCK :] @ trig[: n - whole * _BLOCK]
    # sum_b conj(P_b (C_b + i S_b)), P_b the per-block phasor, C_b and S_b the products
    per_block = phasors(t0, _BLOCK * dt, products.shape[0])
    return np.sum(per_block * products.view(complex), axis=0).conj()


def _dirichlet_sum(n: int, dt: float, t_mid: float, omega: float, phase: float) -> float:
    """sum_k cos(omega t_k - phase) over the uniform grid of n samples at
    spacing dt centred on t_mid, in closed form:
    sin(n omega dt / 2) / sin(omega dt / 2) * cos(omega t_mid - phase)."""
    half = 0.5 * omega * dt
    return math.sin(n * half) / math.sin(half) * math.cos(omega * t_mid - phase)


def triplet_statistic(
    baseband: TimeSeries,
    eph: EphemerisConstants,
    psi_daily: float,
    psi_annual: float,
) -> TripletResult:
    """Heterodyned powers X = |sum y exp(-i Omega t)|^2 at the three
    target frequencies, plus an annual-depth estimate.

    Every line is Os + d for a small offset d (0 and +/-Oa for the
    triplet, multiples of the comb spacing for the noise floor).  The
    eleven sums L(d) are real matrix products of the record's blocks
    with the in-block cosines and sines of each line, the frequency
    carried in those and in the per-block phases (see _line_sums), and
    equal the direct sums to rounding.  Nothing else touches the record.

    The depth comes from a least-squares fit of the two-template model

        y ~ a * c + b * c * e,  c = cos(Os t - psi_daily),  e = cos(Oa t - psi_annual)

    with both phases fixed by the ephemeris, so the sidebands accumulate
    coherently and the estimate works on records far shorter than a
    year.  The estimate b/a is clipped at zero.  The fit solves the 2x2
    normal equations.  Their right-hand side is read off the line sums,

        sum y c = Re(exp(i psi_d) L(0)),
        sum y c e = Re(exp(i (psi_d + psi_a)) L(+Oa) + exp(i (psi_d - psi_a)) L(-Oa)) / 2,

    and their Gram matrix is exact in closed form on the uniform grid,
    from sum_k cos(W t_k - psi) = sin(n W dt/2) / sin(W dt/2) cos(W t_mid - psi)
    at W = 2 Os, Oa, 2 Oa, 2 Os +/- Oa and 2 Os +/- 2 Oa.

    A complex record raises ValueError, as in periodogram.

    Raises ValueError when dt exceeds a tenth of a sidereal day (the
    sampling rule of synthesis, geometry.check_daily_sampling), which
    also keeps every sin(W dt/2) above sin(Oa dt/2) > 0, and when the
    templates are collinear to rounding: 1 - G_ab^2 / (G_aa G_bb) below
    1e-12, as on a record of a few samples.  On the records synthesis
    accepts (two sidereal days or more) that figure stays above 1e-9,
    its low point being a two-day record at the coarsest dt whose
    envelope is at a turning point, where it is about (Oa T)^4 / 720
    for T = (n - 1) dt.

    The closed-form terms carry an absolute rounding error of order
    eps Os t n, where a dense solve's error is relative to each sample's
    term; on a short record whose envelope template is small (near an
    envelope node) epsilon_hat therefore keeps fewer digits, about ten
    on a two-day record of 77 samples.

    Internal noise figures compare the triplet powers against the mean
    demodulated power on a comb of off-target frequencies.
    """
    y = baseband.samples
    if np.iscomplexobj(y):
        raise ValueError("triplet_statistic expects a real record")
    check_daily_sampling(baseband.dt)
    n, t0, dt = y.size, baseband.t0, baseband.dt

    om_s, om_a = eph.omega_sidereal, eph.omega_annual
    omega_plus, omega_minus = om_s + om_a, om_s - om_a

    # noise floor from a comb of off-target frequencies, spaced by the
    # larger of the annual rate and the record's own resolution; the
    # sqrt(2) puts the figures in the matched-filter amplitude convention
    span = (t0 + dt * (n - 1)) - t0  # t[-1] - t[0] of the grid
    base = max(om_a, 2.0 * math.pi / span)
    comb = [k * base for k in (-7, -5, -4, -3, 3, 4, 5, 7)]
    lines = _line_sums(t0, dt, y, om_s, [0.0, om_a, -om_a, *comb])
    power = np.abs(lines) ** 2
    x_star, x_plus, x_minus = power[:3]
    floor = max(np.mean(power[3:]), 1e-300)
    snr_star = math.sqrt(2.0 * x_star / floor)
    snr_pm = math.sqrt(x_plus + x_minus) / math.sqrt(floor)

    pd, pa = psi_daily, psi_annual
    r_a = (cmath.exp(1j * pd) * lines[0]).real
    r_b = 0.5 * (cmath.exp(1j * (pd + pa)) * lines[1] + cmath.exp(1j * (pd - pa)) * lines[2]).real

    dirichlet = functools.partial(_dirichlet_sum, n, dt, t0 + 0.5 * (n - 1) * dt)
    # with theta_d = Os t - psi_daily and theta_a = Oa t - psi_annual,
    # c^2 = (1 + cos 2 theta_d) / 2 and e^2 = (1 + cos 2 theta_a) / 2
    g_aa = 0.5 * (n + dirichlet(2.0 * om_s, 2.0 * pd))
    g_ab = 0.5 * dirichlet(om_a, pa) + 0.25 * (
        dirichlet(2.0 * om_s + om_a, 2.0 * pd + pa) + dirichlet(2.0 * om_s - om_a, 2.0 * pd - pa)
    )
    g_bb = 0.25 * (
        n
        + dirichlet(2.0 * om_s, 2.0 * pd)
        + dirichlet(2.0 * om_a, 2.0 * pa)
        + 0.5 * (
            dirichlet(2.0 * (om_s + om_a), 2.0 * (pd + pa))
            + dirichlet(2.0 * (om_s - om_a), 2.0 * (pd - pa))
        )
    )
    separation = 1.0 - g_ab * g_ab / (g_aa * g_bb)
    if not separation >= 1e-12:
        raise ValueError(
            f"carrier and envelope templates are collinear on this {n}-sample record "
            f"(1 - rho^2 = {separation:.3g} < 1e-12); the depth is not identifiable"
        )
    # a and b of the normal-equation solution times its determinant, which cancels in b/a
    a = g_bb * r_a - g_ab * r_b
    b = g_aa * r_b - g_ab * r_a
    epsilon_hat = b / a if a != 0.0 else 0.0
    epsilon_hat = max(0.0, float(epsilon_hat))

    return TripletResult(
        x_star=float(x_star),
        x_plus=float(x_plus),
        x_minus=float(x_minus),
        f_star=om_s / (2.0 * math.pi),
        f_plus=omega_plus / (2.0 * math.pi),
        f_minus=omega_minus / (2.0 * math.pi),
        epsilon_hat=epsilon_hat,
        snr_star=snr_star,
        snr_pm=snr_pm,
    )
