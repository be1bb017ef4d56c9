"""Measurement scenarios: sensing diagonals, multipath channels, sources.

A scenario supplies the measurement operator A, the source prior, and the
observation y = A Xi s + noise.  Two families are covered:

* compressed sensing: A is a square diagonal of geometrically decaying
  singulars with condition control kappa;
* multicarrier transmission: A is a p-tap cyclic multipath channel,
  circulant when static, and banded-with-phase-drift when a Doppler
  spread is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .operators import DiagonalOperator, LinearOperator, _freeze
from .rng import generator

# Per-trial stream tags: one Philox seed, disjoint streams per role.
STREAM_CHANNEL = 1
STREAM_SOURCE = 2
STREAM_NOISE = 3
STREAM_DOPPLER = 4

_DOPPLER_SINUSOIDS = 8


def doppler_preset_4ghz_100kmh_15khz() -> float:
    """Phase excursion (radians per block) for a 4 GHz carrier at 100 km/h
    with 15 kHz subcarrier spacing: 2 pi * (v f_c / c) / delta_f."""
    v = 100.0e3 / 3600.0
    f_c = 4.0e9
    c = 299792458.0
    delta_f = 15.0e3
    return 2.0 * np.pi * (v * f_c / c) / delta_f


def check_sensing_diagonal(m: int, n: int, kappa: float) -> None:
    """Refuse the arguments that ``gen_sensing_diagonal`` cannot build from."""
    if m < 1 or n < m:
        raise ConfigurationError(f"need 1 <= m <= n, got m={m}, n={n}")
    if kappa < 1.0:
        raise ConfigurationError(f"kappa must be >= 1, got {kappa}")


def gen_sensing_diagonal(m: int, n: int, kappa: float) -> DiagonalOperator:
    """Geometric singular-value profile: alpha_i / alpha_{i+1} = kappa**(1/m),
    scaled so that sum(alpha**2) = n."""
    check_sensing_diagonal(m, n, kappa)
    decay = kappa ** (-np.arange(m) / m)
    return DiagonalOperator(decay * np.sqrt(n / np.sum(decay * decay)))


class CirculantOperator(LinearOperator):
    """Static cyclic multipath channel: (A x)[i] = sum_k g_k x[(i - d_k) mod n].

    Diagonalized by the DFT; ``freq_response`` holds the eigenvalues of A,
    so AA^H has eigenvalues |freq_response|**2 exactly.  Both applies run
    ``_tap_sum``: the forward adds ``g_k * x`` shifted by d_k, the adjoint
    adds ``conj(g_k) * x`` shifted by -d_k, tap by tap in the order of
    ``delays``.
    """

    __slots__ = ("delays", "gains", "freq_response", "taps_per_row")

    def __init__(self, n: int, delays: np.ndarray, gains: np.ndarray):
        delays = np.array(delays, dtype=np.int64)
        gains = np.array(gains, dtype=np.complex128)
        _check_taps(n, delays, gains)
        kernel = np.zeros(n, dtype=np.complex128)
        kernel[delays] = gains
        freq = np.fft.fft(kernel)
        for arr in (delays, gains, freq):
            arr.setflags(write=False)
        fwd = _taps(n, delays, gains)
        adj = _taps(n, -delays, np.conj(gains))
        super().__init__(n, n, lambda v: _tap_sum(v, fwd), lambda v: _tap_sum(v, adj))
        _freeze(self, delays=delays, gains=gains, freq_response=freq,
                taps_per_row=int(delays.size))

    def solve_shifted(self, v_scale: float, sigma2: float, z: np.ndarray) -> np.ndarray:
        """(v_scale * A A^H + sigma2 I)^{-1} z via the DFT eigenbasis."""
        gain = v_scale * np.abs(self.freq_response) ** 2 + sigma2
        return np.fft.ifft(np.fft.fft(z) / gain)


class TimeVaryingChannelOperator(LinearOperator):
    """Cyclic multipath channel whose tap gains drift per output sample:
    (A x)[i] = sum_k track_k[i] x[(i - d_k) mod n].

    Runs the same ``_tap_sum`` as the static channel with vector gains: the
    forward adds ``roll(track_k, -d_k) * x`` shifted by d_k, which puts
    ``track_k[i] * x[i - d_k]`` in slot i; the adjoint adds
    ``conj(track_k) * x`` shifted by -d_k.

    ``dense_gram`` writes A A^H straight from the taps: with p taps it has
    at most p(p-1) + 1 nonzero cyclic diagonals, so it costs O(n p^2)
    rather than n applies and an n^3 product.
    """

    __slots__ = ("delays", "gain_tracks", "taps_per_row")

    def __init__(self, n: int, delays: np.ndarray, gain_tracks: np.ndarray):
        delays = np.array(delays, dtype=np.int64)
        gain_tracks = np.array(gain_tracks, dtype=np.complex128)
        if gain_tracks.shape != (delays.size, n):
            raise ConfigurationError(
                f"gain tracks must have shape ({delays.size}, {n}), got {gain_tracks.shape}")
        _check_taps(n, delays, gain_tracks[:, 0])
        for arr in (delays, gain_tracks):
            arr.setflags(write=False)
        fwd = _taps(n, delays, [np.roll(t, -d) for d, t in zip(delays, gain_tracks)])
        adj = _taps(n, -delays, np.conj(gain_tracks))
        super().__init__(n, n, lambda v: _tap_sum(v, fwd), lambda v: _tap_sum(v, adj))
        _freeze(self, delays=delays, gain_tracks=gain_tracks, taps_per_row=int(delays.size))

    def dense_gram(self) -> np.ndarray:
        """Dense A A^H from the taps.

        Row i of A holds track_k[i] at column i - d_k, so tap pair (k, l)
        adds track_k[i] * conj(track_l[j]) to G[i, j] at j = i + d_l - d_k
        (mod n).  One pair writes each row once; the pairs are summed in
        order.  Equals the dense product up to rounding.
        """
        n = self.rows
        gram = np.zeros((n, n), dtype=np.complex128)
        rows = np.arange(n)
        delays = self.delays.tolist()
        conj_tracks = np.conj(self.gain_tracks)
        for d_k, track_k in zip(delays, self.gain_tracks):
            for d_l, conj_l in zip(delays, conj_tracks):
                cols = (rows + (d_l - d_k)) % n
                gram[rows, cols] += track_k * conj_l[cols]
        return gram


def _taps(n, shifts, gains) -> tuple:
    """(shift mod n, gain) pairs for ``_tap_sum``, shifts as Python ints."""
    return tuple((int(s) % n, g) for s, g in zip(shifts, gains))


def _tap_sum(v, taps):
    """sum over taps of np.roll(g * v, s), without the rolled copies.

    Each tap adds the two pieces of its product into the two slices of the
    output they land on, so every output entry receives the same products
    in the same tap order as the rolled sum: the result is bit-identical.
    A tap of shift 0 lands on the whole output and has no wrapped piece.
    """
    n = v.shape[0]
    out = np.zeros(n, dtype=np.complex128)
    for s, g in taps:
        w = g * v
        out[s:] += w[:n - s]
        if s:
            out[:s] += w[n - s:]
    return out


def _check_taps(n, delays, gains):
    if delays.ndim != 1 or delays.size == 0:
        raise ConfigurationError("channel needs at least one tap")
    if np.unique(delays).size != delays.size:
        raise ConfigurationError("tap delays must be distinct")
    if delays.min() < 0 or delays.max() >= n:
        raise ConfigurationError(f"tap delays must lie in [0, {n})")
    if gains.shape != delays.shape:
        raise ConfigurationError("need one gain per delay")
    if np.any(np.abs(gains) == 0):
        raise ConfigurationError("tap gains must be non-zero")


def check_multipath_channel(n: int, p: int, doppler_spread: float) -> None:
    """Refuse the arguments that ``gen_multipath_channel`` cannot draw from."""
    if not 1 <= p <= n:
        raise ConfigurationError(f"need 1 <= p <= n, got p={p}, n={n}")
    if doppler_spread < 0:
        raise ConfigurationError(f"doppler_spread must be >= 0, got {doppler_spread}")


def gen_multipath_channel(n: int, p: int, doppler_spread: float = 0.0,
                          seed: int = 0) -> CirculantOperator | TimeVaryingChannelOperator:
    """Draw a p-tap channel: delay 0 plus p-1 distinct random delays,
    i.i.d. complex Gaussian gains normalized to unit total power.  It is
    circulant without a Doppler spread; with one, each tap's phase drifts
    by at most doppler_spread along sinusoids drawn from STREAM_DOPPLER."""
    check_multipath_channel(n, p, doppler_spread)
    rng = generator(seed, STREAM_CHANNEL)
    if p > 1:
        extra = rng.choice(n - 1, size=p - 1, replace=False) + 1
        delays = np.concatenate([[0], np.sort(extra)]).astype(np.int64)
    else:
        delays = np.zeros(1, dtype=np.int64)
    gains = rng.normal(size=p) + 1j * rng.normal(size=p)
    gains /= np.linalg.norm(gains)
    if doppler_spread == 0.0:
        return CirculantOperator(n, delays, gains)
    rng = generator(seed, STREAM_DOPPLER)
    i = np.arange(n)
    freqs = rng.uniform(0.25, 1.0, size=(p, _DOPPLER_SINUSOIDS))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(p, _DOPPLER_SINUSOIDS))
    drift = doppler_spread * np.mean(
        np.sin(2.0 * np.pi * freqs[:, :, None] * i[None, None, :] / n
               + phases[:, :, None]), axis=1)
    return TimeVaryingChannelOperator(n, delays, gains[:, None] * np.exp(1j * drift))


class BernoulliGaussianPrior:
    """Sparse source: each entry is CN(0, sigma_s2) w.p. rho, else zero.

    The default keeps unit per-entry power (rho * sigma_s2 = 1).
    """

    def __init__(self, rho: float = 0.1, sigma_s2: float | None = None):
        if not 0.0 < rho <= 1.0:
            raise ConfigurationError(f"rho must lie in (0, 1], got {rho}")
        if sigma_s2 is None:
            sigma_s2 = 1.0 / rho
        if sigma_s2 <= 0:
            raise ConfigurationError(f"sigma_s2 must be positive, got {sigma_s2}")
        self.rho = float(rho)
        self.sigma_s2 = float(sigma_s2)

    @property
    def power(self) -> float:
        return self.rho * self.sigma_s2

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        mask = rng.random(n) < self.rho
        vals = (rng.normal(size=n) + 1j * rng.normal(size=n)) * np.sqrt(self.sigma_s2 / 2.0)
        return np.where(mask, vals, 0.0).astype(np.complex128)

    def denoise(self, r: np.ndarray, v: float | np.ndarray):
        from .denoisers import denoise_bernoulli_gaussian
        return denoise_bernoulli_gaussian(r, v, self.rho, self.sigma_s2)

    def __repr__(self):
        return f"BernoulliGaussianPrior(rho={self.rho}, sigma_s2={self.sigma_s2})"


class QpskPrior:
    """Unit-power QPSK: entries uniform over (+-1 +-1j)/sqrt(2), Gray mapped."""

    @property
    def power(self) -> float:
        return 1.0

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        bits = rng.integers(0, 2, size=(2, n))
        return ((2.0 * bits[0] - 1.0) + 1j * (2.0 * bits[1] - 1.0)) / np.sqrt(2.0)

    def denoise(self, r: np.ndarray, v: float | np.ndarray):
        from .denoisers import denoise_qpsk
        return denoise_qpsk(r, v)

    def __repr__(self):
        return "QpskPrior()"


@dataclass(frozen=True)
class SystemInstance:
    """One simulated observation y = A Xi s + noise with its ground truth."""

    A: LinearOperator
    Xi: LinearOperator
    s_true: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    noise_var: float


def simulate_observation(A: LinearOperator, Xi: LinearOperator, s: np.ndarray,
                         snr_db: float | None, seed: int) -> SystemInstance:
    """Push s through Xi and A and add circular complex noise at the given SNR.

    snr_db = None means noiseless.  The noise draw depends only on
    (seed, STREAM_NOISE), so a fixed seed reproduces y bit-for-bit.
    """
    if A.cols != Xi.rows:
        raise ValueError(f"A expects length {A.cols}, transform produces {Xi.rows}")
    if s.shape[0] != Xi.cols:
        raise ValueError(f"source length {s.shape[0]} != transform cols {Xi.cols}")
    return observe(A, Xi, s, A.apply(Xi.apply(s)), unit_noise(A.rows, seed), snr_db)


def unit_noise(m: int, seed: int) -> np.ndarray:
    """The 2m standard normals of (seed, STREAM_NOISE) as re + 1j im: the
    noise of every observation with this seed, before scaling to its SNR."""
    rng = generator(seed, STREAM_NOISE)
    return rng.normal(size=m) + 1j * rng.normal(size=m)


def observe(A: LinearOperator, Xi: LinearOperator, s: np.ndarray, image: np.ndarray,
            noise: np.ndarray, snr_db: float | None) -> SystemInstance:
    """The instance with y = image + noise scaled to the SNR, where image is
    A Xi s and noise is the ``unit_noise`` draw of the observation's seed.

    Sweeping the SNR of one image and one noise draw gives, bit for bit,
    the y of ``simulate_observation`` at every SNR.  snr_db = None or
    infinite means noiseless.
    """
    noise_var = 0.0 if snr_db is None else 10.0 ** (-snr_db / 10.0)
    y = image + noise * np.sqrt(noise_var / 2.0) if noise_var > 0.0 else image.copy()
    return SystemInstance(A=A, Xi=Xi, s_true=np.asarray(s, dtype=np.complex128),
                          y=y, noise_var=noise_var)


def mse(s_hat: np.ndarray, s_true: np.ndarray) -> float:
    """Per-entry mean squared error |s_hat - s_true|^2."""
    if s_hat.shape != s_true.shape:
        raise ValueError(f"shape mismatch: {s_hat.shape} vs {s_true.shape}")
    err = np.abs(s_hat - s_true) ** 2
    # np.mean's sum and division, without its dispatch.
    return float(np.add.reduce(err, axis=None) / err.size)


def mse_db(value: float) -> float:
    return float(10.0 * np.log10(value)) if value > 0.0 else float("-inf")


def ber_qpsk(s_hat: np.ndarray, s_true: np.ndarray) -> float:
    """Bit error rate of component-wise hard decisions (2 bits per symbol)."""
    if s_hat.shape != s_true.shape:
        raise ValueError(f"shape mismatch: {s_hat.shape} vs {s_true.shape}")
    re_err = np.signbit(s_hat.real) != np.signbit(s_true.real)
    im_err = np.signbit(s_hat.imag) != np.signbit(s_true.imag)
    return float((np.count_nonzero(re_err) + np.count_nonzero(im_err)) / (2.0 * s_true.size))
