"""Experiment harness: configs, deterministic seed fan-out, CSV/JSON output.

Every experiment is a pure function of (config, master seed).  Trial
seeds are the first ``trials`` raw words of the Philox stream
(master_seed, stream=STREAM_TRIALS); per-trial sub-seeds for the
transform stages come from dedicated streams of the trial seed.  Rows are
merged in trial order regardless of worker count, so output files are
byte-identical for a fixed config.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import hashlib
import json
import math
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, require_integer
from .estimators import MampConfig, run_cd_mamp
from .ibs import BASES, VARIANTS, IbsSpec, build_ibs_transform, relative_complexity
from .rng import _MASK64, generator, raw_words
from .scenarios import (BernoulliGaussianPrior, QpskPrior, STREAM_SOURCE, ber_qpsk,
                        check_multipath_channel, check_sensing_diagonal,
                        gen_multipath_channel, gen_sensing_diagonal, mse_db, observe,
                        simulate_observation, unit_noise)

SCHEMA_VERSION = 1

STREAM_TRIALS = 10
STREAM_BLOCK_SEEDS = 11
STREAM_WHOLE_SEED = 12

# Float fields that may be +inf: an infinite SNR means a noiseless observation.
_NOISELESS_FIELDS = ("snr_db", "snr_db_list")

TRAJECTORY_COLUMNS = ("variant", "base", "trial_seed", "t", "mse", "mse_db",
                      "v_gamma", "v_phi", "flags")
CS_SUMMARY_COLUMNS = ("variant", "base", "trials", "mean_final_mse",
                      "mean_final_mse_db", "ci95_half_width", "stop_reasons")
BER_COLUMNS = ("scheme", "base", "n_s", "snr_db", "trial", "trial_seed", "ber", "symbols")
BER_SUMMARY_COLUMNS = ("scheme", "base", "n_s", "snr_db", "trials", "mean_ber", "symbols")
COMPLEXITY_COLUMNS = ("n", "n_s", "transform_pct", "overall_pct")


def derive_trial_seeds(master_seed: int, trials: int) -> list[int]:
    return [int(w) for w in raw_words(master_seed, trials, stream=STREAM_TRIALS)]


def derive_subseed(seed: int, stream: int) -> int:
    return int(raw_words(seed, 1, stream=stream)[0])


def _check_keys(data: dict, cls) -> None:
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown config keys for {cls.__name__}: {sorted(unknown)}")


def _check_integer_fields(cfg) -> None:
    """Refuse floats and bools in the fields annotated as integers, such as
    n = 1024.0 from a JSON config, before they reach numpy.  The annotations
    are strings here (``from __future__ import annotations``)."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "tuple[int, ...]":
            for x in value:
                require_integer(f.name, x)
        elif f.type == "int" or (f.type == "int | None" and value is not None):
            require_integer(f.name, value)


def _check_float_fields(cfg) -> None:
    """Refuse non-numbers, NaN and infinities in the fields annotated as
    floats, such as a NaN SNR from a JSON config, before they reach a trial.
    An SNR may be +inf."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "tuple[float, ...]":
            values = value
        elif f.type == "float" or (f.type == "float | None" and value is not None):
            values = (value,)
        else:
            continue
        for x in values:
            if isinstance(x, bool) or not isinstance(x, Real):
                raise ConfigurationError(f"{f.name} must be a number, got {x!r}")
            if f.name in _NOISELESS_FIELDS:
                if math.isnan(x) or x == -math.inf:
                    raise ConfigurationError(
                        f"{f.name} must be finite or +inf (noiseless), got {x!r}")
            elif not math.isfinite(x):
                raise ConfigurationError(f"{f.name} must be finite, got {x!r}")


def _check_list_fields(cfg) -> None:
    """Refuse empty lists, which would write header-only CSVs, and repeated
    entries, which would write every row of that entry twice."""
    for f in dataclasses.fields(cfg):
        if f.type.startswith("tuple["):
            values = getattr(cfg, f.name)
            if not values:
                raise ConfigurationError(f"{f.name} must be non-empty")
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{f.name} must be distinct, got {list(values)!r}")


def _check_run_fields(cfg) -> None:
    """Refuse trial and worker counts below one, and a master seed outside
    [0, 2**64), the generator's key range, when the config is loaded rather
    than inside a trial."""
    if cfg.trials < 1 or cfg.threads < 1:
        raise ConfigurationError("trials and threads must be >= 1")
    if not 0 <= cfg.seed <= _MASK64:
        raise ConfigurationError(f"seed must be in [0, 2**64), got {cfg.seed}")


def _check_estimator_fields(cfg) -> None:
    """Refuse, when the config is loaded, the estimator settings that
    MampConfig would refuse inside a trial."""
    try:
        cfg.mamp
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def _from_dict(cls, data: dict, overrides: dict | None = None):
    _check_keys(data, cls)
    merged = dict(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    try:
        return cls(**merged)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc


@dataclass(frozen=True)
class CsMseConfig:
    """Compressed-sensing MSE experiment over the transform variant family,
    on a Bernoulli-Gaussian source."""

    seed: int = 1
    trials: int = 4
    threads: int = 1
    n: int = 8192
    n_s: int = 256
    m: int | None = None            # default n // 2
    kappa: float = 10.0
    snr_db: float = 30.0
    rho: float = 0.1
    sigma_s2: float | None = None   # default 1 / rho (unit power)
    base: str = "FFT"
    variants: tuple[str, ...] = ("full", "BS", "W_IBS", "B_IBS", "BW_IBS")
    max_iters: int = 600
    damping_window: int = 5

    def __post_init__(self):
        _check_integer_fields(self)
        _check_float_fields(self)
        _check_run_fields(self)
        for v in self.variants:     # the specs below would not list "full"
            if v != "full" and v not in VARIANTS:
                raise ConfigurationError(f"unknown variant {v!r}")
        _check_list_fields(self)
        _check_estimator_fields(self)
        # A trial's own checks, run here so that they fail before any trial:
        # they build no transform and draw nothing.  The transform specs
        # refuse an unknown base.
        check_sensing_diagonal(self.rows, self.n, self.kappa)
        BernoulliGaussianPrior(self.rho, self.sigma_s2)
        for variant in self.variants:
            _cs_transform_spec(self, variant)
        object.__setattr__(self, "variants", tuple(self.variants))

    @property
    def mamp(self) -> MampConfig:
        return MampConfig(max_iters=self.max_iters, damping_window=self.damping_window)

    @property
    def rows(self) -> int:
        return self.n // 2 if self.m is None else self.m


@dataclass(frozen=True)
class IfdmBerConfig:
    """Multicarrier QPSK BER sweep: full transform vs block-sparse schemes."""

    seed: int = 1
    trials: int = 8
    threads: int = 1
    n: int = 1024
    taps: int = 4
    doppler_spread: float = 0.0
    snr_db_list: tuple[float, ...] = (6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
    n_s_list: tuple[int, ...] = (128, 32)
    bases: tuple[str, ...] = ("FFT", "FWHT")
    include_full: bool = True
    variant: str = "BW_IBS"
    max_iters: int = 32
    damping_window: int = 3

    def __post_init__(self):
        _check_integer_fields(self)
        _check_float_fields(self)
        _check_run_fields(self)
        for b in self.bases:
            if b not in BASES:     # before _ber_schemes reads b.lower()
                raise ConfigurationError(f"unknown base {b!r}")
        # A truthy string such as "no" would silently run the full scheme.
        if not isinstance(self.include_full, bool):
            raise ConfigurationError(
                f"include_full must be true or false, got {self.include_full!r}")
        _check_list_fields(self)
        _check_estimator_fields(self)
        # As in CsMseConfig: a trial's own checks, before any trial.
        check_multipath_channel(self.n, self.taps, self.doppler_spread)
        for scheme, base, n_s in _ber_schemes(self):
            _ber_transform_spec(self, scheme, base, n_s)
        object.__setattr__(self, "snr_db_list", tuple(float(x) for x in self.snr_db_list))
        object.__setattr__(self, "n_s_list", tuple(int(x) for x in self.n_s_list))
        object.__setattr__(self, "bases", tuple(self.bases))

    @property
    def mamp(self) -> MampConfig:
        return MampConfig(max_iters=self.max_iters, damping_window=self.damping_window)


@dataclass(frozen=True)
class ComplexityConfig:
    """Relative per-iteration cost table for block sizes under one n."""

    n: int = 4096
    n_s_list: tuple[int, ...] = (4096, 128, 32, 8, 4)
    taps: int = 8

    def __post_init__(self):
        _check_integer_fields(self)
        _check_list_fields(self)
        for n_s in self.n_s_list:
            relative_complexity(self.n, n_s, self.taps)
        object.__setattr__(self, "n_s_list", tuple(int(x) for x in self.n_s_list))


CONFIG_TYPES = {
    "cs-mse": CsMseConfig,
    "ifdm-ber": IfdmBerConfig,
    "complexity": ComplexityConfig,
}


def load_config(experiment: str, path: str | None, overrides: dict | None = None):
    if experiment not in CONFIG_TYPES:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    data = {}
    if path is not None:
        try:
            raw = Path(path).read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"config {path} must hold a JSON object")
        data = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    return _from_dict(CONFIG_TYPES[experiment], data, overrides)


def config_hash(cfg) -> str:
    canon = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _cs_transform_spec(cfg: CsMseConfig, variant: str, block_seed_base: int = 0,
                       whole_seed: int = 0) -> IbsSpec:
    n_s = cfg.n if variant == "full" else cfg.n_s
    real_variant = "BW_IBS" if variant == "full" else variant
    return IbsSpec(n=cfg.n, n_s=n_s, m=cfg.rows, variant=real_variant, base=cfg.base,
                   direction="kernel", block_seed_base=block_seed_base, whole_seed=whole_seed)


def _cs_trial(cfg: CsMseConfig, trial_seed: int) -> tuple[list[tuple], dict[str, str]]:
    """Trajectory rows of one trial, and each variant's stop reason."""
    prior = BernoulliGaussianPrior(cfg.rho, cfg.sigma_s2)
    A = gen_sensing_diagonal(cfg.rows, cfg.n, cfg.kappa)
    s = prior.sample(cfg.n, generator(trial_seed, STREAM_SOURCE))
    seeds = (derive_subseed(trial_seed, STREAM_BLOCK_SEEDS),
             derive_subseed(trial_seed, STREAM_WHOLE_SEED))
    mamp = cfg.mamp
    rows, stops = [], {}
    for variant in cfg.variants:
        Xi = build_ibs_transform(_cs_transform_spec(cfg, variant, *seeds))
        instance = simulate_observation(A, Xi, s, cfg.snr_db, trial_seed)
        run = run_cd_mamp(instance, Xi, prior, mamp)
        for pt in run.points:
            rows.append((variant, cfg.base, trial_seed, pt.t, float(pt.mse),
                         float(pt.mse_db), float(pt.v_gamma), float(pt.v_phi), pt.flags))
        stops[variant] = run.stop_reason
    return rows, stops


def run_cs_mse(cfg: CsMseConfig) -> tuple[list[tuple], list[tuple]]:
    """All trajectory rows plus per-variant summary rows.  A summary row
    lists the stop reason of each trial, in trial order, joined by "|"."""
    seeds = derive_trial_seeds(cfg.seed, cfg.trials)
    per_trial = _map_trials(_cs_trial, cfg, seeds)
    rows = [row for trial_rows, _ in per_trial for row in trial_rows]
    summary = []
    for variant in cfg.variants:
        finals = []
        for trial_rows, _ in per_trial:
            variant_rows = [r for r in trial_rows if r[0] == variant]
            finals.append(variant_rows[-1][4])
        mean_mse = float(np.mean(finals))
        # Normal-approximation 95% half-width; zero when a single trial
        # leaves no spread to estimate.
        if cfg.trials > 1:
            half = float(1.96 * np.std(finals, ddof=1) / np.sqrt(cfg.trials))
        else:
            half = 0.0
        stops = "|".join(trial_stops[variant] for _, trial_stops in per_trial)
        summary.append((variant, cfg.base, cfg.trials, mean_mse, mse_db(mean_mse), half, stops))
    return rows, summary


def _ber_schemes(cfg: IfdmBerConfig) -> list[tuple[str, str, int]]:
    schemes = []
    if cfg.include_full:
        schemes.append(("full", "FFT", cfg.n))
    for base in cfg.bases:
        for n_s in cfg.n_s_list:
            schemes.append((f"ibs-{base.lower()}-{n_s}", base, n_s))
    return schemes


def _ber_transform_spec(cfg: IfdmBerConfig, scheme: str, base: str, n_s: int,
                        block_seed_base: int = 0, whole_seed: int = 0) -> IbsSpec:
    variant = "W_IBS" if scheme == "full" else cfg.variant
    return IbsSpec(n=cfg.n, n_s=n_s, m=cfg.n, variant=variant, base=base,
                   direction="kernel-adjoint", block_seed_base=block_seed_base,
                   whole_seed=whole_seed)


def _ber_trial(cfg: IfdmBerConfig, trial_seed: int) -> list[tuple]:
    prior = QpskPrior()
    rows = []
    A = gen_multipath_channel(cfg.n, cfg.taps, cfg.doppler_spread, trial_seed)
    s = prior.sample(cfg.n, generator(trial_seed, STREAM_SOURCE))
    noise = unit_noise(A.rows, trial_seed)
    seeds = (derive_subseed(trial_seed, STREAM_BLOCK_SEEDS),
             derive_subseed(trial_seed, STREAM_WHOLE_SEED))
    mamp = cfg.mamp
    # The schemes share their seeds, so each permutation is drawn once.
    perms = {}
    transforms, images = {}, {}
    for scheme, base, n_s in _ber_schemes(cfg):
        spec = _ber_transform_spec(cfg, scheme, base, n_s, *seeds)
        Xi = transforms[scheme] = build_ibs_transform(spec, perms)
        images[scheme] = A.apply(Xi.apply(s))
    for snr_db in cfg.snr_db_list:
        for scheme, base, n_s in _ber_schemes(cfg):
            Xi = transforms[scheme]
            instance = observe(A, Xi, s, images[scheme], noise, snr_db)
            run = run_cd_mamp(instance, Xi, prior, mamp)
            rows.append((scheme, base, n_s, float(snr_db), trial_seed,
                         float(ber_qpsk(run.s_hat, s)), cfg.n))
    return rows


def run_ifdm_ber(cfg: IfdmBerConfig) -> tuple[list[tuple], list[tuple]]:
    """Per-trial BER rows plus per-(scheme, snr) summary rows."""
    seeds = derive_trial_seeds(cfg.seed, cfg.trials)
    per_trial = _map_trials(_ber_trial, cfg, seeds)
    rows = []
    for trial, trial_rows in enumerate(per_trial):
        for scheme, base, n_s, snr_db, trial_seed, ber, symbols in trial_rows:
            rows.append((scheme, base, n_s, snr_db, trial, trial_seed, ber, symbols))
    summary = []
    for scheme, base, n_s in _ber_schemes(cfg):
        for snr_db in cfg.snr_db_list:
            matching = [r[6] for r in rows if r[0] == scheme and r[3] == snr_db]
            summary.append((scheme, base, n_s, snr_db, cfg.trials,
                            float(np.mean(matching)), cfg.n * cfg.trials))
    return rows, summary


def run_complexity_table(cfg: ComplexityConfig) -> list[tuple]:
    rows = []
    for n_s in cfg.n_s_list:
        transform_ratio, overall_ratio = relative_complexity(cfg.n, n_s, cfg.taps)
        rows.append((cfg.n, n_s, float(100.0 * transform_ratio),
                     float(100.0 * overall_ratio)))
    return rows


def _one_blas_thread() -> None:
    """Set the loaded OpenBLAS, if one is found, to one thread.

    Each trial worker runs this first: ``threads`` workers that each keep
    OpenBLAS's default thread count oversubscribe the cores, and at these
    sizes a second BLAS thread does not help even in one process.  The
    library is found among the mapped files of the process, as built by
    numpy's wheels or by a distribution; without one this does nothing.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            if hasattr(handle, symbol):
                setter = getattr(handle, symbol)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


def _map_trials(fn, cfg, seeds: list[int]) -> list[list[tuple]]:
    if cfg.threads <= 1 or len(seeds) <= 1:
        return [fn(cfg, seed) for seed in seeds]
    with ProcessPoolExecutor(max_workers=cfg.threads, initializer=_one_blas_thread) as pool:
        futures = [pool.submit(fn, cfg, seed) for seed in seeds]
        return [f.result() for f in futures]


def write_csv(path: Path, columns: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def write_sidecar(path: Path, experiment: str, cfg) -> None:
    meta = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "config": dataclasses.asdict(cfg),
        "config_hash": config_hash(cfg),
        "seed_derivation": "philox trial stream %d; block/whole sub-streams %d/%d"
                           % (STREAM_TRIALS, STREAM_BLOCK_SEEDS, STREAM_WHOLE_SEED),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "package": sys.modules["ibsmamp"].__version__,
        },
    }
    path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def run_experiment(experiment: str, cfg, out_dir: str | Path) -> list[Path]:
    """Run one experiment and write its CSV outputs plus a JSON sidecar."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:      # a file at that path, or on the way to it
        raise ConfigurationError(f"cannot make output directory {out}: {exc.strerror}") from exc
    written = []
    if experiment == "cs-mse":
        rows, summary = run_cs_mse(cfg)
        written.append(out / "cs_mse_trajectories.csv")
        write_csv(written[-1], TRAJECTORY_COLUMNS, rows)
        written.append(out / "cs_mse_summary.csv")
        write_csv(written[-1], CS_SUMMARY_COLUMNS, summary)
    elif experiment == "ifdm-ber":
        rows, summary = run_ifdm_ber(cfg)
        written.append(out / "ifdm_ber.csv")
        write_csv(written[-1], BER_COLUMNS, rows)
        written.append(out / "ifdm_ber_summary.csv")
        write_csv(written[-1], BER_SUMMARY_COLUMNS, summary)
    elif experiment == "complexity":
        rows = run_complexity_table(cfg)
        written.append(out / "complexity.csv")
        write_csv(written[-1], COMPLEXITY_COLUMNS, rows)
    else:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    sidecar = out / f"{experiment.replace('-', '_')}_meta.json"
    write_sidecar(sidecar, experiment, cfg)
    written.append(sidecar)
    return written
