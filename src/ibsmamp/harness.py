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

from .blas import openblas_function
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

# The SNR fields: +inf means a noiseless observation.
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


def _check_float(name: str, x) -> None:
    """Refuse a non-number, NaN or an infinity, such as a NaN SNR from a JSON
    config.  An SNR may be +inf, and its noise variance may not exceed the
    root of the largest float64, so that two noise energies still multiply
    to a finite number: no SNR below -1541.27 dB."""
    if isinstance(x, bool) or not isinstance(x, Real):
        raise ConfigurationError(f"{name} must be a number, got {x!r}")
    if name in _NOISELESS_FIELDS:
        floor = -5.0 * math.log10(np.finfo(np.float64).max)
        if not x >= floor:
            raise ConfigurationError(f"{name} must be finite or +inf (noiseless), "
                                     f"and at least {floor:.2f} dB, got {x!r}")
    elif not math.isfinite(x):
        raise ConfigurationError(f"{name} must be finite, got {x!r}")


def _check_fields(cfg) -> None:
    """Check every field, and every entry of a list field, against its
    annotation, ``T``, ``T | None`` or ``tuple[T, ...]`` (strings here:
    ``from __future__ import annotations``), and store each list as a tuple
    of T and each float as a float, so that snr_db = 20 from a JSON config
    is the config of snr_db = 20.0, with its hash.  An integer may not be a
    float or a bool, such as n = 1024.0 from a JSON config, and a string
    may not be a number or a list.  A list must be a list, non-empty, which
    refuses header-only CSVs, and of distinct entries, which refuses
    writing every row of an entry twice."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        is_list = f.type.startswith("tuple[")
        kind = f.type.removeprefix("tuple[").removesuffix(", ...]").removesuffix(" | None")
        if is_list and not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{f.name} must be a list, got {value!r}")
        if value is None and f.type.endswith(" | None"):
            continue
        for x in value if is_list else (value,):
            if kind == "int":
                require_integer(f.name, x)
            elif kind == "float":
                _check_float(f.name, x)
            elif kind == "str" and not isinstance(x, str):
                raise ConfigurationError(f"{f.name} must be a string, got {x!r}")
        if is_list:
            if not value:
                raise ConfigurationError(f"{f.name} must be non-empty")
            if len(set(value)) != len(value):
                raise ConfigurationError(f"{f.name} must be distinct, got {list(value)!r}")
            cast = {"int": int, "float": float}.get(kind)
            object.__setattr__(cfg, f.name, tuple(map(cast, value) if cast else value))
        elif kind == "float":
            object.__setattr__(cfg, f.name, float(value))


def _check_run_fields(cfg) -> None:
    """Refuse trial and worker counts below one, a master seed outside
    [0, 2**64), the generator's key range, and the estimator settings that
    MampConfig would refuse inside a trial."""
    if cfg.trials < 1 or cfg.threads < 1:
        raise ConfigurationError("trials and threads must be >= 1")
    if not 0 <= cfg.seed <= _MASK64:
        raise ConfigurationError(f"seed must be in [0, 2**64), got {cfg.seed}")
    cfg.mamp


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
        _check_fields(self)
        _check_run_fields(self)
        for v in self.variants:     # the specs below would not list "full"
            if v != "full" and v not in VARIANTS:
                raise ConfigurationError(f"unknown variant {v!r}")
        # A trial's own checks, run here so that they fail before any trial:
        # they build no transform and draw nothing.  The transform specs
        # refuse an unknown base.
        check_sensing_diagonal(self.rows, self.n, self.kappa)
        BernoulliGaussianPrior(self.rho, self.sigma_s2)
        for variant in self.variants:
            _cs_transform_spec(self, variant)

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
    variant: str = "BW_IBS"
    max_iters: int = 32
    damping_window: int = 3

    def __post_init__(self):
        _check_fields(self)
        _check_run_fields(self)
        for b in self.bases:
            if b not in BASES:     # before _ber_schemes reads b.lower()
                raise ConfigurationError(f"unknown base {b!r}")
        # As in CsMseConfig: a trial's own checks, before any trial.
        check_multipath_channel(self.n, self.taps, self.doppler_spread)
        for scheme, base, n_s in _ber_schemes(self):
            _ber_transform_spec(self, scheme, base, n_s)

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
        _check_fields(self)
        for n_s in self.n_s_list:
            relative_complexity(self.n, n_s, self.taps)


def load_config(experiment: str, path: str | None, overrides: dict | None = None):
    """The config of an experiment: the JSON object at ``path``, if any,
    over the defaults, and each override that is not None over both."""
    if experiment not in CONFIG_TYPES:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    cls = CONFIG_TYPES[experiment]
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
    data.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigurationError(f"unknown config keys for {cls.__name__}: {sorted(unknown)}")
    return cls(**data)


def config_hash(cfg) -> str:
    canon = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _cs_transform_spec(cfg: CsMseConfig, variant: str, block_seed_base: int = 0,
                       whole_seed: int = 0) -> IbsSpec:
    n_s = cfg.n if variant == "full" else cfg.n_s
    real_variant = "BW_IBS" if variant == "full" else variant
    return IbsSpec(n=cfg.n, n_s=n_s, m=cfg.rows, variant=real_variant, base=cfg.base,
                   direction="kernel", block_seed_base=block_seed_base, whole_seed=whole_seed)


def _cs_trial(cfg: CsMseConfig, trial_seed: int
              ) -> tuple[list[tuple], dict[str, tuple[float, str]]]:
    """Trajectory rows of one trial, and each variant's final mse and stop
    reason."""
    prior = BernoulliGaussianPrior(cfg.rho, cfg.sigma_s2)
    A = gen_sensing_diagonal(cfg.rows, cfg.n, cfg.kappa)
    s = prior.sample(cfg.n, generator(trial_seed, STREAM_SOURCE))
    seeds = (derive_subseed(trial_seed, STREAM_BLOCK_SEEDS),
             derive_subseed(trial_seed, STREAM_WHOLE_SEED))
    mamp = cfg.mamp
    # The variants share their seeds, so each permutation is drawn once.
    perms = {}
    rows, finals = [], {}
    for variant in cfg.variants:
        Xi = build_ibs_transform(_cs_transform_spec(cfg, variant, *seeds), perms)
        instance = simulate_observation(A, Xi, s, cfg.snr_db, trial_seed)
        run = run_cd_mamp(instance, Xi, prior, mamp)
        for pt in run.points:
            rows.append((variant, cfg.base, trial_seed, pt.t, float(pt.mse),
                         float(pt.mse_db), float(pt.v_gamma), float(pt.v_phi), pt.flags))
        finals[variant] = run.final_mse, run.stop_reason
    return rows, finals


def run_cs_mse(cfg: CsMseConfig) -> tuple[list[tuple], list[tuple]]:
    """All trajectory rows plus per-variant summary rows.  A summary row
    lists the stop reason of each trial, in trial order, joined by "|"."""
    seeds = derive_trial_seeds(cfg.seed, cfg.trials)
    per_trial = _map_trials(_cs_trial, cfg, seeds)
    rows = [row for trial_rows, _ in per_trial for row in trial_rows]
    summary = []
    for variant in cfg.variants:
        finals = [trial_finals[variant][0] for _, trial_finals in per_trial]
        mean_mse = float(np.mean(finals))
        # Normal-approximation 95% half-width; zero when a single trial
        # leaves no spread to estimate.
        if cfg.trials > 1:
            half = float(1.96 * np.std(finals, ddof=1) / np.sqrt(cfg.trials))
        else:
            half = 0.0
        stops = "|".join(trial_finals[variant][1] for _, trial_finals in per_trial)
        summary.append((variant, cfg.base, cfg.trials, mean_mse, mse_db(mean_mse), half, stops))
    return rows, summary


def _ber_schemes(cfg: IfdmBerConfig) -> list[tuple[str, str, int]]:
    schemes = [("full", "FFT", cfg.n)]
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
    sizes a second BLAS thread does not help even in one process.  Without
    an OpenBLAS (see ``blas``) this does nothing.
    """
    setter = openblas_function("scipy_openblas_set_num_threads64_",
                               "openblas_set_num_threads64_", "openblas_set_num_threads")
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)


def _map_trials(fn, cfg, seeds: list[int]) -> list[list[tuple]]:
    """fn(cfg, seed) of each seed, in seed order, on at most one worker
    process per seed: the pool starts all of its workers up front."""
    workers = min(cfg.threads, len(seeds))
    if workers <= 1:
        return [fn(cfg, seed) for seed in seeds]
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
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


# experiment -> (config type, runner, (file name, columns) of each CSV), the
# runner returning one list of rows per CSV, in that order.
EXPERIMENTS = {
    "cs-mse": (CsMseConfig, run_cs_mse, (("cs_mse_trajectories.csv", TRAJECTORY_COLUMNS),
                                         ("cs_mse_summary.csv", CS_SUMMARY_COLUMNS))),
    "ifdm-ber": (IfdmBerConfig, run_ifdm_ber, (("ifdm_ber.csv", BER_COLUMNS),
                                               ("ifdm_ber_summary.csv", BER_SUMMARY_COLUMNS))),
    "complexity": (ComplexityConfig, lambda cfg: (run_complexity_table(cfg),),
                   (("complexity.csv", COMPLEXITY_COLUMNS),)),
}
CONFIG_TYPES = {experiment: cls for experiment, (cls, _, _) in EXPERIMENTS.items()}


def run_experiment(experiment: str, cfg, out_dir: str | Path) -> list[Path]:
    """Run one experiment and write its CSV outputs plus a JSON sidecar."""
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    _, run, files = EXPERIMENTS[experiment]
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:      # a file at that path, or on the way to it
        raise ConfigurationError(f"cannot make output directory {out}: {exc.strerror}") from exc
    written = []
    for (name, columns), rows in zip(files, run(cfg), strict=True):
        written.append(out / name)
        write_csv(written[-1], columns, rows)
    sidecar = out / f"{experiment.replace('-', '_')}_meta.json"
    write_sidecar(sidecar, experiment, cfg)
    written.append(sidecar)
    return written
