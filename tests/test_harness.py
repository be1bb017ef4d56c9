"""Experiment harness: config parsing, seed fan-out, deterministic files, CLI."""

import csv
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ibsmamp import harness, ibs, operators, selftest, spectral
from ibsmamp.cli import main
from ibsmamp.denoisers import denoise_bernoulli_gaussian
from ibsmamp.errors import ConfigurationError
from ibsmamp.estimators import STOP_REASONS, MampConfig, run_cd_mamp
from ibsmamp.harness import (CS_SUMMARY_COLUMNS, SCHEMA_VERSION,
                             STREAM_TRIALS, ComplexityConfig, CsMseConfig,
                             IfdmBerConfig, config_hash, derive_trial_seeds,
                             load_config, run_cs_mse, run_experiment,
                             run_ifdm_ber, write_csv)
from ibsmamp.ibs import build_ibs_transform
from ibsmamp.operators import LinearOperator
from ibsmamp.rng import generator, make_permutation, raw_words
from ibsmamp.scenarios import (STREAM_SOURCE, QpskPrior, doppler_preset_4ghz_100kmh_15khz,
                               gen_multipath_channel, simulate_observation)
from ibsmamp.selftest import check_nle_orthogonality
from ibsmamp.spectral import dense_gram

SMALL_CS = dict(trials=2, n=256, n_s=32, kappa=4.0, snr_db=25.0,
                max_iters=8, variants=("full", "BW_IBS"))
LONG_CS = dict(trials=1, n=512, n_s=64, max_iters=200, damping_window=5,
               variants=("full", "BW_IBS", "BS"))
SMALL_BER = dict(trials=2, n=64, taps=2, snr_db_list=(12.0,),
                 n_s_list=(16,), bases=("FFT",), max_iters=16)
DOPPLER_BER = dict(trials=1, n=128, n_s_list=(16,), snr_db_list=(6.0, 10.0),
                   doppler_spread=doppler_preset_4ghz_100kmh_15khz(), max_iters=8)


def test_config_defaults_and_rows():
    cfg = CsMseConfig()
    assert cfg.rows == cfg.n // 2
    assert CsMseConfig(n=512, m=100).rows == 100


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        CsMseConfig(trials=0)
    with pytest.raises(ConfigurationError):
        CsMseConfig(base="DCT")
    with pytest.raises(ConfigurationError):
        CsMseConfig(variants=("full", "nope"))
    with pytest.raises(ConfigurationError):
        IfdmBerConfig(bases=("DCT",))
    with pytest.raises(ConfigurationError):
        IfdmBerConfig(variant="nope")
    with pytest.raises(ConfigurationError):
        IfdmBerConfig(snr_db_list=())


def test_load_config_round_trip_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trials": 3, "snr_db_list": [4.0, 8.0]}))
    cfg = load_config("ifdm-ber", str(path), {"seed": 9, "trials": None})
    assert cfg.trials == 3          # None override is ignored
    assert cfg.seed == 9
    assert cfg.snr_db_list == (4.0, 8.0)  # JSON lists land as tuples


def test_load_config_rejects_bad_inputs(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config("nope", None)
    with pytest.raises(ConfigurationError):
        load_config("cs-mse", str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_config("cs-mse", str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigurationError):
        load_config("cs-mse", str(arr))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"trails": 3}))
    with pytest.raises(ConfigurationError) as err:
        load_config("cs-mse", str(unknown))
    assert "trails" in str(err.value)


def test_derive_trial_seeds_matches_documented_stream():
    seeds = derive_trial_seeds(7, 5)
    assert seeds == [int(w) for w in raw_words(7, 5, stream=STREAM_TRIALS)]
    assert len(set(seeds)) == 5
    assert derive_trial_seeds(7, 5) == seeds


def test_config_hash_tracks_content():
    a = CsMseConfig(**SMALL_CS)
    b = CsMseConfig(**SMALL_CS)
    c = CsMseConfig(**dict(SMALL_CS, snr_db=26.0))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16
    int(config_hash(a), 16)


def test_cs_summary_is_consistent_with_trajectories():
    for fields in (SMALL_CS, LONG_CS):
        assert_cs_summary(CsMseConfig(**fields))


def assert_cs_summary(cfg):
    rows, summary = run_cs_mse(cfg)
    assert len(summary) == len(cfg.variants)
    assert len(summary[0]) == len(CS_SUMMARY_COLUMNS)
    for variant, base, trials, mean_mse, mean_db, half, stops in summary:
        finals, lengths = {}, {}
        for r in rows:
            if r[0] == variant:
                finals[r[2]] = r[4]  # last row per trial seed wins
                lengths[r[2]] = r[3]
        assert trials == cfg.trials
        assert abs(mean_mse - np.mean(list(finals.values()))) < 1e-15
        assert abs(mean_db - 10 * np.log10(mean_mse)) < 1e-12
        assert half >= 0.0
        # One stop reason per trial, in trial order; only max-iters runs
        # reach max_iters.
        reasons = stops.split("|")
        assert len(reasons) == cfg.trials
        for seed, reason in zip(derive_trial_seeds(cfg.seed, cfg.trials), reasons):
            assert reason in STOP_REASONS
            assert (lengths[seed] == cfg.max_iters) == (reason == "max-iters")


# The Doppler case runs two trials, so that two threads hand them to worker
# processes, each on one BLAS thread.
@pytest.mark.parametrize("experiment, config, fields", (
    ("cs-mse", CsMseConfig, SMALL_CS), ("ifdm-ber", IfdmBerConfig, SMALL_BER),
    ("ifdm-ber", IfdmBerConfig, dict(DOPPLER_BER, trials=2))),
    ids=("cs-mse", "ifdm-ber", "ifdm-ber-doppler"))
def test_experiment_files_are_byte_identical_across_runs_and_threads(tmp_path, experiment,
                                                                     config, fields):
    paths = {}
    for name, threads in (("a", 1), ("b", 1), ("c", 2)):
        cfg = config(threads=threads, **fields)
        paths[name] = run_experiment(experiment, cfg, tmp_path / name)
    for out_a, out_b, out_c in zip(paths["a"], paths["b"], paths["c"]):
        blob = out_a.read_bytes()
        assert blob == out_b.read_bytes()
        if out_a.suffix == ".csv":
            assert blob == out_c.read_bytes()


def blas_threads(cfg, seed):
    """The thread count the loaded OpenBLAS of this process reports, None
    without one: a trial function for ``_map_trials``."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def test_trial_workers_run_one_blas_thread():
    # Every worker of the pool sets the loaded OpenBLAS to one thread; the
    # calling process keeps its own count.
    before = blas_threads(None, 0)
    counts = harness._map_trials(blas_threads, SimpleNamespace(threads=2), list(range(4)))
    assert counts == [None if before is None else 1] * 4
    assert blas_threads(None, 0) == before


def test_trial_pool_starts_at_most_one_worker_per_trial(monkeypatch):
    # The pool starts every worker up front: eight threads for two trials
    # would start six idle processes.
    started = []

    class Pool:
        def __init__(self, max_workers, initializer):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    cfg = CsMseConfig(**dict(SMALL_CS, threads=8))
    assert run_cs_mse(cfg) == run_cs_mse(CsMseConfig(**SMALL_CS))
    assert started == [2]


def test_config_hashes_are_pinned(tmp_path):
    # The sidecar's config_hash of the defaults and of a JSON config whose
    # integer SNRs land as floats.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"snr_db_list": [10, 12.5], "n_s_list": [32], "bases": ["FWHT"]}))
    got = {experiment: config_hash(load_config(experiment, None))
           for experiment in harness.CONFIG_TYPES}
    got["ifdm-ber-json"] = config_hash(load_config("ifdm-ber", str(path)))
    assert got == {"cs-mse": "473ea1508336f582", "ifdm-ber": "abbe097a55ec1c2c",
                   "complexity": "6de047cea1cc6b65", "ifdm-ber-json": "3b4b16436a04bc68"}



def test_integer_floats_load_to_the_config_of_their_floats(tmp_path):
    # A scalar float field given an integer is stored as a float, as list
    # entries are, so both spellings load to one config with one hash.
    cases = {"cs-mse": ({"variants": ["full", "BS"], "m": 2048},
                        {"snr_db": 20, "kappa": 10, "rho": 1, "sigma_s2": 2}),
             "ifdm-ber": ({"snr_db_list": [10]}, {"doppler_spread": 0})}
    for experiment, (others, floats) in cases.items():
        configs = []
        for cast in (int, float):
            path = tmp_path / f"{experiment}-{cast.__name__}.json"
            path.write_text(json.dumps({**others, **{k: cast(v) for k, v in floats.items()}}))
            configs.append(load_config(experiment, str(path), {"seed": 5}))
        assert repr(configs[0]) == repr(configs[1])
        assert config_hash(configs[0]) == config_hash(configs[1])
        assert all(type(getattr(configs[0], key)) is float for key in floats)

def test_sidecar_schema(tmp_path):
    cfg = ComplexityConfig()
    written = run_experiment("complexity", cfg, tmp_path)
    sidecar = [p for p in written if p.suffix == ".json"]
    assert len(sidecar) == 1
    meta = json.loads(sidecar[0].read_text())
    assert meta["schema_version"] == SCHEMA_VERSION
    assert meta["experiment"] == "complexity"
    assert meta["config_hash"] == config_hash(cfg)
    assert meta["config"]["n"] == 4096
    assert set(meta["versions"]) == {"python", "numpy", "package"}
    csvs = [p for p in written if p.suffix == ".csv"]
    header = csvs[0].read_text().splitlines()[0]
    assert header == "n,n_s,transform_pct,overall_pct"


def test_complexity_rows_cover_requested_blocks(tmp_path):
    cfg = ComplexityConfig(n=4096, n_s_list=(4096, 64))
    written = run_experiment("complexity", cfg, tmp_path)
    lines = written[0].read_text().splitlines()
    assert len(lines) == 3
    full = lines[1].split(",")
    assert full[1] == "4096" and float(full[2]) == 100.0 and float(full[3]) == 100.0
    small = lines[2].split(",")
    assert float(small[2]) == 50.0   # log(64)/log(4096)


def test_ber_rows_and_summary_shape():
    cfg = IfdmBerConfig(**SMALL_BER)
    rows, summary = run_ifdm_ber(cfg)
    schemes = 1 + len(cfg.bases) * len(cfg.n_s_list)
    assert len(rows) == cfg.trials * schemes * len(cfg.snr_db_list)
    assert len(summary) == schemes * len(cfg.snr_db_list)
    for scheme, base, n_s, snr_db, trials, mean_ber, symbols in summary:
        matching = [r[6] for r in rows if r[0] == scheme and r[3] == snr_db]
        assert trials == cfg.trials
        assert abs(mean_ber - np.mean(matching)) < 1e-15
        assert symbols == cfg.n * cfg.trials
        assert 0.0 <= mean_ber <= 1.0


def test_doppler_ber_trial_forms_its_channel_gram_once(monkeypatch):
    # One channel, three schemes, two SNRs: six estimator runs share one
    # dense Gram of the time-varying channel, written from its taps.
    grams, materialized = [], []

    def counting_gram(op, *args, **kwargs):
        grams.append(op)
        return dense_gram(op, *args, **kwargs)

    def counting_materialize(op, *args, **kwargs):
        materialized.append(op)
        return operators.materialize_dense(op, *args, **kwargs)

    monkeypatch.setattr(spectral, "dense_gram", counting_gram)
    monkeypatch.setattr(spectral, "materialize_dense", counting_materialize)
    rows, _ = run_ifdm_ber(IfdmBerConfig(**DOPPLER_BER))
    assert len(rows) == 6
    assert len(grams) == 1
    assert materialized == []


def gram_of_applies(op):
    """A A^H materialized through n applies of the adjoint and then the
    forward: the map the estimator runs, not the taps."""
    def apply_gram(v):
        return op.apply(op.apply_adjoint(v))

    return operators.materialize_dense(LinearOperator(op.rows, op.rows, apply_gram, apply_gram))


def test_doppler_ber_rows_match_the_materialized_gram(monkeypatch):
    # The from-taps Gram differs from the applies' Gram only in the last
    # bits; the rows must not notice.
    cfg = IfdmBerConfig(**dict(DOPPLER_BER, trials=2, max_iters=32))
    from_taps = run_ifdm_ber(cfg)
    monkeypatch.setattr(spectral, "dense_gram", gram_of_applies)
    assert run_ifdm_ber(cfg) == from_taps


def test_doppler_run_points_match_the_gram_of_its_applies(monkeypatch):
    # The estimator takes its spectrum from the Gram written from the taps
    # and applies the channel through its forward and adjoint: both must be
    # one channel.  One Doppler instance runs on each Gram.  The two Grams
    # differ in rounding only, so their eigenvalues agree to about 1e-15
    # of lambda_max; every point's mse, v_gamma and v_phi must agree to
    # 1e-9 relative.  A forward or adjoint off by the tap delay moves the
    # applies' Gram, and the first point by 3e-4 relative.
    prior = QpskPrior()
    Xi = build_ibs_transform(harness._ber_transform_spec(
        IfdmBerConfig(**DOPPLER_BER), "ibs-fft-16", "FFT", 16, 3, 4))
    mamp = MampConfig(max_iters=32)
    points = []
    for gram in (dense_gram, gram_of_applies):
        monkeypatch.setattr(spectral, "dense_gram", gram)
        A = gen_multipath_channel(128, 4, doppler_preset_4ghz_100kmh_15khz(), seed=5)
        s = prior.sample(A.cols, generator(5, STREAM_SOURCE))
        run = run_cd_mamp(simulate_observation(A, Xi, s, 10.0, 5), Xi, prior, mamp)
        points.append(np.array([(p.mse, p.v_gamma, p.v_phi) for p in run.points]))
    assert points[0].shape == points[1].shape
    assert np.allclose(points[1], points[0], rtol=1e-9, atol=0)


def test_doppler_ber_above_the_dense_cap_runs_on_lanczos_quadrature(monkeypatch, tmp_path):
    # With the cap below n, the channel's spectrum comes from one Lanczos
    # quadrature per run, shared by its six estimator runs.  Every row is
    # written, a second run repeats the files byte for byte, and each mean
    # BER stays within 12 of the trial's 256 bits of the exact-spectrum
    # run's.  On seeds 2-25 the largest gap was 6 bits.
    cfg = IfdmBerConfig(**DOPPLER_BER)
    _, exact = run_ifdm_ber(cfg)
    measured = []
    lanczos = spectral._lanczos_measure

    def counting(op):
        measured.append(op)
        return lanczos(op)

    monkeypatch.setattr(spectral, "DENSE_LIMIT", cfg.n // 2)
    monkeypatch.setattr(spectral, "_lanczos_measure", counting)
    first = run_experiment("ifdm-ber", cfg, tmp_path / "a")
    second = run_experiment("ifdm-ber", cfg, tmp_path / "b")
    assert len(measured) == 2
    for a, b in zip(first, second):
        if a.suffix == ".csv":
            assert a.read_bytes() == b.read_bytes()
    with open(first[0]) as fh:
        assert len(list(csv.reader(fh))) == 1 + cfg.trials * 3 * len(cfg.snr_db_list)
    with open(first[1]) as fh:
        summary = list(csv.reader(fh))[1:]
    assert len(summary) == len(exact)
    for row, want in zip(summary, exact):
        assert abs(float(row[5]) - want[5]) <= 12 / (2 * cfg.n)


# sha256 of each CSV of three toy runs.  A deliberate numerics change
# re-pins them and says so.
TOY_DIGESTS = {
    "cs-mse": ("cs-mse", SMALL_CS, {
        "cs_mse_trajectories.csv": "6382ad1978e95d652a5eb8b0bbf6c17f7cbc68db970e2d3b60f31295c79f0468",
        "cs_mse_summary.csv": "04550ccdd55b9bb6ac100ac248ed02632e19cf0e32aafae7cd6ea77c769e5617"}),
    # Every variant stops converged: full at t = 62, BW_IBS at 73 and BS at
    # 115 of 200, before any history row is released.  The release tests of
    # test_estimators run with that stop off.
    "cs-mse-long": ("cs-mse", LONG_CS, {
        "cs_mse_trajectories.csv": "891d6a2d33cb65c57f19fabad0413a92d54a24616295dfb057b33bde7ff79d5a",
        "cs_mse_summary.csv": "5278e148edbabb1398cd7d565afb0e595f9b4f8ad47547843703f2864d081cfc"}),
    "ber-static": ("ifdm-ber", SMALL_BER, {
        "ifdm_ber.csv": "7473c0b1217666686311e5eac466379857c8499551294eb06a2ec7a9af7c5820",
        "ifdm_ber_summary.csv": "879e9b2472bc49767ba5673f40649dab3e6143855b39c9c80aa1ec3de58f9474"}),
    "ber-doppler": ("ifdm-ber", DOPPLER_BER, {
        "ifdm_ber.csv": "eeb24c6ebe1b5b92fa2671d97a71acec4c51b93076518081407c5e3ea361a9ef",
        "ifdm_ber_summary.csv": "56a8f2ea2c85c21a355ba791a446159996dedf80720f6f68cc2d72fc4a43b380"}),
}


def test_toy_ber_runs_never_stop_converged(monkeypatch):
    # QPSK runs stop on their tolerance or at max_iters: their v_phi keeps
    # moving by far more than the converged share until it falls below the
    # tolerance.
    reasons = []
    run = harness.run_cd_mamp

    def recording(instance, Xi, prior, mamp_cfg):
        result = run(instance, Xi, prior, mamp_cfg)
        reasons.append(result.stop_reason)
        return result

    monkeypatch.setattr(harness, "run_cd_mamp", recording)
    for fields in (SMALL_BER, DOPPLER_BER):
        run_ifdm_ber(IfdmBerConfig(**fields))
    assert len(reasons) == 4 + 6
    assert "converged" not in reasons, reasons


def csv_digests(experiment, cfg, out_dir):
    """sha256 of each CSV that run_experiment writes."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in run_experiment(experiment, cfg, out_dir) if p.suffix == ".csv"}


@pytest.mark.parametrize("name", sorted(TOY_DIGESTS))
def test_toy_csv_digests_are_pinned(tmp_path, name):
    """The toy CSVs hash to the digests taken with numpy 2.4.6 on Linux
    x86_64 (Python 3.11.7, OpenBLAS).  Another platform or BLAS may round
    the dense eigendecomposition differently."""
    experiment, fields, digests = TOY_DIGESTS[name]
    assert csv_digests(experiment, harness.CONFIG_TYPES[experiment](**fields), tmp_path) == digests


# sha256 of each CSV of the three experiments the benchmark times, at full
# size and seed 1: one default cs-mse trial (n = 8192, where the memory sum
# runs in blocks and releases rows), the default ifdm-ber at 24 trials, and
# three Doppler ifdm-ber trials at 8 dB.  Taken as the toy digests are.
FULL_DIGESTS = {
    "cs-long": ("cs-mse", {"trials": 1}, {
        "cs_mse_trajectories.csv": "8f45bede1cfdf226d960b23af1876d69624de6cc9d73e0b9468fd70bb7bc8ae7",
        "cs_mse_summary.csv": "466b9acdcbbcae1900532d3df491fd110d96828c2affc6a90c570733903b090f"}),
    "ber-static": ("ifdm-ber", {"trials": 24}, {
        "ifdm_ber.csv": "90eb5e054dc35e97d301e700341a7a9609d076f37234979ea03db1f787e8db91",
        "ifdm_ber_summary.csv": "c6e22211183fb1f6ef0b6ee1689d375c17a9490f5a60c6db3a51e0eaab0f3641"}),
    "ber-doppler": ("ifdm-ber", {"trials": 3, "doppler_spread": doppler_preset_4ghz_100kmh_15khz(),
                                 "snr_db_list": (8.0,), "n_s_list": (32,)}, {
        "ifdm_ber.csv": "9382b2f6e67b926308465c00f33852d021ea937286fc7d1fc2c386907f02423a",
        "ifdm_ber_summary.csv": "e27ed62c79e0502d7f512243e3da908adaedb537e694cf8891db2a0a7c1d369a"}),
}


@pytest.mark.parametrize("name", sorted(FULL_DIGESTS))
def test_full_size_csv_digests_are_pinned(tmp_path, name):
    experiment, overrides, digests = FULL_DIGESTS[name]
    cfg = harness.load_config(experiment, None, dict(overrides, seed=1))
    assert csv_digests(experiment, cfg, tmp_path) == digests


def test_ber_trial_draws_each_permutation_once(monkeypatch):
    # Default trial: the full scheme and the four BW_IBS schemes share the
    # size-1024 whole interleave, and FFT and FWHT share their block
    # permutations: 1 + 8 + 32 distinct draws, not 1 + 2 * (9 + 33).
    sizes = []

    def counting(size, seed):
        sizes.append(size)
        return make_permutation(size, seed)

    def unshared(spec, perms=None):
        return ibs.build_ibs_transform(spec)

    monkeypatch.setattr(ibs, "make_permutation", counting)
    cfg = IfdmBerConfig(trials=1)
    shared = run_ifdm_ber(cfg)
    assert len(sizes) == 41
    assert sorted(set(sizes)) == [32, 128, 1024]
    sizes.clear()
    monkeypatch.setattr(harness, "build_ibs_transform", unshared)
    assert run_ifdm_ber(cfg) == shared
    assert len(sizes) == 85


def test_cs_trial_draws_each_permutation_once(monkeypatch):
    # The variants of a trial share their seeds: full and W_IBS share the
    # whole interleave with BW_IBS, and B_IBS its 8 block permutations:
    # 2 + 8 distinct draws, not 2 + 1 + 8 + 9.
    sizes = []

    def counting(size, seed):
        sizes.append(size)
        return make_permutation(size, seed)

    def unshared(spec, perms=None):
        return ibs.build_ibs_transform(spec)

    monkeypatch.setattr(ibs, "make_permutation", counting)
    cfg = CsMseConfig(**dict(SMALL_CS, trials=1, variants=("full", "BS", "W_IBS", "B_IBS",
                                                             "BW_IBS")))
    shared = run_cs_mse(cfg)
    assert sorted(sizes) == [32] * 8 + [128, 256]
    sizes.clear()
    monkeypatch.setattr(harness, "build_ibs_transform", unshared)
    assert run_cs_mse(cfg) == shared
    assert len(sizes) == 20


def test_ber_observations_equal_simulate_observation(monkeypatch):
    # One channel image per scheme and one noise draw per trial, scaled
    # per SNR, reproduce simulate_observation's y bit for bit.
    seen = []
    run = harness.run_cd_mamp

    def recording(instance, Xi, prior, mamp_cfg):
        seen.append((instance, Xi))
        return run(instance, Xi, prior, mamp_cfg)

    monkeypatch.setattr(harness, "run_cd_mamp", recording)
    cfg = IfdmBerConfig(**dict(SMALL_BER, n_s_list=(16, 32), bases=("FFT", "FWHT"),
                               snr_db_list=(float("inf"), 6.0, 12.0), max_iters=4))
    rows, _ = run_ifdm_ber(cfg)
    assert len(seen) == len(rows) == cfg.trials * 5 * 3
    for (instance, Xi), row in zip(seen, rows):
        snr_db = row[3]
        want = simulate_observation(instance.A, Xi, instance.s_true, snr_db, row[5])
        assert instance.noise_var == want.noise_var
        assert (instance.noise_var == 0.0) == (snr_db == float("inf"))
        assert np.array_equal(instance.y.view(np.uint64), want.y.view(np.uint64))


def test_ber_is_zero_without_noise():
    cfg = IfdmBerConfig(**dict(SMALL_BER, snr_db_list=(float("inf"),),
                               max_iters=48))
    _, summary = run_ifdm_ber(cfg)
    assert all(row[5] == 0.0 for row in summary)


def test_write_csv_uses_exact_float_repr(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ("a", "b"), [(1.0 / 3.0, "s")])
    text = path.read_text()
    assert text == "a,b\n" + repr(1.0 / 3.0) + ",s\n"
    assert float(text.splitlines()[1].split(",")[0]) == 1.0 / 3.0


def test_cli_runs_complexity_and_selftest_paths(tmp_path, capsys):
    assert main(["complexity", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "complexity.csv" in out
    assert (tmp_path / "complexity.csv").exists()


def test_cli_complexity_has_no_monte_carlo_flags(tmp_path, capsys):
    # The complexity table has no trials, seed or workers to override.
    for flag in ("--threads", "--trials", "--seed"):
        with pytest.raises(SystemExit) as exit_info:
            main(["complexity", flag, "0", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*"))


def test_cli_reports_config_errors_with_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"base": "DCT"}))
    assert main(["cs-mse", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["cs-mse", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path)]) == 2
    assert main(["cs-mse", "--trials", "0", "--out", str(tmp_path)]) == 2


def test_cli_refuses_an_out_that_cannot_be_made_with_exit_2(tmp_path, capsys):
    # An existing file, or a path through one, cannot be the output
    # directory: exit 2 with a message, not a traceback.
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for out in (taken, taken / "sub"):
        assert main(["complexity", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
    assert taken.read_text() == "kept"


def test_cli_rejects_non_integer_sizes_with_exit_2(tmp_path, capsys):
    cases = [("ifdm-ber", {"n": 1024.0}), ("ifdm-ber", {"n_s_list": [32.5]}),
             ("ifdm-ber", {"taps": True}), ("cs-mse", {"m": 64.0}),
             ("complexity", {"n_s_list": [128, 32.0]})]
    for experiment, data in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be an integer" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("experiment, field, value", (
    ("cs-mse", "max_iters", 0), ("cs-mse", "damping_window", 0),
    ("ifdm-ber", "max_iters", 0), ("ifdm-ber", "damping_window", 0)))
def test_cli_rejects_bad_estimator_settings_with_exit_2(tmp_path, capsys,
                                                        experiment, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be" in err
    assert not list(tmp_path.glob("*.csv"))


# Small sizes, so that a case the CLI wrongly accepts runs in a moment.
TINY = {"cs-mse": dict(trials=1, n=64, n_s=16, max_iters=4),
        "ifdm-ber": dict(trials=1, n=64, taps=2, n_s_list=[16], bases=["FFT"],
                         snr_db_list=[10.0], max_iters=4)}
NAN, INF = float("nan"), float("inf")


# An SNR below -1541.27 dB has a noise variance above the root of the
# largest float64: at -4000 dB the variance 10**400 overflows, and at
# -3070 dB a product of two noise energies does.
@pytest.mark.parametrize("experiment, data", (
    ("cs-mse", {"snr_db": NAN}), ("cs-mse", {"snr_db": -INF}),
    ("cs-mse", {"snr_db": -4000.0}), ("cs-mse", {"snr_db": -3070.0}),
    ("cs-mse", {"kappa": NAN}), ("cs-mse", {"sigma_s2": NAN}),
    ("ifdm-ber", {"snr_db_list": [10.0, NAN]}), ("ifdm-ber", {"snr_db_list": [-INF]}),
    ("ifdm-ber", {"snr_db_list": [-4000.0]}), ("ifdm-ber", {"snr_db_list": [-3070.0]}),
    ("ifdm-ber", {"doppler_spread": NAN}), ("ifdm-ber", {"doppler_spread": INF})),
    ids=lambda x: x if isinstance(x, str) else json.dumps(x))
def test_cli_rejects_non_finite_floats_with_exit_2(tmp_path, capsys, experiment, data):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(dict(TINY[experiment], **data)))    # NaN, Infinity
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{next(iter(data))} must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, data", (
    ("cs-mse", {"variants": []}), ("cs-mse", {"variants": ["full", "full"]}),
    ("ifdm-ber", {"bases": []}),
    ("ifdm-ber", {"bases": ["FFT", "FFT"]}), ("ifdm-ber", {"n_s_list": []}),
    ("ifdm-ber", {"n_s_list": [16, 16]}), ("ifdm-ber", {"snr_db_list": [10.0, 10]})),
    ids=lambda x: x if isinstance(x, str) else json.dumps(x))
def test_cli_rejects_empty_or_repeated_lists_with_exit_2(tmp_path, capsys, experiment, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TINY[experiment], **data)))
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    field = next(iter(data))
    assert err.startswith("error: ")
    assert f"{field} must be {'distinct' if data[field] else 'non-empty'}" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("experiment, data", (
    ("cs-mse", {"variants": "full"}), ("ifdm-ber", {"bases": "FFT"}),
    ("ifdm-ber", {"n_s_list": 32}), ("ifdm-ber", {"snr_db_list": 10.0}),
    ("complexity", {"n_s_list": 128})),
    ids=lambda x: x if isinstance(x, str) else json.dumps(x))
def test_cli_rejects_a_scalar_for_a_list_with_exit_2(tmp_path, capsys, experiment, data):
    # A string is not read as a list of its characters, nor a number as a
    # list of one.
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(dict(TINY.get(experiment, {}), **data)))
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    field, value = next(iter(data.items()))
    assert capsys.readouterr().err == f"error: {field} must be a list, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("experiment, data, message", (
    ("cs-mse", {"n": 512, "n_s": 100, "max_iters": 50, "trials": 1}, "n_s must be a power of two"),
    ("cs-mse", dict(TINY["cs-mse"], kappa=0.5), "kappa must be >= 1"),
    ("cs-mse", dict(TINY["cs-mse"], rho=0), "rho must lie in (0, 1]"),
    ("cs-mse", dict(TINY["cs-mse"], sigma_s2=-1.0), "sigma_s2 must be positive"),
    ("cs-mse", dict(TINY["cs-mse"], m=9000), "need 1 <= m <= n"),
    ("cs-mse", dict(TINY["cs-mse"], m=30), "not divisible by the block count"),
    ("ifdm-ber", dict(TINY["ifdm-ber"], taps=5000), "need 1 <= p <= n"),
    ("ifdm-ber", dict(TINY["ifdm-ber"], doppler_spread=-0.1), "doppler_spread must be >= 0"),
    ("ifdm-ber", dict(TINY["ifdm-ber"], n_s_list=[100]), "n_s must be a power of two"),
    ("ifdm-ber", dict(TINY["ifdm-ber"], n=1000), "n must be a power of two"),
    ("complexity", {"n_s_list": [128, 100]}, "must be powers of two")),
    ids=lambda x: x if isinstance(x, str) else json.dumps(x))
def test_cli_refuses_what_a_trial_would_refuse_before_any_trial(tmp_path, capsys, monkeypatch,
                                                                experiment, data, message):
    # The transform, sensing diagonal, prior and channel checks run when the
    # config is loaded: no estimator runs and no output directory is made.
    runs, run = [], harness.run_cd_mamp

    def recording(*args):
        runs.append(args)
        return run(*args)

    monkeypatch.setattr(harness, "run_cd_mamp", recording)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(data))
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert runs == [] and not out.exists()


@pytest.mark.parametrize("experiment", ("cs-mse", "ifdm-ber"))
def test_cli_rejects_seeds_outside_64_bits_with_exit_2(tmp_path, capsys, experiment):
    # The generator keys on 64 bits; the config refuses other seeds at load.
    cfg = tmp_path / "cfg.json"
    for seed in (-1, 2 ** 64, 2 ** 64 + 1):
        cfg.write_text(json.dumps(dict(TINY[experiment], seed=seed)))
        assert main([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        cfg.write_text(json.dumps(TINY[experiment]))
        assert main([experiment, "--config", str(cfg), "--seed", str(seed),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("seed must be in [0, 2**64)") == 2
    assert not list(tmp_path.glob("*.csv"))
    assert load_config(experiment, None, {"seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1


def test_run_experiment_refuses_an_unknown_experiment_before_making_its_directory(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigurationError, match="unknown experiment 'nope'"):
        run_experiment("nope", ComplexityConfig(), out)
    assert not out.exists()


def test_single_tap_channel_ber_is_the_awgn_qpsk_ber():
    # One tap of unit gain is a flat channel: at 6 dB both the full scheme
    # and the block scheme meet the QPSK bit error rate over AWGN,
    # erfc(sqrt(snr / 2)) / 2 = 0.02301, within 4 standard errors of the
    # 2 n trials bits (a bound fixed before measuring).
    cfg = IfdmBerConfig(trials=8, n=1024, taps=1, snr_db_list=(6.0,), n_s_list=(32,),
                        bases=("FFT",))
    want = 0.5 * math.erfc(math.sqrt(10.0 ** 0.6 / 2.0))
    se = math.sqrt(want * (1.0 - want) / (2 * cfg.n * cfg.trials))
    _, summary = run_ifdm_ber(cfg)
    assert [row[0] for row in summary] == ["full", "ibs-fft-32"]
    for scheme, _, _, _, _, mean_ber, _ in summary:
        assert abs(mean_ber - want) <= 4.0 * se, (scheme, mean_ber, want, se)


def test_float_fields_refuse_non_finite_values_but_a_noiseless_snr():
    assert CsMseConfig(snr_db=INF).snr_db == INF
    assert IfdmBerConfig(snr_db_list=(INF, 10.0)).snr_db_list == (INF, 10.0)
    # Just above the SNR floor, runs complete.
    run_cs_mse(CsMseConfig(**dict(TINY["cs-mse"], snr_db=-1541.0)))
    run_ifdm_ber(IfdmBerConfig(**dict(TINY["ifdm-ber"], snr_db_list=(-1541.0,))))
    for bad in (dict(kappa=INF), dict(rho=NAN), dict(kappa="10")):
        with pytest.raises(ConfigurationError):
            CsMseConfig(**bad)


def test_string_fields_refuse_other_types():
    # A list entry in a list of names would otherwise end in set()'s
    # "unhashable type".
    for bad in (dict(base=5), dict(variants=(["full"],))):
        with pytest.raises(ConfigurationError, match="must be a string"):
            CsMseConfig(**bad)
    with pytest.raises(ConfigurationError, match=r"bases must be a string, got \['FFT'\]"):
        IfdmBerConfig(bases=(["FFT"],))


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_selftest_passes_and_canary_trips(capsys, monkeypatch):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.count("[ok] ") == len(selftest._CHECKS)

    def sign_flipped(r, v, rho, sigma_s2):
        out = denoise_bernoulli_gaussian(r, v, rho=rho, sigma_s2=sigma_s2)
        return type(out)(posterior_mean=-out.posterior_mean,
                         coord_var=out.coord_var)

    monkeypatch.setattr(selftest, "denoise_bernoulli_gaussian", sign_flipped)
    ok, _ = check_nle_orthogonality()
    assert not ok


def test_cli_module_entry_runs_as_documented(tmp_path):
    # ``python -m ibsmamp.cli``, in a fresh interpreter, from the checkout's src/.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "ibsmamp.cli", "complexity", "--out",
                           str(tmp_path)], cwd=root, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(tmp_path / "complexity.csv"),
                                   str(tmp_path / "complexity_meta.json")]
    assert all(Path(path).is_file() for path in done.stdout.split())
