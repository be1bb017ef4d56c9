"""The benchmark's workloads and the checks on their outputs.

Each workload is one ``ibsmamp`` experiment config built from the workload
seed.  ``toy=True`` shrinks every size so the self-check runs in seconds;
the full-size configs are the ones the benchmark measures.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from ibsmamp import harness
from ibsmamp.scenarios import doppler_preset_4ghz_100kmh_15khz

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "cs-long": "default cs-mse trial: 5 variants x 600 iterations at n=8192; memory sum, "
               "history buffer and FFT IBS applies dominate",
    "ber-static": "default ifdm-ber at 24 trials: 720 short QPSK runs on circulant channels; "
                  "per-call overhead, FWHT and roll applies dominate, spectrum is cheap",
    "ber-doppler": "Doppler ifdm-ber: 9 runs on 3 time-varying channels; the dense spectrum "
                   "recomputed per run dominates",
}

_TOY = {
    "cs-long": {"n": 512, "n_s": 64, "max_iters": 12},
    "ber-static": {"trials": 2, "n": 256, "n_s_list": (32, 8), "snr_db_list": (6.0, 12.0),
                   "max_iters": 8},
    "ber-doppler": {"trials": 1, "n": 128, "n_s_list": (16,), "max_iters": 8},
}


def resolve(workload: str, seed: int, toy: bool = False):
    """(experiment, config) of a workload for the given seed."""
    if workload == "cs-long":
        experiment, overrides = "cs-mse", {"trials": 1}
    elif workload == "ber-static":
        # Three times the default trials: runs stop on their own tolerance,
        # and over the default 8 channels the total iteration count, hence
        # the wall time, swings by an eighth from seed to seed.
        experiment, overrides = "ifdm-ber", {"trials": 24}
    elif workload == "ber-doppler":
        # Three channels at one low SNR rather than one channel at 10 and
        # 14 dB: with a single channel draw the quality metrics swing by a
        # fifth from seed to seed, and at 14 dB a run can recover every
        # symbol exactly, leaving an MSE of zero.
        experiment, overrides = "ifdm-ber", {
            "trials": 3, "doppler_spread": doppler_preset_4ghz_100kmh_15khz(),
            "snr_db_list": (8.0,), "n_s_list": (32,)}
    else:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    overrides["seed"] = seed
    if toy:
        overrides.update(_TOY[workload])
    return experiment, harness.load_config(experiment, None, overrides)


def expected_ops(experiment: str, cfg) -> int:
    """run_cd_mamp calls one run_experiment makes for this config."""
    if experiment == "cs-mse":
        return cfg.trials * len(cfg.variants)
    return cfg.trials * len(harness._ber_schemes(cfg)) * len(cfg.snr_db_list)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_csvs(experiment: str, cfg, out_dir: Path, iterations: int) -> list[str]:
    """Problems with the CSVs of one run_experiment call; empty when correct.

    Row counts must match the config (the trajectory file holds one row per
    estimator iteration, which ``iterations`` counts independently) and every
    numeric cell must be finite.
    """
    if experiment == "cs-mse":
        expected = {"cs_mse_trajectories.csv": iterations,
                    "cs_mse_summary.csv": len(cfg.variants)}
    else:
        cells = len(harness._ber_schemes(cfg)) * len(cfg.snr_db_list)
        expected = {"ifdm_ber.csv": cells * cfg.trials, "ifdm_ber_summary.csv": cells}
    problems = []
    for name, rows in expected.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        with open(path, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        if len(body) != rows:
            problems.append(f"{name}: {len(body)} rows, config gives {rows}")
        for row in body:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    problems.append(f"{name}: non-finite value {cell!r}")
                    break
    return problems


def summary_final_mse(out_dir: Path) -> dict[str, float]:
    """variant -> mean_final_mse from cs_mse_summary.csv."""
    with open(out_dir / "cs_mse_summary.csv", newline="") as fh:
        return {row["variant"]: float(row["mean_final_mse"]) for row in csv.DictReader(fh)}


def mean_ber(out_dir: Path) -> float:
    """Mean BER over every row of ifdm_ber.csv."""
    with open(out_dir / "ifdm_ber.csv", newline="") as fh:
        bers = [float(row["ber"]) for row in csv.DictReader(fh)]
    return sum(bers) / len(bers)
