"""Benchmark of ibsmamp's experiments, one workload per process.

    python3 perfbench/run.py --workload cs-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The workload runs
through the public harness (``load_config`` then ``run_experiment`` into a
scratch directory, ``threads=1``), as a closed loop with one caller:
repeats run back to back until ``--seconds`` is used up, at least two, so
the CSV bytes can be compared between repeats.  ``wall_s`` is the fastest
repeat; ``setup_s`` the median over fresh processes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repeats and prints the per-layer metrics derived from
the spans of the traced ones (see spans.py), plus ``trace.overhead_frac``.
``--seed2`` runs one more repeat on a second seed, whose checks and
quality numbers are recorded but do not enter the metrics.

Every result line is preceded by a ``record`` line: environment, CSV
sha256s, quality numbers and failures.  Both go to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``; a traced run also
writes its spans there.  The last line of standard output is the result
JSON; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("cs-long", "ber-static", "ber-doppler")
# One BLAS/OpenMP thread: a plain single-threaded baseline that does not
# depend on how many cores happen to be idle.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7

# name -> unit.  BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "final_mse_gain_db.full": "dB",
    "final_mse_gain_db.BW_IBS": "dB",
}

# name -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "estimators.iters_per_s": ("1/s", "wall_s on cs-long and ber-static"),
    "estimators.iters": ("count", "wall_s on every workload"),
    "estimators.runs": ("count", "wall_s on every workload"),
    "estimators.mle_step.self_s": ("s", "wall_s on cs-long; ~0 on ber-static"),
    "estimators.mle_step.bytes_computed": ("bytes", "wall_s on cs-long"),
    "estimators.run.self_s": ("s", "wall_s on cs-long and ber-static"),
    "estimators.damping.self_s": ("s", "wall_s on cs-long and ber-static"),
    "estimators.nle.self_s": ("s", "wall_s on cs-long and ber-static"),
    "estimators.meter.transform_applies_per_iter": ("count", "wall_s on every workload"),
    "estimators.meter.channel_applies_per_iter": ("count", "wall_s on every workload"),
    "estimators.meter.vector_points_per_iter": ("count", "wall_s on every workload"),
    "spectral.profile.calls": ("count", "wall_s on ber-doppler"),
    "spectral.profile.busy_s": ("s", "wall_s on ber-doppler; negligible on ber-static"),
    "spectral.eigen_bounds.busy_s": ("s", "wall_s on ber-doppler"),
    "spectral.trace_moments.busy_s": ("s", "wall_s on ber-doppler"),
    "spectral.profile.redundant_frac": ("ratio", "wall_s on ber-doppler"),
    "operators.diag.calls": ("count", "wall_s on cs-long"),
    "operators.diag.busy_s": ("s", "wall_s on cs-long"),
    "operators.materialize.calls": ("count", "wall_s on ber-doppler"),
    "operators.materialize.busy_s": ("s", "wall_s on ber-doppler"),
    "scenarios.circulant.calls": ("count", "wall_s on ber-static"),
    "scenarios.circulant.busy_s": ("s", "wall_s on ber-static"),
    "scenarios.tv.calls": ("count", "wall_s on ber-doppler"),
    "scenarios.tv.busy_s": ("s", "wall_s on ber-doppler"),
    "scenarios.simulate.busy_s": ("s", "wall_s on every workload"),
    "ibs.apply.calls": ("count", "wall_s on cs-long and ber-static"),
    "ibs.apply.self_s": ("s", "wall_s on cs-long and ber-static"),
    "ibs.adjoint.calls": ("count", "wall_s on cs-long and ber-static"),
    "ibs.adjoint.self_s": ("s", "wall_s on cs-long and ber-static"),
    "ibs.build.busy_s": ("s", "wall_s on ber-static"),
    "ibs.iter_ratio.measured": ("ratio", "wall_s on cs-long"),
    "ibs.iter_ratio.model": ("ratio", "none: the relative_complexity model for comparison"),
    "kernels.fft.calls": ("count", "wall_s on cs-long and ber-static"),
    "kernels.fft.self_s": ("s", "wall_s on cs-long and ber-static"),
    "kernels.fft.points": ("count", "wall_s on cs-long and ber-static"),
    "kernels.fwht.calls": ("count", "wall_s on ber-static"),
    "kernels.fwht.self_s": ("s", "wall_s on ber-static"),
    "kernels.fwht.points": ("count", "wall_s on ber-static"),
    "denoisers.bg.calls": ("count", "wall_s on cs-long"),
    "denoisers.bg.busy_s": ("s", "wall_s on cs-long"),
    "denoisers.qpsk.calls": ("count", "wall_s on ber-static and ber-doppler"),
    "denoisers.qpsk.busy_s": ("s", "wall_s on ber-static and ber-doppler"),
    "harness.write_csv.busy_s": ("s", "wall_s on cs-long"),
    "harness.csv_bytes": ("bytes", "wall_s on cs-long"),
    "harness.self_s": ("s", "wall_s on every workload"),
    "rng.make_permutation.calls": ("count", "wall_s on ber-static"),
    "rng.make_permutation.busy_s": ("s", "wall_s on ber-static"),
    "trace.overhead_frac": ("ratio", "none: cost of tracing itself"),
}

# (base, n_s) of every IBS transform the workloads build, at full size.
IBS_KEYS = ("FFT-32", "FFT-128", "FFT-256", "FFT-1024", "FFT-8192", "FWHT-32", "FWHT-128")
for _key in IBS_KEYS:
    PER_LAYER[f"ibs.apply_us.{_key}"] = ("us", "wall_s on the workloads using " + _key)


class Failure(Exception):
    """The benchmark cannot run here; reported without a result line."""


def _import_package():
    if not (SRC / "ibsmamp" / "__init__.py").is_file():
        raise Failure(f"no ibsmamp sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ibsmamp
    if Path(ibsmamp.__file__).resolve().parent != SRC / "ibsmamp":
        raise Failure(f"imported ibsmamp from {ibsmamp.__file__}, not from {SRC}")
    return ibsmamp


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, None when none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(ibsmamp, args) -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ibsmamp": ibsmamp.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seed2": args.seed2,
    }


def measure_setup(workload: str, seed: int, toy: bool) -> float:
    """Median over fresh processes of process start -> package imported and
    workload config resolved."""
    code = ("import sys, time; sys.path[:0] = [%r, %r]; import workloads; "
            "workloads.resolve(%r, %d, %r); print(repr(time.time()))"
            % (str(SRC), str(HERE), workload, seed, toy))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(samples)


class Ledger:
    """Wraps harness.run_cd_mamp to check every operation's result.

    An operation is one run_cd_mamp call.  It fails if it raises, returns a
    non-finite estimate or trajectory value, or ends with an MSE above the
    prior power (worse than the all-zero estimate).  mse_db is left out of
    the finiteness check: it is -inf exactly when a run recovers the source
    without error, which QPSK runs do.
    """

    def __init__(self, harness):
        self.harness = harness
        self.original = harness.run_cd_mamp
        self.ops: list[dict] = []

    def __enter__(self):
        import numpy as np
        original, ops = self.original, self.ops

        def run_cd_mamp(instance, ibs, prior, *args, **kwargs):
            record = {"variant": ibs.spec.variant, "n_s": ibs.spec.n_s, "n": ibs.cols,
                      "ok": False, "iters": 0, "final_mse": math.nan}
            ops.append(record)
            result = original(instance, ibs, prior, *args, **kwargs)
            finite = bool(np.isfinite(result.s_hat).all()) and all(
                math.isfinite(v) for p in result.points for v in (p.mse, p.v_gamma, p.v_phi))
            record.update(iters=len(result.points), final_mse=result.final_mse,
                          ok=finite and result.final_mse <= prior.power)
            return result

        self.harness.run_cd_mamp = run_cd_mamp
        return self

    def __exit__(self, *exc):
        self.harness.run_cd_mamp = self.original


class Runner:
    """Runs repeats of one workload and keeps what the checks need."""

    def __init__(self, workload: str, toy: bool, work_dir: Path):
        from ibsmamp import harness
        import workloads
        self.harness, self.workloads = harness, workloads
        self.workload, self.toy, self.work_dir = workload, toy, work_dir
        self.ledger = Ledger(harness)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def repeat(self, seed: int, tracer=None) -> dict:
        """One run_experiment call into a fresh directory, checked."""
        experiment, cfg = self.workloads.resolve(self.workload, seed, self.toy)
        expected = self.workloads.expected_ops(experiment, cfg)
        out = Path(tempfile.mkdtemp(prefix="repeat-", dir=self.work_dir))
        first = len(self.ledger.ops)
        problems = []
        try:
            start = time.perf_counter()
            try:
                if tracer is None:
                    self.harness.run_experiment(experiment, cfg, out)
                else:
                    tracer.root(lambda: self.harness.run_experiment(experiment, cfg, out))
            except Exception:
                problems.append("run_experiment raised:\n" + traceback.format_exc())
            wall = time.perf_counter() - start
            ops = self.ledger.ops[first:]
            iters = sum(op["iters"] for op in ops)
            if not problems:
                problems += self.workloads.check_csvs(experiment, cfg, out, iters)
            shas = {p.name: self.workloads.sha256(p) for p in sorted(out.glob("*.csv"))}
            quality = self._quality(ops)
            if not problems:
                problems += [f"{name} undefined" for name, value in quality.items()
                             if not math.isfinite(value)]
            if not problems and experiment == "cs-mse":
                problems += self._check_summary(out, ops)
            mean_ber = self.workloads.mean_ber(out) if experiment == "ifdm-ber" else None
            csv_bytes = sum(p.stat().st_size for p in out.glob("*.csv"))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        good = sum(op["ok"] for op in ops)
        failed = expected if problems else expected - good
        if good < len(ops):
            problems.append(f"{len(ops) - good} of {len(ops)} operations failed their checks")
        self.attempted += expected
        self.failed += failed
        self.problems += problems
        return {"seed": seed, "wall_s": wall, "iters": iters, "sha256": shas,
                "quality": quality, "mean_ber": mean_ber, "csv_bytes": csv_bytes,
                "failed": failed}

    @staticmethod
    def _quality(ops: list[dict]) -> dict[str, float]:
        """final_mse_gain_db.<group>: prior power (1 for both priors) over the
        group's mean final MSE, in dB; NaN when the group is empty or
        recovered every source exactly."""
        quality = {}
        for name in QUALITY_GROUPS:
            mean = _group_mean(ops, name)
            quality[f"final_mse_gain_db.{name}"] = (
                -10.0 * math.log10(mean) if mean > 0 else math.nan)
        return quality

    def _check_summary(self, out: Path, ops: list[dict]) -> list[str]:
        """cs_mse_summary.csv must hold the same final MSE the runs returned."""
        summary = self.workloads.summary_final_mse(out)
        return [f"summary final MSE of {name} {summary[name]!r} != runs {_group_mean(ops, name)!r}"
                for name in QUALITY_GROUPS if summary[name] != _group_mean(ops, name)]


# 'full' is the one-block transform (n_s = n); 'BW_IBS' every block-sparse
# BW_IBS run.  On cs-long these are the variants of the same names.
QUALITY_GROUPS = {
    "full": lambda op: op["n_s"] == op["n"],
    "BW_IBS": lambda op: op["n_s"] < op["n"] and op["variant"] == "BW_IBS",
}


def _group_mean(ops: list[dict], name: str) -> float:
    """Mean final MSE of a quality group, averaged as harness does."""
    import numpy as np
    finals = [op["final_mse"] for op in ops if QUALITY_GROUPS[name](op)]
    return float(np.mean(finals)) if finals else math.nan


def run(args) -> tuple[dict, dict, bool]:
    ibsmamp = _import_package()
    record = {"environment": environment(ibsmamp, args)}
    reported = record["environment"]["blas_threads_reported"]
    if reported is not None and reported != BLAS_THREADS:
        raise Failure(f"BLAS reports {reported} threads, {BLAS_THREADS} were set")
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runner = Runner(args.workload, args.toy, work_dir)
        with runner.ledger:
            metrics, repeats = (_traced if args.trace else _untraced)(runner, args)
            if args.seed2 is not None:
                record["seed2"] = runner.repeat(args.seed2)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    shas = {json.dumps(r["sha256"], sort_keys=True) for r in repeats}
    if len(shas) != 1:
        runner.problems.append("CSV sha256 differs between repeats of one seed")
        runner.failed = runner.attempted
    record.update(
        repeats=repeats,
        failed_frac=runner.failed / runner.attempted,
        problems=runner.problems,
    )
    correct = not runner.problems and runner.failed == 0
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    return record, result, correct


def _wall(repeats: list[dict]) -> float:
    """Wall time of the fastest repeat: load from other processes on the
    machine only ever adds time, and it comes and goes within a run."""
    return min(r["wall_s"] for r in repeats)


def _untraced(runner: Runner, args):
    setup_s = measure_setup(args.workload, args.seed, args.toy)
    repeats = []
    start = time.perf_counter()
    while True:
        repeats.append(runner.repeat(args.seed))
        if repeats[-1]["failed"]:
            break
        elapsed = time.perf_counter() - start
        if len(repeats) >= 2 and elapsed + repeats[-1]["wall_s"] > args.seconds:
            break
    wall = _wall(repeats)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **repeats[0]["quality"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}, repeats


def _traced(runner: Runner, args):
    from spans import Tracer
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.repeat(args.seed))
        tracer.install()
        try:
            traced.append(runner.repeat(args.seed, tracer))
        finally:
            tracer.uninstall()
        if plain[-1]["failed"] or traced[-1]["failed"]:
            break
        elapsed = time.perf_counter() - start
        if elapsed + plain[-1]["wall_s"] + traced[-1]["wall_s"] > args.seconds:
            break
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    values = tracer.metrics(len(traced), list(IBS_KEYS))
    values["harness.csv_bytes"] = traced[0]["csv_bytes"]
    values["estimators.iters_per_s"] = plain[0]["iters"] / _wall(plain)
    values["trace.overhead_frac"] = _wall(traced) / _wall(plain) - 1.0
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in PER_LAYER.items()}
    return metrics, plain + traced


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--seed2", type=int, default=None,
                        help="also run and check one repeat on this second seed")
    parser.add_argument("--toy", action="store_true",
                        help="shrink every size; used by the self-check")
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.seed2 is not None and args.seed2 < 0):
        parser.error("seeds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy loads; the setup subprocesses inherit it.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    try:
        record, result, correct = run(args)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
