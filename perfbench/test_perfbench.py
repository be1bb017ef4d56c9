"""Fast self-check of the benchmark at toy sizes.

    python3 -m pytest -q perfbench

Runs every workload shrunk (``--toy``) in a fresh process, untraced and
traced, and checks the output contract, the span tree and the byte
identity of the CSVs with a plain ``run_experiment`` call.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEED = 7
WORKLOADS = ("cs-long", "ber-static", "ber-doppler")


def _bench(workload: str, trace: int, cwd: Path = ROOT, run: Path = RUN,
           extra: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs():
    return {(w, t): _bench(w, t) for w in WORKLOADS for t in (0, 1)}


def _lines(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_benchmark_json_matches_the_code(declared):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads
    from ibsmamp import harness
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}
    assert declared["command"] == ["python3", "perfbench/run.py"]
    keys = set()
    for name in run.WORKLOADS:
        experiment, cfg = workloads.resolve(name, SEED)
        if experiment == "cs-mse":
            keys.update(f"{cfg.base}-{cfg.n if v == 'full' else cfg.n_s}" for v in cfg.variants)
        else:
            keys.update(f"{base}-{n_s}" for _, base, n_s in harness._ber_schemes(cfg))
    assert keys == set(run.IBS_KEYS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(runs, declared, workload, trace):
    record, result = _lines(runs[workload, trace])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    env = record["environment"]
    assert env["blas_threads_set"] == 1 and env["seed"] == SEED
    assert {"nproc", "cpu_model", "python", "numpy", "ibsmamp"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_tree_is_consistent(runs, workload):
    _, result = _lines(runs[workload, 1])
    spans = [json.loads(line) for line in
             (ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-spans.jsonl").open()]
    busy, own = {}, {}
    children = {}
    for s in spans:
        duration = s["end_ns"] - s["start_ns"]
        assert 0 <= s["self_ns"] <= duration, s
        busy[s["name"]] = busy.get(s["name"], 0) + duration
        own[s["name"]] = own.get(s["name"], 0) + s["self_ns"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
            children.setdefault(s["parent"], []).append(duration)
    for i, durations in children.items():
        s = spans[i]
        assert s["self_ns"] == s["end_ns"] - s["start_ns"] - sum(durations)
    for name in own:
        assert own[name] <= busy[name], name
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    traced = len([s for s in spans if s["name"] == "harness.run_experiment"])
    assert metrics["estimators.mle_step.self_s"] == pytest.approx(
        own["estimators.mle_step"] * 1e-9 / traced)
    assert metrics["spectral.profile.busy_s"] == pytest.approx(
        busy["spectral.profile"] * 1e-9 / traced)
    assert metrics["spectral.profile.busy_s"] >= metrics["spectral.eigen_bounds.busy_s"]
    assert metrics["estimators.runs"] * traced == len(
        [s for s in spans if s["name"] == "estimators.run"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_csvs_match_a_plain_run_experiment(runs, workload, tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from ibsmamp import harness
    import workloads
    experiment, cfg = workloads.resolve(workload, SEED, toy=True)
    harness.run_experiment(experiment, cfg, tmp_path)
    plain = {p.name: workloads.sha256(p) for p in sorted(tmp_path.glob("*.csv"))}
    for trace in (0, 1):
        record, _ = _lines(runs[workload, trace])
        for repeat in record["repeats"]:
            assert repeat["sha256"] == plain


def test_second_seed_is_checked_and_recorded():
    record, result = _lines(_bench("ber-doppler", 0, extra=("--seed2", str(SEED + 1))))
    assert record["seed2"]["seed"] == SEED + 1 and record["seed2"]["failed"] == 0
    assert record["seed2"]["sha256"] != record["repeats"][0]["sha256"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("ber-static", 0, cwd=tmp_path, run=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
