"""In-memory span tracing of ibsmamp's layers, installed from outside src/.

``Tracer.install`` wraps the functions and methods of each module that
mark a layer boundary, at the names their callers look up (``harness.run_cd_mamp``,
``ibs.fft_forward`` before transforms bind it, ``LinearOperator.apply`` at
class level dispatched on the operator type, ...).  Wrappers pass every
argument and result through untouched; they only record a span: name,
start, end, parent span and the index of the enclosing estimator run.
``uninstall`` restores the originals.  Per-layer metrics are derived from
the spans once the traced repeats are over.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from time import perf_counter_ns

from ibsmamp import denoisers, estimators, harness, ibs, operators, scenarios, spectral
from ibsmamp.ibs import relative_complexity

# (module, attribute looked up by the caller, span name).  The kernels are
# bound into IbsOperator at construction, so they are patched in ``ibs``.
_FUNCTIONS = (
    (harness, "run_cd_mamp", "estimators.run"),
    (harness, "build_ibs_transform", "ibs.build"),
    (harness, "simulate_observation", "scenarios.simulate"),
    (harness, "write_csv", "harness.write_csv"),
    (estimators, "mle_step", "estimators.mle_step"),
    (estimators, "nle_orthogonalize", "estimators.nle"),
    (estimators, "damping_update", "estimators.damping"),
    (estimators, "_cross_cov_from_residuals", "estimators.damping"),
    (estimators, "spectral_profile", "spectral.profile"),
    (spectral, "eigen_bounds", "spectral.eigen_bounds"),
    (spectral, "trace_moments", "spectral.trace_moments"),
    (spectral, "materialize_dense", "operators.materialize"),
    (denoisers, "denoise_bernoulli_gaussian", "denoisers.bg"),
    (denoisers, "denoise_qpsk", "denoisers.qpsk"),
    (ibs, "make_permutation", "rng.make_permutation"),
    (ibs, "fft_forward", "kernels.fft"),
    (ibs, "fft_adjoint", "kernels.fft"),
    (ibs, "fwht_forward", "kernels.fwht"),
)

# Operator type -> (span name of apply, span name of apply_adjoint).
_OPERATORS = {
    operators.DiagonalOperator: ("operators.diag", "operators.diag"),
    scenarios.CirculantOperator: ("scenarios.circulant", "scenarios.circulant"),
    scenarios.TimeVaryingChannelOperator: ("scenarios.tv", "scenarios.tv"),
    ibs.IbsOperator: ("ibs.apply", "ibs.adjoint"),
}

ROOT = "harness.run_experiment"


def _tag(name: str, args) -> object:
    """Exact work count or key recorded with a span, read from the arguments."""
    if name == "estimators.mle_step":
        state = args[0]
        return 16 * (state.iteration + 1) * state.dim      # bytes of p @ hist[:t]
    if name.startswith("kernels."):
        v = args[0]
        return v.size * int(math.log2(v.shape[-1]))         # n log2 n_s
    if name in ("ibs.apply", "ibs.adjoint", "estimators.run"):
        op = args[0] if name != "estimators.run" else args[1]
        return f"{op.spec.base}-{op.spec.n_s}"
    return None


class Tracer:
    """Records spans while installed; one instance per benchmark process."""

    def __init__(self):
        # Span: [name, start_ns, end_ns, parent index, run index, tag].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._run = -1
        self._saved: list[tuple] = []
        self.runs: list[dict] = []          # one record per estimator run
        self._profile_keys: dict = {}       # (id(A), depth) -> A, keeps ids unique
        self.profile_calls = 0

    def span(self, name: str, fn, tag=None):
        """Call fn() inside a span named name; returns its result."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0, 0, parent, self._run, tag]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter_ns()
        try:
            return fn()
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def root(self, fn):
        """Call fn(), one run_experiment, inside the root span of a repeat."""
        return self.span(ROOT, fn)

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "estimators.run":
            return functools.wraps(fn)(
                lambda *args, **kwargs: tracer._traced_run(fn, args, kwargs))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "spectral.profile":
                tracer.profile_calls += 1
                A, depth = args[0], kwargs.get("depth", args[1] if len(args) > 1 else None)
                tracer._profile_keys.setdefault((id(A), depth), A)
            return tracer.span(name, lambda: fn(*args, **kwargs), _tag(name, args))
        return wrapper

    def _traced_run(self, fn, args, kwargs):
        instance, op = args[0], args[1]
        outer = self._run
        self._run = len(self.runs)
        index = len(self.spans)
        try:
            result = self.span("estimators.run", lambda: fn(*args, **kwargs),
                               _tag("estimators.run", args))
        finally:
            self._run = outer
        meter = result.meter
        self.runs.append({
            "span": index, "variant": op.spec.variant, "n_s": op.spec.n_s, "n": op.cols,
            "taps": getattr(instance.A, "taps_per_row", 1), "iters": len(result.points),
            "transform_applies": meter.transform_applies,
            "channel_applies": meter.channel_applies, "vector_points": meter.vector_points,
        })
        return result

    def _wrap_method(self, method: str, which: int):
        original = getattr(operators.LinearOperator, method)
        tracer = self

        @functools.wraps(original)
        def wrapper(op, v):
            names = _OPERATORS.get(type(op))
            if names is None:
                return original(op, v)
            name = names[which]
            return tracer.span(name, lambda: original(op, v), _tag(name, (op,)))
        return original, wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in _FUNCTIONS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        for which, method in enumerate(("apply", "apply_adjoint")):
            original, wrapper = self._wrap_method(method, which)
            self._saved.append((operators.LinearOperator, method, original))
            setattr(operators.LinearOperator, method, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines, with self time already computed."""
        self_ns = self.self_times()
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run": run, "tag": tag,
                                     "self_ns": self_ns[i]}) + "\n")

    def self_times(self) -> list[int]:
        """Duration minus the time its children cover (children never overlap:
        calls are nested and single-threaded)."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, repeats: int, apply_keys: list[str]) -> dict[str, float]:
        """Per-layer metrics per traced repeat (totals divided by ``repeats``)."""
        self_ns = self.self_times()
        calls: dict[str, int] = {}
        busy: dict[str, int] = {}
        own: dict[str, int] = {}
        tag_sum: dict[str, int] = {}
        per_key: dict[str, list[int]] = {}
        for i, (name, start, end, _, _, tag) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0) + end - start
            own[name] = own.get(name, 0) + self_ns[i]
            if isinstance(tag, int):
                tag_sum[name] = tag_sum.get(name, 0) + tag
            elif name in ("ibs.apply", "ibs.adjoint"):
                acc = per_key.setdefault(tag, [0, 0])
                acc[0] += 1
                acc[1] += end - start

        def per(value):
            return value / repeats

        def seconds(table, name):
            return per(table.get(name, 0)) * 1e-9

        iters = sum(r["iters"] for r in self.runs)
        m = {
            "estimators.iters": per(iters),
            "estimators.runs": per(len(self.runs)),
            "estimators.mle_step.self_s": seconds(own, "estimators.mle_step"),
            "estimators.mle_step.bytes_computed": per(tag_sum.get("estimators.mle_step", 0)),
            "estimators.run.self_s": seconds(own, "estimators.run"),
            "estimators.damping.self_s": seconds(own, "estimators.damping"),
            "estimators.nle.self_s": seconds(own, "estimators.nle"),
        }
        for key in ("transform_applies", "channel_applies", "vector_points"):
            total = sum(r[key] for r in self.runs)
            m[f"estimators.meter.{key}_per_iter"] = total / iters if iters else 0.0
        profile_calls = self.profile_calls
        m["spectral.profile.calls"] = per(profile_calls)
        for name in ("spectral.profile", "spectral.eigen_bounds", "spectral.trace_moments"):
            m[f"{name}.busy_s"] = seconds(busy, name)
        m["spectral.profile.redundant_frac"] = (
            1.0 - len(self._profile_keys) / profile_calls if profile_calls else 0.0)
        for name in ("operators.diag", "operators.materialize", "scenarios.circulant",
                     "scenarios.tv", "denoisers.bg", "denoisers.qpsk",
                     "rng.make_permutation"):
            m[f"{name}.calls"] = per(calls.get(name, 0))
            m[f"{name}.busy_s"] = seconds(busy, name)
        m["scenarios.simulate.busy_s"] = seconds(busy, "scenarios.simulate")
        for name in ("ibs.apply", "ibs.adjoint", "kernels.fft", "kernels.fwht"):
            m[f"{name}.calls"] = per(calls.get(name, 0))
            m[f"{name}.self_s"] = seconds(own, name)
        for name in ("kernels.fft", "kernels.fwht"):
            m[f"{name}.points"] = per(tag_sum.get(name, 0))
        for key in apply_keys:
            count, ns = per_key.get(key, (0, 0))
            m[f"ibs.apply_us.{key}"] = ns / count * 1e-3 if count else 0.0
        m["ibs.build.busy_s"] = seconds(busy, "ibs.build")
        m.update(self._iter_ratio())
        m["harness.write_csv.busy_s"] = seconds(busy, "harness.write_csv")
        m["harness.self_s"] = seconds(own, ROOT)
        return m

    def _iter_ratio(self) -> dict[str, float]:
        """Per-iteration time of BW_IBS at its smallest block size over that of
        the full transform, next to relative_complexity's overall ratio with
        the channel's taps per row as p."""
        def per_iter(runs):
            ns = sum(self.spans[r["span"]][2] - self.spans[r["span"]][1] for r in runs)
            return ns / sum(r["iters"] for r in runs)

        full = [r for r in self.runs if r["n_s"] == r["n"]]
        blocks = [r for r in self.runs if r["n_s"] < r["n"] and r["variant"] == "BW_IBS"]
        if not full or not blocks:
            return {"ibs.iter_ratio.measured": 0.0, "ibs.iter_ratio.model": 0.0}
        n_s = min(r["n_s"] for r in blocks)
        blocks = [r for r in blocks if r["n_s"] == n_s]
        ref = blocks[0]
        return {"ibs.iter_ratio.measured": per_iter(blocks) / per_iter(full),
                "ibs.iter_ratio.model": relative_complexity(ref["n"], n_s, ref["taps"])[1]}
