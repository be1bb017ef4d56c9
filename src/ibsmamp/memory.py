"""The history of the memory linear estimator: its estimates, their memory
sum and the damping window.

The memory sum skips the oldest rows that cannot change r_t beyond
rounding.  With the row norms ||h_i|| stored once per row, step t keeps
rows k..t-1 for the largest k whose dropped weight
sum_{i<k} |p_{t,i}| ||h_i|| is below u sum_i |p_{t,i}| ||h_i||, u = 2^-53.
The dropped part is then smaller than the error bound
gamma_t sum_i |p_{t,i}| ||h_i|| (gamma_t ~ t u) that the full floating-point
sum already carries, whatever the decay of p; eps_t and p are unchanged.

A long kept memory is summed in blocks of steps, so that each old row is
read once per block instead of once per step.  Every step scales all
existing weights vartheta_i by the same theta_t lambda_dagger, so for a
row i < t0 the weight at step t0 + j factors as

    p_{t0+j,i} = F_j vartheta_{t0,i} w_{t0+j-1-i},
    F_j = prod_{s=t0+1}^{t0+j} theta_s lambda_dagger,   F_0 = 1.

A step whose kept memory has more than _BLOCK rows, and that no block
covers, starts one at t0 = t: a single real matrix product over the float64
view of rows k0..t0-1 gives the partial sums
B_j = sum_{k0<=i<t0} vartheta_{t0,i} w_{t0+j-1-i} h_i for the J steps
j < min(_BLOCK, max_iters - t0 + 1), and step t0 + j then sums
F_j B_j + sum_{t0<=i<t0+j} p_{t0+j,i} h_i.  The cut k0 is the smallest over
j of the rounding cut above, applied to the weights of B_j against their
own total.  That total leaves out the rows i >= t0 and the positive factor
|F_j| scales both sides, so it is a lower bound on the total at step
t0 + j, and k0 keeps every row that step's own cut keeps; a step whose own
cut falls below k0 starts a new block.  A kept memory of at most _BLOCK
rows is summed per step as above, to the bit.

The history holds only the rows that a step can still read.  The same
factorization bounds every cut from step t on from below: at t' >= t the
rows i < t weigh vartheta_{t,i} |w_{t'-1-i}| ||h_i|| times a factor
common to all of them, and the rows pushed after t only raise the total.
So the rounding cut of those weights against their own total is at most
the cut of step t', and at most the k0 of any block that starts at t'.
Every _BLOCK steps from t = 2 _BLOCK on, before its sum, step t takes the
minimum of that cut over t <= t' <= max_iters, with the share u / 4 as a
margin for the rounding of the weights, of their running sums and of the
scaling steps between t and t'; a non-finite weight makes it zero.  The
rows below it, below the cut of step t and below the oldest row of the
next damping window are released once they number at least _COMPACT
blocks and 1/_COMPACT of the rows kept: the kept rows move to the front
of the same buffer.  A block serves a step t' from its start t0 on only
when t' keeps more than _BLOCK rows, so the cut of t', and with it the
bound, lies below t0.  Only the row storage moves: the norms, the weights
and every cut keep logical row numbers, so every sum reads the same rows
with the same weights, and r_t keeps its bits.  The pages of the buffer
past the highest row written are never touched, so memory grows with the
rows kept, not with max_iters.  A weight that turns non-finite only after
rows were released sums from the oldest kept row.

A long memory is folded into a Gauss quadrature of the spectrum.  Let
(x_l, mu_l), l < q = _NODES, be the Gauss rule of the measure whose moments
are w, so that w_k is sum_l mu_l x_l^k exactly for k < 2q and closely
beyond (``spectral.gauss_rule``, computed at a run's first fold, never
before).  A new block at step t looks at the rows it holds below
t - max(_BLOCK, w - 1), which neither its own steps' recent rows nor the
next damping window need.  The first fold takes them once more than q of
them lie at or above the block's cut, a later one once they number _BATCH
blocks.  Folding at step b keeps, for the rows i below the new oldest row
c, the accumulators

    S_l = sum_{i<c} vartheta_{b,i} x_l^{b-1-i} h_i

in the first q rows of the buffer, and releases the rows: the kept rows
move down behind the accumulators.  The first fold computes them a few
columns at a time, so that they overwrite the rows they are folded from.
A later fold rebases the old ones to step b, multiplying S_l by
x_l^{b-b'} vartheta_{b,b'-1} (b' the previous fold, vartheta_{b,b'-1} the
product of the scalings since b'), and adds the new rows' terms.  Since
every step scales all weights alike, the folded rows weigh
F_j sum_l mu_l x_l^{t0+j-b} vartheta_{t0,b-1} S_l at step t0 + j of a block
that starts at t0 >= b.  A block whose cut lies below c therefore reads the
accumulators as q more rows of its product, with these weights, and the
rows from c on; a block whose cut does not reads the rows from its cut, as
before.  A weight or norm that is non-finite among the rows due keeps the
fold from taking any of them, as it keeps the release bound at zero.  The
release drops the accumulators once its bound reaches c.

The fold trades the exact sum for memory.  On the default ``cs-mse``
sensing diagonal the rule of q = 64 nodes gives every w_k to k = 600
within 1.3e-13 of w_0 (q = 48: 1e-10, q = 32: 7e-8), and a folded memory
sum stays within about 4e-16 of sum_i |p_i| ||h_i|| of the exact one: the
size of its own rounding, but not its bits.  A run that never folds keeps
the exact sum to the bit.  One that does holds the q accumulators and at
most four blocks of rows besides the damping window, where it held a row
for every step it could still read.

The damping step reads its window in place.  It stages the new candidate
in the next free history row, so the trailing estimates and the candidate
are one slice of the history, and ``push`` overwrites that row with the
damped estimate.  Each residual is written twice, at rows i % w and
i % w + w of a buffer of 2w rows (w = damping_window), so the trailing
w - 1 pushed residuals and the candidate's residual are one slice of w
rows as well.  Both combines are then ``zeta @ view``: the same contiguous
rows in the same order as ``np.tensordot(zeta, np.vstack(...))``, hence the
same zgemv call and the same bits.  The raw Gram Re<r_i, r_j> of the pushed
residuals is carried across steps: ``push`` adds the products of the new
residual with the pushed ones the next window keeps, and ``gram`` those of
the candidate's residual.  Every entry is still one ``np.vdot`` of the same
two rows with the older one first, computed once instead of once per
window it appears in, so the covariance is unchanged to the bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Unit roundoff of float64: memory rows whose combined weight is below this
# share of the total cannot change r_t beyond rounding.
_ROUNDING = 2.0 ** -53
# Steps per block of the memory sum (see the module docstring).
_BLOCK = 16
# Rows are released at least _COMPACT blocks and 1/_COMPACT of those kept
# at a time (see the module docstring).
_COMPACT = 4
# Nodes of the Gauss rule that a long memory is folded into, and the blocks
# of old rows that each later fold takes (see the module docstring).
_NODES = 64
_BATCH = 2
# The first fold computes this many float64 entries of its accumulators at
# a time (see History._fold).
_FOLD_CHUNK = 1 << 17


def norm(v: np.ndarray) -> float:
    """np.linalg.norm of a complex vector: its own sum, without its
    dispatch, so the bits are the same."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _cut(weight: np.ndarray, share: float) -> int:
    """The rounding cut of the weights |p_i| ||h_i|| of one sum at ``share``,
    the least over the rows of a 2-d ``weight``, which the running sums
    replace.  The comparison is strict, so an infinite or NaN total keeps
    every row from its first non-finite weight on."""
    np.add.accumulate(weight, axis=-1, out=weight)
    below = weight < share * weight[..., -1:]
    return int(np.minimum.reduce(np.add.reduce(below, axis=-1), axis=None))


class History:
    """The estimates h_1, h_2, ... that a later ``estimators.mle_step`` can
    still read, with their norms and weights p_{t,i} = vartheta_{t,i}
    w_{t-1-i}, and the residuals y - A Xi h_i of the damping window.
    ``History(w, y, dim, max_iters, window, rule)`` starts from the all-zero
    h_1 of size ``dim`` with residual y; ``rule(q)`` returns the Gauss rule
    (x, mu) of at most q nodes whose moments sum(mu * x^k) stand for w_k,
    and is called at the first fold only.  ``residual`` is the residual of
    the newest pushed estimate, a buffer row that a later push overwrites.
    """

    def __init__(self, w: np.ndarray, y: np.ndarray, dim: int, max_iters: int,
                 window: int, rule: Callable[[int], tuple[np.ndarray, np.ndarray]]):
        self.w = w
        self.damping_window = window
        self.vartheta = np.zeros(max_iters)
        # Row i holds h_{i+1}, _norms[i] its norm.  Rows below _first are
        # released or folded; row i >= _first sits at row i - _shift of
        # _rows, and its residual at rows i % w and i % w + w of _resid.
        # After a fold at step _folded (0: none since the last release),
        # the first len(x) rows of _rows hold the accumulators S_l.
        # _gram[:q, :q] is the Gram of the q pushed residuals the next
        # window reads.  Every row of _rows and _resid is written before it
        # is read, so only h_1 is zeroed.
        self._rows = np.empty((max_iters + 1, dim), dtype=np.complex128)
        self._rows[0] = 0.0
        self._norms = np.zeros(max_iters + 1)
        self._first = self._shift = self._folded = 0
        self._rule = rule
        self._count = 0
        self._resid = np.empty((2 * window, y.shape[0]), dtype=np.complex128)
        self._gram = np.zeros((window, window))
        # The block of the memory sum: (t0, k0, J), F_j of the current step,
        # and B_j in row j of _block_sums, allocated at the first block.
        self._block = (0, 0, 0)
        self._block_gain = 1.0
        self._block_sums = None
        self.push(self._rows[0], y)

    def push(self, estimate: np.ndarray, residual: np.ndarray) -> None:
        """Record the post-damping estimate, its norm and its cached
        residual, whose products the next window's Gram carries."""
        count, w = self._count, self.damping_window
        slot = count % w
        row = self._rows[count - self._shift]
        row[:] = estimate
        self._norms[count] = norm(row)
        self._resid[slot] = self._resid[slot + w] = residual
        self.residual = self._resid[slot]
        kept = min(w - 1, count + 1)    # pushed rows of the next window
        if kept:
            if count >= w - 1:          # the window is full: drop its oldest row
                self._gram[:kept - 1, :kept - 1] = self._gram[1:kept, 1:kept]
            self.gram(self._resid[slot + w - kept + 1:slot + w + 1])
        self._count = count + 1

    def window(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the damping window: the trailing min(w - 1, pushed)
        estimates and their residuals, oldest first, then the next free row
        of each, where the caller stages a new candidate and its residual."""
        count, w = self._count, self.damping_window
        k = min(w, count + 1)
        end = (count + 1) % w + w       # one past the slot of row `count`
        row = count + 1 - self._shift   # one past its buffer row
        return self._rows[row - k:row], self._resid[end - k:end]

    def gram(self, rows: np.ndarray) -> np.ndarray:
        """The carried Gram of ``rows``, a window's residuals as ``window``
        returns them or its pushed part, with the last row's products."""
        k = rows.shape[0]
        gram, last = self._gram[:k, :k], rows[-1]
        for i in range(k):
            gram[i, k - 1] = gram[k - 1, i] = np.vdot(rows[i], last).real
        return gram

    def weights(self, t: int, scale: float) -> np.ndarray:
        """The weights p_{t,i} of step t, once every older vartheta_i is
        scaled by ``scale`` and the newest row weighs one."""
        vartheta = self.vartheta[:t]
        vartheta[:-1] *= scale
        vartheta[-1] = 1.0
        return vartheta * self.w[t - 1::-1]

    def memory_sum(self, p: np.ndarray, scale: float) -> tuple[np.ndarray, int]:
        """Return (sum_i p_i h_i over the rows kept by the rounding cut,
        history rows read) for step t = len(p), whose update scaled every
        older weight by ``scale``: per step, or through the current block or
        a new one once the kept memory is longer than _BLOCK rows, a new
        block reading the folded rows through their accumulators."""
        t = len(p)
        k = _cut(np.abs(p) * self._norms[:t], _ROUNDING)
        if t % _BLOCK == 0 and t > _BLOCK:
            self._release(t, k)
        rows, shift = self._rows, self._shift
        self._block_gain *= scale
        if t - k <= _BLOCK:
            return p[k:] @ rows[k - shift:t - shift], t - k
        t0, k0, steps = self._block
        if t < t0 + steps and k >= k0:
            j = t - t0
            total = np.multiply(self._block_gain, self._block_sums[j])
            return np.add(total, p[t0:] @ rows[t0 - shift:t - shift], out=total), j
        steps = min(_BLOCK, len(self.vartheta) - t + 1)
        # coef[j, i] = vartheta_{t,i} w_{t+j-1-i}: the weights of B_j.
        coef = self.vartheta[:t] * sliding_window_view(self.w, t)[:steps, ::-1]
        k0 = _cut(np.abs(coef) * self._norms[:t], _ROUNDING)
        if self._block_sums is None:
            self._block_sums = np.empty((_BLOCK, rows.shape[1]), dtype=np.complex128)
        self._fold(t, k0)
        first, shift = self._first, self._shift
        if self._folded and k0 < first:
            # Accumulator l weighs mu_l x_l^(t+j-b) vartheta_{t,b-1} in B_j.
            x, mu = self._quadrature
            b = self._folded
            lead = x ** np.arange(t - b, t - b + steps)[:, None] * (mu * self.vartheta[b - 1])
            coef, start = np.concatenate((lead, coef[:, first:]), axis=1), 0
        else:
            k0 = max(k0, first)
            coef, start = coef[:, k0:], k0 - shift
        sums = self._block_sums[:steps]
        np.matmul(coef, rows[start:t - shift].view(np.float64), out=sums.view(np.float64))
        self._block = (t, k0, steps)
        self._block_gain = 1.0
        return sums[0].copy(), t - shift - start

    def _fold(self, t: int, k0: int) -> None:
        """At the start of a block at step t whose cut is k0, fold the rows
        that neither its last _BLOCK steps nor the next damping window read
        into the accumulators, once they are due and every weight among
        them is finite (see the module docstring)."""
        first, stop = self._first, t - max(_BLOCK, self.damping_window - 1)
        if self._folded:
            if stop - first < _BATCH * _BLOCK:
                return
        elif stop - max(k0, first) <= _NODES:
            return
        vartheta = self.vartheta[first:stop]
        if not np.isfinite(vartheta * self._norms[first:stop]).all():
            return
        if not self._folded:
            self._quadrature = self._rule(_NODES)
        x, mu = self._quadrature
        q = x.size
        # coef[l, i] = vartheta_{t,i} x_l^(t-1-i) over the rows folded now.
        coef = x[:, None] ** np.arange(t - 1 - first, t - 1 - stop, -1) * vartheta
        old = self._rows[first - self._shift:stop - self._shift].view(np.float64)
        if self._folded:
            # Rebase the accumulators to step t, then add the new rows'
            # terms, _BLOCK accumulators at a time through the block sums.
            acc, b = self._rows[:q], self._folded
            np.multiply(acc, (x ** (t - b) * self.vartheta[b - 1])[:, None], out=acc)
            for lo in range(0, q, _BLOCK):
                part = self._block_sums[:min(_BLOCK, q - lo)]
                np.matmul(coef[lo:lo + _BLOCK], old, out=part.view(np.float64))
                np.add(acc[lo:lo + _BLOCK], part, out=acc[lo:lo + _BLOCK])
        else:
            # The accumulators overwrite the first rows they are folded
            # from, so they are computed a few columns at a time.
            width = max(1, _FOLD_CHUNK // q)
            part = np.empty((q, width))
            for lo in range(0, old.shape[1], width):
                cols = slice(lo, lo + width)
                out = part[:, :old[:, cols].shape[1]]
                np.matmul(coef, old[:, cols], out=out)
                old[:q, cols] = out
        self._close(q, stop - self._shift - q, t - stop)
        self._first, self._shift, self._folded = stop, stop - q, t

    def _close(self, at: int, gap: int, kept: int) -> None:
        """Move the ``kept`` buffer rows from row at + gap down to row at, in
        copies no longer than the gap so that none overlaps itself."""
        rows = self._rows
        for start in range(at, at + kept, gap):
            stop = min(start + gap, at + kept)
            rows[start:stop] = rows[start + gap:stop + gap]

    def _live_bound(self, t: int) -> int:
        """A row below which no memory sum from step t on reads (see the
        module docstring)."""
        lags = sliding_window_view(np.abs(self.w), t)[:len(self.vartheta) - t + 1, ::-1]
        # weight[j, i] is |vartheta_{t,i} w_{t+j-1-i}| ||h_i||.
        weight = lags * np.abs(self.vartheta[:t] * self._norms[:t])
        cut = _cut(weight, _ROUNDING / 4)
        return cut if np.isfinite(weight[:, -1]).all() else 0

    def _release(self, t: int, k: int) -> None:
        """Before the memory sum of step t, whose own cut is k, release the
        rows no later read needs, and with them any accumulators (see the
        module docstring).  The bound is computed only when k and the next
        damping window leave enough."""
        def enough(live):
            gap = live - self._shift
            return live >= self._first and gap >= _COMPACT * _BLOCK and gap * _COMPACT >= t - live

        live = min(k, t - self.damping_window + 1)
        if not enough(live):
            return
        live = min(live, self._live_bound(t))
        if not enough(live):
            return
        self._close(0, live - self._shift, t - live)
        self._first = self._shift = live
        self._folded = 0
