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
    ``History(w, y, dim, max_iters, window)`` starts from the all-zero h_1
    of size ``dim`` with residual y.  ``residual`` is the residual of the
    newest pushed estimate, a buffer row that a later push overwrites.
    """

    def __init__(self, w: np.ndarray, y: np.ndarray, dim: int, max_iters: int,
                 window: int):
        self.w = w
        self.damping_window = window
        self.vartheta = np.zeros(max_iters)
        # Row i holds h_{i+1}, _norms[i] its norm.  Rows below _first are
        # released; row i >= _first sits at row i - _first of _rows, and its
        # residual at rows i % w and i % w + w of _resid.  _gram[:q, :q] is
        # the Gram of the q pushed residuals the next window reads.  Every
        # row of _rows and _resid is written before it is read, so only
        # h_1 is zeroed.
        self._rows = np.empty((max_iters + 1, dim), dtype=np.complex128)
        self._rows[0] = 0.0
        self._norms = np.zeros(max_iters + 1)
        self._first = 0
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
        row = self._rows[count - self._first]
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
        row = count + 1 - self._first   # one past its buffer row
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
        a new one once the kept memory is longer than _BLOCK rows."""
        t = len(p)
        k = _cut(np.abs(p) * self._norms[:t], _ROUNDING)
        if t % _BLOCK == 0 and t > _BLOCK:
            self._release(t, k)
        rows, first = self._rows, self._first
        self._block_gain *= scale
        if t - k <= _BLOCK:
            return p[k:] @ rows[k - first:t - first], t - k
        t0, k0, steps = self._block
        if t < t0 + steps and k >= k0:
            j = t - t0
            total = np.multiply(self._block_gain, self._block_sums[j])
            return np.add(total, p[t0:] @ rows[t0 - first:t - first], out=total), j
        steps = min(_BLOCK, len(self.vartheta) - t + 1)
        # coef[j, i] = vartheta_{t,i} w_{t+j-1-i}: the weights of B_j.
        coef = self.vartheta[:t] * sliding_window_view(self.w, t)[:steps, ::-1]
        k0 = max(_cut(np.abs(coef) * self._norms[:t], _ROUNDING), first)
        if self._block_sums is None:
            self._block_sums = np.empty((_BLOCK, rows.shape[1]), dtype=np.complex128)
        sums = self._block_sums[:steps]
        np.matmul(coef[:, k0:], rows[k0 - first:t - first].view(np.float64),
                  out=sums.view(np.float64))
        self._block = (t, k0, steps)
        self._block_gain = 1.0
        return sums[0].copy(), t - k0

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
        rows no later read needs (see the module docstring), in copies no
        longer than the gap so that none overlaps itself.  The bound is
        computed only when k and the next damping window leave enough."""
        def enough(live):
            gap = live - self._first
            return gap >= _COMPACT * _BLOCK and gap * _COMPACT >= t - live

        live = min(k, t - self.damping_window + 1)
        if not enough(live):
            return
        live = min(live, self._live_bound(t))
        if not enough(live):
            return
        rows, gap, kept = self._rows, live - self._first, t - live
        for start in range(0, kept, gap):
            stop = min(start + gap, kept)
            rows[start:stop] = rows[start + gap:stop + gap]
        self._first = live
