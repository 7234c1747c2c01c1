"""Monte Carlo ground truth for the analytic MSE predictions.

Simulates the switching system, runs each candidate filter on the
simulated measurements and accumulates empirical error moments.  Every
analytic series in this package is cross-checked against this module.

Reproducibility contract: samples are processed in fixed chunks of
``CHUNK``; chunk ``c`` draws from a Philox counter-based generator keyed
by ``(seed, c)``, with the counter's last word distinguishing purposes
(0 for the system simulation, 1 for the switching filter's detection
draws).  Partial results are reduced in chunk order, so the output is
bitwise identical for a given seed regardless of how many threads
computed the chunks, and the switching filter's detection noise never
perturbs the simulated trajectories.  Every switching-filter spec is the
same filter on the same detection stream, and each filter's sums are
computed on their own, so adding or removing any filter leaves each other
filter's result bitwise unchanged.  A chunk keeps only the current step's
states, estimates and errors; their Gram product joins that step's moment
sums.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional, Sequence

import numpy as np

from .model import (DetectionModel, FilterSpec, SldsModel,
                    _check_number, _seed_error)
from .kalman import _bank, filter_groups

CHUNK = 1024

_PURPOSE_SIM = 0
_PURPOSE_DETECT = 1


def _rng(seed: int, chunk: int, purpose: int = _PURPOSE_SIM) -> np.random.Generator:
    """The pinned per-chunk generator; see the module docstring."""
    key = np.array([seed, chunk], dtype=np.uint64)
    counter = np.array([0, 0, 0, purpose], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _noise_transform(cov: np.ndarray) -> np.ndarray:
    """L with L @ L.T = cov; falls back to an eigendecomposition when the
    covariance is singular (legitimate for zero-noise test models)."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


@lru_cache(maxsize=8)
def _offsets(z: int, count: int) -> np.ndarray:
    """The flat offsets ``(z, count)`` of one row of a bank ``(r, z,
    count)``, built once per chunk size and shared read-only."""
    flat = np.arange(z * count).reshape(z, count)
    flat.flags.writeable = False
    return flat


def _pick(bank: np.ndarray, choice: np.ndarray,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """Column ``i`` of ``bank[choice[i]]`` for each run ``i``, with one flat
    ``take``: every run keeps its own mode's row of a bank ``(r, z, count)``.
    The offsets are in range by construction, so ``take`` runs unchecked,
    which also spares a buffered copy of ``out``."""
    _, z, count = bank.shape
    flat = choice * (z * count) + _offsets(z, count)
    return bank.reshape(-1).take(flat, out=out, mode="clip")


class _System:
    """The switching system advanced one step at a time on state-major
    ``(z, count)`` states.  Draw order (fixed, part of the determinism
    contract): initial-state noise, then per step the mode uniform, the
    process noise and the measurement noise."""

    def __init__(self, model: SldsModel):
        self.model, self.L0 = model, _noise_transform(model.init.cov)
        self.AL = np.array([np.hstack([mode.A, _noise_transform(mode.Q)])
                            for mode in model.modes])
        self.HL = np.hstack([model.meas.H, _noise_transform(model.meas.R)])
        # Cumulative sums of non-negative rows never decrease, so counting
        # the first r - 1 at or below u gives min(count of all r, r - 1)
        last = model.r - 1
        self.cum_prior = np.cumsum(model.chain.prior)[:last, None]
        self.cum_cols = np.cumsum(model.chain.Z, axis=1).T[:last]

    def start(self, rng: np.random.Generator, count: int) -> np.ndarray:
        noise = rng.standard_normal((count, self.model.z))
        return self.model.init.mean[:, None] + self.L0 @ noise.T

    def step(self, rng: np.random.Generator, x: np.ndarray, mode):
        """(modes, states, measurements) of the next step from the states
        ``x`` and the modes of the last step (None before step 1)."""
        model, count = self.model, x.shape[1]
        u = rng.random(count)
        cum = self.cum_prior if mode is None else self.cum_cols.take(mode, axis=1)
        mode = (cum <= u).sum(axis=0)
        noise = rng.standard_normal((count, model.z))
        x = _pick(self.AL @ np.concatenate([x, noise.T]), mode)
        noise = rng.standard_normal((count, model.m))
        return mode, x, self.HL @ np.concatenate([x, noise.T])


def _detect(rng, truth: np.ndarray, det: DetectionModel, r: int) -> np.ndarray:
    """One step's detected modes: the true mode with probability p_d, else
    uniform over the wrong ones.  One uniform draw, then (if r > 2) one
    integer draw for the wrong mode.  At r = 2 the wrong mode is the other
    one, and the draw skipped there, ``integers(0, 1)``, is always 0 and
    consumes no bits, so the stream is the same."""
    if r < 2:
        return truth
    hit = rng.random(truth.size) < det.p_d
    if r == 2:
        return np.where(hit, truth, 1 - truth)
    wrong = rng.integers(0, r - 1, size=truth.size)
    wrong = wrong + (wrong >= truth)      # skip over the true index
    return np.where(hit, truth, wrong)


class _Replay:
    """The distinct filters of ``kalman.filter_groups`` advanced together
    on closed-loop maps, ``x̂_n = M_n x̂_{n-1} + K_n y_n = [M_n | K_n]
    [x̂_{n-1}; y_n]`` from ``x̂_0 = x0``.  Estimates ``(G, z, count)`` hold
    one row per distinct filter, spec f's being row group[f].  ``MK`` holds
    ``[M | K]`` (rows, N, z, z+m), and ``M`` and ``K`` are its views; they
    keep the bank's rows: the switching filter's r mode rows lead, then
    one row per fixed-gain filter, so estimate row g >= 1 runs bank row
    ``lead + g``.  When ``lead`` (r - 1) is not 0, the switching filter's
    estimate, row 0, takes its r candidate updates from one stacked
    product on its r mode rows and keeps each run's detected one."""

    def __init__(self, bank: tuple, specs: Sequence[FilterSpec],
                 model: SldsModel, det: Optional[DetectionModel]):
        self.det, self.r, z = det, model.r, model.z
        groups, self.group = filter_groups(model.r, det, specs)
        rows = np.concatenate([rows.ravel() for rows, _ in groups])
        A, K = (X[rows] for X in bank)
        self.MK = np.concatenate([A - K @ (model.meas.H @ A), K], axis=-1)
        self.M, self.K = self.MK[..., :z], self.MK[..., z:]
        self.G = sum(len(rows) for rows, _ in groups)
        self.lead = len(rows) - self.G        # the SKF's first r - 1 rows
        self.x0 = model.init.mean[:, None]

    def start(self, count: int) -> tuple:
        """A chunk's buffers: the operand ``[x̂; y]`` (G, z+m, count), its
        estimates at x0, and the switching filter's candidates (r z,
        count), None without one."""
        z = self.M.shape[-1]
        op = np.empty((self.G, self.MK.shape[-1], count))
        op[:, :z] = self.x0
        return op, np.empty((self.r * z, count)) if self.lead else None

    def step(self, n: int, buffers: tuple, y: np.ndarray, truth, rng,
             out: np.ndarray) -> np.ndarray:
        """Estimates at step n >= 1 into ``out`` (G, z, count), from the
        chunk's ``buffers`` (see ``start``), which hold those at n - 1,
        measurements ``y`` (m, count), true modes and a detection rng."""
        op, cand = buffers
        skf = 1 if self.lead else 0       # estimate rows picked by detection
        r, z, count = self.r, self.M.shape[-1], y.shape[1]
        op[:, z:] = y
        np.matmul(self.MK[skf + self.lead:, n - 1], op[skf:], out=out[skf:])
        if skf:
            np.matmul(self.MK[:r, n - 1].reshape(r * z, -1), op[0], out=cand)
            _pick(cand.reshape(r, z, count), _detect(rng, truth, self.det, r),
                  out=out[0])
        op[:, :z] = out
        return out


def _gram(V: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``V Vᵀ`` of ``V = [1; e; |e|²]`` (..., z+2, count), last row filled.

    Rows 0..z come from one GEMM of ``V`` without its last row against
    ``Vᵀ``: the operands' row counts differ, so NumPy does not take its
    slower SYRK path, and V is not copied.  The last row mirrors the last
    column and Σ|e|⁴ is one dot product, so the result is as symmetric as
    the GEMM's square block, which the tests pin as exactly symmetric."""
    e, sq = V[..., 1:-1, :], V[..., -1, :]
    np.einsum("...ic,...ic->...c", e, e, out=sq)
    if out is None:
        out = np.empty(V.shape[:-1] + V.shape[-2:-1])
    np.matmul(V[..., :-1, :], V.swapaxes(-1, -2), out=out[..., :-1, :])
    out[..., -1, :-1] = out[..., :-1, -1]
    np.einsum("...c,...c->...", sq, sq, out=out[..., -1, -1])
    return out


@dataclass(frozen=True)
class SimRun:
    """Error-moment accumulators of one filter over a sample set.

    ``gram`` holds, per step 0..N, the sum over samples of ``V Vᵀ`` with
    ``V = [1; e; |e|²]``.  Its read-only views are the sample count and
    the sums of the error, its outer product, the squared norm, its square
    and the error scaled by it (for variance-of-variance estimates).
    Merging two runs is plain addition, so chunked reductions are exact.
    Every sample statistic (covariance, variance, standard error) is NaN
    with fewer than two samples.
    """

    gram: np.ndarray

    def __post_init__(self):
        self.gram.flags.writeable = False

    @classmethod
    def from_errors(cls, errors: np.ndarray) -> "SimRun":
        """Sums of errors ``(samples, N+1, z)``, one Gram product per step."""
        samples, n_plus_1, z = errors.shape
        V = np.ones((n_plus_1, z + 2, samples))
        V[:, 1:-1] = errors.transpose(1, 2, 0)
        return cls(_gram(V))

    def __add__(self, other: "SimRun") -> "SimRun":
        return SimRun(self.gram + other.gram)

    samples = property(lambda self: int(self.gram[0, 0, 0]))
    sum_e = property(lambda self: self.gram[:, 1:-1, 0])
    sum_ee = property(lambda self: self.gram[:, 1:-1, 1:-1])
    sum_sq = property(lambda self: self.gram[:, -1, 0])
    sum_quad = property(lambda self: self.gram[:, -1, -1])
    sum_cube = property(lambda self: self.gram[:, 1:-1, -1])

    def mean(self) -> np.ndarray:
        return self.sum_e / self.samples

    def cov(self) -> np.ndarray:
        """Sample covariance (ddof=1) of the error at each step."""
        s = self.samples
        if s < 2:
            return np.full_like(self.sum_ee, np.nan)
        mean = self.mean()
        outer = mean[:, :, None] * mean[:, None, :]
        return (self.sum_ee - s * outer) / (s - 1)

    def mean_stderr(self) -> np.ndarray:
        """Componentwise standard error of the mean error."""
        var = np.einsum("nii->ni", self.cov())
        return np.sqrt(np.clip(var, 0.0, None) / self.samples)

    def mse(self) -> np.ndarray:
        return self.sum_sq / self.samples

    def mse_stderr(self) -> np.ndarray:
        """Standard error of the empirical MSE (sample std of the squared
        norm over sqrt(samples)); NaN with fewer than two samples."""
        s = self.samples
        if s < 2:
            return np.full_like(self.sum_sq, np.nan)
        mean_sq = self.mse()
        var = (self.sum_quad / s - mean_sq ** 2) * s / (s - 1)
        return np.sqrt(np.clip(var, 0.0, None) / s)

    def var(self) -> np.ndarray:
        """Scalar error variance per step; defined for z = 1 only."""
        if self.sum_e.shape[1] != 1:
            raise ValueError("variance summary is for scalar states only")
        return self.cov()[:, 0, 0]

    def var_stderr(self) -> np.ndarray:
        """Standard error of the sample variance, from the fourth central
        moment; defined for z = 1 only."""
        s = self.samples
        if s < 2:
            return np.full_like(self.sum_sq, np.nan)
        mean = self.mean()[:, 0]
        m2 = self.sum_sq / s - mean ** 2
        m4 = (self.sum_quad
              - 4.0 * mean * self.sum_cube[:, 0]
              + 6.0 * mean ** 2 * self.sum_sq) / s - 3.0 * mean ** 4
        var_of_var = (m4 - (s - 3) / (s - 1) * m2 ** 2) / s
        return np.sqrt(np.clip(var_of_var, 0.0, None))


def run_monte_carlo(model: SldsModel, filters: Sequence[FilterSpec],
                    det: Optional[DetectionModel], n_steps: int,
                    samples: int, seed: int, threads: int = 1,
                    bank: Optional[tuple] = None) -> list[SimRun]:
    """Empirical error accumulators for each filter, one SimRun per spec.

    ``threads`` only distributes chunks; the result is bitwise identical
    for any thread count (see the module docstring).  ``bank`` reuses a
    caller's ``filter_bank(model, n_steps)`` instead of computing it; a
    bank of other shapes raises ``ValueError``.  Before any work, a
    ``samples``, ``threads`` or ``seed`` that is not an integer raises
    ``TypeError``, and ``samples`` or ``threads`` below 1 or a ``seed``
    outside 0..2^64 - 1 raises ``ValueError``, each naming the argument.
    An empty ``filters`` gives ``[]``.
    """
    for name, value in (("samples", samples), ("threads", threads),
                        ("seed", seed)):
        _check_number(name, value, int)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if (why := _seed_error(seed)) is not None:
        raise ValueError(why)
    filters = list(filters)
    bank = _bank(model, n_steps, bank)
    if not filters:
        return []
    system = _System(model)
    replay = _Replay(bank, filters, model, det)

    def work(chunk: int, count: int) -> np.ndarray:
        """The chunk's per-step sums ``(N+1, G, z+2, z+2)``, streamed."""
        sim_rng = _rng(seed, chunk, _PURPOSE_SIM)
        det_rng = _rng(seed, chunk, _PURPOSE_DETECT) if replay.lead else None
        V = np.ones((replay.G, model.z + 2, count))
        errors, buffers = V[:, 1:-1], replay.start(count)
        gram = np.empty((n_steps + 1, replay.G, model.z + 2, model.z + 2))
        x, mode, xhat = system.start(sim_rng, count), None, replay.x0
        for n in range(n_steps + 1):
            if n:
                mode, x, y = system.step(sim_rng, x, mode)
                xhat = replay.step(n, buffers, y, mode, det_rng, out=errors)
            np.subtract(x, xhat, out=errors)      # estimates to errors
            _gram(V, out=gram[n])
        return gram

    full, rest = divmod(samples, CHUNK)
    sizes = [CHUNK] * full + ([rest] if rest else [])
    with ThreadPoolExecutor(max_workers=threads) as pool:  # no thread for 1
        parts = (pool.map if threads > 1 else map)(work, range(len(sizes)), sizes)
        total = reduce(np.add, parts)               # in chunk order
    return [SimRun(np.ascontiguousarray(total[:, g])) for g in replay.group]
