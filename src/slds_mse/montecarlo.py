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
same filter on the same detection stream, so adding or removing any
filter leaves each other filter's result bitwise unchanged.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import DetectionModel, FilterSpec, SldsModel
from .kalman import FilterBank, filter_bank

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


def _pick(bank: np.ndarray, choice: np.ndarray) -> np.ndarray:
    """Row ``i`` of ``bank[choice[i]]`` for each run ``i``: every run keeps
    its own mode's update out of a per-mode bank ``(r, count, z)``."""
    _, count, z = bank.shape
    flat = choice * count + np.arange(count)
    return bank.reshape(-1, z).take(flat, axis=0)


def _simulate_batch(model: SldsModel, n_steps: int, rng: np.random.Generator,
                    count: int):
    """Vectorized simulation of ``count`` independent runs.

    Draw order (fixed, part of the determinism contract): initial-state
    noise, then per step the mode uniform, the process noise and the
    measurement noise.  Storage is step-major, ``(N+1, count, z)``; the
    returned modes, states and measurements are sample-major views of it.
    """
    z, m = model.z, model.m
    H_t = model.meas.H.T
    L0 = _noise_transform(model.init.cov)
    Lr = _noise_transform(model.meas.R)
    A_t = np.array([mode.A.T for mode in model.modes])
    Lq_t = np.array([_noise_transform(mode.Q).T for mode in model.modes])

    states = np.empty((n_steps + 1, count, z))
    meas = np.empty((n_steps, count, m))
    modes = np.empty((n_steps, count), dtype=np.intp)
    states[0] = model.init.mean + rng.standard_normal((count, z)) @ L0.T

    cum_prior = np.cumsum(model.chain.prior)[:, None]
    cum_cols = np.cumsum(model.chain.Z, axis=1).T
    for n in range(1, n_steps + 1):
        u = rng.random(count)
        cum = cum_prior if n == 1 else cum_cols.take(modes[n - 2], axis=1)
        modes[n - 1] = np.minimum((cum <= u).sum(axis=0), model.r - 1)
        noise = rng.standard_normal((count, z))
        states[n] = _pick(states[n - 1] @ A_t + noise @ Lq_t, modes[n - 1])
        meas[n - 1] = states[n] @ H_t + rng.standard_normal((count, m)) @ Lr.T
    return modes.T, states.swapaxes(0, 1), meas.swapaxes(0, 1)


def simulate_slds(model: SldsModel, n_steps: int, rng: np.random.Generator):
    """One simulated run: (mode indices 0-based for steps 1..N, states for
    steps 0..N, measurements for steps 1..N)."""
    modes, states, meas = _simulate_batch(model, n_steps, rng, 1)
    return modes[0], states[0], meas[0]


def draw_detections(true_modes: np.ndarray, det: DetectionModel, r: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Detected modes for the switching filter: the true mode with
    probability p_d, else uniform over the wrong ones.  Per step: one
    uniform draw, then (if r > 1) one integer draw for the wrong mode."""
    true_modes = np.atleast_2d(true_modes)
    if r < 2:
        return true_modes.copy()
    count, n_steps = true_modes.shape
    detected = np.empty_like(true_modes)
    for n in range(n_steps):
        truth = true_modes[:, n]
        hit = rng.random(count) < det.p_d
        wrong = rng.integers(0, r - 1, size=count)
        wrong = wrong + (wrong >= truth)      # skip over the true index
        detected[:, n] = np.where(hit, truth, wrong)
    return detected


def _replay_inputs(bank: FilterBank, specs: Sequence[FilterSpec]):
    """Transposed per-step transitions ``(B, N, z, z)`` and gains
    ``(B, N, m, z)`` that replay ``specs`` in order, read off ``bank``:
    one row per fixed-gain filter, one row per mode for the switching
    filter."""
    rows = [bank.rows(spec) for spec in specs]

    def stack(arr: np.ndarray) -> np.ndarray:
        # C-contiguous like the per-spec schedules, so products round alike
        return np.ascontiguousarray(
            np.concatenate([arr[s] for s in rows]).swapaxes(-1, -2))

    return stack(bank.A), stack(bank.gains)


def _single_filter_errors(states, meas, A_t, K_t, H, init_mean):
    """Errors of F fixed-gain filters replayed as one stack: filter f
    applies ``A_t[f, n-1]`` and ``K_t[f, n-1]`` at step n.  Returns
    ``(F, count, N+1, z)``, sample-major views of step-major storage."""
    states, meas = states.swapaxes(0, 1), meas.swapaxes(0, 1)
    n_plus_1, count, z = states.shape
    errors = np.empty((A_t.shape[0], n_plus_1, count, z))
    xhat = np.broadcast_to(init_mean, (A_t.shape[0], count, z))
    errors[:, 0] = states[0] - xhat
    for n in range(1, n_plus_1):
        pred = xhat @ A_t[:, n - 1]
        xhat = pred + (meas[n - 1] - pred @ H.T) @ K_t[:, n - 1]
        errors[:, n] = states[n] - xhat
    return errors.swapaxes(1, 2)


def _skf_errors(states, meas, detected, A_t, K_t, H, init_mean):
    """Errors of the switching filter: every mode's update of every run,
    of which each run keeps its detected mode's.  ``A_t``/``K_t`` hold one
    row per mode; returns a ``(count, N+1, z)`` view like the states."""
    states, meas = states.swapaxes(0, 1), meas.swapaxes(0, 1)
    n_plus_1, count, z = states.shape
    errors = np.empty_like(states)
    xhat = np.broadcast_to(init_mean, (count, z))
    errors[0] = states[0] - xhat
    for n in range(1, n_plus_1):
        pred = xhat @ A_t[:, n - 1]
        bank = pred + (meas[n - 1] - pred @ H.T) @ K_t[:, n - 1]
        xhat = _pick(bank, detected[:, n - 1])
        errors[n] = states[n] - xhat
    return errors.swapaxes(0, 1)


def run_filter_on_sim(sim, model: SldsModel, spec: FilterSpec,
                      det: Optional[DetectionModel] = None,
                      rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Error sequence e_0..e_N of one filter on one simulated run.

    ``sim`` is the (modes, states, measurements) triple from
    :func:`simulate_slds`.  The switching filter additionally needs the
    detection model and a generator for the detection draws.
    """
    modes, states, meas = sim
    if spec.kind == "skf" and (det is None or rng is None):
        raise ValueError("switching filter needs a detection model and rng")
    A_t, K_t = _replay_inputs(filter_bank(model, meas.shape[0]), [spec])
    H, mean = model.meas.H, model.init.mean
    if spec.kind == "skf":
        detected = draw_detections(modes[None, :], det, model.r, rng)
        return _skf_errors(states[None], meas[None], detected, A_t, K_t,
                           H, mean)[0]
    return _single_filter_errors(states[None], meas[None], A_t, K_t,
                                 H, mean)[0, 0]


@dataclass(frozen=True)
class SimRun:
    """Error-moment accumulators of one filter over a sample set.

    Raw sums over samples, per step 0..N: the error vector, its outer
    product, the squared norm, the squared norm's square, and the error
    scaled by its squared norm (for variance-of-variance estimates).
    Merging two runs is plain addition, so chunked reductions are exact.
    """

    samples: int
    sum_e: np.ndarray
    sum_ee: np.ndarray
    sum_sq: np.ndarray
    sum_quad: np.ndarray
    sum_cube: np.ndarray

    @classmethod
    def from_errors(cls, errors: np.ndarray) -> "SimRun":
        """Sums of errors ``(samples, N+1, z)`` as per-step matrix products,
        on contiguous memory when ``errors`` views step-major storage."""
        by_step = errors.swapaxes(0, 1)
        sq = np.einsum("nsi,nsi->ns", by_step, by_step)
        weighted = np.stack([np.ones_like(sq), sq], axis=1) @ by_step
        return cls(
            samples=errors.shape[0],
            sum_e=weighted[:, 0],
            sum_ee=by_step.swapaxes(1, 2) @ by_step,
            sum_sq=sq.sum(axis=1),
            sum_quad=(sq * sq).sum(axis=1),
            sum_cube=weighted[:, 1],
        )

    def __add__(self, other: "SimRun") -> "SimRun":
        return SimRun(
            samples=self.samples + other.samples,
            sum_e=self.sum_e + other.sum_e,
            sum_ee=self.sum_ee + other.sum_ee,
            sum_sq=self.sum_sq + other.sum_sq,
            sum_quad=self.sum_quad + other.sum_quad,
            sum_cube=self.sum_cube + other.sum_cube,
        )

    def mean(self) -> np.ndarray:
        return self.sum_e / self.samples

    def cov(self) -> np.ndarray:
        """Sample covariance (ddof=1) of the error at each step."""
        s = self.samples
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
        mean = self.mean()[:, 0]
        m2 = self.sum_sq / s - mean ** 2
        m4 = (self.sum_quad
              - 4.0 * mean * self.sum_cube[:, 0]
              + 6.0 * mean ** 2 * self.sum_sq) / s - 3.0 * mean ** 4
        var_of_var = (m4 - (s - 3) / (s - 1) * m2 ** 2) / s
        return np.sqrt(np.clip(var_of_var, 0.0, None))


@dataclass(frozen=True)
class EmpiricalMse:
    """Per-step empirical MSE and its standard error."""

    mse: np.ndarray
    stderr: np.ndarray


def empirical_mse(run: SimRun) -> EmpiricalMse:
    """Mean squared error norm per step with a delta-method standard
    error; stderr is NaN when the run holds a single sample."""
    return EmpiricalMse(mse=run.mse(), stderr=run.mse_stderr())


def _chunk_sizes(samples: int) -> list[int]:
    full, rest = divmod(samples, CHUNK)
    return [CHUNK] * full + ([rest] if rest else [])


def run_monte_carlo(model: SldsModel, filters: Sequence[FilterSpec],
                    det: Optional[DetectionModel], n_steps: int,
                    samples: int, seed: int, threads: int = 1,
                    bank: Optional[FilterBank] = None) -> list[SimRun]:
    """Empirical error accumulators for each filter, one SimRun per spec.

    ``threads`` only distributes chunks; the result is bitwise identical
    for any thread count (see the module docstring).  ``bank`` reuses a
    caller's ``filter_bank(model, n_steps)`` instead of computing it.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    filters = list(filters)
    if det is None and any(f.kind == "skf" for f in filters):
        raise ValueError("switching filter requires a detection model")

    fixed = [f for f, spec in enumerate(filters) if spec.kind != "skf"]
    skf = [f for f, spec in enumerate(filters) if spec.kind == "skf"]
    if bank is None:
        bank = filter_bank(model, n_steps)
    if fixed:
        A_t, K_t = _replay_inputs(bank, [filters[f] for f in fixed])
    if skf:
        skf_A, skf_K = _replay_inputs(bank, [filters[skf[0]]])
    H, mean = model.meas.H, model.init.mean

    def work(chunk: int, count: int) -> list[SimRun]:
        sim_rng = _rng(seed, chunk, _PURPOSE_SIM)
        modes, states, meas = _simulate_batch(model, n_steps, sim_rng, count)
        runs = {}
        if fixed:
            stack = _single_filter_errors(states, meas, A_t, K_t, H, mean)
            runs.update(zip(fixed, map(SimRun.from_errors, stack)))
            del stack       # free the stack before the switching replay
        if skf:
            det_rng = _rng(seed, chunk, _PURPOSE_DETECT)
            detected = draw_detections(modes, det, model.r, det_rng)
            runs.update(dict.fromkeys(skf, SimRun.from_errors(_skf_errors(
                states, meas, detected, skf_A, skf_K, H, mean))))
        return [runs[f] for f in range(len(filters))]

    sizes = _chunk_sizes(samples)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, range(len(sizes)), sizes))
    else:
        parts = [work(c, s) for c, s in enumerate(sizes)]

    totals = parts[0]
    for part in parts[1:]:
        totals = [a + b for a, b in zip(totals, part)]
    return totals
