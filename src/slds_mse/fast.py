"""Scalable SLDS error analysis: mode-conditioned moments and mode merging.

Under schedule gains w = [x; e; 1] is a Markov jump linear system whose
map at step n depends only on the current true mode and the filter the
detection selects, so its moments close once conditioned on the current
mode (Costa, Fragoso & Marques, Discrete-Time Markov Jump Linear
Systems, 2005, ch. 3), for any chain, at O(N r^2 z^3) cost; enumeration
stays the test oracle and the only route for detected-path gains.

One kernel, :func:`_bank_moments`, advances a whole filter bank in one
pass.  A bank is R filter rows (per-step dynamics and gains), and each
filter f is a row-weight matrix W_f (r x R): under true mode j it runs
row rho with probability W_f[j, rho].  The switching filter puts the
detection weights D over the mode rows; a fixed filter has a column of
ones on its own row; merging two filters sums their columns.  Each
filter carries Phi_j = E[w w.T 1{s_n = j}] per true mode j (its last
column is the mean, its corner P(s_n = j)), mixes the predecessors,
Psi_j = sum_i Z[i, j] Phi_i (prior[j] Phi_0 at step 1), and branches:
Phi_j' = sum_rho W[j, rho] (G Psi_j G.T + p_j C), p_j = P(s_n = j), with
the branch's map G and noise C.  The maps are built once per block of
steps on the (true mode x row) grid; the noise enters only as
sum_rho W C.

The mode-merge recommender runs every mode pair as a bimodal sub-system
with a uniform pairwise chain; a pair whose switching filter barely
beats the better of its two KFs is recommended for merging.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .model import (
    DetectionModel,
    FilterSpec,
    GaussianBelief,
    MarkovChain,
    ModeModel,
    MseSeries,
    SldsModel,
    mode_marginal_series,
)
from .kalman import (
    FilterBank,
    ModeLike,
    _mode_dynamics,
    as_mode_sequence,
    filter_bank,
    gain_schedule,
    mode_schedules,
)

METRICS = ("mean", "max", "final")
_BLOCK = 25            # steps per block of branch maps in _bank_moments


@dataclass(frozen=True)
class AggregateState:
    """Mixture moments over all trajectories at one step.

    ``xx``, ``ee`` and ``xe`` are raw second moments (E[x x.T], E[e e.T],
    E[x e.T]), not central ones; subtracting the outer products of the
    means recovers the covariances.
    """

    x_mean: np.ndarray
    e_mean: np.ndarray
    xx: np.ndarray
    ee: np.ndarray
    xe: np.ndarray
    step: int

    @property
    def mse(self) -> float:
        """E[e].E[e] + tr C(e), which is just tr E[e e.T]."""
        return float(np.trace(self.ee))


@dataclass(frozen=True)
class MergePairReport:
    """Merge analysis of one unordered mode pair (1-based indices)."""

    mode_i: int
    mode_j: int
    skf_mse: np.ndarray
    best_single_mse: np.ndarray
    best_single_label: str
    improvement: float
    metric: str
    threshold: float
    merge: bool


@dataclass(frozen=True)
class MergeReport:
    """All pairwise merge analyses for one model."""

    r: int
    threshold: float
    metric: str
    p_d: float
    pairs: tuple


def _joint_factors(A: np.ndarray, Q: np.ndarray, A_f: np.ndarray,
                   K: np.ndarray, H: np.ndarray, R: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Branch maps of w = [x; e; 1] on the (true mode, filter row) grid
    of modes ``A``, ``Q`` (..., r, z, z) and rows ``A_f``, ``K``
    (..., R, z, z|m): x' = A x + v, e' = J x + M e + B v - K w with
    B = I - K H, M = B A_f, J = B (A - A_f), so w' = G w + noise,
    G = [[A, 0, 0], [J, M, 0], [0, 0, 1]], C = [[Q, (B Q).T], [B Q, S]],
    S = B Q B.T + K R K.T; without the cross moment E[x e.T] the error
    covariance would be wrong.  Returns G.T (..., r, R, k, k) and C's
    lower block row [B Q, S] (..., r, R, z, 2z); each product runs once
    per row on the modes stacked into one tall (r z, z) matrix.
    """
    z, r, rows = A.shape[-1], A.shape[-3], K.shape[-3]
    lead = np.broadcast_shapes(A.shape[:-3], A_f.shape[:-3], K.shape[:-3])
    Bt = np.eye(z) - (K @ H).swapaxes(-1, -2)                  # B.T per row
    # Per row, tall (r z, z) stacks over the modes: J.T = (A - A_f).T B.T,
    # (B Q).T = Q.T B.T and B Q B.T, read as (row, mode) blocks.
    tall, blocks = lead + (rows, r * z, z), lead + (rows, r, z, z)
    Jt = (A[..., None, :, :, :] - A_f[..., :, None, :, :]).swapaxes(-1, -2)
    Jt = (Jt.reshape(tall) @ Bt).reshape(blocks)
    BQ = (Q.swapaxes(-1, -2).reshape(Q.shape[:-3] + (1, r * z, z)) @ Bt
          ).reshape(blocks).swapaxes(-1, -2)
    S = (BQ.reshape(tall) @ Bt).reshape(blocks) + (
        (K @ R) @ K.swapaxes(-1, -2))[..., None, :, :]
    Gt = np.zeros(lead + (r, rows, 2 * z + 1, 2 * z + 1))
    Gt[..., :z, :z] = A.swapaxes(-1, -2)[..., None, :, :]
    Gt[..., :z, z:-1] = Jt.swapaxes(-4, -3)
    Gt[..., z:-1, z:-1] = (A_f.swapaxes(-1, -2) @ Bt)[..., None, :, :, :]
    Gt[..., -1, -1] = 1.0
    return Gt, np.concatenate((BQ, S), axis=-1).swapaxes(-4, -3)


def _noise(Q: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Noise covariance [[Q, (B Q).T, 0], [B Q, S, 0], [0, 0, 0]] of
    w = [x; e; 1] from Q and its lower block row [B Q, S], broadcast over
    leading axes."""
    z = Q.shape[-1]
    C = np.zeros(np.broadcast_shapes(Q.shape[:-2], lower.shape[:-2])
                 + (2 * z + 1, 2 * z + 1))
    C[..., z:-1, :-1] = lower
    C[..., :z, :z] = Q
    C[..., :z, z:-1] = lower[..., :z].swapaxes(-1, -2)
    return C


def _branch_weights(r: int, det: Optional[DetectionModel],
                    switching: bool) -> np.ndarray:
    """W of one filter over its own rows: one row for a fixed filter, or
    the switching filter's D[i, j] = P(detected mode j | true mode i); a
    lone mode is always detected, whatever p_d says."""
    if not switching:
        return np.ones((r, 1))
    if det is None:
        raise ValueError("switching-filter analysis needs a detection model")
    miss = (1.0 - det.p_d) / max(r - 1, 1)
    return np.where(np.eye(r, dtype=bool), det.p_d if r > 1 else 1.0, miss)


def _initial_moment(init: GaussianBelief) -> np.ndarray:
    """E[w w.T] of w = [x; e; 1] at step 0: e_0 = x_0 - mean, so x_0 and
    e_0 share the covariance P_0."""
    z = init.z
    w0 = np.concatenate((init.mean, np.zeros(z), [1.0]))
    phi = np.outer(w0, w0)
    phi[:2 * z, :2 * z] += np.tile(init.cov, (2, 2))
    return phi


def _bank_moments(base: SldsModel, A_f: np.ndarray, K: np.ndarray,
                  W: Sequence[np.ndarray], true: Optional[tuple] = None,
                  ) -> Iterator[np.ndarray]:
    """E[w w.T] for steps 0..N of every filter ``W`` of a bank, summed
    over modes, not symmetrized: (1, b, F, k, k), then (steps, b, F, k, k)
    per block.  The b systems share ``base``'s measurement, belief and
    chain; their true modes are ``true = (A, Q)`` (b, r, z, z), by default
    ``base``'s own, and their rows ``A_f``, ``K`` (b, R, N, z, z|m).
    """
    A, Q = true or (m[None, :, 0] for m in _mode_dynamics(base, 1))
    b, n_steps, k = K.shape[0], K.shape[2], 2 * A.shape[-1] + 1
    by_width: dict = {}
    for f, w in enumerate(W):
        rows = np.flatnonzero(w.any(axis=0))
        by_width.setdefault(len(rows), []).append((f, rows, w[:, rows]))
    phi0 = _initial_moment(base.init)
    yield np.broadcast_to(phi0, (1, b, len(W), k, k))
    stacks = [_Stack(members, b, phi0) for members in by_width.values()]
    margs = mode_marginal_series(base.chain, max(n_steps, 1))
    for start in range(0, n_steps, _BLOCK):
        steps = slice(start, start + _BLOCK)
        # maps on the (step, system, mode, row) grid, built once
        grid = _joint_factors(A[None], Q[None],
                              A_f[:, :, steps].transpose(2, 0, 1, 3, 4),
                              K[:, :, steps].transpose(2, 0, 1, 3, 4),
                              base.meas.H, base.meas.R)
        p = margs[steps, None, None, :, None, None]
        pQ, out = p * Q[None, :, None], np.empty((len(p), b, len(W), k, k))
        for stack in stacks:
            out[:, :, stack.filters] = stack.advance(grid, p, pQ, base.chain,
                                                     start == 0)
        yield out


class _Stack:
    """Filters of a bank that run as many rows, advanced as one through
    products and sums of each filter's own shape, so that a filter's
    moments do not depend, bit for bit, on the rest of the bank: positions
    ``filters`` (F,), rows (F, s), weights ``w`` (F, r, s) and moments
    ``phi`` (system, filter, mode, k k).  sqrt(W) on both sides applies
    each weight once, so with L_j = [G_j1 | G_j2 | ...] the branch sum is
    one stacked product, L_j (I (x) Psi_j) L_j.T."""

    def __init__(self, members: list, b: int, phi0: np.ndarray):
        self.filters, self.rows, self.w = map(np.array, zip(*members))
        # A bank listed in row order gives one ascending run of rows: a
        # slice keeps the maps a view, where an index array copies them
        # in a slow layout; weights of one need no scaled copy at all.
        flat = self.rows.ravel()
        self.pick = slice(flat[0], flat[-1] + 1) \
            if (np.diff(flat) == 1).all() else flat
        self.scale = None if (self.w == 1.0).all() else \
            np.sqrt(self.w)[..., None, None]
        (F, r, s), k = self.w.shape, len(phi0)
        self.phi = np.broadcast_to(phi0.ravel(), (b, F, 1, k * k))
        self.psi = np.empty((b, F, r, 1, k, k))       # scratch of each step
        self.branches = np.empty((b, F, r, s, k, k))

    def advance(self, grid: tuple, p: np.ndarray, pQ: np.ndarray,
                chain: MarkovChain, first: bool) -> np.ndarray:
        """Advance through one block of ``grid``; returns the moments
        summed over modes (steps, b, F, k, k)."""
        Gt, lower = (X[..., self.pick, :, :].reshape(
            X.shape[:3] + self.rows.shape + X.shape[-2:]).swapaxes(2, 3)
            for X in grid)       # (step, system, filter, mode, row) blocks
        k, w = Gt.shape[-1], self.w
        lift_t = Gt if self.scale is None else np.multiply(
            Gt, self.scale, order="C")
        lift_h = lift_t.reshape(lift_t.shape[:4] + (-1, k)).swapaxes(-1, -2)
        noise = _noise(pQ, p * sum(w[:, :, i, None, None] * lower[..., i, :, :]
                                   for i in range(w.shape[-1])))  # row order
        psi_flat = self.psi.reshape(self.psi.shape[:3] + (-1,))
        stacked = self.branches.reshape(self.psi.shape[:3] + (-1, k))
        phi = self.phi
        for n in range(len(noise)):
            mix = chain.prior[None] if first and n == 0 else chain.Z
            np.matmul(mix.T, phi, out=psi_flat)
            np.matmul(self.psi, lift_t[n], out=self.branches)
            phi = noise[n]           # each noise term is read once: reuse it
            phi += lift_h[n] @ stacked
            phi = phi.reshape(psi_flat.shape)
        self.phi = phi.copy()                 # the copy lets the noise go
        return noise.sum(axis=3)


def _filter_rows(model: SldsModel, det: Optional[DetectionModel],
                 n_steps: int, filt: Optional[ModeLike]) -> tuple:
    """Rows ``A_f``, ``K`` (R, N, z, z|m) and row weights (r x R) of the
    switching filter under ``det`` on the r mode rows, or of the fixed
    filter ``filt`` on its one row."""
    if filt is None:
        K = [s.gains for s in mode_schedules(model, n_steps)]
        A_f = _mode_dynamics(model, n_steps)[0]
    else:
        K = [gain_schedule(filt, model.meas, model.init, n_steps).gains]
        A_f = np.reshape([mode.A for mode in as_mode_sequence(filt, n_steps)],
                         (1, n_steps, model.z, model.z))
    return (A_f, np.reshape(K, (len(K), n_steps, model.z, model.m)),
            _branch_weights(model.r, det, filt is None))


def _filter_moments(model: SldsModel, det: Optional[DetectionModel],
                    n_steps: int, filt: Optional[ModeLike]) -> np.ndarray:
    """Lifted moments (N + 1, k, k) of the switching filter under ``det``,
    or of the fixed filter ``filt``: a one-filter bank."""
    A_f, K, w = _filter_rows(model, det, n_steps, filt)
    blocks = _bank_moments(model, A_f[None], K[None], [w])
    return np.concatenate(list(blocks))[:, 0, 0]


def _bank_weights(r: int, det: Optional[DetectionModel],
                  filters: Sequence[FilterSpec], bank: FilterBank) -> list:
    """Row weights W_f (r x R) of each spec in ``filters`` on ``bank``."""
    W = [np.zeros((r, len(bank.A))) for _ in filters]
    for w, spec in zip(W, filters):
        w[:, bank.rows(spec)] = _branch_weights(r, det, spec.kind == "skf")
    return W


def bank_series(model: SldsModel, det: Optional[DetectionModel],
                filters: Sequence[FilterSpec], n_steps: int,
                bank: Optional[FilterBank] = None) -> list[MseSeries]:
    """MSE series of each spec in ``filters`` from one ``filter_bank`` (or
    the caller's ``bank``) and one moment pass; each equals
    ``aggregate_series`` bit for bit, whatever else the list holds."""
    if bank is None:
        bank = filter_bank(model, n_steps)
    blocks = _bank_moments(model, bank.A[None], bank.gains[None],
                           _bank_weights(model.r, det, filters, bank))
    mse = np.concatenate([_error_trace(m[:, 0], model.z) for m in blocks])
    return [MseSeries(mse=m, method="aggregate") for m in mse.T]


def _error_trace(moments: np.ndarray, z: int) -> np.ndarray:
    """tr E[e e.T], read off raw moments: a diagonal needs no symmetrizing."""
    return np.trace(moments[..., z:2 * z, z:2 * z], axis1=-2, axis2=-1)


def aggregate_state_series(model: SldsModel, det: Optional[DetectionModel],
                           n_steps: int, filt: Optional[ModeLike] = None,
                           ) -> list[AggregateState]:
    """Mixture moments for steps 0..n_steps, exact for any Markov chain.

    Default is the switching filter under ``det``; passing ``filt`` (a
    fixed mode or per-step sequence) analyzes that single filter on the
    switching system instead, with no detection involved.
    """
    z, z2 = model.z, 2 * model.z
    moments = _filter_moments(model, det, n_steps, filt)
    return [AggregateState(x_mean=m[:z, z2], e_mean=m[z:z2, z2],
                           xx=m[:z, :z], ee=m[z:z2, z:z2], xe=m[:z, z:z2],
                           step=n)
            for n, m in enumerate((moments + moments.swapaxes(1, 2)) / 2.0)]


def aggregate_series(model: SldsModel, det: Optional[DetectionModel],
                     n_steps: int, filt: Optional[ModeLike] = None,
                     ) -> MseSeries:
    """MSE series via the mode-conditioned moment recursion (exact for
    any Markov chain under schedule gains)."""
    moments = _filter_moments(model, det, n_steps, filt)
    return MseSeries(mse=_error_trace(moments, model.z), method="aggregate")


def _metric_value(rel: np.ndarray, metric: str) -> float:
    if metric == "mean":
        return float(rel.mean())
    if metric == "max":
        return float(rel.max())
    return float(rel[-1])


def pair_model(model: SldsModel, i: int, j: int) -> SldsModel:
    """Bimodal sub-system for modes i, j (1-based) with a uniform pairwise
    chain, the marginal reduction used for merge analysis."""
    half = MarkovChain(Z=np.full((2, 2), 0.5), prior=np.array([0.5, 0.5]))
    return SldsModel(modes=(model.modes[i - 1], model.modes[j - 1]),
                     meas=model.meas, chain=half, init=model.init)


def merged_mode(model: SldsModel, members: Sequence[int]) -> ModeModel:
    """Replacement mode for a merged group: equal-weight average of the
    member (A, Q), matching the uniform pairwise chain the analysis used."""
    members = list(members)
    A = sum(model.modes[k - 1].A for k in members) / len(members)
    Q = sum(model.modes[k - 1].Q for k in members) / len(members)
    return ModeModel(A, Q)


def merge_recommendation(model: SldsModel, det: DetectionModel, n_steps: int,
                         threshold: float, metric: str = "mean",
                         ) -> MergeReport:
    """Analyze every unordered mode pair and recommend merges.

    For each pair the switching filter's MSE (aggregate recursion on the
    pairwise sub-system) is compared against the better of the pair's two
    single-mode KFs, "better" meaning the lower mean MSE over steps
    1..n_steps; the merge rule asks whether mode detection buys anything
    over committing to one mode's filter.  ``improvement`` summarizes the
    per-step relative MSE reduction by the chosen ``metric``; a pair
    merges when the improvement falls below ``threshold``.
    """
    if model.r < 2:
        raise ValueError("merge analysis needs at least two modes")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    # Pairs share H, R and P0, so mode j's schedule is row j of the full
    # model's.  One bank pass runs every pair's SKF and its two KFs.
    members = np.array(list(itertools.combinations(range(model.r), 2)))
    gains = np.array([s.gains for s in mode_schedules(model, n_steps)])
    A, Q = (m[:, 0][members] for m in _mode_dynamics(model, 1))
    W = (_branch_weights(2, det, True), np.array([[1.0, 0.0]] * 2),
         np.array([[0.0, 1.0]] * 2))
    blocks = _bank_moments(
        pair_model(model, 1, 2),
        np.broadcast_to(A[:, :, None], A.shape[:2] + (n_steps,) + A.shape[2:]),
        gains[members], W, true=(A, Q))
    mse = np.concatenate([_error_trace(m, model.z) for m in blocks]).T
    pairs = []
    for (i, j), (skf_mse, *own) in zip(members + 1, mse.swapaxes(0, 1)):
        label, best = min(zip((f"kf-mode-{i}", f"kf-mode-{j}"), own),
                          key=lambda c: c[1][1:].mean())
        denom = np.where(best[1:] > 0, best[1:], 1.0)
        rel = (best[1:] - skf_mse[1:]) / denom
        improvement = _metric_value(rel, metric)
        pairs.append(MergePairReport(
            mode_i=int(i), mode_j=int(j), skf_mse=skf_mse,
            best_single_mse=best, best_single_label=label,
            improvement=improvement, metric=metric, threshold=threshold,
            merge=improvement < threshold))
    return MergeReport(r=model.r, threshold=threshold, metric=metric,
                       p_d=det.p_d, pairs=tuple(pairs))


def merge_clusters(report: MergeReport) -> list[list[int]]:
    """Connected components of the merge graph (1-based mode indices).

    Modes joined by any chain of merge recommendations land in one
    cluster; a mode with no merges forms its own singleton.
    """
    parent = list(range(report.r + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pair in report.pairs:
        if pair.merge:
            ra, rb = find(pair.mode_i), find(pair.mode_j)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for k in range(1, report.r + 1):
        groups.setdefault(find(k), []).append(k)
    return [groups[root] for root in sorted(groups)]
