"""Scalable SLDS error analysis: mode-conditioned moments and mode merging.

Under schedule gains w = [x; e] is a Markov jump linear system whose map
at step n depends only on the current true mode and the filter the
detection selects, so its moments close once conditioned on the current
mode (Costa, Fragoso & Marques, Discrete-Time Markov Jump Linear
Systems, 2005, ch. 3), for any chain, at O(N r^2 z^3) cost; enumeration
stays the test oracle and the only route for detected-path gains.  Every
noise has zero mean, so the raw second moments close on their own: the
kernel carries no means, and its moments are 2z-square.

One kernel, :func:`_bank_moments`, advances a whole filter bank in one
pass on a stack of ``SldsModel`` systems that share a chain, measurement
model and initial belief.  A bank is R filter rows (per-step dynamics
and gains), and a group of ``kalman.filter_groups`` runs distinct
filters on rows (U, s) under shared branch weights D (r, s): under true
mode j a filter runs slot d's row with probability D[j, d].  The SKF
puts detection weights over the mode rows, a fixed filter ones on its
row; merging two filters sums two columns of D.  Each filter carries
Phi_j = E[w w.T 1{s_n = j}] per true mode j, mixes the predecessors,
Psi_j = sum_i Z[i, j] Phi_i (prior[j] Phi_0 at step 1), and branches:
Phi_j' = sum_d D[j, d] (G Psi_j G.T + p_j C), p_j = P(s_n = j), with
the map G and noise C of the branch (j, its row in slot d).  The maps
are built once per block of steps on the (true mode x row) grid; a block
holds as many steps as keep its maps within ``_BLOCK_BYTES``, so that
its products stay in cache whatever the bank's size.  The noise enters
only as sum_d D C.

The mode-merge recommender runs each pair's ``pair_model`` (uniform
pairwise chain) as one system of one kernel call; a pair whose switching
filter barely beats the better of its two KFs is recommended for merging.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
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
    _check_number,
    mode_marginal_series,
)
from .kalman import _bank, _mode_dynamics, _riccati, filter_groups

METRICS = ("mean", "max", "final")
# Bytes of branch maps G per block of _bank_moments: with the block's
# temporaries of like size they stay within a 2 MiB L2 cache.
_BLOCK_BYTES = 2 ** 19


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
    """Branch maps of [x; e] on the (true mode, filter row) grid of modes
    ``A``, ``Q`` (..., r, z, z) and rows ``A_f``, ``K`` (..., R, z, z|m):
    x' = A x + v, e' = J x + M e + B v - K w with B = I - K H,
    M = B A_f, J = B (A - A_f), so [x'; e'] = G [x; e] + noise,
    G = [[A, 0], [J, M]], C = [[Q, (B Q).T], [B Q, S]],
    S = B Q B.T + K R K.T; without the cross moment E[x e.T] the error
    covariance would be wrong.  Returns G.T (..., r, R, 2z, 2z) and C's
    lower block row [B Q, S] (..., r, R, z, 2z); each product runs once
    per row on the modes stacked into one tall (r z, z) matrix.
    """
    z, r, rows = A.shape[-1], A.shape[-3], K.shape[-3]
    lead = np.broadcast_shapes(A.shape[:-3], A_f.shape[:-3], K.shape[:-3])
    Bt = np.eye(z) - (K @ H).swapaxes(-1, -2)                  # B.T per row
    # Per row, tall (r z, z) stacks over the modes: J.T = (A - A_f).T B.T,
    # (B Q).T = Q.T B.T and B Q B.T, read as (row, mode) blocks.
    tall, blocks = lead + (rows, r * z, z), lead + (rows, r, z, z)
    # built transposed in C order, so the tall reshape copies nothing
    Jt = np.subtract(A.swapaxes(-1, -2)[..., None, :, :, :],
                     A_f.swapaxes(-1, -2)[..., :, None, :, :], order="C")
    Jt = (Jt.reshape(tall) @ Bt).reshape(blocks)
    BQ = (Q.swapaxes(-1, -2).reshape(Q.shape[:-3] + (1, r * z, z)) @ Bt
          ).reshape(blocks).swapaxes(-1, -2)
    S = (BQ.reshape(tall) @ Bt).reshape(blocks) + (
        (K @ R) @ K.swapaxes(-1, -2))[..., None, :, :]
    Gt = np.zeros(lead + (r, rows, 2 * z, 2 * z))
    Gt[..., :z, :z] = A.swapaxes(-1, -2)[..., None, :, :]
    Gt[..., :z, z:] = Jt.swapaxes(-4, -3)
    Gt[..., z:, z:] = (A_f.swapaxes(-1, -2) @ Bt)[..., None, :, :, :]
    return Gt, np.concatenate((BQ, S), axis=-1).swapaxes(-4, -3)


def _noise(Q: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Noise covariance [[Q, (B Q).T], [B Q, S]] of [x; e] from Q and its
    lower block row [B Q, S], broadcast over leading axes."""
    z = Q.shape[-1]
    C = np.empty(np.broadcast_shapes(Q.shape[:-2], lower.shape[:-2])
                 + (2 * z, 2 * z))
    C[..., z:, :] = lower
    C[..., :z, :z] = Q
    C[..., :z, z:] = lower[..., :z].swapaxes(-1, -2)
    return C


def _initial_moment(init: GaussianBelief) -> np.ndarray:
    """E[w w.T] of w = [x; e] at step 0: e_0 = x_0 - mean has zero mean
    and shares the covariance P_0 with x_0."""
    z = init.z
    phi = np.tile(init.cov, (2, 2))
    phi[:z, :z] += np.outer(init.mean, init.mean)
    return phi


def _bank_moments(systems: Sequence[SldsModel], A_f: np.ndarray,
                  K: np.ndarray, groups: Sequence[tuple], index: np.ndarray,
                  ) -> Iterator[np.ndarray]:
    """E[w w.T] of w = [x; e] for steps 0..N by spec, summed over modes,
    not symmetrized: (1, b, F, k, k), then (steps, b, F, k, k) per block,
    k = 2z.  Each distinct filter of ``groups`` runs once, and spec f
    reads filter ``index[f]`` (``kalman.filter_groups``).  Each of the b
    ``systems`` runs its own modes' (A, Q) on its rows ``A_f``, ``K`` (b,
    R, N, z, z|m); they must share the chain, measurement model and
    initial belief, which are read from the first.  A block holds as many
    steps as keep its maps G, b r R (2z)^2 doubles a step, within
    ``_BLOCK_BYTES``: at least one step, at most the horizon.  Blocks only
    bound the working set: each step's products are the same in any
    block."""
    base = systems[0]
    A, Q = (np.stack([[getattr(mode, X) for mode in system.modes]
                      for system in systems]) for X in "AQ")
    b, n_steps, k = K.shape[0], K.shape[2], 2 * A.shape[-1]
    phi0 = _initial_moment(base.init)
    yield np.broadcast_to(phi0, (1, b, len(index), k, k))
    stacks = [_Stack(rows, D, b, phi0) for rows, D in groups]
    ends = list(itertools.accumulate((len(rows) for rows, _ in groups),
                                     initial=0))     # no group: no filter
    margs = mode_marginal_series(base.chain, max(n_steps, 1))
    step_bytes = b * A.shape[1] * K.shape[1] * k * k * 8
    block = max(1, min(n_steps, _BLOCK_BYTES // step_bytes))
    for start in range(0, n_steps, block):
        steps = slice(start, start + block)
        # maps on the (step, system, mode, row) grid, built once
        grid = _joint_factors(A[None], Q[None],
                              A_f[:, :, steps].transpose(2, 0, 1, 3, 4),
                              K[:, :, steps].transpose(2, 0, 1, 3, 4),
                              base.meas.H, base.meas.R)
        p = margs[steps, None, None, :, None, None]
        pQ, out = p * Q[None, :, None], np.empty((len(p), b, ends[-1], k, k))
        for stack, lo, hi in zip(stacks, ends, ends[1:]):
            stack.advance(grid, p, pQ, base.chain, not start, out[:, :, lo:hi])
        yield out[:, :, index]


class _Stack:
    """One group of a bank's distinct filters, advanced as one through
    products and sums of each filter's own shape, so that a filter's
    moments do not depend, bit for bit, on the rest of the bank: rows
    ``rows`` (U, s), shared branch weights ``D`` (r, s) and moments
    ``phi`` (system, filter, mode, k k).  sqrt(D) on both sides applies
    each weight once, so with L_j = [G_j1 | G_j2 | ...] the branch sum is
    one stacked product, L_j (I (x) Psi_j) L_j.T."""

    def __init__(self, rows: np.ndarray, D: np.ndarray, b: int,
                 phi0: np.ndarray):
        self.rows, self.D = rows, D
        # Rows in ascending order with no gap give one run: a slice
        # keeps the maps a view, where an index array copies them in a
        # slow layout; weights of one need no scaled copy at all.
        flat = rows.ravel()
        self.pick = slice(flat[0], flat[-1] + 1) \
            if (np.diff(flat) == 1).all() else flat
        self.scale = None if (D == 1.0).all() else np.sqrt(D)[..., None, None]
        (U, s), r, k = rows.shape, len(D), len(phi0)
        self.phi = np.broadcast_to(phi0.ravel(), (b, U, 1, k * k))
        self.psi = np.empty((b, U, r, 1, k, k))       # scratch of each step
        self.branches = np.empty((b, U, r, s, k, k))

    def advance(self, grid: tuple, p: np.ndarray, pQ: np.ndarray,
                chain: MarkovChain, first: bool, out: np.ndarray) -> None:
        """Advance through one block of ``grid``, writing the moments
        summed over modes to ``out`` (steps, b, U, k, k)."""
        Gt, lower = (X[..., self.pick, :, :].reshape(
            X.shape[:3] + self.rows.shape + X.shape[-2:]).swapaxes(2, 3)
            for X in grid)       # (step, system, filter, mode, row) blocks
        k, D = Gt.shape[-1], self.D
        lift_t = Gt if self.scale is None else np.multiply(
            Gt, self.scale, order="C")
        lift_h = lift_t.reshape(lift_t.shape[:4] + (-1, k)).swapaxes(-1, -2)
        noise = _noise(pQ, p * reduce(  # in row order; weights of one skipped
            np.add, (lower[..., i, :, :] if self.scale is None
                     else D[:, i, None, None] * lower[..., i, :, :]
                     for i in range(D.shape[-1]))))
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
        noise.sum(axis=3, out=out)


def bank_series(model: SldsModel, det: Optional[DetectionModel],
                filters: Sequence[FilterSpec], n_steps: int,
                bank: Optional[tuple] = None) -> list[MseSeries]:
    """MSE series of each spec in ``filters`` from one ``filter_bank`` (or
    the caller's ``bank``; other shapes raise ``ValueError``) and one moment
    pass with ``model`` as the only system: the mode-conditioned moment
    recursion, exact for any Markov chain under schedule gains.  Each
    series equals that of a one-spec call bit for bit, whatever else the
    list holds; an empty list gives ``[]``."""
    A_f, K = _bank(model, n_steps, bank)
    blocks = _bank_moments([model], A_f[None], K[None],
                           *filter_groups(model.r, det, filters))
    mse = np.concatenate([_error_trace(m[:, 0], model.z) for m in blocks])
    return [MseSeries(mse=m, method="aggregate") for m in mse.T]


def _error_trace(moments: np.ndarray, z: int) -> np.ndarray:
    """tr E[e e.T], read off raw moments: a diagonal needs no symmetrizing."""
    return np.trace(moments[..., z:2 * z, z:2 * z], axis1=-2, axis2=-1)


def _metric_value(rel: np.ndarray, metric: str) -> float:
    if metric == "mean":
        return float(rel.mean())
    if metric == "max":
        return float(rel.max())
    return float(rel[-1])


def _mode(model: SldsModel, k: int) -> ModeModel:
    """Mode k (1-based) of ``model``; an index outside 1..r raises."""
    if not 1 <= k <= model.r:
        raise ValueError(f"mode {k} is outside 1..{model.r}")
    return model.modes[k - 1]


def pair_model(model: SldsModel, i: int, j: int) -> SldsModel:
    """Bimodal sub-system for modes i, j (1-based) with a uniform pairwise
    chain, the marginal reduction used for merge analysis."""
    half = MarkovChain(Z=np.full((2, 2), 0.5), prior=np.array([0.5, 0.5]))
    return SldsModel(modes=(_mode(model, i), _mode(model, j)),
                     meas=model.meas, chain=half, init=model.init)


def merged_mode(model: SldsModel, members: Sequence[int]) -> ModeModel:
    """Replacement mode for a merged group: equal-weight average of the
    member (A, Q), matching the uniform pairwise chain the analysis used."""
    modes = [_mode(model, k) for k in members]
    if not modes:
        raise ValueError("merged mode needs at least one mode")
    return ModeModel(sum(mode.A for mode in modes) / len(modes),
                     sum(mode.Q for mode in modes) / len(modes))


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
    merges when the improvement falls below ``threshold``.  An
    ``n_steps`` that is not an integer or a ``threshold`` that is not a
    real number raises ``TypeError``, and an ``n_steps`` below 1 or a
    non-finite ``threshold`` raises ``ValueError``.
    """
    if model.r < 2:
        raise ValueError("merge analysis needs at least two modes")
    _check_number("n_steps", n_steps, int)
    if n_steps < 1:
        raise ValueError(f"merge analysis needs n_steps >= 1, got {n_steps}")
    _check_number("threshold", threshold, float)
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    # Pairs share H, R and P0, so mode j's schedule is row j of the full
    # model's.  One bank pass runs every pair's SKF and its two KFs, on
    # rows whose A is a zero-stride view over the steps, not a copy.
    members = np.array(list(itertools.combinations(range(model.r), 2)))
    gains, _ = _riccati(*_mode_dynamics(model, n_steps), model.meas,
                        model.init.cov)
    A = np.stack([mode.A for mode in model.modes])[members]
    groups = filter_groups(2, det, [FilterSpec("skf"),
                                    FilterSpec("single-mode", mode=1),
                                    FilterSpec("single-mode", mode=2)])
    blocks = _bank_moments(
        [pair_model(model, i, j) for i, j in members + 1],
        np.broadcast_to(A[:, :, None], A.shape[:2] + (n_steps,) + A.shape[2:]),
        gains[members], *groups)
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
