"""Exact SLDS error moments by enumerating mode trajectories.

A fixed filter on a switching system sees a different truth along each
of the r^n mode trajectories, so its exact error moments at step n are a
probability-weighted mixture over them (over the r^(2n) (true, detected)
trajectory pairs for the switching filter).  Each live trajectory l
carries [M_l | m_l]: M_l = E[w w.T | trajectory] of w = [x; e] beside
the mean m_l = E[w | trajectory], k x (k + 1) with k = 2z, stepped as
M_l' = G M_l G.T + C and m_l' = G m_l under the branch (true mode i,
filter row rho) by the map and noise of :func:`slds_mse.fast._joint_factors`
and ``_noise``, as the aggregate recursion applies them.  Every moment of
:class:`ErrorMoments` is read off the mixture sum_l pi_l [M_l | m_l].
``mismatch_series`` is the one-mode case: one leaf per step.

A run takes filter-bank rows and one group of ``kalman.filter_groups``,
rows (F, s) of filters that share branch weights D (r, s) and one tree:
every fixed-gain filter (r branches per leaf), or the switching filter
(r^2).  The leaves are stored as phi[f, a, l, c] = [M_l | m_l][a, c] of
filter f, so a step is two BLAS products per block of parents: each
filter's branch maps stacked into one (branches * k, k) matrix times its
block of phi viewed as (k, L * (k + 1)), means included, then each
branch's part of M times its G.T, written into the next step's storage.
Beam pruning keeps the most probable trajectories and reports the kept
mass per step.

Levels 1..S are stored, about 2 k^3 multiply-adds per new leaf: S = N
under detected-path gains, which give every leaf its own maps, N - 1
under pruning, which prunes level N - 1's leaves, and max(N - 2, 0)
otherwise.  Levels S+1..N are only summed, and each is linear in the
level before, so one loop folds them (``_fold``): branch c's leaves sum
to U_c = G_c (sum_l w_cl [M_l | m_l]) with G_c.T and (sum_l w_cl) C_c
on M, one congruence per branch of its parents' weighted sums.  The
first fold weighs the stored leaves, k (k + 1) multiply-adds per leaf,
pruned pairs at zero; each later one weighs the level before's branch
sums, sum_a mix[c, a] U_a with mix[c, a] = Z[i_a, i_c] D[i_c, d_c], one
b x b mix.  Every step records its kept mass and unnormalized mixture,
and ``renormalize`` divides each step's mixture by its kept mass.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    DetectionModel,
    FilterSpec,
    GaussianBelief,
    MarkovChain,
    MeasurementModel,
    ModeModel,
    MseSeries,
    SldsModel,
)
from .kalman import (
    _bank,
    _check_innovations,
    _mode_dynamics,
    _riccati_step,
    filter_groups,
    gain_schedule,
)
from .fast import _initial_moment, _joint_factors, _noise

DEFAULT_CAP = 2 ** 20

GAIN_SCHEDULE = "schedule"
GAIN_DETECTED_PATH = "detected-path"

# Multiply-adds per GEMM block.  Below about 10^6 OpenBLAS runs a product
# on one thread.  On a 2-vCPU machine two threads were no faster, and the
# idle worker kept spinning on the second core after the enumeration,
# slowing the commands that followed.  A block's scratch also stays
# cache-sized however many leaves a step creates.
_BLOCK_MACS = 2 ** 19

log = logging.getLogger(__name__)


class EnumerationCapError(RuntimeError):
    """Raised when an exact enumeration would exceed the trajectory cap."""


@dataclass(frozen=True)
class ErrorMoments:
    """First and second moments of the filter error at one step.

    ``u`` is Cov(xhat_n, x_n), which is not symmetric in general; the
    error/state cross-covariance is recovered as Cov(e, x) = x_cov - u.
    Enumeration reads the covariances off raw moments, E[x x.T] - E[x]
    E[x].T, so they lose relative precision as |mean|^2/variance grows:
    an initial mean of 1e6 on a scalar pair puts ``e_cov`` 3.2e-4 off.
    The MSE, a raw trace, is unaffected.
    """

    e_mean: np.ndarray
    e_cov: np.ndarray
    x_mean: np.ndarray
    x_cov: np.ndarray
    u: np.ndarray
    step: int

    @property
    def mse(self) -> float:
        """Scalar error size: E[e].E[e] + tr C(e)."""
        return float(self.e_mean @ self.e_mean + np.trace(self.e_cov))


def _advance(phi: np.ndarray, G: np.ndarray, C: np.ndarray) -> np.ndarray:
    """[G M G.T + C | G m] of every leaf [M | m] of each filter's ``phi``
    (F, k, L, k + 1) under every branch: (F, k, b L, k + 1), leaves in
    (branch, parent) order.

    ``G``, ``C`` are (F, b, k, k) maps shared by all leaves, or
    (F, b, L, k, k) maps of one leaf each (detected-path gains).
    """
    F, k, L = phi.shape[:3]
    if G.ndim == 5:
        out = G @ phi.swapaxes(1, 2)[:, None]
        out[..., :k] = out[..., :k] @ G.swapaxes(-1, -2) + C
        return out.transpose(0, 3, 1, 2, 4).reshape(F, k, -1, k + 1)
    b, c = G.shape[1], k + 1
    width = max(1, _BLOCK_MACS // (b * k ** 2 * c))
    out = np.empty((F, k, b, L, c))
    stacked = G.reshape(F, b * k, k)
    maps_t = np.ascontiguousarray(G.swapaxes(-1, -2))[:, :, None]
    C = C[:, :, :, None]
    flat = phi.reshape(F, k, L * c)
    left = np.empty((F, b * k, min(L, width) * c))       # one block's G Phi
    for lo in range(0, L, width):
        hi = min(L, lo + width)
        GPhi = np.matmul(stacked, flat[..., lo * c:hi * c],
                         out=left[..., :(hi - lo) * c]
                         ).reshape(F, b, k, hi - lo, c)
        leaves = out[:, :, :, lo:hi].transpose(0, 2, 1, 3, 4)
        np.matmul(GPhi[..., :k], maps_t, out=leaves[..., :k])
        leaves[..., :k] += C
        leaves[..., k] = GPhi[..., k]
    return out.reshape(F, k, b * L, c)


def _fold(sums: np.ndarray, w: np.ndarray, G: np.ndarray,
          C: np.ndarray) -> np.ndarray:
    """Per-branch mixtures sum_l w_bl [G_b M_l G_b.T + C_b | G_b m_l] of
    the leaves that the branches b of parents l create, never formed: one
    congruence per branch of the parents' weighted sums ``sums``
    (F, k, b, k + 1), sum_l w_bl [M_l | m_l], plus the noise weighted by
    sum_l w_bl.  (F, b, k, k + 1); their sum is the level's mixture."""
    k = G.shape[-1]
    out = G @ sums.swapaxes(1, 2)
    out[..., :k] = (out[..., :k] @ G.swapaxes(-1, -2)
                    + w.sum(axis=1)[:, None, None] * C)
    return out


def _mixture(w: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """sum_l w_l [M_l | m_l] of each filter's leaves ``phi`` (F, k, L,
    k + 1): (F, k, k + 1) for weights (L,), (F, k, J, k + 1) for J rows of
    weights (J, L).  Summed in blocks of leaves under ``_BLOCK_MACS``, as
    ``_advance`` does."""
    F, k, L = phi.shape[:3]
    width = max(1, _BLOCK_MACS // (k ** 2 * (w.size // L)))
    total = np.zeros((F, k) + w.shape[:-1] + (k + 1,))
    for lo in range(0, L, width):
        total += w[..., lo:lo + width] @ phi[:, :, lo:lo + width]
    return total


def _read_moments(mixtures: np.ndarray, z: int) -> list:
    """MSE series and per-step moments of each filter, read off its
    mixtures sum_l p_l [M_l | m_l], (F, N + 1, 2z, 2z + 1)."""
    z2 = 2 * z
    Ex, Ee = mixtures[..., :z, z2], mixtures[..., z:, z2]
    mix = (mixtures[..., :z2] + mixtures[..., :z2].swapaxes(-1, -2)) / 2.0
    Eee = mix[..., z:, z:]
    x_cov = mix[..., :z, :z] - Ex[..., :, None] * Ex[..., None, :]
    e_cov = Eee - Ee[..., :, None] * Ee[..., None, :]
    # Cov(e, x) = C(x) - u
    u = x_cov - (mix[..., z:, :z] - Ee[..., :, None] * Ex[..., None, :])
    mse = np.trace(Eee, axis1=-2, axis2=-1)
    return [(mse[f], [ErrorMoments(*fields, step=n) for n, fields in
                      enumerate(zip(Ee[f], e_cov[f], Ex[f], x_cov[f], u[f]))])
            for f in range(len(mix))]


def _keep_indices(prob: np.ndarray, keep: Optional[int],
                  mass: Optional[float]) -> np.ndarray:
    """Indices of the retained trajectories, highest probability first.

    Ties are broken by enumeration order (stable sort), which keeps the
    result deterministic.
    """
    order = np.argsort(-prob, kind="stable")
    if keep is not None:
        return order[:keep]
    cum = np.cumsum(prob[order])
    cut = int(np.searchsorted(cum, mass - 1e-15)) + 1
    return order[:cut]


def _run_enumeration(model: SldsModel, n_steps: int, A_f: np.ndarray,
                     K: np.ndarray, rows: np.ndarray, D: np.ndarray, *,
                     keep: Optional[int] = None, mass: Optional[float] = None,
                     renormalize: bool = False, cap: int = DEFAULT_CAP,
                     detected_path: bool = False) -> list:
    """Series and moments of each filter of one group of
    ``kalman.filter_groups`` on a bank with rows ``A_f``, ``K`` (R, N, z,
    z|m), from one trajectory tree: the filters run the bank rows ``rows``
    (F, s) under the shared branch weights ``D`` (r, s).
    ``detected_path`` gives the switching filter each leaf's gain from
    its own Riccati step along its detected trajectory instead of ``K``,
    which it does not read.  ``enumerate_filters`` checks the budget."""
    pruning = keep is not None or mass is not None
    if not pruning and D.size ** n_steps > cap:     # before any leaf grows
        raise EnumerationCapError(
            f"exact enumeration needs {D.size}^{n_steps} "
            f"{'trajectory pairs' if D.shape[1] > 1 else 'trajectories'}, "
            f"over the cap of {cap}; use the aggregate recursion or beam "
            f"pruning instead")
    r, z, m = model.r, model.z, model.m
    F, b, k = len(rows), D.size, 2 * z
    H, R = model.meas.H, model.meas.R
    A, Q = (mats[:, 0] for mats in _mode_dynamics(model, 1))
    if not detected_path:
        # maps per (step, filter, branch), branch (true i, slot d) at
        # i * s + d, from the grid of every bank row
        Gt, lower = _joint_factors(A, Q, A_f.swapaxes(0, 1),
                                   K.swapaxes(0, 1), H, R)
        G_all, C_all = (
            np.moveaxis(X[:, :, rows], 1, 2).reshape(n_steps, F, b, k, k)
            for X in (Gt.swapaxes(-1, -2), _noise(Q[:, None], lower)))

    def children(n: int, prob: np.ndarray,
                 last: Optional[np.ndarray]) -> np.ndarray:
        """Probabilities (b L,) of the step-n children of leaves ``prob``
        (L,) whose true modes are ``last``, in (branch, parent) order:
        branch (true i, slot d) of leaf l has prob[l] Z[last[l], i] D[i, d],
        the prior in place of Z at the root.  Over ``cap`` of them raise."""
        if prob.size * b > cap:
            raise EnumerationCapError(
                f"step {n} would create {prob.size * b} "
                f"trajectories, over the cap of {cap}")
        trans = (model.chain.prior[None] if last is None
                 else model.chain.Z[last])
        return (prob * (trans.T[:, None] * D[:, :, None])).ravel()

    leaf = np.column_stack((_initial_moment(model.init),
                            np.concatenate((model.init.mean, np.zeros(z)))))
    phi = np.broadcast_to(leaf[:, None], (F, k, 1, k + 1))
    prob, last = np.ones(1), None
    filter_cov = model.init.cov[None] if detected_path else None
    # S = stored: levels 1..S are stored and S+1..N folded; pruning needs
    # level N - 1's leaves, and per-leaf maps (detected-path gains) fold
    # nothing
    stored = (n_steps if detected_path
              else max(n_steps - (1 if pruning else 2), 0))
    steps = [(1.0, _mixture(prob, phi))]
    for n in range(1, stored + 1):
        if detected_path:
            # each leaf's gain from the filter's own Riccati step along its
            # detected trajectory, per detected mode d: (d, L, z, m)
            B, K_leaf, P = _riccati_step(model.meas, A[:, None], Q[:, None],
                                         filter_cov)
            _check_innovations(B)
            filter_cov = np.broadcast_to(P, (r,) + P.shape).reshape(-1, z, z)
            # rows (detected d, leaf l): maps per (branch, leaf)
            Gt, lower = _joint_factors(A, Q, A.repeat(K_leaf.shape[1], 0),
                                       K_leaf.reshape(-1, z, m), H, R)
            G, C = (X.reshape(1, b, -1, k, k) for X in
                    (Gt.swapaxes(-1, -2), _noise(Q[:, None], lower)))
        else:
            G, C = G_all[n - 1], C_all[n - 1]
        prob = children(n, prob, last)
        last = np.repeat(np.arange(r), prob.size // r)
        phi = _advance(phi, G, C)
        if pruning:
            idx = _keep_indices(prob, keep, mass)
            prob, last, phi = prob[idx], last[idx], phi[:, :, idx]
            if detected_path:
                filter_cov = filter_cov[idx]
        steps.append((float(prob.sum()), _mixture(prob, phi)))
    # at most two levels fold: level N under pruning, N - 1 and N otherwise
    for n in range(stored + 1, n_steps + 1):
        if n == stored + 1:
            # the stored leaves' per-branch weighted sums, (F, k, b, k + 1)
            prob = children(n, prob, last)
            idx = _keep_indices(prob, keep, mass) if pruning else slice(None)
            w = np.zeros(prob.size)              # pruned pairs weigh zero
            w[idx] = prob[idx]
            w = w.reshape(b, -1)
            sums = _mixture(w, phi)
        else:
            # the first fold's leaves of branch a summed to U_a with
            # weights w_a, and branch c folds sum_a mix[c, a] U_a, where
            # mix[c, a] = Z[i_a, i_c] D[i_c, d_c] weighs a's children
            # under c
            i = np.repeat(np.arange(r), D.shape[1])    # each branch's mode
            mix = D.reshape(-1, 1) * model.chain.Z.T[np.ix_(i, i)]
            w = mix * w.sum(axis=1)
            sums = (mix @ U.reshape(F, b, -1)).reshape(U.shape).swapaxes(1, 2)
        U = _fold(sums, w, G_all[n - 1], C_all[n - 1])
        steps.append((float(w.sum()), U.sum(axis=1)))

    kept_mass, mixtures = map(np.array, zip(*steps))
    if renormalize:                 # each step's mixture / its kept mass
        mixtures /= np.where(kept_mass > 0, kept_mass, 1)[:, None, None, None]
    # exact runs carry the mass too: it should sum to one at every step,
    # which makes the bookkeeping auditable from the outside
    method = "pruned" if pruning else "exact"
    return [(MseSeries(mse=mse, method=method, kept_mass=kept_mass), moments)
            for mse, moments in _read_moments(mixtures.swapaxes(0, 1), z)]


def enumerate_filters(model: SldsModel, det: Optional[DetectionModel],
                      filters: Sequence[FilterSpec], n_steps: int,
                      bank: Optional[tuple] = None, *,
                      keep: Optional[int] = None, mass: Optional[float] = None,
                      renormalize: bool = False, cap: int = DEFAULT_CAP,
                      gains: str = GAIN_SCHEDULE,
                      ) -> list[tuple[MseSeries, list[ErrorMoments]]]:
    """Series and per-step moments of each spec in ``filters`` by
    trajectory enumeration on one ``filter_bank`` (or the caller's
    ``bank``, its ``(A, gains)``; other shapes raise ``ValueError``), exact
    or beam-pruned.

    One tree runs per group of ``filter_groups``: first the switching
    filter on (true, detected) pairs, whose r^2 branches per leaf outgrow
    the other tree's r, so no tree grows while another is over its cap;
    then every fixed-gain filter, each distinct filter once: specs that
    name one filter share its run.  A tree's error names its filters.
    ``keep`` retains that many trajectories per step, ``mass`` the
    smallest prefix reaching that probability; each series carries its
    kept mass, and ``renormalize`` divides each step's mixture by its
    kept mass.  ``gains="detected-path"`` runs the switching filter's
    Riccati recursion along each detected trajectory in place of the
    detected mode's schedule, and builds or reads no filter bank.  A bad
    budget raises ``ValueError`` before any work.  A tree stores levels
    1..S, S = N under detected-path gains, N - 1 under pruning and
    max(N - 2, 0) otherwise, and one loop folds levels S+1..N.
    """
    if keep is not None and mass is not None:
        raise ValueError("give either keep or mass, not both")
    if keep is not None and keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    if mass is not None and not 0.0 < mass <= 1.0:
        raise ValueError(f"mass target must lie in (0, 1], got {mass}")
    if gains not in (GAIN_SCHEDULE, GAIN_DETECTED_PATH):
        raise ValueError(f"unknown gain policy {gains!r}")
    detected_path = gains == GAIN_DETECTED_PATH
    if detected_path and any(spec.kind != "skf" for spec in filters):
        raise ValueError("detected-path gains apply to the switching filter only")
    groups, index = filter_groups(model.r, det, filters)
    # detected paths read no rows
    A_f, K = (None, None) if detected_path else _bank(model, n_steps, bank)
    runs = []
    for rows, D in groups:
        ours = range(len(runs), len(runs) + len(rows))
        label = ", ".join(dict.fromkeys(spec.display for spec, u in
                                        zip(filters, index) if u in ours))
        t0 = time.perf_counter()
        try:
            runs += _run_enumeration(
                model, n_steps, A_f, K, rows, D, keep=keep, mass=mass,
                renormalize=renormalize, cap=cap, detected_path=detected_path)
        except (EnumerationCapError, ValueError) as exc:
            raise type(exc)(f"{label}: {exc}") from exc
        log.info("%s: %s method, %.1f ms", label, runs[-1][0].method,
                 1e3 * (time.perf_counter() - t0))
    return [runs[u] for u in index]


def single_mode_slds_moments(model: SldsModel, filt: ModeModel, n_steps: int,
                             cap: int = DEFAULT_CAP,
                             ) -> tuple[MseSeries, list[ErrorMoments]]:
    """Exact MSE of the KF of mode ``filt``, which need not be one of the
    model's, applied to the switching system, by full trajectory
    enumeration."""
    K, _ = gain_schedule(filt, model.meas, model.init, n_steps)
    A_f = np.tile(filt.A, (1, n_steps, 1, 1))
    return _run_enumeration(model, n_steps, A_f, K[None],
                            np.zeros((1, 1), dtype=int),
                            np.ones((model.r, 1)), cap=cap)[0]


def mismatch_series(truth: ModeModel, filt: ModeModel, meas: MeasurementModel,
                    init: GaussianBelief, n_steps: int,
                    ) -> tuple[list[ErrorMoments], MseSeries]:
    """Error moments for steps 0..n_steps of the KF of mode ``filt`` on the
    fixed truth ``truth``: the one-mode system, whose tree has one leaf
    per step."""
    if truth.z != meas.z:
        raise ValueError(f"truth mode dimension {truth.z} does not match "
                         f"state dimension {meas.z}")
    model = SldsModel([truth], meas, MarkovChain([[1.0]], [1.0]), init)
    series, moments = single_mode_slds_moments(model, filt, n_steps)
    return moments, series


def skf_slds_moments(model: SldsModel, det: DetectionModel, n_steps: int,
                     cap: int = DEFAULT_CAP, gains: str = GAIN_SCHEDULE,
                     ) -> tuple[MseSeries, list[ErrorMoments]]:
    """Exact MSE of the switching filter under the constant detection rate,
    by full (true, detected) trajectory-pair enumeration; ``gains`` as in
    :func:`enumerate_filters`."""
    return enumerate_filters(model, det, [FilterSpec("skf")], n_steps,
                             cap=cap, gains=gains)[0]
