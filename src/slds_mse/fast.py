"""Scalable SLDS error analysis: mode-conditioned moments and mode merging.

Trajectory enumeration is exact but exponential in the horizon.  Under
schedule gains the joint state/error vector w = [x; e] is a Markov jump
linear system: its map at step n depends only on the current true mode
and the detected mode, and the detected mode depends only on the current
true mode.  Its first and second moments therefore close once they are
conditioned on the current mode (Costa, Fragoso & Marques, Discrete-Time
Markov Jump Linear Systems, 2005, ch. 3): carrying E[w 1{s_n = j}] and
E[w w.T 1{s_n = j}] for every mode j is enough to advance one step, for
any transition matrix.  The cost is O(N r^2 z^3) with no trajectory
explosion.  Enumeration stays the test oracle, and the only route for
detected-path gains, which depend on the whole detected trajectory.

The same machinery powers a pre-experiment mode-merge recommender: every
unordered mode pair is analyzed as a bimodal sub-system with a uniform
pairwise chain, and a pair whose switching filter barely improves on the
best single-filter alternative is recommended for merging into one
averaged mode.
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
    as_mode_sequence,
    filter_bank,
    gain_schedule,
    mode_schedules,
)

METRICS = ("mean", "max", "final")
_BLOCK = 25            # steps per block of branch maps in _lifted_moments


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
    """Per-branch transition G and noise covariance C of the joint
    vector [x; e].

    Within a branch x' = A x + v and e' = J x + M e + B v - K w with
    B = I - K H, M = B A_f, J = B (A - A_f), so the stacked vector obeys
    one linear map G = [[A, 0], [J, M]] plus zero-mean noise with
    covariance C = [[Q, Q B.T], [B Q, B Q B.T + K R K.T]].  The cross
    moment E[x e.T] must ride along or the error covariance is wrong,
    which is exactly what the enumeration oracle test pins down.  All
    inputs broadcast over leading batch axes.
    """
    z = A.shape[-1]
    B = np.eye(z) - K @ H
    M = B @ A_f
    J = B @ (A - A_f)
    lead = J.shape[:-2]
    G = np.zeros(lead + (2 * z, 2 * z))
    G[..., :z, :z] = A
    G[..., z:, :z] = J
    G[..., z:, z:] = M
    QBt = Q @ B.swapaxes(-1, -2)
    C = np.zeros(lead + (2 * z, 2 * z))
    C[..., :z, :z] = Q
    C[..., :z, z:] = QBt
    C[..., z:, :z] = QBt.swapaxes(-1, -2)
    C[..., z:, z:] = B @ QBt + (K @ R) @ K.swapaxes(-1, -2)
    return G, C


def _detection_weights(r: int, det: DetectionModel) -> np.ndarray:
    """D[i, j] = P(detected mode j | true mode i); a lone mode is always
    detected, whatever p_d says."""
    hit = det.p_d if r > 1 else 1.0
    miss = (1.0 - det.p_d) / max(r - 1, 1)
    return np.where(np.eye(r, dtype=bool), hit, miss)


def _initial_moment(init: GaussianBelief) -> np.ndarray:
    """E[w w.T] of w = [x; e; 1] at step 0: e_0 = x_0 - mean, so x_0 and
    e_0 share the covariance P_0."""
    z = init.z
    w0 = np.concatenate((init.mean, np.zeros(z), [1.0]))
    phi = np.outer(w0, w0)
    phi[:2 * z, :2 * z] += np.kron(np.ones((2, 2)), init.cov)
    return phi


def _lifted_moments(base: SldsModel, A: np.ndarray, Q: np.ndarray,
                    A_f: np.ndarray, K: np.ndarray, D: np.ndarray,
                    ) -> Iterator[np.ndarray]:
    """E[w w.T] of the lifted vector w = [x; e; 1] for steps 0..N, summed
    over modes but not symmetrized: (1, b, k, k) for step 0, then one
    (steps, b, k, k) array per block of steps.

    The b systems share ``base``'s measurement, initial belief and chain.
    System s has true modes ``A[s]``, ``Q[s]`` (b, r, z, z); under true
    mode j it detects mode d with probability ``D[j, d]`` and runs the
    filter ``A_f[s, n, d]``, ``K[s, n, d]`` ((b, N, d, z, z|m)).  Per true
    mode j it carries Phi_j = E[w w.T 1{s_n = j}], whose last column is
    the mean E[[x; e] 1{s_n = j}] and corner P(s_n = j).  A step mixes
    the predecessors, Psi_j = sum_i Z[i, j] Phi_i (prior[j] Phi_0 at step
    1), then branches over the detected mode d:
    Phi_j' = sum_d D[j, d] (G_jd Psi_j G_jd.T + p_j C_jd), p_j = P(s_n = j).
    """
    b, n_steps = K.shape[:2]
    r, z = A.shape[1], A.shape[-1]
    z2, k = 2 * z, 2 * z + 1
    phi = np.repeat(_initial_moment(base.init)[None, None], b, axis=0)
    yield phi.swapaxes(0, 1)
    margs = mode_marginal_series(base.chain, max(n_steps, 1))
    A, Q = A[:, :, None], Q[:, :, None]                         # (b,r,1,z,z)
    mix = base.chain.prior[None]
    # Maps are built per block of steps, so memory does not grow with N.
    for start in range(0, n_steps, _BLOCK):
        steps = slice(start, start + _BLOCK)
        # G, C: (step, system, true mode, detected mode, 2z, 2z).  The
        # detection weights and marginals never depend on the state, so
        # the noise term folds into a per-step constant.
        G, C = _joint_factors(A, Q, A_f[:, steps, None].swapaxes(0, 1),
                              K[:, steps, None].swapaxes(0, 1),
                              base.meas.H, base.meas.R)
        noise = np.zeros(G.shape[:3] + (k, k))
        noise[..., :z2, :z2] = (margs[steps, None, :, None, None]
                                * np.einsum("jd,nbjdxy->nbjxy", D, C))
        del C                              # keeps the peak at G plus lift
        # sqrt(D) on both sides of the congruence applies each weight
        # once.  With L_j = [G_j1 | G_j2 | ...] the branch sum is one
        # stacked product, L_j (I (x) Psi_j) L_j.T, built from the maps'
        # transposes.
        lift_t = np.zeros(G.shape[:-2] + (k, k))
        lift_t[..., :z2, :z2] = G.swapaxes(-1, -2)
        lift_t[..., z2, z2] = 1.0
        del G
        lift_t *= np.sqrt(D)[..., None, None]
        lift_h = lift_t.reshape(lift_t.shape[:3] + (-1, k)).swapaxes(-1, -2)
        for n in range(len(noise)):
            psi = (mix.T @ phi.reshape(b, -1, k * k)).reshape(b, r, 1, k, k)
            branches = (psi @ lift_t[n]).reshape(b, r, -1, k)
            phi = noise[n]           # each noise term is read once: reuse it
            phi += lift_h[n] @ branches
            mix = base.chain.Z
        yield noise.sum(axis=2)


def _branch_weights(model: SldsModel, det: Optional[DetectionModel],
                    switching: bool) -> np.ndarray:
    """D for ``_moments``: the detection weights of the switching filter,
    or one branch per true mode for a fixed filter."""
    if not switching:
        return np.ones((model.r, 1))
    if det is None:
        raise ValueError("switching-filter analysis needs a detection model")
    return _detection_weights(model.r, det)


def _moments(model: SldsModel, A_f: np.ndarray, K: np.ndarray,
             D: np.ndarray) -> np.ndarray:
    """Lifted moments (N + 1, k, k) of one filter on ``model``: under true
    mode j it runs row d of ``A_f`` (d, N, z, z) and ``K`` (d, N, z, m)
    with probability ``D[j, d]``."""
    A = np.stack([mode.A for mode in model.modes])
    Q = np.stack([mode.Q for mode in model.modes])
    blocks = _lifted_moments(model, A[None], Q[None], A_f.swapaxes(0, 1)[None],
                             K.swapaxes(0, 1)[None], D)
    return np.concatenate(list(blocks))[:, 0]


def _filter_moments(model: SldsModel, det: Optional[DetectionModel],
                    n_steps: int, filt: Optional[ModeLike]) -> np.ndarray:
    """Lifted moments (N + 1, k, k) of the switching filter under ``det``,
    or of the fixed filter ``filt`` (one branch per true mode)."""
    D = _branch_weights(model, det, filt is None)
    if filt is None:
        K = np.array([s.gains for s in mode_schedules(model, n_steps)])
        A_f = np.broadcast_to(
            np.stack([mode.A for mode in model.modes])[:, None],
            K.shape[:2] + (model.z, model.z))
    else:
        K = np.array([gain_schedule(filt, model.meas, model.init,
                                    n_steps).gains])
        A_f = np.array([[mode.A for mode in as_mode_sequence(filt, n_steps)]])
    return _moments(model, A_f, K, D)


def bank_series(model: SldsModel, det: Optional[DetectionModel],
                filters: Sequence[FilterSpec], n_steps: int,
                bank: Optional[FilterBank] = None) -> list[MseSeries]:
    """MSE series of each spec in ``filters``, read off one
    :func:`~slds_mse.kalman.filter_bank`: one Riccati pass for the whole
    list, then one moment recursion per spec.  Each series equals
    ``aggregate_series`` with the matching ``filt`` bit for bit, whatever
    else the list holds.  ``bank`` reuses a caller's
    ``filter_bank(model, n_steps)`` instead of computing it."""
    if bank is None:
        bank = filter_bank(model, n_steps)
    out = []
    for spec in filters:
        rows = bank.rows(spec)
        moments = _moments(model, bank.A[rows], bank.gains[rows],
                           _branch_weights(model, det, spec.kind == "skf"))
        out.append(MseSeries(mse=_error_trace(moments, model.z),
                             method="aggregate"))
    return out


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
    # model's; one stack runs the pairs' SKFs, one their single-mode KFs.
    members = np.array(list(itertools.combinations(range(model.r), 2)))
    n_pairs, z = len(members), model.z
    gains = np.array([s.gains for s in mode_schedules(model, n_steps)])
    A = np.stack([mode.A for mode in model.modes])[members]
    Q = np.stack([mode.Q for mode in model.modes])[members]
    base = pair_model(model, 1, 2)
    skf = _lifted_moments(
        base, A, Q, np.broadcast_to(A[:, None], (n_pairs, n_steps, 2, z, z)),
        gains[members].swapaxes(1, 2), _detection_weights(2, det))
    skf = np.concatenate([_error_trace(m, z) for m in skf]).T
    singles = _lifted_moments(
        base, A.repeat(2, axis=0), Q.repeat(2, axis=0),
        np.broadcast_to(A.reshape(-1, 1, 1, z, z),
                        (2 * n_pairs, n_steps, 1, z, z)),
        gains[members.ravel(), :, None], np.ones((2, 1)))
    singles = np.concatenate([_error_trace(m, z) for m in singles]).T
    pairs = []
    for (i, j), skf_mse, own in zip(members + 1, skf,
                                    singles.reshape(n_pairs, 2, -1)):
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
