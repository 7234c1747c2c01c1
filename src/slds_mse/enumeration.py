"""Exact SLDS error moments by enumerating mode trajectories.

A single-mode filter applied to a switching system sees a different truth
along every mode trajectory, so the exact error moments at step n are a
probability-weighted mixture over all r^n trajectories (and over
(true, detected) trajectory pairs, r^(2n) of them, for the switching
filter).  Each trajectory's conditional moments follow the mismatch
recursion with the trajectory's current mode as the truth; aggregation
then uses

    E[e_n]       = sum_l  pi_l E[e^l]
    E[e_n e_n.T] = sum_l  pi_l (C(e^l) + E[e^l] E[e^l].T)
    MSE(n)       = tr E[e_n e_n.T]

The engine keeps the live trajectory set in flat batched arrays, so a
step is r (or r^2) dense linear-algebra calls regardless of how many
trajectories are alive.  Beam pruning keeps only the highest-probability
trajectories and reports the retained mass per step; by default the
dropped tail is simply ignored (no renormalization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import DetectionModel, MarkovChain, MseSeries, SldsModel
from .mismatch import ErrorMoments
from .kalman import ModeLike, as_mode_sequence, gain_schedule, mode_schedules

DEFAULT_CAP = 2 ** 20

GAIN_SCHEDULE = "schedule"
GAIN_DETECTED_PATH = "detected-path"


class EnumerationCapError(RuntimeError):
    """Raised when an exact enumeration would exceed the trajectory cap."""


@dataclass(frozen=True)
class Trajectory:
    """A mode sequence (1-based indices) with its probability mass."""

    modes: tuple
    prob: float


@dataclass(frozen=True)
class TrajectoryPair:
    """True and detected mode sequences with their joint mass."""

    truth: tuple
    detected: tuple
    prob: float
    moments: Optional[ErrorMoments] = None


def trajectory_prob(chain: MarkovChain, modes: Sequence[int]) -> float:
    """Probability of a mode trajectory: prior times transition products."""
    modes = list(modes)
    if not modes:
        raise ValueError("trajectory must contain at least one mode")
    for m in modes:
        if not 1 <= m <= chain.r:
            raise ValueError(f"mode index {m} outside 1..{chain.r}")
    p = chain.prior[modes[0] - 1]
    for a, b in zip(modes, modes[1:]):
        p *= chain.Z[a - 1, b - 1]
    return float(p)


def detection_prob(truth: Sequence[int], detected: Sequence[int],
                   det: DetectionModel, r: int) -> float:
    """P(detected trajectory | true trajectory) under the constant-rate model."""
    truth, detected = list(truth), list(detected)
    if len(truth) != len(detected):
        raise ValueError("trajectories must have equal length")
    p = 1.0
    for i, j in zip(truth, detected):
        if i == j:
            # with a single mode detection cannot err, whatever p_d says
            p *= det.p_d if r > 1 else 1.0
        else:
            if r < 2:
                raise ValueError("false detection impossible with a single mode")
            p *= (1.0 - det.p_d) / (r - 1)
    return float(p)


def _tp(mat: np.ndarray) -> np.ndarray:
    return np.swapaxes(mat, -1, -2)


def _mv(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Apply a (z,z) or batched (B,z,z) matrix to batched (B,z) vectors."""
    if mat.ndim == 2:
        return vecs @ mat.T
    return np.einsum("bij,bj->bi", mat, vecs)


class _Beam:
    """Flat arrays over the live (pair-)trajectory set."""

    def __init__(self, model: SldsModel, track_filter_cov: bool):
        z = model.z
        init = model.init
        self.prob = np.ones(1)
        self.last = np.zeros(1, dtype=np.intp)     # placeholder before step 1
        self.e_mean = np.zeros((1, z))
        self.x_mean = np.tile(init.mean, (1, 1))
        self.e_cov = init.cov[None, :, :].copy()
        self.x_cov = init.cov[None, :, :].copy()
        self.u = np.zeros((1, z, z))
        self.filter_cov = init.cov[None, :, :].copy() if track_filter_cov else None

    def size(self) -> int:
        return self.prob.size

    def take(self, idx: np.ndarray) -> None:
        for name in ("prob", "last", "e_mean", "x_mean", "e_cov", "x_cov", "u"):
            setattr(self, name, getattr(self, name)[idx])
        if self.filter_cov is not None:
            self.filter_cov = self.filter_cov[idx]


def _branch_update(beam: _Beam, idx_true: int, prob_factor: np.ndarray,
                   A: np.ndarray, Q: np.ndarray, A_f: np.ndarray,
                   K: np.ndarray, H: np.ndarray, R: np.ndarray,
                   filter_cov: Optional[np.ndarray]) -> dict:
    """Propagate every live trajectory through one (true, filter) branch.

    K may be a fixed (z,m) gain or a per-trajectory (B,z,m) array; all the
    products below broadcast either way.
    """
    eye = np.eye(A.shape[0])
    B = eye - K @ H
    M = B @ A_f
    J = B @ (A - A_f)

    x_mean = _mv(A, beam.x_mean)
    e_mean = _mv(J, beam.x_mean) + _mv(M, beam.e_mean)
    x_cov = A @ beam.x_cov @ A.T + Q

    cross = beam.x_cov - _tp(beam.u)           # Cov(x_{n-1}, e_{n-1})
    S = J @ cross @ _tp(M)
    e_cov = (J @ beam.x_cov @ _tp(J) + M @ beam.e_cov @ _tp(M) + S + _tp(S)
             + B @ Q @ _tp(B) + K @ R @ _tp(K))

    KH = K @ H
    u = M @ beam.u @ A.T + KH @ x_cov

    return {
        "prob": beam.prob * prob_factor,
        "last": np.full(beam.size(), idx_true, dtype=np.intp),
        "e_mean": e_mean,
        "x_mean": x_mean,
        "e_cov": 0.5 * (e_cov + _tp(e_cov)),
        "x_cov": 0.5 * (x_cov + _tp(x_cov)),
        "u": u,
        "filter_cov": filter_cov,
    }


def _concat_blocks(beam: _Beam, blocks: list[dict]) -> None:
    for name in ("prob", "last", "e_mean", "x_mean", "e_cov", "x_cov", "u"):
        setattr(beam, name, np.concatenate([b[name] for b in blocks]))
    if beam.filter_cov is not None:
        beam.filter_cov = np.concatenate([b["filter_cov"] for b in blocks])


def _aggregate(beam: _Beam, step: int, renorm: bool) -> tuple[ErrorMoments, float]:
    w = beam.prob
    mass = float(w.sum())
    if renorm and mass > 0:
        w = w / mass
    ee_outer = beam.e_mean[:, :, None] * beam.e_mean[:, None, :]
    Ee = np.einsum("b,bi->i", w, beam.e_mean)
    Eee = np.einsum("b,bij->ij", w, beam.e_cov + ee_outer)
    mse = float(np.trace(Eee))

    Ex = np.einsum("b,bi->i", w, beam.x_mean)
    xx_outer = beam.x_mean[:, :, None] * beam.x_mean[:, None, :]
    Exx = np.einsum("b,bij->ij", w, beam.x_cov + xx_outer)
    xhat_mean = beam.x_mean - beam.e_mean
    u_raw = np.einsum("b,bij->ij", w,
                      beam.u + xhat_mean[:, :, None] * beam.x_mean[:, None, :])

    moments = ErrorMoments(
        e_mean=Ee,
        e_cov=Eee - np.outer(Ee, Ee),
        x_mean=Ex,
        x_cov=Exx - np.outer(Ex, Ex),
        u=u_raw - np.outer(Ex - Ee, Ex),
        step=step,
    )
    return moments, mse


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


def _detected_path_gains(beam: _Beam, mode_j, H, R):
    """Per-trajectory gain from the filter's own Riccati step along the
    detected trajectory (alternative to the per-mode schedule gains)."""
    P_pred = mode_j.A @ beam.filter_cov @ mode_j.A.T + mode_j.Q
    B_inn = H @ P_pred @ _tp(H) + R
    K = _tp(np.linalg.solve(B_inn, H @ P_pred))
    P_post = (np.eye(mode_j.z) - K @ H) @ P_pred
    return K, 0.5 * (P_post + _tp(P_post))


def _run_enumeration(model: SldsModel, n_steps: int, *,
                     det: Optional[DetectionModel],
                     filt: Optional[ModeLike],
                     keep: Optional[int], mass: Optional[float],
                     renormalize: bool, cap: int,
                     gains: str) -> tuple[MseSeries, list[ErrorMoments]]:
    pairs = filt is None
    if pairs and det is None:
        raise ValueError("either a detection model or a filter is required")
    if gains not in (GAIN_SCHEDULE, GAIN_DETECTED_PATH):
        raise ValueError(f"unknown gain policy {gains!r}")
    if gains == GAIN_DETECTED_PATH and not pairs:
        raise ValueError("detected-path gains apply to the switching filter only")
    pruning = keep is not None or mass is not None
    if keep is not None and mass is not None:
        raise ValueError("give either keep or mass, not both")
    if keep is not None and keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    if mass is not None and not 0.0 < mass <= 1.0:
        raise ValueError(f"mass target must lie in (0, 1], got {mass}")

    r = model.r
    branch_factor = r * r if pairs else r
    if not pruning and branch_factor ** n_steps > cap:
        kind = "trajectory pairs" if pairs else "trajectories"
        raise EnumerationCapError(
            f"exact enumeration needs {branch_factor}^{n_steps} {kind}, "
            f"over the cap of {cap}; use the aggregate recursion or beam "
            f"pruning instead")

    H, R = model.meas.H, model.meas.R
    chain = model.chain
    if pairs:
        schedules = mode_schedules(model, n_steps) if gains == GAIN_SCHEDULE else None
        filt_modes = None
        filt_gains = None
    else:
        filt_modes = as_mode_sequence(filt, n_steps)
        filt_gains = gain_schedule(filt, model.meas, model.init, n_steps).gains

    beam = _Beam(model, track_filter_cov=(gains == GAIN_DETECTED_PATH))
    agg0, mse0 = _aggregate(beam, 0, renormalize)
    moments = [agg0]
    mses = [mse0]
    kept_mass = [float(beam.prob.sum())]

    for n in range(1, n_steps + 1):
        if beam.size() * branch_factor > cap:
            raise EnumerationCapError(
                f"step {n} would create {beam.size() * branch_factor} "
                f"trajectories, over the cap of {cap}")
        if gains == GAIN_DETECTED_PATH:
            branch_gains = [_detected_path_gains(beam, model.modes[j], H, R)
                            for j in range(r)]
        blocks = []
        for i in range(r):
            mode_i = model.modes[i]
            step_prob = (chain.prior[i] * np.ones(beam.size()) if n == 1
                         else chain.Z[beam.last, i])
            if pairs:
                for j in range(r):
                    if i == j:
                        d = det.p_d if r > 1 else 1.0
                    else:
                        d = (1.0 - det.p_d) / (r - 1)
                    if gains == GAIN_SCHEDULE:
                        K = schedules[j].gains[n - 1]
                        fcov = None
                    else:
                        K, fcov = branch_gains[j]
                    blocks.append(_branch_update(
                        beam, i, step_prob * d, mode_i.A, mode_i.Q,
                        model.modes[j].A, K, H, R, fcov))
            else:
                blocks.append(_branch_update(
                    beam, i, step_prob, mode_i.A, mode_i.Q,
                    filt_modes[n - 1].A, filt_gains[n - 1], H, R, None))
        _concat_blocks(beam, blocks)
        if pruning:
            beam.take(_keep_indices(beam.prob, keep, mass))
        agg, mse = _aggregate(beam, n, renormalize)
        moments.append(agg)
        mses.append(mse)
        kept_mass.append(float(beam.prob.sum()))

    # exact runs carry the mass too: it should sum to one at every step,
    # which makes the bookkeeping auditable from the outside
    series = MseSeries(mse=np.array(mses),
                       method="pruned" if pruning else "exact",
                       kept_mass=np.array(kept_mass))
    return series, moments


def single_mode_slds_moments(model: SldsModel, filt: ModeLike, n_steps: int,
                             cap: int = DEFAULT_CAP,
                             ) -> tuple[MseSeries, list[ErrorMoments]]:
    """Exact MSE of one fixed filter (or per-step filter sequence) applied
    to the switching system, by full trajectory enumeration."""
    return _run_enumeration(model, n_steps, det=None, filt=filt,
                            keep=None, mass=None, renormalize=False,
                            cap=cap, gains=GAIN_SCHEDULE)


def skf_slds_moments(model: SldsModel, det: DetectionModel, n_steps: int,
                     cap: int = DEFAULT_CAP, gains: str = GAIN_SCHEDULE,
                     ) -> tuple[MseSeries, list[ErrorMoments]]:
    """Exact MSE of the switching filter under the constant detection rate,
    by full (true, detected) trajectory-pair enumeration.

    ``gains`` selects how the filter gain for a detected mode is formed:
    ``"schedule"`` (default) reads the detected mode's standalone gain
    schedule; ``"detected-path"`` runs the filter's Riccati recursion
    along each detected trajectory instead.
    """
    return _run_enumeration(model, n_steps, det=det, filt=None,
                            keep=None, mass=None, renormalize=False,
                            cap=cap, gains=gains)


def pruned_moments(model: SldsModel, det: Optional[DetectionModel],
                   n_steps: int, keep: Optional[int] = None,
                   mass: Optional[float] = None, filt: Optional[ModeLike] = None,
                   renormalize: bool = False, cap: int = DEFAULT_CAP,
                   gains: str = GAIN_SCHEDULE,
                   ) -> tuple[MseSeries, list[ErrorMoments]]:
    """Beam-pruned enumeration: keep the highest-probability trajectories.

    ``keep`` retains a fixed number per step; ``mass`` retains the
    smallest prefix reaching the target probability.  The returned series
    carries the kept mass per step.  By default aggregates are plain
    partial sums over the kept set (the dropped tail is ignored);
    ``renormalize=True`` rescales the kept weights to sum to one.

    With ``filt`` given the beam runs over true trajectories for that
    fixed filter; otherwise it runs over (true, detected) pairs for the
    switching filter under ``det``.
    """
    if keep is None and mass is None:
        raise ValueError("pruning requires keep or mass")
    return _run_enumeration(model, n_steps, det=det, filt=filt,
                            keep=keep, mass=mass, renormalize=renormalize,
                            cap=cap, gains=gains)
