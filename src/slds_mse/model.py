"""Data model for randomly switching linear dynamic systems (SLDS).

The system hops between ``r`` linear-Gaussian modes under a Markov chain::

    x_n = A[s_n] @ x_{n-1} + v_n,    v_n ~ N(0, Q[s_n])
    y_n = H @ x_n + w_n,             w_n ~ N(0, R)

where ``s_n`` is the mode index at step ``n`` with transition matrix ``Z``
(row-stochastic: ``Z[i, j] = P(s_n = j | s_{n-1} = i)``) and a prior row
vector over the mode at step 1.  All noise is white and mutually
independent, and ``x_0 ~ N(mean, cov)`` of the initial belief.

Model objects are frozen dataclasses wrapping read-only numpy arrays, so
they are safe to share between threads.  Constructors only enforce shape
coherence; tolerance-based properties (symmetry, positive semidefiniteness,
stochastic rows) are reported as data by :func:`validate_scenario` rather
than raised, so a single call surfaces every problem at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

DEFAULT_SYM_TOL = 1e-9
DEFAULT_PSD_TOL = 1e-9

_KINDS = ("single-mode", "average", "skf")
_CONFUSION_POLICIES = ("uniform-over-wrong-modes",)


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Return ``(mat + mat.T) / 2``; applied after every covariance update."""
    return 0.5 * (mat + mat.T)


def symmetry_gap(mat: np.ndarray) -> float:
    """Largest absolute element of ``mat - mat.T``."""
    return float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0


def min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized matrix."""
    return float(np.linalg.eigvalsh(symmetrize(mat))[0])


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def _set(obj, name: str, value) -> None:
    object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class ModeModel:
    """One linear dynamics mode: transition matrix A and process noise Q."""

    A: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if Q.shape != A.shape:
            raise ValueError(f"Q shape {Q.shape} does not match A shape {A.shape}")
        _set(self, "A", _freeze(A))
        _set(self, "Q", _freeze(Q))

    @property
    def z(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class MeasurementModel:
    """Shared measurement map H and measurement-noise covariance R."""

    H: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError(f"R must be square, got shape {R.shape}")
        if H.shape[0] != R.shape[0]:
            raise ValueError(f"R dimension {R.shape[0]} does not match "
                             f"measurement count {H.shape[0]}")
        _set(self, "H", _freeze(H))
        _set(self, "R", _freeze(R))

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def z(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True)
class GaussianBelief:
    """Mean/covariance pair; used for the initial state and filter states."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match "
                             f"mean length {mean.size}")
        _set(self, "mean", _freeze(mean))
        _set(self, "cov", _freeze(cov))

    @property
    def z(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class MarkovChain:
    """Mode chain: row-stochastic transition matrix Z and a prior row vector.

    ``prior[i]`` is the probability that mode ``i + 1`` is active at step 1;
    marginals evolve by right-multiplication, ``p_{n+1} = p_n @ Z``.
    """

    Z: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        prior = np.atleast_1d(np.asarray(self.prior, dtype=float))
        if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
            raise ValueError(f"Z must be square, got shape {Z.shape}")
        if prior.shape != (Z.shape[0],):
            raise ValueError(f"prior length {prior.size} does not match "
                             f"Z dimension {Z.shape[0]}")
        _set(self, "Z", _freeze(Z))
        _set(self, "prior", _freeze(prior))

    @property
    def r(self) -> int:
        return self.Z.shape[0]

    def is_uniform(self, tol: float = 1e-12) -> bool:
        """True when every transition row is the uniform distribution."""
        return bool(np.all(np.abs(self.Z - 1.0 / self.r) <= tol))


@dataclass(frozen=True)
class SldsModel:
    """A fully specified switching system: modes, measurement, chain, init."""

    modes: Sequence[ModeModel]
    meas: MeasurementModel
    chain: MarkovChain
    init: GaussianBelief

    def __post_init__(self):
        _set(self, "modes", tuple(self.modes))
        if len(self.modes) < 1:
            raise ValueError("at least one mode is required")

    @property
    def r(self) -> int:
        return len(self.modes)

    @property
    def z(self) -> int:
        return self.modes[0].z

    @property
    def m(self) -> int:
        return self.meas.m


@dataclass(frozen=True)
class DetectionModel:
    """Constant-rate mode detection: the switching filter identifies the true
    current mode with probability ``p_d`` each step, independently of the
    past; otherwise the detected mode is uniform over the wrong modes."""

    p_d: float
    confusion: str = "uniform-over-wrong-modes"

    def __post_init__(self):
        if self.confusion not in _CONFUSION_POLICIES:
            raise ValueError(f"unknown confusion policy {self.confusion!r}")
        _set(self, "p_d", float(self.p_d))


@dataclass(frozen=True)
class FilterSpec:
    """Which filter to evaluate: one of the single-mode KFs, the
    marginal-weighted average KF, or the switching KF.

    ``mode`` is 1-based, matching mode numbering everywhere user-facing.
    """

    kind: str
    mode: Optional[int] = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == "single-mode" and self.mode is None:
            raise ValueError("single-mode filter spec requires a mode index")

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        if self.kind == "single-mode":
            return f"kf-mode-{self.mode}"
        return {"average": "average-kf", "skf": "skf"}[self.kind]


@dataclass(frozen=True)
class Tolerances:
    sym_tol: float = DEFAULT_SYM_TOL
    psd_tol: float = DEFAULT_PSD_TOL


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs: the system, the horizon, the assumed
    detection rate, the filters under comparison, and reproducibility
    parameters for Monte Carlo cross-validation."""

    model: SldsModel
    horizon: int
    detection: DetectionModel
    filters: Sequence[FilterSpec]
    mc_samples: int = 20000
    seed: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        _set(self, "filters", tuple(self.filters))
        _set(self, "horizon", int(self.horizon))
        _set(self, "mc_samples", int(self.mc_samples))
        _set(self, "seed", int(self.seed))


@dataclass(frozen=True)
class Violation:
    """One scenario invariant violation; ``code`` is machine-readable."""

    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.message}"


@dataclass(frozen=True)
class MseSeries:
    """Per-step scalar MSE, one entry per step 0..N.

    ``method`` records how the series was produced ("exact", "aggregate",
    "pruned" or "mc").  ``stderr`` is set for Monte Carlo series and
    ``kept_mass`` for enumeration series: the total probability retained
    at each step, which is 1 (to rounding) for exact runs and tracks the
    discarded tail for pruned runs.
    """

    mse: np.ndarray
    method: str
    stderr: Optional[np.ndarray] = None
    kept_mass: Optional[np.ndarray] = None

    def __post_init__(self):
        _set(self, "mse", _freeze(np.atleast_1d(self.mse)))
        if self.stderr is not None:
            _set(self, "stderr", _freeze(np.atleast_1d(self.stderr)))
        if self.kept_mass is not None:
            _set(self, "kept_mass", _freeze(np.atleast_1d(self.kept_mass)))

    def __len__(self) -> int:
        return self.mse.size


def mode_marginal_series(chain: MarkovChain, n_max: int) -> np.ndarray:
    """Stacked mode marginals for steps 1..n_max, shape (n_max, r): the
    prior at step 1, then pushed through Z one step at a time."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    out = np.empty((n_max, chain.r))
    out[0] = chain.prior
    for k in range(1, n_max):
        out[k] = out[k - 1] @ chain.Z
    return out


def _finite(value, where: str) -> list[Violation]:
    """A ``finite`` violation when any entry is NaN or infinite; every
    other numeric check assumes finite entries."""
    if np.isfinite(value).all():
        return []
    return [Violation("finite", where, "entries must be finite, found NaN "
                                       "or infinity")]


def _check_cov_matrix(mat: np.ndarray, where: str, what: str, tol: Tolerances,
                      positive_definite: bool = False) -> list[Violation]:
    out = _finite(mat, where)
    if out:
        return out
    gap = symmetry_gap(mat)
    if gap > tol.sym_tol:
        out.append(Violation(f"{what}-symmetric", where,
                             f"symmetry gap {gap:.3e} exceeds {tol.sym_tol}"))
        return out
    lo = min_eigenvalue(mat)
    if positive_definite:
        if lo <= 0.0:
            out.append(Violation(f"{what}-positive-definite", where,
                                 f"smallest eigenvalue {lo:.3e} is not > 0"))
    elif lo < -tol.psd_tol:
        out.append(Violation(f"{what}-psd", where,
                             f"smallest eigenvalue {lo:.3e} below -{tol.psd_tol}"))
    return out


def validate_model(model: SldsModel,
                   tol: Tolerances = Tolerances()) -> list[Violation]:
    """Structural and numeric checks for a bare model (no scenario)."""
    v: list[Violation] = []
    z = model.z
    for i, mode in enumerate(model.modes, start=1):
        where = f"modes[{i}]"
        v += _finite(mode.A, f"{where}.A")
        if mode.z != z:
            v.append(Violation("state-dim-mismatch", where,
                               f"state dimension {mode.z} != {z}"))
            continue
        v += _check_cov_matrix(mode.Q, f"{where}.Q", "Q", tol)
    v += _finite(model.meas.H, "meas.H")
    if model.meas.z != z:
        v.append(Violation("state-dim-mismatch", "meas.H",
                           f"H has {model.meas.z} columns, state dimension is {z}"))
    v += _check_cov_matrix(model.meas.R, "meas.R", "R", tol,
                           positive_definite=True)
    chain = model.chain
    if chain.r != model.r:
        v.append(Violation("mode-count-mismatch", "chain",
                           f"chain has {chain.r} modes, model has {model.r}"))
    v += _finite(chain.Z, "chain.Z") + _finite(chain.prior, "chain.prior")
    if np.any(chain.Z < 0) or np.any(chain.Z > 1):
        v.append(Violation("probability-range", "chain.Z",
                           "entries must lie in [0, 1]"))
    rows = chain.Z.sum(axis=1)
    for i, s in enumerate(rows, start=1):
        if abs(s - 1.0) > 1e-12:
            v.append(Violation("row-stochastic", f"chain.Z.row[{i}]",
                               f"row sums to {s!r}, expected 1"))
    if np.any(chain.prior < 0) or np.any(chain.prior > 1):
        v.append(Violation("probability-range", "chain.prior",
                           "entries must lie in [0, 1]"))
    if abs(chain.prior.sum() - 1.0) > 1e-12:
        v.append(Violation("prior-normalized", "chain.prior",
                           f"prior sums to {chain.prior.sum()!r}, expected 1"))
    v += _finite(model.init.mean, "init.mean")
    if model.init.z != z:
        v.append(Violation("state-dim-mismatch", "init",
                           f"initial belief dimension {model.init.z} != {z}"))
    else:
        v += _check_cov_matrix(model.init.cov, "init.cov", "P0", tol)
    return v


def validate_scenario(scenario: Scenario) -> list[Violation]:
    """Return every invariant violation; an empty list means valid."""
    tol = scenario.tolerances
    v = validate_model(scenario.model, tol)
    if scenario.horizon < 1:
        v.append(Violation("horizon-positive", "horizon",
                           f"horizon must be >= 1, got {scenario.horizon}"))
    if scenario.mc_samples < 1:
        v.append(Violation("mc-samples-positive", "mc_samples",
                           f"mc_samples must be >= 1, got {scenario.mc_samples}"))
    if not (0 <= scenario.seed < 2 ** 64):
        v.append(Violation("seed-range", "seed",
                           "seed must be an unsigned 64-bit integer"))
    det = scenario.detection
    v += _finite(det.p_d, "detection.p_d")
    if np.isfinite(det.p_d) and not (0.0 <= det.p_d <= 1.0):
        v.append(Violation("detection-rate-range", "detection.p_d",
                           f"p_d must lie in [0, 1], got {det.p_d}"))
    r = scenario.model.r
    for k, spec in enumerate(scenario.filters):
        if spec.kind == "single-mode" and not (1 <= spec.mode <= r):
            v.append(Violation("filter-mode-range", f"filters[{k}]",
                               f"mode {spec.mode} outside 1..{r}"))
    return v
