"""Data model for randomly switching linear dynamic systems (SLDS).

The system hops between ``r`` linear-Gaussian modes under a Markov chain::

    x_n = A[s_n] @ x_{n-1} + v_n,    v_n ~ N(0, Q[s_n])
    y_n = H @ x_n + w_n,             w_n ~ N(0, R)

where ``s_n`` is the mode index at step ``n`` with transition matrix ``Z``
(row-stochastic: ``Z[i, j] = P(s_n = j | s_{n-1} = i)``) and a prior row
vector over the mode at step 1.  All noise is white and mutually
independent, and ``x_0 ~ N(mean, cov)`` of the initial belief.

Model objects are frozen dataclasses wrapping read-only numpy arrays, so
they are safe to share between threads.  Constructors only enforce types
and shape coherence; tolerance-based properties (symmetry, positive
semidefiniteness, stochastic rows) are reported as data by
:func:`validate_scenario` rather than raised, so a single call surfaces
every problem at once.
"""

from __future__ import annotations

import numbers
import reprlib
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

DEFAULT_SYM_TOL = 1e-9
DEFAULT_PSD_TOL = 1e-9

_KINDS = ("single-mode", "average", "skf")
_shown = reprlib.repr       # a rejected value's repr, cut short to one line


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Return ``(mat + mat.T) / 2``; applied after every covariance update."""
    return 0.5 * (mat + mat.T)


def symmetry_gap(mat: np.ndarray) -> float:
    """Largest absolute element of ``mat - mat.T``."""
    return float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0


def min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized matrix."""
    return float(np.linalg.eigvalsh(symmetrize(mat))[0])


def _array(name: str, value, ndmin: int) -> np.ndarray:
    """``value`` as a read-only float copy of at least ``ndmin``
    dimensions, leading ones added.  It must be a rectangular array of
    real numbers, none of them a boolean or a string."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        value = np.array(value, dtype=object)
        # plain floats and ints skip the slower ABC check
        bad = [x for x in value.ravel().tolist() if type(x) not in (float, int)
               and (isinstance(x, bool) or not isinstance(x, numbers.Real))]
        if bad:
            raise TypeError(f"{name} must be a rectangular array of real "
                            f"numbers, got entry {_shown(bad[0])}")
    out = np.array(value, dtype=float, ndmin=ndmin)
    out.flags.writeable = False
    return out


def _check_number(name: str, value, kind: type) -> None:
    """Refuse ``value`` as ``name`` unless it is a ``numbers`` instance of
    ``kind`` (int or float): NumPy scalars pass, booleans and strings do
    not."""
    abc, what = ((numbers.Integral, "an integer") if kind is int
                 else (numbers.Real, "a real number"))
    if isinstance(value, bool) or not isinstance(value, abc):
        raise TypeError(f"{name} must be {what}, got {_shown(value)}")


def _fields(obj, **rules) -> None:
    """Convert, check and store each named field of ``obj`` by its rule:
    - a string, one dimension symbol per axis (``r`` modes, ``z`` states,
      ``m`` measurements, ``n`` steps), for a read-only float array whose
      symbols each have one size across ``obj``'s fields;
    - ``int`` or ``float`` for a plain number of that type;
    - a class for an instance of it, or a one-class tuple for a tuple
      of them."""
    sizes = {}                  # symbol -> (its size, the field that set it)
    for name, rule in rules.items():
        value = getattr(obj, name)
        if isinstance(rule, str):
            value = _array(name, value, len(rule))
            why = None if value.ndim == len(rule) else ""
            for symbol, size in zip(rule, value.shape):
                have, where = sizes.setdefault(symbol, (size, name))
                if have != size and why is None:
                    why = f": {symbol} is {have} in {where}"
            if why is not None:     # the message is built only when needed
                raise ValueError(f"{name} shape {value.shape} does not fit "
                                 + str(tuple(rule)).replace("'", "") + why)
        elif rule in (int, float):
            _check_number(name, value, rule)
            value = rule(value)
        else:
            items = [(name, value)]
            if isinstance(rule, tuple):
                (rule,) = rule
                try:
                    value = tuple(value)
                except TypeError:
                    raise TypeError(f"{name} must be a sequence, got "
                                    f"{_shown(value)}") from None
                items = [(f"{name}[{k}]", x) for k, x in enumerate(value)]
            for where, x in items:
                if not isinstance(x, rule):
                    raise TypeError(f"{where} must be of type "
                                    f"{rule.__name__}, got {_shown(x)}")
        object.__setattr__(obj, name, value)


def _seed_error(seed: int) -> Optional[str]:
    """The ``[seed-range]`` rule's message if ``seed`` breaks it."""
    if not 0 <= seed < 2 ** 64:
        return f"seed must be an unsigned 64-bit integer, got {seed}"
    return None


@dataclass(frozen=True)
class ModeModel:
    """One linear dynamics mode: transition matrix A and process noise Q."""

    A: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        _fields(self, A="zz", Q="zz")

    @property
    def z(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class MeasurementModel:
    """Shared measurement map H and measurement-noise covariance R."""

    H: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        _fields(self, H="mz", R="mm")

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
        _fields(self, mean="z", cov="zz")

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
        _fields(self, Z="rr", prior="r")

    @property
    def r(self) -> int:
        return self.Z.shape[0]


@dataclass(frozen=True)
class SldsModel:
    """A fully specified switching system: modes, measurement, chain, init."""

    modes: Sequence[ModeModel]
    meas: MeasurementModel
    chain: MarkovChain
    init: GaussianBelief

    def __post_init__(self):
        _fields(self, modes=(ModeModel,), meas=MeasurementModel,
                chain=MarkovChain, init=GaussianBelief)
        if not self.modes:
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

    def __post_init__(self):
        _fields(self, p_d=float)


@dataclass(frozen=True)
class FilterSpec:
    """Which filter to evaluate: one of the single-mode KFs, the
    marginal-weighted average KF, or the switching KF.

    ``mode`` is 1-based, matching mode numbering everywhere user-facing,
    and only a single-mode filter takes one.
    """

    kind: str
    mode: Optional[int] = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown filter kind {_shown(self.kind)}")
        if self.mode is not None:
            _fields(self, mode=int)
            if self.kind != "single-mode":
                raise ValueError(f"{self.kind} filter spec takes no mode "
                                 f"index, got {self.mode}")
        elif self.kind == "single-mode":
            raise ValueError("single-mode filter spec requires a mode index")
        if not isinstance(self.label, str):
            raise TypeError(f"label must be a string, got "
                            f"{_shown(self.label)}")

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        if self.kind == "single-mode":
            return f"kf-mode-{self.mode}"
        return {"average": "average-kf", "skf": "skf"}[self.kind]

    def key(self, r: int) -> tuple:
        """(fixed gain, rows) of this filter in a bank on r modes, whose
        row j < r is mode j + 1's KF and row r the average filter: specs
        with one key are one filter, whatever their labels."""
        if self.kind == "skf":
            return False, tuple(range(r))
        if self.kind == "average":
            return True, (r,)
        if not 1 <= self.mode <= r:
            raise ValueError(f"filter mode {self.mode} is outside 1..{r}")
        return True, (self.mode - 1,)


@dataclass(frozen=True)
class Tolerances:
    sym_tol: float = DEFAULT_SYM_TOL
    psd_tol: float = DEFAULT_PSD_TOL

    def __post_init__(self):
        _fields(self, sym_tol=float, psd_tol=float)


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
        _fields(self, model=SldsModel, horizon=int, detection=DetectionModel,
                filters=(FilterSpec,), mc_samples=int, seed=int,
                tolerances=Tolerances)


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

    ``method`` records how the series was produced ("exact", "aggregate"
    or "pruned").  ``kept_mass`` is set for enumeration series: the total
    probability retained at each step, which is 1 (to rounding) for exact
    runs and tracks the discarded tail for pruned runs.
    """

    mse: np.ndarray
    method: str
    kept_mass: Optional[np.ndarray] = None

    def __post_init__(self):
        _fields(self, mse="n", **({} if self.kept_mass is None
                                  else {"kept_mass": "n"}))

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
    """Structural and numeric checks for a bare model (no scenario).  A
    tolerance that is not finite and >= 0 is a violation, and the matrix
    checks use its default instead, so it neither hides nor invents
    another."""
    bad = {name: value for name, value in vars(tol).items()
           if not 0 <= value < np.inf}
    v = [Violation("tolerance-range", f"tolerances.{name}",
                   f"{name} must be finite and >= 0, got {value}")
         for name, value in bad.items()]
    if bad:
        tol = replace(tol, **{name: getattr(Tolerances, name) for name in bad})
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
    """Return every invariant violation; an empty list means valid.  The
    model's checks, tolerances included, are ``validate_model``'s."""
    v = validate_model(scenario.model, scenario.tolerances)
    if scenario.horizon < 1:
        v.append(Violation("horizon-positive", "horizon",
                           f"horizon must be >= 1, got {scenario.horizon}"))
    if scenario.mc_samples < 1:
        v.append(Violation("mc-samples-positive", "mc_samples",
                           f"mc_samples must be >= 1, got {scenario.mc_samples}"))
    if (why := _seed_error(scenario.seed)) is not None:
        v.append(Violation("seed-range", "seed", why))
    det = scenario.detection
    v += _finite(det.p_d, "detection.p_d")
    if np.isfinite(det.p_d) and not (0.0 <= det.p_d <= 1.0):
        v.append(Violation("detection-rate-range", "detection.p_d",
                           f"p_d must lie in [0, 1], got {det.p_d}"))
    r = scenario.model.r
    named = {}                  # display name -> (first entry, its key)
    for k, spec in enumerate(scenario.filters):
        if spec.kind == "single-mode" and not (1 <= spec.mode <= r):
            v.append(Violation("filter-mode-range", f"filters[{k}]",
                               f"mode {spec.mode} outside 1..{r}"))
            continue
        key = spec.key(r)
        j, first = named.setdefault(spec.display, (k, key))
        if first != key:
            v.append(Violation("filter-label-clash", f"filters[{k}]",
                               f"label {_shown(spec.display)} already names "
                               f"filters[{j}], a different filter"))
    return v
