"""Seeded scenario generator for the benchmark workloads.

Every generated system has strictly stable modes (each A is a random
orthogonal rotation times a random contraction, so its 2-norm stays
below one), symmetric positive definite noise and initial covariances,
and a dense, non-identity measurement matrix with fewer rows than the
state has components.  The same seed always gives the same file bytes.
"""

from __future__ import annotations

import json

import numpy as np


def _spd(rng: np.random.Generator, dim: int, scale: float) -> list:
    """Random symmetric positive definite matrix, exactly symmetric."""
    b = rng.standard_normal((dim, dim))
    mat = scale * (b @ b.T / dim + 0.5 * np.eye(dim))
    return ((mat + mat.T) / 2.0).tolist()


def _stable(rng: np.random.Generator, dim: int) -> list:
    """Random dynamics matrix with singular values in [0.3, 0.95]."""
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    s = rng.uniform(0.3, 0.95, size=dim)
    return (u @ np.diag(s) @ v.T).tolist()


def _system(rng: np.random.Generator, r: int, z: int, m: int) -> dict:
    modes = [{"A": _stable(rng, z), "Q": _spd(rng, z, rng.uniform(0.01, 0.1))}
             for _ in range(r)]
    return {
        "schema_version": 1,
        "modes": modes,
        "meas": {"H": rng.uniform(-1.0, 1.0, size=(m, z)).tolist(),
                 "R": _spd(rng, m, 0.05)},
        "init": {"mean": rng.uniform(-1.0, 1.0, size=z).tolist(),
                 "cov": _spd(rng, z, 1.0)},
        "detection": {"p_d": float(rng.uniform(0.8, 0.95))},
    }


def long_horizon(seed: int) -> dict:
    """r=4, z=8, N=200 with a uniform chain and a random prior: the
    analytic path is the aggregate recursion, so only the Riccati and
    moment layers work.  Six default filters."""
    rng = np.random.default_rng([seed, 1])
    data = _system(rng, r=4, z=8, m=4)
    prior = rng.dirichlet(np.ones(4))
    prior[-1] = 1.0 - prior[:-1].sum()
    data["chain"] = {"Z": np.full((4, 4), 0.25).tolist(),
                     "prior": prior.tolist()}
    data.update(horizon=200, mc_samples=2048, seed=seed)
    return data


def sticky_exact(seed: int) -> dict:
    """r=2, z=4, N=9 with a sticky non-uniform chain: `auto` resolves to
    exact enumeration, 4^9 trajectory pairs for the switching filter."""
    rng = np.random.default_rng([seed, 2])
    data = _system(rng, r=2, z=4, m=2)
    a, b = (float(p) for p in rng.uniform(0.85, 0.97, size=2))
    data["chain"] = {"Z": [[a, 1.0 - a], [1.0 - b, b]], "prior": [0.5, 0.5]}
    data.update(horizon=9, mc_samples=4096, seed=seed)
    return data


def write(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
