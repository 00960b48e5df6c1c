"""Central finite-difference gradient checking shared by the test modules."""

from __future__ import annotations

import numpy as np

from swinscan import tensor as T

FD_STEP = 1e-5
REL_TOL = 1e-4


def numeric_grad(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central differences of scalar-valued f at every coordinate of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-case relative error; small-magnitude entries compared absolutely."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


def analytic_grads(build_loss, params: list[T.Tensor]) -> list[np.ndarray]:
    """Run build_loss under a fresh tape and return grads for every param."""
    for p in params:
        p.zero_grad()
    with T.Tape() as tape:
        for p in params:
            tape.watch(p)
        loss = build_loss()
    T.backward(tape, loss)
    return [p.grad.copy() for p in params]


def check_grads(build_loss, params: list[T.Tensor], tol: float = REL_TOL) -> float:
    """Compare analytic and numeric grads for every parameter; return worst error."""
    analytic = analytic_grads(build_loss, params)
    worst = 0.0
    for p, ga in zip(params, analytic):
        def f_of(x, _p=p):
            saved = _p.data
            _p.data = x
            try:
                return float(build_loss().data)
            finally:
                _p.data = saved

        gn = numeric_grad(lambda x, _f=f_of: _f(x), p.data.copy())
        err = max_rel_error(ga, gn)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch for shape {p.shape}: rel err {err:.3e}"
    return worst


def check_sampled_grads(build_loss, params: list[T.Tensor], rng, samples: int = 32,
                        tol: float = REL_TOL) -> float:
    """check_grads at no more than `samples` random coordinates per parameter,
    for models too large to difference in full; return worst error."""
    analytic = analytic_grads(build_loss, params)
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)  # a view: the loss sees each bump
        coords = (np.arange(flat.size) if flat.size <= samples
                  else rng.choice(flat.size, size=samples, replace=False))
        gn = np.zeros(len(coords))
        for n, i in enumerate(coords):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            fp = float(build_loss().data)
            flat[i] = orig - FD_STEP
            fm = float(build_loss().data)
            flat[i] = orig
            gn[n] = (fp - fm) / (2.0 * FD_STEP)
        err = max_rel_error(ga.reshape(-1)[coords], gn)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch for shape {p.shape}: rel err {err:.3e}"
    return worst
