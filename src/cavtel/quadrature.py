"""Panel-based Gauss-Legendre integration with uniform refinement.

The integrands handled here are smooth products of trigonometric mode
functions, so a fixed-order rule on uniformly refined panels converges
spectrally once the panel width resolves the fastest oscillation.  They
are passed as two factor stacks whose weighted Gram product is the stack
of integrals, so a p x q family of products is never formed node by
node.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError

GAUSS_ORDER = 16
MAX_PANELS = 2 ** 14
_NODE_CHUNK = 8192


@lru_cache(maxsize=8)
def _legendre_rule(order):
    x0, w0 = np.polynomial.legendre.leggauss(order)
    x0.flags.writeable = False
    w0.flags.writeable = False
    return x0, w0


def panel_rule(a, b, n_panels, order=GAUSS_ORDER):
    """Return nodes and weights for `n_panels` uniform panels on [a, b]."""
    x0, w0 = _legendre_rule(order)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (b - a) / n_panels
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half * x0[None, :]).ravel()
    weights = np.tile(half * w0, n_panels)
    return nodes, weights


def integrate_stack(evaluate, a, b, tol=1e-10, base_panels=16,
                    max_panels=MAX_PANELS):
    """Integrate a bilinear stack of integrands over [a, b] to absolute
    tolerance.

    Parameters
    ----------
    evaluate : callable
        Maps an array of nodes (K,) to two factor stacks
        (left (..., p, K), right (q, K)).  The integrand (..., i, j) is
        left[..., i, :] * right[j, :]; each node chunk is contracted as
        (left * w) @ right.T, so only the factors are ever evaluated.  A
        plain stack f (p, K) is passed as (f, np.ones((1, K))).
    a, b : float
        Integration limits.
    tol : float
        Absolute tolerance per stack element, judged by the change under
        panel doubling.
    base_panels, max_panels : int
        Initial and maximal panel counts.  Exceeding the budget raises
        QuadratureError.

    Returns
    -------
    (values (..., p, q), residual, n_panels), from the finer level of
    the first doubling that changed no element by more than `tol`.
    """
    if not b > a:
        raise ValueError("integration interval must have b > a")
    n = base_panels
    prev = None
    residual = np.inf
    while n <= max_panels:
        nodes, weights = panel_rule(a, b, n)
        vals = None
        # chunked accumulation keeps memory bounded near the panel budget
        for lo in range(0, nodes.size, _NODE_CHUNK):
            hi = lo + _NODE_CHUNK
            left, right = evaluate(nodes[lo:hi])
            part = (left * weights[lo:hi]) @ right.T
            vals = part if vals is None else vals + part
        if prev is not None:
            residual = float(np.max(np.abs(vals - prev)))
            if residual <= tol:
                return vals, residual, n
        prev = vals
        n *= 2
    raise QuadratureError(
        f"no convergence to tol={tol:g} within {max_panels} panels "
        f"(last residual {residual:g})",
        residual=residual, panels=max_panels)


def richardson_limit(values, ratio=4.0):
    """Extrapolate a sequence with error series in powers of 1/ratio.

    `values[i]` is the estimate at step i, whose error shrinks by `ratio`
    per step.  Returns the extrapolated limit and an error estimate (the
    size of the last correction).
    """
    if len(values) < 2:
        raise ValueError("need at least two values to extrapolate")
    prev_row = [np.asarray(values[0])]
    for i in range(1, len(values)):
        row = [np.asarray(values[i])]
        for j in range(1, i + 1):
            fac = ratio ** j
            row.append((fac * row[j - 1] - prev_row[j - 1]) / (fac - 1.0))
        prev_row = row
    limit = prev_row[-1]
    err = float(np.max(np.abs(limit - prev_row[-2])))
    return limit, err
