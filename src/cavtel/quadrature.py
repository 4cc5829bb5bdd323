"""Panel-based Gauss-Legendre integration with uniform refinement.

The integrands handled here are smooth products of trigonometric mode
functions, so a fixed-order rule on uniformly refined panels converges
spectrally once the panel width resolves the fastest oscillation.  They
are passed as two factor stacks whose weighted Gram product is the stack
of integrals, so a p x q family of products is never formed node by
node.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

GAUSS_ORDER = 16
MAX_PANELS = 2 ** 14
_NODE_CHUNK = 8192
_X0, _W0 = np.polynomial.legendre.leggauss(GAUSS_ORDER)
_X0.flags.writeable = False
_W0.flags.writeable = False


def panel_rule(a, b, n_panels):
    """Return nodes and weights of the GAUSS_ORDER-point rule on
    `n_panels` uniform panels on [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (b - a) / n_panels
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half * _X0[None, :]).ravel()
    weights = np.tile(half * _W0, n_panels)
    return nodes, weights


def integrate_stack(evaluate, a, b, tol=1e-10, base_panels=16):
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
    base_panels : int
        Initial panel count.  Doubling past MAX_PANELS raises
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
    while n <= MAX_PANELS:
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
        f"no convergence to tol={tol:g} within {MAX_PANELS} panels "
        f"(last residual {residual:g})",
        residual=residual, panels=MAX_PANELS)

