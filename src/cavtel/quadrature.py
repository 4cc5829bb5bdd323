"""Panel-based Gauss-Legendre integration with uniform refinement.

The integrands handled here are smooth products of trigonometric mode
functions, so a fixed-order rule on uniformly refined panels converges
spectrally once the panel width resolves the fastest oscillation.  They
are passed as two factor stacks whose weighted Gram product is the stack
of integrals, so a p x q family of products is never formed node by
node.

Integrals over the same interval from the same base panel count walk the
same panel levels, coarsest first, so what depends only on the nodes can
be built once.  `FactorMemo` keeps such read-only arrays while they fit
in a byte budget: the panel rules here, at most `RULE_BUDGET` = 1 MiB,
and a caller's own node-only factors (the oracle's inertial profiles,
see `bogoliubov._switch_overlaps`).  A memoised array holds the bits of
the one its builder would form on the call, so no memo changes a bit of
any integral.
"""

from __future__ import annotations

import sys
import threading
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

GAUSS_ORDER = 16
MAX_PANELS = 2 ** 14
_NODE_CHUNK = 8192
# bytes of panel rules kept: every level of an oracle call at n_max 64 and
# h = 1.99 (32 to 1024 panels, 516 kB) fits
RULE_BUDGET = 2 ** 20


class FactorMemo:
    """Read-only arrays built once per key, kept while their bytes, keys
    included (`sys.getsizeof`), fit in `budget`.

    Every integral walks its panel levels from the coarsest up, and
    deeper levels are reached by fewer integrals, so the first entries
    are the ones that later calls reuse: an array that would take the
    memo past its budget is returned but not kept, and none is evicted.
    `nbytes` is the memo's size, never more than `budget`.
    """

    def __init__(self, budget):
        self.budget = budget
        self.nbytes = 0
        self.entries = {}
        self._lock = threading.Lock()

    def get(self, key, build):
        """The array for `key`, from `build()` on a miss."""
        found = self.entries.get(key)
        if found is not None:
            return found
        value = build()
        value.flags.writeable = False
        size = value.nbytes + sys.getsizeof(key)
        with self._lock:
            if key not in self.entries \
                    and self.nbytes + size <= self.budget:
                self.entries[key] = value
                self.nbytes += size
        return value


_RULES = FactorMemo(RULE_BUDGET)


@lru_cache(maxsize=1)
def _gauss_legendre():
    """The GAUSS_ORDER-point rule on [-1, 1], read-only; built at the
    first panel rule, so that a process that integrates nothing never
    imports numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss
    x0, w0 = leggauss(GAUSS_ORDER)
    x0.flags.writeable = False
    w0.flags.writeable = False
    return x0, w0


def _build_rule(a, b, n_panels):
    x0, w0 = _gauss_legendre()
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (b - a) / n_panels
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half * x0[None, :]).ravel()
    weights = np.tile(half * w0, n_panels)
    return np.stack([nodes, weights])


def panel_rule(a, b, n_panels):
    """Return nodes and weights of the GAUSS_ORDER-point rule on
    `n_panels` uniform panels on [a, b], as read-only arrays shared by
    every call while `_RULES` keeps them (a rule of n panels takes
    256 n bytes)."""
    rule = _RULES.get((a, b, n_panels), lambda: _build_rule(a, b, n_panels))
    return rule[0], rule[1]


def integrate_stack(evaluate, a, b, tol=1e-10, base_panels=16):
    """Integrate a bilinear stack of integrands over [a, b] to absolute
    tolerance.

    Parameters
    ----------
    evaluate : callable
        Maps an array of nodes (K,), a read-only chunk of at most
        _NODE_CHUNK nodes of one panel level, to two factor stacks
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

