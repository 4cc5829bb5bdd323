"""Dense reference pairs for the Bogoliubov algebra.

The library builds Rob's two symplectic rows of a trajectory alone
(`trajectory.rob_row`) and never forms the identity, a free evolution,
a burn's n x n transform, a trajectory's net pair or its symplectic
matrix.  These builders form them as dense (alpha, beta) matrices, so
that tests can join a trajectory step by step with `compose` and
compare; `to_symplectic` gives a pair's quadrature-space matrix, of
which Rob's rows are mode kp's two rows.  `measured` sets a pair's
defect to its identity residual (at least its own).  Likewise `f_sums`
builds one column of the first-order one-segment matrices; the full
matrices are built here.

`build_transform` is the full-matrix reference for a trajectory: its net
n x n pair, with the worst interior-block residual of each burn's
transform and each running product after a later burn, measured in one
stacked pass.  Rob's row must match row kp of it.
`build_transform_per_burn` measures each burn's transform and each
running product with `measured` as it goes; `build_transform` must
equal it bit for bit.

`segment_transform_reference` is a burn's full transform B^-1 o D o B,
measured, with every per-switch value formed on the call: the angles
come from `RindlerGeometry(h).omega_mode`, A^dagger and -B^T are formed
inline and the product is written out.  `identity_residuals_reference`
reduces the four residual blocks one by one, on one pair or a stack of
them (the library's takes one pair), `switch_reference` forms
the switch's cache entry (its rates and canonical inverse) on the call,
and `coast_phases_reference` forms a coast's rates -i n pi on the call.
The library's `identity_residuals`, switch entry and coast phases must
equal them bit for bit.  `oracle_pair_reference` is the oracle's switch
pair with its defect, max(identity residual, quadrature residual),
measured here by `identity_residuals_reference`; the library's
`sudden_switch_oracle` must give the same pair and defect.

`switch_overlaps_reference` is `_switch_overlaps` before the
h-independent factors were built once per truncation: every call forms
the modes, the normalisation and the inertial profiles, and stacks the
wedge factors with `np.stack`.  The library's must equal it bit for bit.

The library's switch takes h > 0 only and its first order is the closed
form.  Here the switch is also integrated at h < 0, against the mirrored
wedge modes, and the first order is extracted numerically from central
differences on a Richardson ladder: the independent cross-check of the
closed form.
"""

from functools import lru_cache, reduce

import numpy as np

from cavtel.bogoliubov import (
    ORACLE_TOL,
    BogoliubovPair,
    RindlerGeometry,
    _interior_count,
    _oracle_cached,
    _Switch,
    _truncation,
    sudden_switch_perturbative,
)
from cavtel.quadrature import integrate_stack
from cavtel.trajectory import Inertial


def identity_pair(n):
    return BogoliubovPair(np.eye(n, dtype=complex),
                          np.zeros((n, n), dtype=complex), 0.0)


def inverse(b):
    """Canonical inverse (alpha -> alpha^dagger, beta -> -beta^T); it
    swaps the row and column identities, so the defect carries over."""
    return BogoliubovPair(b.alpha.conj().T, -b.beta.T, b.defect)


def compose(b2, b1):
    """Pair applying b1 first, then b2 (stacks broadcast), carrying the
    larger defect."""
    alpha = b2.alpha @ b1.alpha + b2.beta @ b1.beta.conj()
    beta = b2.alpha @ b1.beta + b2.beta @ b1.alpha.conj()
    return BogoliubovPair(alpha, beta, np.maximum(b1.defect, b2.defect))


def measured(pair):
    """The pair as contiguous complex matrices, its identity defect
    measured (at least its own); a stacked pair gets one defect each."""
    alpha = np.ascontiguousarray(pair.alpha, dtype=complex)
    beta = np.ascontiguousarray(pair.beta, dtype=complex)
    defect = np.maximum(identity_residuals_reference(alpha, beta),
                        pair.defect)
    return BogoliubovPair(alpha, beta,
                          float(defect) if alpha.ndim == 2 else defect)


def to_symplectic(pair):
    """Quadrature-space matrix of the pair (mode-major ordering).

    Diagonal phases exp(-i theta) map to the rotation
    [[cos, sin], [-sin, cos]], matching the covariance convention in
    `gaussian`; a real one-mode squeezer (alpha, beta) = (cosh s, sinh s)
    maps to diag(e^s, e^-s).  A stacked pair gives a stack of matrices.
    Rows (..., r, n) of a pair give their (..., 2r, 2n) rows of it: mode
    m's row alone gives the two rows of mode m.
    """
    plus = pair.alpha + pair.beta
    minus = pair.alpha - pair.beta
    s = np.empty(plus.shape[:-2] + (2 * plus.shape[-2], 2 * plus.shape[-1]))
    s[..., 0::2, 0::2] = plus.real
    np.negative(minus.imag, out=s[..., 0::2, 1::2])
    s[..., 1::2, 0::2] = plus.imag
    s[..., 1::2, 1::2] = minus.real
    return s


def phase_evolution_minkowski(t_seconds, geometry):
    """Free inertial evolution for a lab-time duration (beta = 0)."""
    n = np.arange(1, geometry.n_max + 1)
    theta = n * np.pi * (t_seconds * geometry.c / geometry.L)
    return BogoliubovPair(np.diag(np.exp(-1j * theta)),
                          np.zeros((geometry.n_max,) * 2, dtype=complex), 0.0)


def rindler_angles(tau_seconds, h, geometry):
    """Wedge phase angles omega_mode(n) eta of modes 1..n_max, with a
    trailing mode axis after the axes of `tau_seconds`; the wedge time
    is eta = h tau c / L."""
    rind = RindlerGeometry(h)
    eta = h * (np.asarray(tau_seconds, dtype=float)
               * geometry.c / geometry.L)
    n = np.arange(1, geometry.n_max + 1)
    return rind.omega_mode(n) * eta[..., None]


def identity_residuals_reference(alpha, beta):
    """`identity_residuals` with a fresh identity and one abs and max per
    residual block, on one pair (a float) or a stack (..., n, n) of
    pairs (one residual each, with the single pair's bits)."""
    k = _interior_count(alpha.shape[-1])
    alpha_c, beta_c = alpha.conj(), beta.conj()
    ac, bc = alpha[..., :, :k], beta[..., :, :k]
    ar, br = alpha[..., :k, :], beta[..., :k, :]
    ach, bct = alpha_c[..., :, :k].swapaxes(-1, -2), bc.swapaxes(-1, -2)
    eye = np.eye(k)
    res = (
        ach @ ac - bct @ beta_c[..., :, :k] - eye,
        ach @ bc - bct @ alpha_c[..., :, :k],
        ar @ alpha_c[..., :k, :].swapaxes(-1, -2)
        - br @ beta_c[..., :k, :].swapaxes(-1, -2) - eye,
        ar @ br.swapaxes(-1, -2) - br @ ar.swapaxes(-1, -2),
    )
    worst = reduce(np.maximum,
                   (np.abs(v).max(axis=(-2, -1)) for v in res))
    return float(worst) if alpha.ndim == 2 else worst


def oracle_pair_reference(h, n_max):
    """The oracle's switch pair at h, views of its cache entry, with the
    switch's defect max(identity residual, quadrature residual)
    measured on the call."""
    switch = _oracle_cached(h, n_max)
    alpha, beta = switch.ab
    return BogoliubovPair(alpha, beta, float(np.maximum(
        identity_residuals_reference(alpha, beta), switch.residual)))


def switch_reference(h, n_max):
    """The switch's cache entry, its wedge rates, canonical inverse and
    the (2, n, n) stacks of both pairs formed on the call; only the
    oracle pair and its quadrature residual are the cached ones."""
    pair = oracle_pair_reference(h, n_max)
    rates = RindlerGeometry(h).omega_mode(np.arange(1, n_max + 1))
    inv = inverse(pair)
    # the inverse stacked as the transposes that A^dagger and -B^T are
    inverse_ab = np.stack((inv.alpha.T, inv.beta.T)).swapaxes(-1, -2)
    return _Switch(np.stack((pair.alpha, pair.beta)), inverse_ab, rates,
                   _oracle_cached(h, n_max).residual)


def coast_phases_reference(t_seconds, geometry):
    """A coast's phases exp(-i n pi t c / L), with a trailing mode axis
    after the axes of the lab time `t_seconds`; the rates -i n pi of
    modes 1..n_max are formed on the call."""
    t = np.asarray(t_seconds, dtype=float) * geometry.c / geometry.L
    rates = -1j * np.arange(1, geometry.n_max + 1) * np.pi
    return np.exp(rates * t[..., None])


def truncation_reference(n_max):
    """The truncation's `_Truncation`, its inertial rates n pi of modes
    1..n_max formed on the call; its other fields are the cached ones."""
    return _truncation(n_max)._replace(
        omega=np.arange(1, n_max + 1) * np.pi)


def segment_matrices_reference(tau_seconds, h, geometry):
    """The pair of one burn, unmeasured, with its switch's defect as the
    floor; every per-switch value but the oracle pair formed on the
    call."""
    taus = np.asarray(tau_seconds, dtype=float)
    b0 = oracle_pair_reference(h, geometry.n_max)
    d = np.exp(-1j * rindler_angles(taus, h, geometry))[..., None]
    da, db = d * b0.alpha, d * b0.beta
    a_dag, minus_bt = b0.alpha.conj().T, -b0.beta.T
    alpha = a_dag @ da + minus_bt @ db.conj()
    beta = a_dag @ db + minus_bt @ da.conj()
    return BogoliubovPair(alpha, beta, b0.defect)


def segment_transform_reference(tau_seconds, h, geometry):
    """(alpha, beta, defect) of one burn, every per-switch value formed
    on the call."""
    step = segment_matrices_reference(tau_seconds, h, geometry)
    alpha, beta = step.alpha, step.beta
    defect = np.maximum(identity_residuals_reference(alpha, beta),
                        step.defect)
    return alpha, beta, float(defect) if alpha.ndim == 2 else defect


def phase_evolution_rindler(tau_seconds, h, geometry):
    """Free accelerated evolution for a center proper-time duration.

    The dimensionless wedge time is eta = |h| tau c / L; phases approach
    the inertial ones as h -> 0 (relative frequency shift about h^2/12).
    """
    theta = rindler_angles(tau_seconds, abs(h), geometry)
    return BogoliubovPair(np.diag(np.exp(-1j * theta)),
                          np.zeros((geometry.n_max,) * 2, dtype=complex), 0.0)


def one_segment_first_order(tau_seconds, geometry):
    """First order in h of `segment_transform` at fixed tau.

    The free phases are even in h, so composing B^-1 o D(tau) o B
    with B = 1 + h (A1, B1) gives the first order exactly:
    alpha1 = A1^dagger D + D A1 and beta1 = D B1 - B1^T D^*, with
    D = diag(exp(-i n pi tau c / L)).  Returns (alpha1, beta1); an
    array of durations stacks both along its axes.
    """
    taus = np.asarray(tau_seconds, dtype=float)
    if (taus < 0).any():
        raise ValueError("segment duration must be >= 0")
    first = sudden_switch_perturbative(geometry)
    d = coast_phases_reference(taus, geometry)
    row, col = d[..., None, :], d[..., :, None]
    a1, b1 = first.alpha1, first.beta1
    alpha1 = a1.conj().T * row + col * a1
    beta1 = col * b1 - b1.T * row.conj()
    return alpha1, beta1


def richardson_limit(values):
    """Extrapolate a sequence with error series in powers of 1/4.

    `values[i]` is the estimate at step i, whose error shrinks fourfold
    per step (an h^2 series on a halving ladder).  Returns the
    extrapolated limit and an error estimate (the size of the last
    correction).
    """
    if len(values) < 2:
        raise ValueError("need at least two values to extrapolate")
    prev_row = [np.asarray(values[0])]
    for i in range(1, len(values)):
        row = [np.asarray(values[i])]
        for j in range(1, i + 1):
            fac = 4.0 ** j
            row.append((fac * row[j - 1] - prev_row[j - 1]) / (fac - 1.0))
        prev_row = row
    limit = prev_row[-1]
    err = float(np.max(np.abs(limit - prev_row[-2])))
    return limit, err


def switch_overlaps_reference(h, n_max):
    """(co, counter, residual, rates) of `_switch_overlaps`, with every
    factor formed on the call."""
    width = RindlerGeometry(h).log_width
    scale = h / (1.0 - h / 2.0)
    modes = np.arange(1, n_max + 1)
    omega = modes * np.pi
    omega_wedge = modes * np.pi / width

    def evaluate(u):
        sin_in = np.sin(np.outer(omega, u))
        z = np.log1p(u * scale) / width
        sin_we = np.sin(np.pi * np.outer(modes, z))
        inv_rad = scale / (1.0 + u * scale)
        return np.stack([sin_we, sin_we * inv_rad]), sin_in

    (i0, i1), residual, _ = integrate_stack(
        evaluate, 0.0, 1.0, tol=ORACLE_TOL, base_panels=max(4, n_max // 2))
    norm = 1.0 / (np.pi * np.sqrt(np.outer(modes, modes)))
    co = norm * (omega[None, :] * i0 + omega_wedge[:, None] * i1)
    counter = norm * (omega[None, :] * i0 - omega_wedge[:, None] * i1)
    return co, counter, residual, omega_wedge


def elementwise_switch_overlaps(h, n_max, tol):
    """Reference for `_switch_overlaps`: the full n_max^2 x K stack of
    pointwise mode products, integrated as a plain stack from an
    over-resolving base of max(32, 2 n_max) panels.

    Negative h means acceleration toward the other wall: the wedge modes
    are mirrored (measured from the far wall) and mode m carries the
    sign (-1)^(m+1), the labeling that tends to the inertial family as
    h -> 0.  The stack holds 2 n_max^2 rows per node, so at large n_max
    callers shrink `quadrature._NODE_CHUNK` to bound its memory.
    """
    rind = RindlerGeometry(abs(h))
    width = rind.log_width
    scale = abs(h) / (1.0 - abs(h) / 2.0)
    modes = np.arange(1, n_max + 1)
    omega = modes * np.pi
    omega_wedge = modes * np.pi / width
    mirrored = h < 0
    row_sign = np.where(modes % 2 == 1, 1.0, -1.0)

    def evaluate(u):
        sin_in = np.sin(np.outer(omega, u))
        w = 1.0 - u if mirrored else u
        sin_we = np.sin(np.pi * np.outer(modes, np.log1p(w * scale) / width))
        if mirrored:
            sin_we = sin_we * row_sign[:, None]
        inv_rad = scale / (1.0 + w * scale)
        flat = (sin_we[:, None, :] * sin_in[None, :, :]).reshape(
            n_max * n_max, -1)
        return (np.concatenate([flat, flat * inv_rad[None, :]]),
                np.ones((1, u.size)))

    vals, _, _ = integrate_stack(evaluate, 0.0, 1.0, tol=tol,
                                 base_panels=max(32, 2 * n_max))
    i0 = vals[:n_max * n_max, 0].reshape(n_max, n_max)
    i1 = vals[n_max * n_max:, 0].reshape(n_max, n_max)
    norm = 1.0 / (np.pi * np.sqrt(np.outer(modes, modes)))
    return (norm * (omega[None, :] * i0 + omega_wedge[:, None] * i1),
            norm * (omega[None, :] * i0 - omega_wedge[:, None] * i1))


@lru_cache(maxsize=None)
def mirrored_switch(h, n_max):
    """Switch pair at h < 0 from the elementwise reference, with its
    measured defect, read-only like the oracle's."""
    if not h < 0:
        raise ValueError("the mirrored switch takes h < 0")
    co, counter = elementwise_switch_overlaps(h, n_max, ORACLE_TOL)
    pair = measured(BogoliubovPair(co, -counter, 0.0))
    pair.alpha.flags.writeable = False
    pair.beta.flags.writeable = False
    return pair


def segment_transform(tau_seconds, h, geometry):
    """A burn's transform at either sign of h, measured: for h > 0
    `segment_transform_reference` on the oracle's switch; for h < 0,
    inverse(B) o wedge phases o B composed densely from the mirrored
    switch B."""
    if h > 0:
        return BogoliubovPair(
            *segment_transform_reference(tau_seconds, h, geometry))
    b0 = mirrored_switch(h, geometry.n_max)
    phases = phase_evolution_rindler(tau_seconds, h, geometry)
    return compose(inverse(b0), compose(phases, b0))


def first_order_ladder(pair_at, h_base=0.1, levels=4, target=1e-8,
                       max_levels=6):
    """First order in h of `pair_at(h)`, a pair at either sign of h, by
    central differences on the halving ladder h_base / 2^i, Richardson
    extrapolated (the even orders cancel, so the error series runs in
    h^2 and the ratio is 4).  Returns (alpha1, beta1, error estimate)
    once the estimate is at most `target`, after at least `levels`
    levels."""
    slopes_a, slopes_b = [], []
    for i in range(max_levels):
        h = h_base / 2.0 ** i
        plus, minus = pair_at(h), pair_at(-h)
        slopes_a.append((plus.alpha - minus.alpha) / (2.0 * h))
        slopes_b.append((plus.beta - minus.beta) / (2.0 * h))
        if i + 1 >= levels:
            a1, err_a = richardson_limit(slopes_a)
            b1, err_b = richardson_limit(slopes_b)
            err = max(err_a, err_b)
            if err <= target:
                return a1, b1, err
    raise AssertionError(f"first-order ladder stalled at {err:.3e}")


def switch_first_order_ladder(geometry):
    """The switch's first order from the oracle at +h and the mirrored
    reference at -h."""
    def pair_at(h):
        if h > 0:
            return oracle_pair_reference(h, geometry.n_max)
        return mirrored_switch(h, geometry.n_max)
    return first_order_ladder(pair_at)


def build_transform_per_burn(trajectory):
    """`build_transform` with every burn's transform and every running
    product after a later burn measured on its own."""
    geom = trajectory.geometry
    lead = None          # the coasts' phases before the first burn
    total = None
    for seg in trajectory.segments:
        if isinstance(seg, Inertial):
            d = coast_phases_reference(seg.duration, geom)
            if total is None:
                lead = d if lead is None else d * lead
            else:
                total = BogoliubovPair(d[:, None] * total.alpha,
                                       d[:, None] * total.beta, total.defect)
            continue
        h = seg.a * geom.L / geom.c ** 2
        step = segment_transform(seg.tau, h, geom)
        if total is not None:
            total = measured(compose(step, total))
        elif lead is None:
            total = step
        else:
            total = BogoliubovPair(step.alpha * lead,
                                   step.beta * lead.conj(), step.defect)
    if total is None:
        return BogoliubovPair(np.diag(lead),
                              np.zeros((geom.n_max,) * 2, dtype=complex), 0.0)
    return total


def build_transform(trajectory):
    """Net Bogoliubov pair for Rob's cavity over the whole trajectory.

    A coast is its diagonal phase vector d = exp(-i omega_n t).  After a
    burn it scales the running product's rows (alpha -> d alpha,
    beta -> d beta); the coasts before the first burn scale that burn's
    columns (alpha D, beta D^*), so `compose` only joins burns.  The
    defect is measured in one stacked pass over each burn's transform
    and the running product after each burn that follows an earlier one;
    the unitary phases leave the modulus of every residual unchanged.  A
    trajectory without a burn gives the diagonal pair of its phases, with
    defect 0.  A column gives a stacked pair with one defect per row.
    """
    geom = trajectory.geometry
    lead = None          # the coasts' phases before the first burn
    total = None
    measured = []        # the pairs whose residuals bound the defect
    for seg in trajectory.segments:
        if isinstance(seg, Inertial):
            d = coast_phases_reference(seg.duration, geom)
            if total is None:
                lead = d if lead is None else d * lead
            else:
                total = BogoliubovPair(d[..., None] * total.alpha,
                                       d[..., None] * total.beta,
                                       total.defect)
            continue
        h = seg.a * geom.L / geom.c ** 2
        step = segment_matrices_reference(seg.tau, h, geom)
        measured.append(step)
        if total is not None:
            total = compose(step, total)
            measured.append(total)
        elif lead is None:
            total = step
        else:
            total = BogoliubovPair(step.alpha * lead,
                                   step.beta * lead.conj(), step.defect)
    if total is None:
        return BogoliubovPair(np.diag(lead),
                              np.zeros((geom.n_max,) * 2, dtype=complex), 0.0)
    # the pairs' defects are still their switches' floors
    defect = np.maximum(worst_residual(measured), total.defect)
    return BogoliubovPair(total.alpha, total.beta,
                          float(defect) if defect.ndim == 0 else defect)


def worst_residual(pairs):
    """`identity_residuals_reference` of each pair in one call, the
    worst per row; a stacked residual has the single one's bits, so this
    is the maximum of the pairs' own.  Scalar and column pairs broadcast
    together."""
    if len(pairs) == 1:
        return identity_residuals_reference(pairs[0].alpha, pairs[0].beta)
    alphas = [p.alpha for p in pairs]
    betas = [p.beta for p in pairs]
    if len({a.shape for a in alphas}) > 1:
        alphas = np.broadcast_arrays(*alphas)
        betas = np.broadcast_arrays(*betas)
    return identity_residuals_reference(np.array(alphas),
                                        np.array(betas)).max(axis=0)


def row_residual(alpha_row, beta_row):
    """|sum |alpha|^2 - sum |beta|^2 - 1| over the last axis."""
    return np.abs(np.sum(np.abs(alpha_row) ** 2, axis=-1)
                  - np.sum(np.abs(beta_row) ** 2, axis=-1) - 1.0)
