"""Covariance toolkit: forms, resource states, fidelity functionals."""

import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from cavtel.errors import PhysicalityError
from cavtel.gaussian import (
    SQUEEZING_MAX,
    make_two_mode_squeezed,
    partial_transpose,
    rotation,
    symplectic_eigenvalues,
    symplectic_form,
    teleport_fidelity,
    validate_covariance,
)
from gaussian_reference import embed_with_vacuum, local_rotation, reduce_modes

REST_F = 1.0 / (1.0 + math.exp(-1.0))


def closed_form(r, phi):
    return 1.0 / (1.0 + math.cosh(2 * r) - math.cos(phi) * math.sinh(2 * r))


def test_symplectic_form_blocks():
    om = symplectic_form(3)
    assert om.shape == (6, 6)
    assert np.array_equal(om[:2, :2], [[0, 1], [-1, 0]])
    assert np.array_equal(om, -om.T)
    assert np.array_equal(om @ om, -np.eye(6))


def test_vacuum_is_identity():
    # the vacuum covariance is the identity in this normalization
    validate_covariance(np.eye(8))


@pytest.mark.parametrize("r", [0.0, 0.1, 0.5, math.log(2), 1.5])
def test_tms_structure(r):
    sig = make_two_mode_squeezed(r)
    validate_covariance(sig, n_modes=2)
    assert np.allclose(sig[:2, :2], math.cosh(2 * r) * np.eye(2))
    assert np.allclose(sig[:2, 2:], math.sinh(2 * r) * np.diag([1, -1]))
    # pure state: det = 1, symplectic spectrum all ones
    assert np.linalg.det(sig) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(symplectic_eigenvalues(sig), 1.0, atol=1e-12)


def test_tms_rejects_negative_r():
    with pytest.raises(ValueError):
        make_two_mode_squeezed(-0.1)


def test_tms_squeezing_limit():
    # cosh 2r is finite at the limit and overflows at r = 400
    assert np.isfinite(make_two_mode_squeezed(SQUEEZING_MAX)).all()
    for r in (np.nextafter(SQUEEZING_MAX, np.inf), 400.0, math.nan):
        with pytest.raises(ValueError, match="squeezing parameter"):
            make_two_mode_squeezed(r)


@pytest.mark.parametrize("r", [0.1, 0.5, math.log(2), 1.5])
def test_partial_transpose_spectrum(r):
    nus = symplectic_eigenvalues(partial_transpose(make_two_mode_squeezed(r)))
    assert nus[0] == pytest.approx(math.exp(-2 * r), abs=1e-12)
    assert nus[1] == pytest.approx(math.exp(2 * r), rel=1e-12)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(7)
    sig = make_two_mode_squeezed(0.7)
    rot = local_rotation(rng.uniform(0, 7), rng.uniform(0, 7))
    sig = rot @ sig @ rot.T
    assert np.array_equal(partial_transpose(partial_transpose(sig)), sig)


def test_partial_transpose_rejects_non_two_mode():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(6))


def test_rest_fidelity_anchor():
    sig = make_two_mode_squeezed(0.5)
    assert teleport_fidelity(sig) == pytest.approx(REST_F, abs=1e-12)
    nu = symplectic_eigenvalues(partial_transpose(sig))[0]
    assert 1.0 / (1.0 + nu) == pytest.approx(REST_F, abs=1e-12)


def test_classical_benchmark():
    # no squeezing: two uncorrelated vacua relay with two units of noise
    assert teleport_fidelity(np.eye(4)) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_phase_dependence_matches_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(200):
        r = rng.uniform(0.0, 2.0)
        ta = rng.uniform(0.0, 2 * math.pi)
        tb = rng.uniform(0.0, 2 * math.pi)
        rot = local_rotation(ta, tb)
        sig = rot @ make_two_mode_squeezed(r) @ rot.T
        want = closed_form(r, ta + tb)
        assert teleport_fidelity(sig) == pytest.approx(want, abs=1e-12)


def test_correction_restores_optimum():
    rot = local_rotation(1.3, -2.1)
    sig = rot @ make_two_mode_squeezed(0.5) @ rot.T
    undo = local_rotation(-1.3, 2.1)
    back = undo @ sig @ undo.T
    assert teleport_fidelity(back) == pytest.approx(REST_F, abs=1e-12)


def test_nu_invariant_under_local_rotations():
    rng = np.random.default_rng(3)
    sig = make_two_mode_squeezed(0.8)
    nu0 = symplectic_eigenvalues(partial_transpose(sig))[0]
    for _ in range(20):
        rot = local_rotation(rng.uniform(0, 7), rng.uniform(0, 7))
        moved = rot @ sig @ rot.T
        nu = symplectic_eigenvalues(partial_transpose(moved))[0]
        assert nu == pytest.approx(nu0, abs=1e-9)


def test_rotations_are_symplectic():
    rot = block_diag(*(rotation(t) for t in (0.3, -1.2, 2.9)))
    omega = symplectic_form(3)
    assert np.max(np.abs(rot @ omega @ rot.T - omega)) < 1e-12
    assert np.allclose(local_rotation(0.3, -1.2),
                       block_diag(rotation(0.3), rotation(-1.2)))


def test_rotation_convention_sign():
    # phase advance theta maps x -> cos(theta) x + sin(theta) p
    rot = rotation(0.25)
    assert rot[0, 0] == pytest.approx(math.cos(0.25))
    assert rot[0, 1] == pytest.approx(math.sin(0.25))
    assert rot[1, 0] == pytest.approx(-math.sin(0.25))


def test_embed_and_reduce_roundtrip():
    sig = make_two_mode_squeezed(0.9)
    full = embed_with_vacuum(sig, alice_mode=0, rob_index=3, n_rob_modes=5)
    assert full.shape == (12, 12)
    validate_covariance(full)
    back = reduce_modes(full, [0, 3])
    assert np.array_equal(back, sig)
    # untouched register modes stay vacuum
    assert np.array_equal(reduce_modes(full, [1, 2, 4, 5]), np.eye(8))


def test_embed_respects_alice_slot():
    sig = make_two_mode_squeezed(0.9)
    full = embed_with_vacuum(sig, alice_mode=1, rob_index=2, n_rob_modes=4)
    back = reduce_modes(full, [0, 2])
    swap = np.zeros((4, 4))
    swap[:2, 2:] = np.eye(2)
    swap[2:, :2] = np.eye(2)
    assert np.array_equal(back, swap @ sig @ swap.T)


def test_embed_validates_indices():
    sig = make_two_mode_squeezed(0.2)
    with pytest.raises(ValueError):
        embed_with_vacuum(sig, alice_mode=2, rob_index=1, n_rob_modes=3)
    with pytest.raises(ValueError):
        embed_with_vacuum(sig, alice_mode=0, rob_index=4, n_rob_modes=3)


def test_reduce_modes_validates():
    full = np.eye(6)
    with pytest.raises(ValueError):
        reduce_modes(full, [0, 0])
    with pytest.raises(ValueError):
        reduce_modes(full, [0, 5])


def test_validate_covariance_rejects_asymmetric():
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(PhysicalityError):
        validate_covariance(bad)


def test_validate_covariance_rejects_unphysical():
    with pytest.raises(PhysicalityError):
        validate_covariance(0.5 * np.eye(4))


def test_symplectic_eigenvalues_reject_nonpositive():
    with pytest.raises(PhysicalityError):
        symplectic_eigenvalues(np.diag([1.0, 1.0, 1.0, -1.0]))


@pytest.mark.parametrize("bad", [
    # indefinite with a positive diagonal: only the factorisation sees it
    np.array([[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
              [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
    # singular, positive semidefinite
    np.diag([1.0, 0.0, 1.0, 1.0]),
    # a stack whose second state is the only bad one
    np.stack([np.eye(4), np.diag([1.0, 1.0, -1e-3, 1.0])]),
])
def test_symplectic_eigenvalues_reject_non_positive_definite(bad):
    with pytest.raises(PhysicalityError, match="not positive definite"):
        symplectic_eigenvalues(bad)


def test_symplectic_eigenvalues_of_thermal():
    sig = np.diag([3.0, 3.0, 7.0, 7.0])
    assert np.allclose(symplectic_eigenvalues(sig), [3.0, 7.0])


def test_fidelity_monotone_in_r():
    values = [teleport_fidelity(make_two_mode_squeezed(r))
              for r in np.linspace(0, 2.5, 12)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def random_states(rng, count):
    states = []
    for _ in range(count):
        rot = local_rotation(rng.uniform(0, 7), rng.uniform(0, 7))
        sig = rot @ make_two_mode_squeezed(rng.uniform(0, 1.5)) @ rot.T
        states.append(sig + rng.uniform(0, 0.3) * np.eye(4))
    return np.array(states)


def test_leading_axes_match_one_at_a_time():
    rng = np.random.default_rng(19)
    states = random_states(rng, 12).reshape(3, 4, 4, 4)
    fid = teleport_fidelity(states)
    nus = symplectic_eigenvalues(partial_transpose(states))
    assert fid.shape == (3, 4) and nus.shape == (3, 4, 2)
    for idx in np.ndindex(3, 4):
        assert fid[idx] == teleport_fidelity(states[idx])
        assert np.array_equal(
            nus[idx], symplectic_eigenvalues(partial_transpose(states[idx])))
    thetas = rng.uniform(-7, 7, size=(2, 3))
    rots = rotation(thetas)
    assert rots.shape == (2, 3, 2, 2)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(rots[idx], rotation(thetas[idx]))
        assert np.array_equal(local_rotation(thetas, -thetas)[idx],
                              local_rotation(thetas[idx], -thetas[idx]))


def test_stacked_fidelity_checks_every_state():
    states = np.stack([make_two_mode_squeezed(0.3), 0.5 * np.eye(4)])
    with pytest.raises(PhysicalityError):
        teleport_fidelity(states)
    assert teleport_fidelity(states[:1]).shape == (1,)
