import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kcprobe as kp
from kcprobe.errors import DimensionError, InvariantViolation
from kcprobe.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, _frobenius, frobenius

from conftest import random_hermitian


def test_commutator_self_is_zero():
    assert frobenius(kp.commutator(SIGMA_Z, SIGMA_Z)) == 0.0


def test_commutator_pauli_identity():
    assert np.allclose(kp.commutator(SIGMA_Z, SIGMA_X), 2j * SIGMA_Y)


def test_commutator_diagonal_matrices_commute():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, 4.0]).astype(complex)
    assert frobenius(kp.commutator(a, b)) == 0.0


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionError):
        kp.commutator(SIGMA_Z, np.eye(3))


def test_transposed_input_is_accepted():
    # a transposed view is not C-contiguous; the finiteness check must not care
    assert np.allclose(kp.commutator(SIGMA_Y.T, SIGMA_Z), -kp.commutator(SIGMA_Y, SIGMA_Z))
    assert kp.commutant_basis([SIGMA_Y.T]).dimension == 2
    model = kp.DephasingModel(2, 2, (SIGMA_Z.T, SIGMA_X), 1.0)
    assert np.allclose(model.hamiltonians[0], SIGMA_Z)


def test_non_finite_entries_are_rejected():
    with pytest.raises(InvariantViolation):
        kp.commutator(np.array([[np.nan, 0.0], [0.0, 1.0]]).T, SIGMA_Z)


def test_hermitian_eig_sigma_z():
    w, v = kp.hermitian_eig(SIGMA_Z)
    assert np.allclose(w, [-1.0, 1.0])
    # eigenvectors are |1> and |0> up to phase
    assert abs(abs(v[1, 0]) - 1.0) < 1e-12
    assert abs(abs(v[0, 1]) - 1.0) < 1e-12


def test_hermitian_eig_identity_degenerate():
    w, v = kp.hermitian_eig(np.eye(2, dtype=complex))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_hermitian_eig_sigma_x():
    w, v = kp.hermitian_eig(SIGMA_X)
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(v @ np.diag(w) @ v.conj().T, SIGMA_X, atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(InvariantViolation):
        kp.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_unitary_zero_time_is_identity():
    assert np.array_equal(kp.unitary_from_hamiltonian(SIGMA_Z, 0.0), np.eye(2))


def test_unitary_sigma_z_quarter_period():
    u = kp.unitary_from_hamiltonian(SIGMA_Z, np.pi / 2)
    assert np.allclose(u, -1j * SIGMA_Z, atol=1e-12)
    assert np.allclose(np.diag(u), [np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])


def test_unitary_zero_hamiltonian():
    assert np.allclose(kp.unitary_from_hamiltonian(np.zeros((3, 3)), 2.7), np.eye(3))


def test_unitary_propagates_hermiticity_violation():
    with pytest.raises(InvariantViolation):
        kp.unitary_from_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_hs_inner_pauli_values():
    assert kp.hs_inner(SIGMA_X, SIGMA_X) == pytest.approx(2.0)
    assert kp.hs_inner(SIGMA_X, SIGMA_Y) == pytest.approx(0.0, abs=1e-15)
    assert kp.hs_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0)


def test_hs_inner_dimension_mismatch():
    with pytest.raises(DimensionError):
        kp.hs_inner(SIGMA_X, np.eye(3))


def test_orthonormalize_collapses_dependent_inputs():
    basis = kp.orthonormalize_hs([np.eye(2, dtype=complex), 2.0 * np.eye(2)])
    assert len(basis) == 1
    assert np.allclose(basis[0], np.eye(2) / np.sqrt(2.0))


def test_orthonormalize_keeps_orthogonal_pair():
    basis = kp.orthonormalize_hs([SIGMA_X, SIGMA_Y])
    assert len(basis) == 2
    assert np.allclose(basis[0], SIGMA_X / np.sqrt(2.0))
    assert np.allclose(basis[1], SIGMA_Y / np.sqrt(2.0))


def test_orthonormalize_drops_below_rank_tolerance():
    basis = kp.orthonormalize_hs([SIGMA_X, SIGMA_X + 1e-15 * SIGMA_Y])
    assert len(basis) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 32))
def test_eig_reconstruction_random(seed, d):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    w, v = kp.hermitian_eig(h)
    assert np.all(np.diff(w) >= 0)
    recon = (v * w) @ v.conj().T
    assert frobenius(h - recon) <= 1e-10 * max(1.0, frobenius(h))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_unitary_one_parameter_group_law(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 4)
    t1, t2 = rng.uniform(-2.0, 2.0, size=2)
    u12 = kp.unitary_from_hamiltonian(h, t1) @ kp.unitary_from_hamiltonian(h, t2)
    assert frobenius(u12 - kp.unitary_from_hamiltonian(h, t1 + t2)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_hs_inner_positive_on_diagonal(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    val = kp.hs_inner(a, a)
    assert abs(val.imag) <= 1e-12
    assert val.real >= -1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_orthonormalize_gram_identity(seed):
    rng = np.random.default_rng(seed)
    ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(6)]
    basis = kp.orthonormalize_hs(ops)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            expected = 1.0 if i == j else 0.0
            assert abs(kp.hs_inner(a, b) - expected) <= 1e-9


def frobenius_each(stack: np.ndarray) -> list[float]:
    """:func:`frobenius` of each matrix of ``stack``, one call a matrix."""
    return [frobenius(m) for m in stack.reshape((-1,) + stack.shape[-2:])]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 16), st.booleans(), st.sampled_from([(), (1,), (6,), (2, 3)]))
def test_stacked_norm_is_the_norm_bit_for_bit(seed, d, real, leading):
    # the stacked norm sums as np.linalg.norm does, so each norm is its
    # matrix's norm to the last bit, for complex and real stacks alike
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal(leading + (d, d)) * 10.0 ** rng.uniform(-3, 3)
    if not real:
        stack = stack + 1j * rng.standard_normal(leading + (d, d))
    norms = _frobenius(stack)
    assert norms.shape == leading
    assert norms.ravel().tolist() == frobenius_each(stack)


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_an_empty_stack_has_no_norms(d):
    # one Hamiltonian has no generator pairs: a (0, d, d) stack of commutators
    for dtype in (float, complex):
        assert _frobenius(np.zeros((0, d, d), dtype=dtype)).shape == (0,)
        assert _frobenius(np.zeros((3, 0, d, d), dtype=dtype)).shape == (3, 0)


@pytest.mark.parametrize("probe_dim", [2, 3, 4])
def test_the_stacked_norm_of_drawn_commutators_is_the_norm(probe_dim):
    for seed in range(20):
        for system_dim in (2, 3, 5, 8):
            hams = np.array(kp.random_model(seed, probe_dim, system_dim, commuting=False).hamiltonians)
            commutators = np.array([a @ b - b @ a for a in hams for b in hams])
            assert _frobenius(commutators).tolist() == frobenius_each(commutators)
