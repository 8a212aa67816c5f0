import numpy as np
import pytest

import kcprobe as kp
from kcprobe.errors import PreconditionError
from kcprobe.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, frobenius

from conftest import random_density, random_hermitian

I2 = np.eye(2, dtype=complex)


class TestGenerateAlgebra:
    def test_identity_alone(self):
        algebra = kp.generate_algebra([np.eye(2)])
        assert algebra.dimension == 1

    def test_diagonal_algebra(self):
        algebra = kp.generate_algebra([SIGMA_Z])
        assert algebra.dimension == 2

    def test_pauli_pair_generates_everything(self):
        algebra = kp.generate_algebra([SIGMA_Z, SIGMA_X])
        assert algebra.dimension == 4
        assert algebra.contains(SIGMA_Y)

    def test_idempotent_on_closed_basis(self):
        closed = kp.generate_algebra([SIGMA_Z, SIGMA_X])
        again = kp.generate_algebra(closed.basis)
        assert again.dimension == closed.dimension

    def test_identity_in_span(self):
        algebra = kp.generate_algebra([SIGMA_Z])
        assert algebra.projection_residual(np.eye(2) / np.sqrt(2.0)) <= 1e-9

    def test_closure_under_products(self):
        rng = np.random.default_rng(0)
        algebra = kp.generate_algebra([random_hermitian(rng, 3), random_hermitian(rng, 3)])
        for a in algebra.basis:
            for b in algebra.basis:
                assert algebra.projection_residual(a @ b) <= 1e-9


def word_span_dimension(generators) -> int:
    """Reference: dimension of the span of all words in {G} u {G^H}, with 1.

    Grows words one letter at a time and keeps only those that raise the
    rank; a word in the span of shorter words cannot raise it when extended.
    """
    d = generators[0].shape[0]
    letters = [np.asarray(g, dtype=complex) for g in generators]
    letters += [g.conj().T for g in letters]
    frontier = [np.eye(d, dtype=complex)]
    onb = [frontier[0].ravel() / np.sqrt(d)]
    while frontier:
        grown = []
        for word in frontier:
            for letter in letters:
                product = word @ letter
                v = product.ravel()
                scale = np.linalg.norm(v)
                for _ in range(2):
                    v = v - np.array(onb).T @ (np.array(onb).conj() @ v)
                if np.linalg.norm(v) > 1e-7 * max(scale, 1.0):
                    onb.append(v / np.linalg.norm(v))
                    grown.append(product)
        frontier = grown
    return len(onb)


def _block_diag(a, b):
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    out[: a.shape[0], : a.shape[0]] = a
    out[a.shape[0] :, a.shape[0] :] = b
    return out


def _reference_cases():
    for seed in range(6):
        for d_s in (2, 3, 5):
            for commuting in (False, True):
                yield kp.random_model(seed, 2 + seed % 2, d_s, commuting).hamiltonians
    rng = np.random.default_rng(31)
    for n_nuclei in (1, 2, 3):
        varied = rng.uniform(-1.0, 1.0, size=(n_nuclei, 3))
        identical = np.tile(rng.uniform(0.2, 1.0, size=3), (n_nuclei, 1))
        for couplings in (varied, identical):
            yield kp.nv_center_model(n_nuclei, 1.1, 0.3, couplings).hamiltonians
    eye3 = np.eye(3)
    yield [np.kron(random_hermitian(rng, 2), eye3), np.kron(random_hermitian(rng, 2), eye3)]
    yield [np.kron(SIGMA_Z, eye3), np.kron(SIGMA_X, eye3), np.kron(SIGMA_Z, eye3)]
    # M_2 (+) M_3 on C^5, and M_2 (+) C on C^3
    yield [
        _block_diag(random_hermitian(rng, 2), random_hermitian(rng, 3)),
        _block_diag(random_hermitian(rng, 2), random_hermitian(rng, 3)),
    ]
    yield [_block_diag(SIGMA_Z, np.eye(1)), _block_diag(SIGMA_X, 2 * np.eye(1))]


class TestDoubleCommutant:
    def test_dimension_matches_word_span_reference(self):
        cases = list(_reference_cases())
        assert len(cases) == 46
        dims = set()
        for hams in cases:
            want = word_span_dimension(hams)
            assert kp.generate_algebra(hams).dimension == want
            dims.add(want)
        # commuting, M_2 (x) 1_3, M_2 (+) C, symmetric-bath and full algebras
        assert {2, 4, 5, 10, 20, 25, 64} <= dims

    def test_kron_pair_gives_m2_tensor_identity(self):
        eye3 = np.eye(3)
        algebra = kp.generate_algebra([np.kron(SIGMA_Z, eye3), np.kron(SIGMA_X, eye3)])
        assert algebra.dimension == 4
        assert algebra.contains(np.kron(SIGMA_Y, eye3) / np.sqrt(6.0))

    def test_large_commutant(self):
        # A' = M_8 (x) C^2 has dimension 128; the second commutant stays cheap
        algebra = kp.generate_algebra([np.eye(16), np.kron(SIGMA_Z, np.eye(8))])
        assert algebra.dimension == 2

    def test_non_hermitian_generator_yields_star_algebra(self):
        raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        algebra = kp.generate_algebra([raising])
        # products of 1 and the raising operator alone span only 2 dimensions;
        # its adjoint brings in the rest of M_2
        assert algebra.dimension == 4
        assert algebra.contains(raising.conj().T)
        assert word_span_dimension([raising]) == 4

    def test_non_hermitian_diagonal_generator(self):
        algebra = kp.generate_algebra([np.diag([1.0, 1.0j, -1.0])])
        assert algebra.dimension == 3
        assert algebra.contains(np.diag([1.0, -1.0j, -1.0]) / np.sqrt(3.0))


class TestIsCommutative:
    def test_scalar_multiples(self):
        ok, worst = kp.is_commutative([SIGMA_Z, 2 * SIGMA_Z])
        assert ok and worst == 0.0

    def test_pauli_pair(self):
        ok, worst = kp.is_commutative([SIGMA_Z, SIGMA_X])
        assert not ok
        assert worst == pytest.approx(2.0 * np.sqrt(2.0))

    def test_diagonal_family(self):
        ok, _ = kp.is_commutative([np.diag([1.0, 2, 3]), np.diag([4.0, 5, 6])])
        assert ok

    def test_commuting_generators_give_commutative_closure(self):
        for seed in range(5):
            model = kp.random_model(seed, 3, 4, commuting=True)
            ok, _ = kp.is_commutative(model.hamiltonians)
            assert ok
            closed = kp.generate_algebra(model.hamiltonians)
            ok_basis, worst = kp.is_commutative(closed.basis)
            assert ok_basis, f"closed basis not commutative: {worst}"


class TestClassicalWrtState:
    def test_commutative_algebra_any_state(self):
        algebra = kp.generate_algebra([SIGMA_Z])
        rho = random_density(np.random.default_rng(1), 2)
        ok, _ = kp.classical_wrt_state(rho, algebra)
        assert ok

    def test_full_algebra_maximally_mixed(self):
        algebra = kp.generate_algebra([SIGMA_Z, SIGMA_X])
        ok, _ = kp.classical_wrt_state(I2 / 2, algebra)
        assert ok

    def test_full_algebra_pure_state(self):
        algebra = kp.generate_algebra([SIGMA_Z, SIGMA_X])
        rho = np.diag([1.0, 0.0]).astype(complex)
        ok, worst = kp.classical_wrt_state(rho, algebra)
        assert not ok
        assert worst > 0.1


class TestEffectNondegenerate:
    def test_projector_pair_effects(self, sigma_model):
        effects = kp.qubit_xy_protocol(sigma_model, "Y").step_measurements[0].effects
        ok, gap = kp.effect_nondegenerate(effects[0])
        assert ok and gap == pytest.approx(1.0)

    def test_degenerate_x_effects(self, sigma_model):
        effects = kp.qubit_xy_protocol(sigma_model, "X").step_measurements[0].effects
        ok, gap = kp.effect_nondegenerate(effects[0])
        assert not ok
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_spread_spectrum(self):
        ok, gap = kp.effect_nondegenerate(np.diag([0.1, 0.2, 0.3]))
        assert ok and gap == pytest.approx(0.1)


class TestSpacingDegeneracy:
    def test_uniform_shift_flags_all_pairs(self):
        pairs = kp.spacing_degeneracy_predicate([np.diag([0.0, 1, 2]), np.diag([5.0, 6, 7])])
        assert set(pairs) == {(0, 1), (0, 2), (1, 2)}

    def test_distinct_spacings_flag_nothing(self):
        pairs = kp.spacing_degeneracy_predicate([np.diag([0.0, 1]), np.diag([0.0, 3])])
        assert pairs == []

    def test_single_hamiltonian_is_vacuous(self):
        pairs = kp.spacing_degeneracy_predicate([np.diag([0.0, 1, 2])])
        assert set(pairs) == {(0, 1), (0, 2), (1, 2)}

    def test_noncommuting_inputs_rejected(self):
        with pytest.raises(PreconditionError):
            kp.spacing_degeneracy_predicate([SIGMA_Z, SIGMA_X])

    def test_flagged_pairs_make_effects_degenerate(self):
        # flagged level pairs share effect eigenvalues for any basis and time
        rng = np.random.default_rng(7)
        v = kp.haar_unitary(3, rng)
        h0 = v @ np.diag([0.0, 1.0, 2.0]) @ v.conj().T
        h1 = v @ np.diag([5.0, 6.0, 7.0]) @ v.conj().T
        hams = ((h0 + h0.conj().T) / 2, (h1 + h1.conj().T) / 2)
        pairs = kp.spacing_degeneracy_predicate(hams)
        assert pairs
        model = kp.DephasingModel(2, 3, hams, 0.83)
        for axis in "XY":
            measurement = kp.qubit_xy_protocol(model, axis).step_measurements[0]
            for effect in measurement.effects:
                # effects share the common eigenbasis; compare diagonal values
                for l1, l2 in pairs:
                    e1 = v[:, l1].conj() @ effect @ v[:, l1]
                    e2 = v[:, l2].conj() @ effect @ v[:, l2]
                    assert abs(e1 - e2) <= 1e-9


class TestCommutantBasis:
    def test_identity_has_full_commutant(self):
        commutant = kp.commutant_basis([np.eye(3)])
        assert commutant.dimension == 9

    def test_sigma_z_commutant_is_diagonal(self):
        commutant = kp.commutant_basis([SIGMA_Z])
        assert commutant.dimension == 2
        assert commutant.projection_residual(np.eye(2) / np.sqrt(2)) <= 1e-9
        assert commutant.projection_residual(SIGMA_Z / np.sqrt(2)) <= 1e-9

    def test_irreducible_pair_leaves_scalars(self):
        commutant = kp.commutant_basis([SIGMA_Z, SIGMA_X])
        assert commutant.dimension == 1

    def test_members_commute_and_identity_present(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            ops = [random_hermitian(rng, 4) for _ in range(2)]
            commutant = kp.commutant_basis(ops)
            assert commutant.dimension >= 1
            assert commutant.projection_residual(np.eye(4) / 2.0) <= 1e-8
            for member in commutant.basis:
                assert max(frobenius(kp.commutator(member, g)) for g in ops) <= 1e-8


class TestFixedPointCommutantDuality:
    def test_duality_on_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            d_s = int(rng.integers(2, 5))
            model = kp.random_model(int(rng.integers(1 << 30)), 2, d_s, bool(rng.integers(2)))
            prep = kp.plus_x_preparation()
            unitaries = kp.conditional_unitaries(model)
            commutant = kp.commutant_basis(unitaries)
            for _ in range(20):
                a = random_hermitian(rng, d_s)
                mapped = kp.nonselective_apply(model, prep, a, "observable")
                fixed = frobenius(mapped - a) <= 1e-10
                member = commutant.projection_residual(a) <= 1e-8
                assert fixed == member
                # engineered member: projecting onto the commutant gives a fixed point
                proj = a - a
                for b in commutant.basis:
                    proj = proj + kp.hs_inner(b, a) * b
                proj = (proj + proj.conj().T) / 2
                mapped = kp.nonselective_apply(model, prep, proj, "observable")
                assert frobenius(mapped - proj) <= 1e-8


class TestZeroEntanglement:
    def test_zero_time_never_entangles(self):
        model = kp.DephasingModel(2, 2, (SIGMA_Z, SIGMA_X), 0.0)
        ok, _ = kp.zero_entanglement_condition(I2 / 2, model)
        assert ok

    def test_opposite_dephasing_of_maximally_mixed(self):
        model = kp.DephasingModel(2, 2, (SIGMA_Z, -SIGMA_Z), 1.3)
        ok, _ = kp.zero_entanglement_condition(I2 / 2, model)
        assert ok

    def test_rotated_pure_state_entangles(self):
        zero = np.zeros((2, 2), dtype=complex)
        model = kp.DephasingModel(2, 2, (zero, SIGMA_X), np.pi / 2)
        rho = np.diag([1.0, 0.0]).astype(complex)
        ok, diagnostics = kp.zero_entanglement_condition(rho, model)
        assert not ok
        assert diagnostics["state_mismatch"]["0,1"] > 0.5

    def test_higher_dimensional_probe_needs_commuting_unitaries(self):
        model = kp.random_model(9, 3, 3, commuting=False)
        ok, diagnostics = kp.zero_entanglement_condition(np.eye(3) / 3, model)
        assert not ok
        assert "unitary_commutators" in diagnostics


class TestAlgebraReport:
    def test_report_fields(self, sigma_model):
        protocol = kp.qubit_xy_protocol(sigma_model, "XY")
        report = kp.algebra_report(sigma_model, protocol)
        assert report.dimension == 4
        assert not report.commutative
        assert report.commutant_dimension == 1
        rows = {(r["step"], r["outcome"]): r["nondegenerate"] for r in report.effect_nondegeneracy}
        assert rows[(1, "+")] is False  # degenerate X effects
        assert rows[(2, "+")] is True
        assert report.to_dict()["commutative"] is False
