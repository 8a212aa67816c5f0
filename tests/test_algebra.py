import collections
import dataclasses
import itertools

import numpy as np
import pytest

import kcprobe as kp
from kcprobe.errors import InvariantViolation, NumericalFault, PreconditionError
from kcprobe.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, _matrices, frobenius

from conftest import full_route_commutant, random_density, random_hermitian

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

    def test_verdict_does_not_depend_on_the_units(self):
        # scaling by 1000 multiplies the commutator roundoff by 10^6, far
        # above an absolute 1e-10 cut; the verdict must not move
        for seed in range(50):
            hams = kp.random_model(seed, 2, 4, commuting=True).hamiltonians
            assert kp.is_commutative(hams)[0]
            assert kp.is_commutative([1000 * h for h in hams])[0]
            assert kp.is_commutative([1e-3 * h for h in hams])[0]
        noncommuting = kp.random_model(0, 2, 4, commuting=False).hamiltonians
        for scale in (1e-3, 1.0, 1e3):
            assert not kp.is_commutative([scale * h for h in noncommuting])[0]

    def test_worst_is_the_absolute_commutator_norm(self):
        ok, worst = kp.is_commutative([1000 * SIGMA_Z, 1000 * SIGMA_X])
        assert not ok
        assert worst == frobenius(kp.commutator(1000 * SIGMA_Z, 1000 * SIGMA_X))

    def test_zero_generators_commute(self):
        zero = np.zeros((2, 2), dtype=complex)
        assert kp.is_commutative([zero, zero]) == (True, 0.0)

    @pytest.mark.parametrize("commuting", [False, True])
    @pytest.mark.parametrize("probe_dim", [2, 3, 4])
    def test_the_verdict_and_norm_are_the_pair_loop_s(self, probe_dim, commuting):
        # seeds 0-49 at d_S 2-8, bit for bit
        for seed in range(50):
            for system_dim in range(2, 9):
                hams = kp.random_model(seed, probe_dim, system_dim, commuting).hamiltonians
                assert kp.is_commutative(hams) == reference_is_commutative(hams), (seed, system_dim)
                scaled = [1e-3 * hams[0], *hams[1:]]
                assert kp.is_commutative(scaled) == reference_is_commutative(scaled), (seed, system_dim)

    @pytest.mark.parametrize("n_nuclei", [1, 2, 3])
    def test_nv_verdicts_are_the_pair_loop_s(self, n_nuclei):
        rng = np.random.default_rng(n_nuclei)
        longitudinal = np.c_[np.zeros((n_nuclei, 2)), rng.standard_normal(n_nuclei)]  # commuting
        for omega in (0.0, 0.3, 1.0, 2.5):
            for couplings in (rng.standard_normal((n_nuclei, 3)), longitudinal):
                hams = kp.nv_center_model(n_nuclei, omega, 0.7, couplings).hamiltonians
                assert kp.is_commutative(hams) == reference_is_commutative(hams)

    @pytest.mark.parametrize("scale", [1e80, 1e100, 1e150, 1e154, 1e155, 1e200])
    def test_an_overflowing_norm_is_a_numerical_fault(self, scale):
        # the norms overflow: a verdict read from them would be (False, inf),
        # (True, inf) or, where Python's max drops a NaN, (True, 0.0); the
        # suite turns a RuntimeWarning into an error, so none is emitted either
        with pytest.raises(NumericalFault, match=r"^largest commutator norm .* is not finite$"):
            kp.is_commutative([scale * SIGMA_X, scale * SIGMA_Z])

    def test_an_overflowing_commuting_pair_is_a_numerical_fault(self):
        # the products of the diagonal pair overflow, and inf - inf is NaN
        with pytest.raises(NumericalFault, match=r"^largest commutator norm nan or squared generator norm inf "):
            kp.is_commutative([1e200 * SIGMA_Z, 2e200 * SIGMA_Z])

    @pytest.mark.parametrize("scale", [1e-60, 1e-3, 1e3, 1e76])
    def test_a_finite_norm_decides_at_any_scale(self, scale):
        # |[x, z]|_F = 2 sqrt(2) scale**2, 2.83e152 at 1e76
        ok, worst = kp.is_commutative([scale * SIGMA_X, scale * SIGMA_Z])
        assert not ok and worst == pytest.approx(2 * np.sqrt(2) * scale**2, rel=1e-15)
        assert kp.is_commutative([scale * SIGMA_Z, 2 * scale * SIGMA_Z]) == (True, 0.0)


def reference_is_commutative(hams, tol=kp.DEFAULT):
    """``is_commutative`` as a loop over the generator pairs, each norm one
    ``frobenius`` (``np.linalg.norm``) of its commutator."""
    worst = 0.0
    for a, b in itertools.combinations(hams, 2):
        worst = max(worst, frobenius(a @ b - b @ a))
    scale = max(map(frobenius, hams)) ** 2
    return worst <= tol.commutator * scale, worst


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

    def test_worst_matches_a_pair_loop(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            for gens in ([random_hermitian(rng, d)], [random_hermitian(rng, d) for _ in range(2)]):
                algebra = kp.generate_algebra(gens)
                rho = random_density(rng, d)
                pairs = itertools.combinations(algebra.basis, 2)
                want = max((abs(np.trace(rho @ (a @ b - b @ a))) for a, b in pairs), default=0.0)
                assert abs(kp.classical_wrt_state(rho, algebra)[1] - want) <= 1e-14


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

    def test_gap_cut_is_read_from_the_tolerances(self):
        effect = np.diag([0.1, 0.1 + 1e-7])
        assert kp.effect_nondegenerate(effect)[0]
        assert not kp.effect_nondegenerate(effect, kp.DEFAULT.replace(gap=1e-6))[0]

    def test_one_eigenvalue_has_no_gap(self):
        assert kp.effect_nondegenerate(np.array([[0.5]])) == (True, None)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_a_stack_reads_as_each_effect_alone(self, d):
        rng = np.random.default_rng(d)
        effects = np.array([random_hermitian(rng, d) for _ in range(6)]).reshape(2, 3, d, d)
        effects[0, 1] = np.eye(d) / 2  # degenerate unless d = 1
        ok, gaps = kp.effect_nondegenerate(effects)
        assert ok.shape == gaps.shape == (2, 3)
        for k in np.ndindex(2, 3):
            alone_ok, alone_gap = kp.effect_nondegenerate(effects[k])
            assert ok[k] == alone_ok
            assert gaps[k] == (np.inf if alone_gap is None else alone_gap)
        assert ok[0, 1] == (d == 1)

    def test_a_stack_names_its_first_non_hermitian_effect(self):
        effects = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
        effects[1, 0, 1], effects[2, 0, 1] = 1.0, 2.0
        with pytest.raises(InvariantViolation, match=r"^effect is not Hermitian: \|M - M\^H\|_F = 1\.414e\+00"):
            kp.effect_nondegenerate(effects)


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

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-6, 1e4, 1e8])
    def test_pairs_do_not_depend_on_the_units(self, scale):
        # one flat pair, levels 0 and 1, in a Haar basis
        spectra = np.array([[0.0, 1, 3], [0.0, 1, 5]])
        v = kp.haar_unitary(3, np.random.default_rng(11))
        hams = []
        for spectrum in scale * spectra:
            h = (v * spectrum) @ v.conj().T
            hams.append((h + h.conj().T) / 2)
        assert spacing_pairs_by_tuple(hams, scale * spectra, v) == reference_pairs_by_tuple(scale * spectra)

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


def spacing_pairs_by_tuple(hams, spectra, v) -> collections.Counter:
    """Flagged pairs of ``spacing_degeneracy_predicate``, each level named by
    its tuple of eigenvalues, one per Hamiltonian.

    ``h_i = v diag(spectra[i]) v^H``.  The predicate indexes levels in the
    ascending eigenvalue order of the random element of ``span(hams)`` it
    diagonalizes, which is ``v^H x v`` on the diagonal."""
    x = kp.algebra._random_hermitian([np.asarray(h, dtype=complex) for h in hams], 1)[0]
    order = np.argsort(np.real(np.einsum("al,ab,bl->l", v.conj(), x, v)), kind="stable")
    tuples = [tuple(spectra[:, l]) for l in order]
    return collections.Counter(
        tuple(sorted((tuples[a], tuples[b]))) for a, b in kp.spacing_degeneracy_predicate(hams)
    )


def reference_pairs_by_tuple(spectra) -> collections.Counter:
    """Level pairs whose spacing is the same for every Hamiltonian, from the spectra alone."""
    d = spectra.shape[1]
    return collections.Counter(
        tuple(sorted((tuple(spectra[:, a]), tuple(spectra[:, b]))))
        for a, b in itertools.combinations(range(d), 2)
        if np.ptp(spectra[:, a] - spectra[:, b]) == 0
    )


class TestSpacingAgainstKnownSpectra:
    def test_flagged_pairs_match_the_spectra_in_a_haar_basis(self):
        # two or three Hamiltonians with small integer spectra, so that equal
        # spacings and repeated levels are common
        rng = np.random.default_rng(2024)
        families = 0
        while families < 120:
            d, k = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            spectra = rng.integers(-2, 3, size=(k, d)).astype(float)
            want = reference_pairs_by_tuple(spectra)
            if not want:
                continue
            families += 1
            v = kp.haar_unitary(d, rng)
            hams = []
            for spectrum in spectra:
                h = (v * spectrum) @ v.conj().T
                hams.append((h + h.conj().T) / 2)
            assert spacing_pairs_by_tuple(hams, spectra, v) == want


class TestCommutantBasis:
    def test_identity_has_full_commutant(self):
        commutant = kp.commutant_basis([np.eye(3)])
        assert commutant.dimension == 9

    def test_dimension_is_the_basis_length(self):
        rng = np.random.default_rng(5)
        hams = [random_hermitian(rng, 3), np.diag([1.0, 1.0, 2.0])]
        bases = [kp.commutant_basis(hams[1:]), *(kp.generate_algebra(g) for g in (hams, hams[1:]))]
        assert [b.dimension for b in bases] == [len(b.basis) for b in bases] == [5, 9, 2]
        assert "dimension" not in {f.name for f in dataclasses.fields(kp.AlgebraBasis)}

    def test_projection_residual_matches_a_projection_loop(self):
        rng = np.random.default_rng(6)
        commutant = kp.commutant_basis([np.diag([1.0, 1.0, 2.0])])
        for _ in range(5):
            op = random_hermitian(rng, 3) + 1j * random_hermitian(rng, 3)
            resid = op - sum(np.vdot(b, op) * b for b in commutant.basis)
            assert abs(commutant.projection_residual(op) - frobenius(resid)) <= 1e-14
            assert commutant.contains(op - resid)

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

    def test_empty_null_space_is_a_numerical_fault(self):
        # the identity always commutes, so a cut below every singular value is
        # a fault; the Hamiltonians of configs/commuting_random.json round
        # their null space to positive values (sigma_z and sigma_x give an
        # exact zero, below every positive cut)
        hams = kp.random_model(42, 2, 4, commuting=True).hamiltonians
        assert 1e-17 < kp.commutant_basis(hams).singular_values[-1] < 1e-14
        tol = kp.DEFAULT.replace(nullspace=1e-17)
        with pytest.raises(NumericalFault, match=r"smallest singular value .* cut 1\.000e-17"):
            kp.commutant_basis(hams, tol)


def kron_stack_commutant(ops, tol=kp.DEFAULT):
    """Reference: the commutant of ``ops`` alone, read off one complex SVD of
    the stacked ``kron`` maps ``X -> [X, G]``; its singular values and members."""
    d = ops[0].shape[0]
    eye = np.eye(d)
    stacked = np.concatenate([np.kron(eye, g.T) - np.kron(g, eye) for g in ops], axis=0)
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    return svals, [v.conj().reshape(d, d) for v, s in zip(vh, svals) if s < tol.nullspace]


def _hermitian_sets():
    """Random, commuting and block-structured Hermitian sets for d = 2..8, and
    a coupling near the null-space cut."""
    rng = np.random.default_rng(28)
    for d in range(2, 9):
        yield pytest.param([random_hermitian(rng, d)], id=f"one-random-d{d}")
        yield pytest.param([random_hermitian(rng, d) for _ in range(2)], id=f"random-pair-d{d}")
        hams = kp.random_model(int(rng.integers(1 << 30)), 3, d, commuting=True).hamiltonians
        yield pytest.param(hams, id=f"commuting-d{d}")
        if d >= 3:
            pair = [(random_hermitian(rng, d // 2), random_hermitian(rng, d - d // 2)) for _ in range(2)]
            yield pytest.param([_block_diag(a, b) for a, b in pair], id=f"direct-sum-d{d}")
        if d % 2 == 0:
            pair = [np.kron(random_hermitian(rng, 2), np.eye(d // 2)) for _ in range(2)]
            yield pytest.param(pair, id=f"m2-tensor-identity-d{d}")
    yield pytest.param([np.diag([0.0, 1.0]).astype(complex), 4e-10 * SIGMA_X], id="near-cut")


class TestRealCommutant:
    @pytest.mark.parametrize("ops", list(_hermitian_sets()))
    def test_hermitian_sets_match_the_kron_stack(self, ops):
        svals, members = kron_stack_commutant(ops)
        commutant = kp.commutant_basis(ops)
        assert commutant.dimension == len(members)
        # from d = 6 on the recorded values are those of the restricted stack:
        # as many below cut / 100, and the same near the cut wherever the full
        # stack has any there
        cut = kp.DEFAULT.nullspace
        got = commutant.singular_values
        assert np.sum(got < cut / 100) == np.sum(svals < cut / 100)
        near = (cut / 100 <= svals) & (svals <= 100 * cut)
        if near.any():
            assert got.shape == svals.shape
            assert np.max(np.abs(got - svals)) <= 1e-13 * svals[0]
        basis = np.array(commutant.basis)
        assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
        gram = np.einsum("iab,jab->ij", basis.conj(), basis)
        assert np.max(np.abs(gram - np.eye(len(basis)))) <= 1e-12
        assert max(frobenius(kp.commutator(b, g)) for b in basis for g in ops) <= 1e-9
        # the reference's members lie in the span: the two commutants are one
        assert max(commutant.projection_residual(m) for m in members) <= 1e-8

    def test_conditional_unitaries_give_the_kron_stack_dimension(self):
        # normal operators: the commutant of U is that of U and U^H (Fuglede)
        rng = np.random.default_rng(29)
        dims = set()
        for _ in range(12):
            d_s = int(rng.integers(2, 6))
            commuting = bool(rng.integers(2))
            model = kp.random_model(int(rng.integers(1 << 30)), int(rng.integers(2, 4)), d_s, commuting)
            unitaries = kp.conditional_unitaries(model)
            want = len(kron_stack_commutant(unitaries)[1])
            assert kp.commutant_basis(unitaries).dimension == want
            dims.add(want > 1)
        assert dims == {True, False}

    def test_raising_operator_gives_the_commutant_of_its_star_closure(self):
        raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert len(kron_stack_commutant([raising])[1]) == 2  # span{1, raising}
        commutant = kp.commutant_basis([raising])
        assert commutant.dimension == 1
        assert commutant.projection_residual(np.eye(2) / np.sqrt(2.0)) <= 1e-12

    def test_one_real_svd_of_the_reduced_stack(self, monkeypatch):
        # d = 16: the full stack's SVD was 256 x 256; on the eigenspaces of a
        # random element of a generic pair it is d x d
        svd = np.linalg.svd
        seen = []

        def recording(a, *args, **kwargs):
            seen.append((a.shape, a.dtype))
            return svd(a, *args, **kwargs)

        couplings = np.random.default_rng(30).uniform(-1.0, 1.0, size=(4, 3))
        hams = kp.nv_center_model(4, 1.0, 0.0, couplings).hamiltonians
        monkeypatch.setattr(np.linalg, "svd", recording)
        kp.commutant_basis(hams)
        assert seen == [((16, 16), np.dtype(float))]

    def test_all_zero_parts_run_no_svd(self, monkeypatch):
        # A' = C 1 gives zero draws for the second commutant: all of M_d, with
        # the members and singular values that the SVD of the zero stack gave
        ops = {d: [np.zeros((d, d))] * 2 for d in (2, 8, 16)}
        want = {d: full_route_commutant(zeros) for d, zeros in ops.items()}
        monkeypatch.setattr(np.linalg, "svd", None)
        for d, zeros in ops.items():
            commutant = kp.commutant_basis(zeros)
            assert np.array_equal(commutant.singular_values, want[d].singular_values)
            assert not commutant.singular_values.any()
            assert np.array_equal(np.array(commutant.basis), np.array(want[d].basis))


    @pytest.mark.parametrize("d", [1, 2, 3, 6, 16, 32])
    def test_one_hot_members_are_the_matrices_of_one_hot_rows(self, d):
        # the restricted stack's basis elements, signed zeros and all
        rng = np.random.default_rng(d)
        for size in (1, d, d * d):
            unknowns = np.sort(rng.choice(d * d, size=size, replace=False))
            lift = np.zeros((size, d * d))
            lift[np.arange(size), unknowns] = 1.0
            want, got = _matrices(lift).view(float), kp.algebra._one_hot(d, unknowns).view(float)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_the_second_commutant_runs_no_svd_of_the_commutant_basis(self, monkeypatch):
        # A' = M_8 (+) M_8 at d = 16: the identity is projected off its 128
        # members, with no (128, 256) SVD; the two SVDs left are those of the
        # commutant and of the second commutant, each on the eigenspaces of
        # a random element
        svd = np.linalg.svd
        seen = []

        def recording(a, *args, **kwargs):
            seen.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        algebra = kp.generate_algebra([np.eye(16), np.kron(SIGMA_Z, np.eye(8))])
        assert algebra.dimension == 2
        assert seen == [(128, 128), (16, 16)]


def block_structure(rng, blocks, count=2, twin=None):
    """``count`` Hermitian generators ``V (+)_k (A_ik (x) 1_{m_k}) V^H`` of
    ``A = (+)_k M_{n_k} (x) 1_{m_k}`` for ``blocks = [(n_k, m_k)]``, with
    random ``A_ik`` and a Haar ``V``: ``dim A = sum n_k^2`` and
    ``dim A' = sum m_k^2``, and each eigenvalue of a generic element of the
    generators' span has multiplicity ``m_k``.  With ``twin``, the last block
    comes once more, each ``A_ik`` moved by ``twin`` times a random scalar."""
    d = sum(n * m for n, m in blocks) + (0 if twin is None else blocks[-1][0] * blocks[-1][1])
    v = kp.haar_unitary(d, rng)
    hams = []
    for _ in range(count):
        h = np.zeros((d, d), dtype=complex)
        at = 0
        for n, m in blocks:
            a = random_hermitian(rng, n)
            h[at : at + n * m, at : at + n * m] = np.kron(a, np.eye(m))
            at += n * m
        if twin is not None:
            h[at:, at:] = np.kron(a + twin * rng.uniform(0.5, 1.0) * np.eye(n), np.eye(m))
        h = v @ h @ v.conj().T
        hams.append((h + h.conj().T) / 2)
    return hams


class TestRestrictedCommutant:
    STRUCTURES = {
        "d8": [(2, 2), (1, 2), (2, 1)],
        "d8-trivial": [(1, 8)],
        "d8-unequal": [(3, 1), (2, 2), (1, 1)],
        "d12": [(2, 3), (3, 2)],
        "d16": [(4, 2), (2, 4)],
        "d24": [(2, 4), (1, 6), (3, 2), (2, 1)],
        "d32": [(2, 8), (4, 4)],
    }

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_rotated_block_structures(self, name, monkeypatch):
        blocks = self.STRUCTURES[name]
        d = sum(n * m for n, m in blocks)
        hams = block_structure(np.random.default_rng([32, d]), blocks)
        restricted = kp.algebra._restricted
        stood = []

        def recording(parts, tol):
            found = restricted(parts, tol)
            stood.append(found is not None)
            return found

        monkeypatch.setattr(kp.algebra, "_restricted", recording)
        report = kp.algebra_report(kp.DephasingModel(2, d, tuple(hams), 1.0))
        want = (sum(n * n for n, _ in blocks), sum(m * m for _, m in blocks))
        assert (report.dimension, report.commutant_dimension) == want
        assert report.commutant_singular_values_near_cut == ()
        # y is degenerate, one group per eigenvalue of a block; the scalar
        # generators of "d8-trivial" give y = c 1, one group, every unknown
        assert all(stood) == (name != "d8-trivial")

    @pytest.mark.parametrize("twin, want", [(1e-13, (6, 12)), (1e-9, None), (1e-6, (7, 10))])
    def test_near_degenerate_blocks_decide_as_the_full_stack(self, twin, want, monkeypatch):
        # a block and its twin a distance ``twin`` apart: one block below the
        # cut, two above it, with a gap of y's spectrum near 1e-6 between them;
        # at the cut the full stack decides, and reports its near-cut values
        hams = block_structure(np.random.default_rng(33), [(2, 2), (1, 2), (1, 1)], twin=twin)
        model = kp.DephasingModel(2, 8, tuple(hams), 1.0)
        report = kp.algebra_report(model)
        monkeypatch.setattr(kp.algebra, "commutant_basis", full_route_commutant)
        reference = kp.algebra_report(model)
        assert report.to_dict() == reference.to_dict()
        if want is None:
            assert report.commutant_singular_values_near_cut
        else:
            assert (report.dimension, report.commutant_dimension) == want

    def test_five_identical_nuclei(self):
        # d = 32: A = M_6 (+) M_4 (x) 1_4 (+) M_2 (x) 1_5
        couplings = np.tile(np.random.default_rng(34).uniform(0.2, 1.0, size=3), (5, 1))
        report = kp.algebra_report(kp.nv_center_model(5, 1.1, 0.3, couplings))
        assert (report.dimension, report.commutant_dimension) == (56, 42)


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

    def test_algebra_is_the_second_commutant_of_the_reported_commutant(self):
        # a coupling near the null-space cut: the commutant is the diagonal
        # algebra, so the algebra it generates is diagonal too
        hams = (np.diag([0.0, 1.0]).astype(complex), 4e-10 * SIGMA_X)
        report = kp.algebra_report(kp.DephasingModel(2, 2, hams, 1.0))
        assert report.commutant_dimension == 2
        assert report.dimension == 2
        assert kp.generate_algebra(hams).dimension == 2

    def test_the_effect_screen_is_one_stacked_call(self, monkeypatch):
        # every step's effects in one call, each row as the effect alone gives it
        model = kp.random_model(5, 2, 8, commuting=False)
        protocol = kp.qubit_xy_protocol(model, "XYX")
        calls = []
        real = kp.algebra.effect_nondegenerate
        monkeypatch.setattr(
            kp.algebra, "effect_nondegenerate", lambda e, tol: calls.append(np.shape(e)) or real(e, tol)
        )
        rows = kp.algebra_report(model, protocol).effect_nondegeneracy
        assert calls == [(3, 2, 8, 8)]
        alone = [
            (step, label, *real(effect))
            for step, m in enumerate(protocol.step_measurements, start=1)
            for label, effect in zip(m.labels, m.effects)
        ]
        assert [(r["step"], r["outcome"], r["nondegenerate"]) for r in rows] == [a[:3] for a in alone]
        assert all(type(r["nondegenerate"]) is bool and type(r["min_gap"]) is float for r in rows)
        assert np.array_equal([r["min_gap"] for r in rows], [a[3] for a in alone])

    def test_a_one_dimensional_system_screens_no_gap(self):
        model = kp.DephasingModel(2, 1, (np.array([[1.0]]), np.array([[-1.0]])), 0.7)
        rows = kp.algebra_report(model, kp.qubit_xy_protocol(model, "XY")).effect_nondegeneracy
        assert [(r["nondegenerate"], r["min_gap"]) for r in rows] == [(True, None)] * 4

    def test_one_commutant_and_one_second_commutant(self, sigma_model, monkeypatch):
        stacks = []
        real = kp.algebra.commutant_basis

        def counting(ops, tol=kp.DEFAULT):
            stacks.append(len(ops))
            return real(ops, tol)

        monkeypatch.setattr(kp.algebra, "commutant_basis", counting)
        kp.algebra_report(sigma_model)
        assert stacks == [2, 2]

    @pytest.mark.parametrize("seed", [1, 8, 19, 34])
    def test_a_coupling_just_above_the_cut_generates_everything(self, seed):
        # H_1 = a H_0 + eps |H_0| G with the commutant C 1 by a margin near
        # the cut: the second commutant is all of M_d, in every basis.  The
        # identity drawn with its rounding gave d = 4, 3, 2 and 3 (in place of
        # 16, 9, 4 and 9) for these seeds.
        rng = np.random.default_rng([99, seed])
        d = int(rng.integers(2, 5))
        h0 = 10 ** rng.uniform(-3.0, 3.0) * random_hermitian(rng, d)
        eps = 10 ** rng.uniform(-12.0, -8.0)
        h1 = rng.uniform(-2.0, 2.0) * h0 + eps * frobenius(h0) * random_hermitian(rng, d)
        v = kp.haar_unitary(d, rng)
        for hams in ((h0, h1), (v @ h0 @ v.conj().T, v @ h1 @ v.conj().T)):
            report = kp.algebra_report(kp.DephasingModel(2, d, hams, 1.0))
            assert (report.commutant_dimension, report.dimension) == (1, d * d)
