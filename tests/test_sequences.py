import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import kcprobe as kp
from kcprobe.errors import (
    CapacityError,
    LabelError,
    NumericalFault,
    PreconditionError,
    ProtocolError,
)
from kcprobe.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, frobenius
from kcprobe.sequences import PREFIX_BLOCK_BYTES, _probabilities, _state_defects

from conftest import random_density, zero_amplitude_cycle

I2 = np.eye(2, dtype=complex)


def trivial_x_protocol(n=3):
    zero = np.zeros((2, 2), dtype=complex)
    model = kp.DephasingModel(2, 2, (zero, zero), 1.0)
    return kp.qubit_xy_protocol(model, "X" * n)


class TestHistoryOperator:
    def test_single_step_is_the_effect(self, y_protocol):
        q = kp.history_operator(y_protocol, (0,))
        assert np.allclose(q.q, y_protocol.step_measurements[0].effects[0])

    def test_trivial_evolution_plus_plus(self):
        q = kp.history_operator(trivial_x_protocol(), (0, 0))
        assert np.allclose(q.q, I2)

    def test_two_step_y_histories(self, y_protocol):
        # K_+ = (-i sz + sx)/2 maps everything onto the +y eigenstate, which
        # the plus effect |−y><−y| annihilates: Q(+,+) = 0, Q(-,+) = E_-.
        k_plus = (-1j * SIGMA_Z + SIGMA_X) / 2
        assert np.allclose(y_protocol.step_measurements[0].kraus[0], k_plus, atol=1e-12)
        assert np.allclose(kp.history_operator(y_protocol, (0, 0)).q, 0.0, atol=1e-12)
        q_mp = kp.history_operator(y_protocol, (1, 0)).q
        assert np.allclose(q_mp, (I2 + SIGMA_Y) / 2, atol=1e-12)

    def test_two_step_xy_history_spectrum(self, sigma_model):
        # X then Y: Q_2 = K^X_+^H E^Y_+ K^X_+ = (1 + sigma_y)/4, eigenvalues {0, 1/2}
        protocol = kp.qubit_xy_protocol(sigma_model, "XY")
        q = kp.history_operator(protocol, (0, 0))
        assert np.allclose(q.q, (I2 + SIGMA_Y) / 4, atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(q.q), [0.0, 0.5], atol=1e-12)

    def test_invalid_label(self, y_protocol):
        with pytest.raises(LabelError):
            kp.history_operator(y_protocol, (0, 2))

    def test_history_operators_stay_between_zero_and_one(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            d_s = int(rng.integers(2, 5))
            model = kp.random_model(int(rng.integers(1 << 30)), 2, d_s, bool(rng.integers(2)))
            axes = "".join(rng.choice(["X", "Y"]) for _ in range(4))
            protocol = kp.qubit_xy_protocol(model, axes)
            for seq in itertools.product(range(2), repeat=4):
                w = np.linalg.eigvalsh(kp.history_operator(protocol, seq).q)
                assert w[0] >= -1e-10
                assert w[-1] <= 1.0 + 1e-10


class TestJointProbability:
    def test_identity_history_gives_one(self):
        rho = random_density(np.random.default_rng(0), 2)
        assert kp.joint_probability(rho, I2) == pytest.approx(1.0)

    def test_mixed_state_two_step_probabilities(self, sigma_model, y_protocol):
        # X-then-Y at the maximally mixed state: tr(Q_2)/2 = 1/4
        protocol = kp.qubit_xy_protocol(sigma_model, "XY")
        q = kp.history_operator(protocol, (0, 0))
        assert kp.joint_probability(I2 / 2, q) == pytest.approx(0.25, abs=1e-12)
        # pure Y protocol: perfect anti-correlation of consecutive outcomes
        dist = kp.full_distribution(y_protocol, I2 / 2, 2)
        assert dist.table[(0, 0)] == pytest.approx(0.0, abs=1e-12)
        assert dist.table[(0, 1)] == pytest.approx(0.5, abs=1e-12)

    def test_plus_y_single_step_vanishes(self, y_protocol, plus_y_state):
        q = kp.history_operator(y_protocol, (0,))
        assert kp.joint_probability(plus_y_state, q) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_badly_negative_values(self):
        with pytest.raises(NumericalFault):
            kp.joint_probability(I2 / 2, -0.1 * I2)

    def test_rejects_nan(self):
        with pytest.raises(NumericalFault):
            kp.joint_probability(I2 / 2, np.full((2, 2), np.nan))


class TestFullDistribution:
    def test_trivial_evolution_single_step(self):
        dist = kp.full_distribution(trivial_x_protocol(), I2 / 2, 1)
        assert dist.table[(0,)] == pytest.approx(1.0)
        assert dist.table[(1,)] == pytest.approx(0.0, abs=1e-15)

    def test_commuting_model_marginal_matches_single_step(self):
        model = kp.build_conditional_hamiltonians(
            SIGMA_Z, SIGMA_Z, (0.0, 0.0), (0.0, 1.0), step_time=0.7
        )
        protocol = kp.qubit_xy_protocol(model, "XX")
        rho = random_density(np.random.default_rng(5), 2)
        dist2 = kp.full_distribution(protocol, rho, 2)
        dist1 = kp.full_distribution(protocol.drop_step(1), rho, 1)
        marginal = dist2.marginal_over_step(1)
        for key, value in dist1.table.items():
            assert marginal[key] == pytest.approx(value, abs=1e-12)

    def test_normalization(self, y_protocol, plus_y_state):
        dist = kp.full_distribution(y_protocol, plus_y_state, 2)
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_capacity_cap(self, y_protocol):
        tight = kp.DEFAULT.replace(enumeration_cap=4)
        with pytest.raises(CapacityError, match="2\\^3 = 8"):
            kp.full_distribution(y_protocol, I2 / 2, 3, tight)


def walk_reference(protocol, rho, n):
    """Sequence probabilities from a recursive walk over prefix Kraus products."""
    table = {}

    def walk(step, prefix, r):
        if step == n:
            q = r.conj().T @ r
            table[prefix] = kp.joint_probability(rho, (q + q.conj().T) / 2)
            return
        for m, k in enumerate(protocol.step_measurements[step].kraus):
            walk(step + 1, prefix + (m,), k @ r)

    walk(0, (), np.eye(protocol.system_dim, dtype=complex))
    return table


def noncommuting_model(seed, d_p, d_s):
    if d_s > 1:
        return kp.random_model(seed, d_p, d_s, commuting=False)
    energies = np.random.default_rng(seed).standard_normal(d_p)
    return kp.DephasingModel(d_p, 1, tuple(np.array([[e]], dtype=complex) for e in energies), 0.9)


def assert_matches_walk(protocol, rho, n):
    got = kp.full_distribution(protocol, rho, n).table
    want = walk_reference(protocol, rho, n)
    assert list(got) == list(want)
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-14


class TestPrefixTensorProbabilities:
    @pytest.mark.parametrize("d_p", [2, 3, 4])
    @pytest.mark.parametrize("d_s", [1, 2, 3, 4])
    def test_matches_the_recursive_walk(self, d_p, d_s):
        protocol = kp.fourier_protocol(noncommuting_model(10 * d_p + d_s, d_p, d_s), 3)
        rho = random_density(np.random.default_rng(d_p * d_s), d_s)
        for n in (1, 2, 3):
            assert_matches_walk(protocol, rho, n)

    def test_step_times_protocol(self):
        model = kp.random_model(4, 2, 3, commuting=False)
        protocol = kp.qubit_xy_protocol(model, "XYXY", step_times=(0.3, 1.1, 0.7, 2.9))
        assert_matches_walk(protocol, random_density(np.random.default_rng(4), 3), 4)

    @pytest.mark.parametrize("seed", [13, 14])
    def test_classical_noise_protocol(self, seed):
        protocol = kp.classical_noise_model(kp.random_noise_realization(seed, 5), 5)
        assert_matches_walk(protocol, np.array([[1.0]], dtype=complex), 5)

    def test_leading_steps_walked_in_blocks(self, monkeypatch):
        protocol = kp.fourier_protocol(kp.random_model(6, 3, 2, commuting=False), 4)
        rho = random_density(np.random.default_rng(6), 2)
        want = _probabilities(protocol, rho, 4, kp.DEFAULT)
        for block in (1, 3 * 4 * 16):  # one sequence per block; one trailing step
            monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block)
            assert np.array_equal(_probabilities(protocol, rho, 4, kp.DEFAULT), want)
        assert_matches_walk(protocol, rho, 4)

    def test_memory_stays_within_the_block_bound(self):
        d_s, n = 16, 14
        assert 2**n * d_s * d_s * 16 >= 4 * PREFIX_BLOCK_BYTES  # unblocked, the last level is 64 MiB
        protocol = kp.qubit_xy_protocol(kp.random_model(8, 2, d_s, commuting=False), "X" * n)
        rho = np.eye(d_s, dtype=complex) / d_s
        tracemalloc.start()
        try:
            dist = kp.full_distribution(protocol, rho, n)
            table_bytes, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dist.table) == 2**n
        assert peak <= 2 * PREFIX_BLOCK_BYTES + table_bytes

    def test_nan_kraus_is_a_numerical_fault(self):
        nan = np.full((2, 2), np.nan, dtype=complex)
        step = SimpleNamespace(kraus=(nan, nan))
        protocol = SimpleNamespace(probe_dim=2, system_dim=2, n_steps=2, step_measurements=(step, step))
        with pytest.raises(NumericalFault):
            _probabilities(protocol, I2 / 2, 2, kp.DEFAULT)
        with pytest.raises(NumericalFault):
            kp.full_distribution(protocol, I2 / 2, 2)

    def test_imaginary_residue_is_a_numerical_fault(self):
        k = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex) / 2
        protocol = SimpleNamespace(
            probe_dim=2, system_dim=2, n_steps=1, step_measurements=(SimpleNamespace(kraus=(k, k)),)
        )
        skew = np.array([[0.5, 1j], [0.0, 0.5]])  # not Hermitian: tr(rho Q) gets an imaginary part
        with pytest.raises(NumericalFault, match="imaginary residue"):
            _probabilities(protocol, skew, 1, kp.DEFAULT)

    def test_value_outside_the_unit_interval_is_a_numerical_fault(self):
        k = 2 * I2
        protocol = SimpleNamespace(
            probe_dim=2, system_dim=2, n_steps=1, step_measurements=(SimpleNamespace(kraus=(k, k)),)
        )
        with pytest.raises(NumericalFault, match="outside"):
            _probabilities(protocol, I2 / 2, 1, kp.DEFAULT)

    def test_distribution_not_summing_to_one_is_a_numerical_fault(self):
        k = 0.9 * I2  # each probability 0.81 is in range, their sum 1.62 is not
        protocol = SimpleNamespace(
            probe_dim=2, system_dim=2, n_steps=1, step_measurements=(SimpleNamespace(kraus=(k, k)),)
        )
        with pytest.raises(NumericalFault, match="sums to"):
            _probabilities(protocol, I2 / 2, 1, kp.DEFAULT)

    def test_state_of_the_wrong_shape(self, y_protocol):
        with pytest.raises(ProtocolError, match="does not match"):
            kp.full_distribution(y_protocol, np.eye(3, dtype=complex) / 3, 2)


class TestOneBornRuleGuard:
    """``joint_probability`` and the batched route share one guard."""

    SKEW = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex) / 2  # Q = K^H K = [[1, 1], [1, 1]] / 4

    @pytest.mark.parametrize(
        "rho, k, message",
        [
            (np.array([[0.5, 1j], [0.0, 0.5]]), SKEW, "probability has imaginary residue 2.500e-01"),
            (np.array([[0.5, -1j], [0.0, 0.5]]), SKEW, "probability has imaginary residue -2.500e-01"),
            (I2 / 2, 2 * I2, "probability 4.0 outside [0, 1] beyond tolerance"),
            (I2 / 2, np.full((2, 2), np.nan, dtype=complex), "probability has imaginary residue nan"),
        ],
    )
    def test_same_message_for_the_same_value(self, rho, k, message):
        q = k.conj().T @ k
        step = kp.InducedMeasurement((k, k), (q, q), ("0", "1"))
        protocol = SimpleNamespace(probe_dim=2, system_dim=2, n_steps=1, step_measurements=(step,))
        with pytest.raises(NumericalFault) as batched:
            _probabilities(protocol, rho.astype(complex), 1, kp.DEFAULT)
        with pytest.raises(NumericalFault) as single:
            kp.joint_probability(rho, q)
        assert str(batched.value) == str(single.value) == message


def loop_kc_defect_operator(protocol, n, j, fixed):
    """Per-outcome reference: one ``R = post K_{m_j} pre`` per ``m_j``."""
    d = protocol.system_dim
    pre = np.eye(d, dtype=complex)
    for k in range(j - 1):
        pre = protocol.step_measurements[k].kraus[fixed[k]] @ pre
    post = np.eye(d, dtype=complex)
    for k in range(j, n):
        post = protocol.step_measurements[k].kraus[fixed[k - 1]] @ post
    defect = np.zeros((d, d), dtype=complex)
    for k_j in protocol.step_measurements[j - 1].kraus:
        r = post @ k_j @ pre
        defect = defect + r.conj().T @ r
    r0 = post @ pre
    return defect - r0.conj().T @ r0


@pytest.mark.parametrize("d_p", [2, 3, 4])
@pytest.mark.parametrize("d_s", [1, 2, 3, 4])
def test_defect_operator_matches_the_per_outcome_loop(d_p, d_s):
    model, prep, bases = zero_amplitude_cycle(np.random.default_rng([d_p, d_s]), d_p, d_s, n_steps=3)
    protocol = kp.MeasurementProtocol(model, prep, bases)
    for n in (2, 3):
        for j in range(1, n):
            for fixed in itertools.product(range(d_p), repeat=n - 1):
                batched = kp.kc_defect_operator(protocol, n, j, fixed)
                assert np.max(np.abs(batched - loop_kc_defect_operator(protocol, n, j, fixed))) <= 1e-14


def assert_tensor_matches_single_entries(protocol, rho, n_max):
    for n in range(2, n_max + 1):
        for j in range(1, n):
            tensor = _state_defects(protocol, rho, n, j, kp.DEFAULT)
            assert tensor.shape == (protocol.probe_dim,) * (n - 1)
            for fixed in itertools.product(range(protocol.probe_dim), repeat=n - 1):
                assert abs(kp.kc_defect_state(protocol, rho, n, j, fixed) - tensor[fixed]) <= 1e-14


class TestStateDefectTensor:
    @pytest.mark.parametrize("d_p", [2, 3, 4])
    @pytest.mark.parametrize("d_s", [1, 2, 3, 4])
    def test_every_entry_is_the_single_entry_route(self, d_p, d_s):
        protocol = kp.fourier_protocol(noncommuting_model(10 * d_p + d_s, d_p, d_s), 3)
        assert_tensor_matches_single_entries(
            protocol, random_density(np.random.default_rng(d_p + d_s), d_s), 3
        )

    def test_step_times_protocol(self):
        model = kp.random_model(4, 2, 3, commuting=False)
        protocol = kp.qubit_xy_protocol(model, "XYXY", step_times=(0.3, 1.1, 0.7, 2.9))
        assert_tensor_matches_single_entries(protocol, random_density(np.random.default_rng(4), 3), 4)

    def test_classical_noise_protocol(self):
        protocol = kp.classical_noise_model(kp.random_noise_realization(13, 4), 4)
        assert_tensor_matches_single_entries(protocol, np.array([[1.0]], dtype=complex), 4)


class TestKCDefects:
    def test_commuting_model_state_defect_vanishes(self):
        model = kp.random_model(13, 2, 3, commuting=True)
        protocol = kp.qubit_xy_protocol(model, "YYY")
        rho = random_density(np.random.default_rng(1), 3)
        for n, j in ((2, 1), (3, 1), (3, 2)):
            for fixed in itertools.product(range(2), repeat=n - 1):
                assert abs(kp.kc_defect_state(protocol, rho, n, j, fixed)) <= 1e-10

    def test_anchor_defect_value_one(self, y_protocol, plus_y_state):
        assert kp.kc_defect_state(y_protocol, plus_y_state, 2, 1, (0,)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_blind_spot_at_maximally_mixed(self, y_protocol):
        assert kp.kc_defect_state(y_protocol, I2 / 2, 2, 1, (0,)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_marginalizing_final_step_is_rejected(self, y_protocol):
        with pytest.raises(ProtocolError):
            kp.kc_defect_state(y_protocol, I2 / 2, 2, 2, (0,))

    def test_operator_defect_commuting_model(self):
        model = kp.random_model(29, 2, 4, commuting=True)
        protocol = kp.qubit_xy_protocol(model, "XX")
        defect = kp.kc_defect_operator(protocol, 2, 1, (0,))
        assert frobenius(defect) <= 1e-10

    def test_operator_defect_is_sigma_y(self, y_protocol):
        defect = kp.kc_defect_operator(y_protocol, 2, 1, (0,))
        assert np.allclose(defect, SIGMA_Y, atol=1e-12)

    def test_three_step_defect_trace(self, y_protocol):
        # D = K_+^H sigma_y K_+ and tr(D)/2 = 1/2
        defect = kp.kc_defect_operator(y_protocol, 3, 2, (0, 0))
        k_plus = y_protocol.step_measurements[0].kraus[0]
        assert np.allclose(defect, k_plus.conj().T @ SIGMA_Y @ k_plus, atol=1e-12)
        assert np.trace(defect).real / 2 == pytest.approx(0.5, abs=1e-12)
        assert frobenius(defect) > 0.1


class TestCheckKCAll:
    def test_commuting_model_consistent(self):
        model = kp.random_model(31, 2, 3, commuting=True)
        protocol = kp.qubit_xy_protocol(model, "XYXY")
        report = kp.check_kc_all(protocol, 4)
        assert report.verdict == "consistent"
        assert report.max_operator_defect <= 1e-10
        assert report.decided_by_n2_j1

    def test_sigma_pair_y_protocol_violated(self, y_protocol):
        report = kp.check_kc_all(y_protocol, 2)
        assert report.verdict == "violated"
        assert report.max_operator_defect == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_degenerate_x_protocol_stays_consistent(self, x_protocol):
        report = kp.check_kc_all(x_protocol, 4)
        assert report.verdict == "consistent"
        assert report.max_operator_defect <= 1e-10

    def test_non_finite_defect_is_a_numerical_fault(self, y_protocol, monkeypatch):
        nan_defect = lambda *args: np.full((2, 2), np.nan)  # noqa: E731
        monkeypatch.setattr("kcprobe.sequences.kc_defect_operator", nan_defect)
        with pytest.raises(NumericalFault, match="not finite"):
            kp.check_kc_all(y_protocol, 2)

    def test_state_defects_recorded(self, y_protocol, plus_y_state):
        report = kp.check_kc_all(y_protocol, 2, (plus_y_state, I2 / 2))
        assert report.max_state_defect == pytest.approx(1.0, abs=1e-10)
        entry = report.entries[0]
        assert len(entry.state_defects) == 2

    def test_empty_state_sequence_is_no_state(self, y_protocol):
        report = kp.check_kc_all(y_protocol, 2, [])
        assert report.to_dict() == kp.check_kc_all(y_protocol, 2).to_dict()
        assert report.max_state_defect is None

    def test_final_marginal_always_consistent(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            commuting = bool(rng.integers(2))
            model = kp.random_model(int(rng.integers(1 << 30)), 2, 3, commuting)
            protocol = kp.qubit_xy_protocol(model, "XYY")
            rho = random_density(rng, 3)
            for n in (2, 3):
                dist_n = kp.full_distribution(protocol, rho, n)
                dist_prev = kp.full_distribution(protocol, rho, n - 1)
                marginal = dist_n.marginal_over_step(n)
                for key, value in dist_prev.table.items():
                    assert abs(marginal[key] - value) <= 1e-10

    def test_state_operator_agreement_on_random_tuples(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            d_s = int(rng.integers(2, 5))
            commuting = bool(rng.integers(2))
            model = kp.random_model(int(rng.integers(1 << 30)), 2, d_s, commuting)
            axes = "".join(rng.choice(["X", "Y"]) for _ in range(3))
            protocol = kp.qubit_xy_protocol(model, axes)
            rho = random_density(rng, d_s)
            n = int(rng.integers(2, 4))
            j = int(rng.integers(1, n))
            fixed = tuple(int(x) for x in rng.integers(0, 2, size=n - 1))
            state = kp.kc_defect_state(protocol, rho, n, j, fixed)
            operator = kp.kc_defect_operator(protocol, n, j, fixed)
            assert abs(state - np.trace(rho @ operator).real) <= 1e-11

    def test_commutative_product_form(self):
        rng = np.random.default_rng(123)
        for seed in rng.integers(0, 1 << 30, size=10):
            model = kp.random_model(int(seed), 2, 3, commuting=True)
            protocol = kp.qubit_xy_protocol(model, "XXXX")
            rho = random_density(rng, 3)
            dist = kp.full_distribution(protocol, rho, 4)
            for seq, p in dist.table.items():
                assert abs(p - kp.effect_product_probability(protocol, rho, seq)) <= 1e-10

    def test_blind_spot_for_states_commuting_with_generators(self):
        # noncommuting pair with a block structure the state can share
        h0 = kp.kron(SIGMA_Z, I2)
        h1 = kp.kron(SIGMA_X, I2)
        model = kp.DephasingModel(2, 4, (h0, h1), 0.9)
        protocol = kp.qubit_xy_protocol(model, "YYY")
        assert not kp.is_commutative(model.hamiltonians)[0]
        rng = np.random.default_rng(4)
        rho = kp.kron(I2 / 2, random_density(rng, 2))
        assert max(frobenius(kp.commutator(rho, h)) for h in model.hamiltonians) <= 1e-12
        for m2 in range(2):
            assert abs(kp.kc_defect_state(protocol, rho, 2, 1, (m2,))) <= 1e-10
        # the three-step condition does detect this model
        worst = max(
            abs(kp.kc_defect_state(protocol, rho, 3, 2, fixed))
            for fixed in itertools.product(range(2), repeat=2)
        )
        assert worst > 1e-3


class TestFixedPointCheck:
    def test_identity_is_fixed(self, sigma_model):
        result = kp.fixed_point_check(I2, sigma_model, kp.plus_x_preparation())
        assert result.is_fixed
        assert max(result.commutator_norms) <= 1e-12

    def test_commuting_model_effects_are_fixed(self):
        model = kp.random_model(17, 2, 3, commuting=True)
        protocol = kp.qubit_xy_protocol(model, "X")
        for effect in protocol.step_measurements[0].effects:
            result = kp.fixed_point_check(effect, model, protocol.preparation)
            assert result.is_fixed

    def test_noncommuting_observable_is_not_fixed(self, sigma_model):
        result = kp.fixed_point_check(SIGMA_Z, sigma_model, kp.plus_x_preparation())
        assert not result.is_fixed
        assert result.commutator_norms[1] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_zero_amplitude_preparation_rejected(self, sigma_model):
        prep = kp.PreparationState(np.array([1.0, 0.0]))
        with pytest.raises(PreconditionError):
            kp.fixed_point_check(I2, sigma_model, prep)
