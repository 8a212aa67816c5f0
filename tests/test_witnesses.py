import itertools

import numpy as np
import pytest

import kcprobe as kp
from kcprobe.errors import PreconditionError, ProtocolError
from kcprobe.linalg import check_density
from conftest import random_density, random_pure_state

I2 = np.eye(2, dtype=complex)
PM = {0: 1.0, 1: -1.0}


def trivial_x_protocol(n=2):
    zero = np.zeros((2, 2), dtype=complex)
    model = kp.DephasingModel(2, 2, (zero, zero), 1.0)
    return kp.qubit_xy_protocol(model, "X" * n)


class TestDeltaCorrelation:
    def test_commuting_model_vanishes(self):
        model = kp.random_model(2, 2, 3, commuting=True)
        protocol = kp.qubit_xy_protocol(model, "YY")
        rho = random_density(np.random.default_rng(0), 3)
        assert abs(kp.delta_correlation(protocol, rho, 2, 1, PM)) <= 1e-9

    def test_sigma_pair_reaches_two(self, y_protocol, plus_y_state):
        assert kp.delta_correlation(y_protocol, plus_y_state, 2, 1, PM) == pytest.approx(
            2.0, abs=1e-10
        )

    def test_zero_value_map(self, y_protocol, plus_y_state):
        zero_map = {0: 0.0, 1: 0.0}
        assert kp.delta_correlation(y_protocol, plus_y_state, 2, 1, zero_map) == 0.0

    def test_validates_the_state_once(self, y_protocol, plus_y_state, monkeypatch):
        calls = []

        def counted(rho, tol):
            calls.append(1)
            return check_density(rho, tol)

        monkeypatch.setattr("kcprobe.witnesses.check_density", counted)
        monkeypatch.setattr("kcprobe.sequences.check_density", counted)
        kp.delta_3_2(y_protocol, plus_y_state)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_explicit_defect_sum(self, seed):
        rng = np.random.default_rng([41, seed])
        d_p, d_s = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        model = kp.random_model(seed, d_p, d_s, commuting=False)
        protocol = kp.fourier_protocol(model, 4)
        rho = random_density(rng, d_s)
        values = dict(enumerate(rng.uniform(-1.0, 1.0, d_p)))
        for n in (2, 3, 4):
            for j in range(1, n):
                explicit = 0.0
                for fixed in itertools.product(range(d_p), repeat=n - 1):
                    weight = np.prod([values[m] for m in fixed])
                    explicit += weight * kp.kc_defect_state(protocol, rho, n, j, fixed)
                got = kp.delta_correlation(protocol, rho, n, j, values)
                assert abs(got - explicit) <= 1e-14

    def test_more_steps_than_the_protocol_has(self, y_protocol):
        with pytest.raises(ProtocolError, match="not in 2..3"):
            kp.delta_correlation(y_protocol, I2 / 2, 4, 2, PM)


class TestDelta21:
    def test_commuting_model_vanishes(self):
        model = kp.random_model(3, 2, 4, commuting=True)
        protocol = kp.qubit_xy_protocol(model, "XX")
        rho = random_density(np.random.default_rng(1), 4)
        assert abs(kp.delta_2_1(protocol, rho)) <= 1e-9

    def test_sigma_pair_y_axis(self, y_protocol, plus_y_state):
        assert kp.delta_2_1(y_protocol, plus_y_state) == pytest.approx(2.0, abs=1e-10)

    def test_blind_spot_at_maximally_mixed(self, y_protocol):
        assert kp.delta_2_1(y_protocol, I2 / 2) == pytest.approx(0.0, abs=1e-12)

    def test_axis_mismatch_rejected(self, sigma_model):
        protocol = kp.qubit_xy_protocol(sigma_model, "XY")
        with pytest.raises(ProtocolError):
            kp.delta_2_1(protocol, I2 / 2)

    def test_agrees_with_delta_correlation(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            d_s = int(rng.integers(2, 5))
            model = kp.random_model(int(rng.integers(1 << 30)), 2, d_s, bool(rng.integers(2)))
            axis = "X" if rng.integers(2) else "Y"
            protocol = kp.qubit_xy_protocol(model, axis * 2)
            rho = random_density(rng, d_s)
            a = kp.delta_2_1(protocol, rho)
            b = kp.delta_correlation(protocol, rho, 2, 1, PM)
            assert abs(a - b) <= 1e-12

    def test_matches_table_sum(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            d_s = int(rng.integers(2, 4))
            model = kp.random_model(int(rng.integers(1 << 30)), 2, d_s, bool(rng.integers(2)))
            axis = "X" if rng.integers(2) else "Y"
            protocol = kp.qubit_xy_protocol(model, axis * 2)
            rho = random_density(rng, d_s)
            dist2 = kp.full_distribution(protocol, rho, 2)
            dist1 = kp.full_distribution(protocol.drop_step(1), rho, 1)
            explicit = 0.0
            for m2 in range(2):
                term = sum(dist2.table[(m1, m2)] for m1 in range(2)) - dist1.table[(m2,)]
                explicit += PM[m2] * term
            assert abs(kp.delta_2_1(protocol, rho) - explicit) <= 1e-12


class TestDelta32:
    def test_commuting_model_vanishes(self):
        model = kp.random_model(4, 2, 3, commuting=True)
        protocol = kp.qubit_xy_protocol(model, "YYY")
        rho = random_density(np.random.default_rng(2), 3)
        assert abs(kp.delta_3_2(protocol, rho)) <= 1e-9

    def test_sigma_pair_detects_blind_spot_state(self, y_protocol):
        # n=2 witness is blind at the maximally mixed state; n=3, j=2 is not
        component = kp.kc_defect_state(y_protocol, I2 / 2, 3, 2, (0, 0))
        assert abs(component) == pytest.approx(0.5, abs=1e-10)
        assert kp.delta_3_2(y_protocol, I2 / 2) == pytest.approx(2.0, abs=1e-10)

    def test_matches_table_double_sum(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            d_s = int(rng.integers(2, 4))
            model = kp.random_model(int(rng.integers(1 << 30)), 2, d_s, bool(rng.integers(2)))
            axis = "X" if rng.integers(2) else "Y"
            protocol = kp.qubit_xy_protocol(model, axis * 3)
            rho = random_density(rng, d_s)
            dist3 = kp.full_distribution(protocol, rho, 3)
            dist2 = kp.full_distribution(protocol.drop_step(2), rho, 2)
            explicit = 0.0
            for m1, m3 in itertools.product(range(2), repeat=2):
                term = sum(dist3.table[(m1, m2, m3)] for m2 in range(2))
                term -= dist2.table[(m1, m3)]
                explicit += PM[m3] * PM[m1] * term
            assert abs(kp.delta_3_2(protocol, rho) - explicit) <= 1e-11


class TestLGCheck:
    def test_commuting_model_satisfied(self):
        model = kp.random_model(6, 2, 3, commuting=True)
        protocol = kp.qubit_xy_protocol(model, "XX")
        rho = random_density(np.random.default_rng(3), 3)
        result = kp.lg_check(protocol, rho)
        assert abs(result.delta) <= 1e-9
        assert result.lg_satisfied

    def test_trivial_evolution(self):
        result = kp.lg_check(trivial_x_protocol(), I2 / 2)
        assert result.p2_plus_plus == pytest.approx(1.0)
        assert result.p1_plus == pytest.approx(1.0)
        assert result.lg_satisfied

    def test_requires_x_axis(self, y_protocol):
        with pytest.raises(ProtocolError):
            kp.lg_check(y_protocol, I2 / 2)

    def test_search_finds_reproducible_violation(self):
        findings = kp.lg_violation_search(20240811, 40)
        assert findings
        first = findings[0]
        protocol, rho = kp.lg_search_instance(first.seed, first.index)
        result = kp.lg_check(protocol, rho)
        assert not result.lg_satisfied
        assert result.p2_plus_plus == pytest.approx(first.p2_plus_plus, abs=1e-12)
        assert not kp.is_commutative(protocol.model.hamiltonians)[0]

    def test_search_requires_trials(self):
        with pytest.raises(PreconditionError):
            kp.lg_violation_search(1, 0)


class TestWitnessesVanishWhenOperatorConsistent:
    def test_degenerate_x_instance_and_commuting_models(self):
        rng = np.random.default_rng(99)
        cases = [kp.degenerate_qubit_instance()]
        cases += [
            kp.random_model(int(rng.integers(1 << 30)), 2, 3, commuting=True) for _ in range(3)
        ]
        for model in cases:
            protocol = kp.qubit_xy_protocol(model, "XXX")
            report = kp.check_kc_all(protocol, 3)
            assert report.consistent
            for _ in range(100):
                rho = random_pure_state(rng, model.system_dim)
                assert abs(kp.delta_2_1(protocol, rho)) <= 1e-9
                assert abs(kp.delta_3_2(protocol, rho)) <= 1e-9
                lg = kp.lg_check(protocol, rho)
                assert abs(lg.delta) <= 1e-9 and lg.lg_satisfied


class TestWitnessReport:
    def test_verdict_and_fingerprint(self, y_protocol, plus_y_state):
        value = kp.delta_2_1(y_protocol, plus_y_state)
        report = kp.witness_report("delta21_y", value, y_protocol, {"state": "plus_y"})
        assert report.verdict == "nonzero"
        assert len(report.model_fingerprint) == 16
        again = kp.witness_report("delta21_y", value, y_protocol, {"state": "plus_y"})
        assert report.model_fingerprint == again.model_fingerprint

    def test_zero_verdict(self):
        protocol = trivial_x_protocol()
        report = kp.witness_report("delta21_x", 0.0, protocol)
        assert report.verdict == "zero"
