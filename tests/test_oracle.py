import numpy as np
import pytest

import kcprobe as kp
from kcprobe.errors import ProtocolError
from kcprobe.sequences import _state_defects

from conftest import random_density

I2 = np.eye(2, dtype=complex)


def test_naive_and_fast_paths_agree_on_random_models():
    rng = np.random.default_rng(31)
    for _ in range(15):
        d_s = int(rng.integers(2, 5))
        model = kp.random_model(int(rng.integers(1 << 30)), 2, d_s, bool(rng.integers(2)))
        axes = "".join(rng.choice(["X", "Y"]) for _ in range(4))
        protocol = kp.qubit_xy_protocol(model, axes)
        rho = random_density(rng, d_s)
        report = kp.oracle_compare(protocol, rho, 4)
        assert report.max_abs_discrepancy <= 1e-11
        assert report.max_defect_discrepancy <= 1e-11


def test_oracle_reproduces_anchor_defect(y_protocol, plus_y_state):
    value = kp.naive_kc_defect(y_protocol, plus_y_state, 2, 1, (0,))
    assert value == pytest.approx(1.0, abs=1e-10)
    assert value == pytest.approx(
        kp.kc_defect_state(y_protocol, plus_y_state, 2, 1, (0,)), abs=1e-11
    )


def test_commuting_model_product_form_is_a_third_route():
    model = kp.random_model(77, 2, 3, commuting=True)
    protocol = kp.qubit_xy_protocol(model, "XYXY")
    rho = random_density(np.random.default_rng(2), 3)
    report = kp.oracle_compare(protocol, rho, 4)
    assert report.commutative
    assert report.max_product_form_discrepancy is not None
    assert report.max_product_form_discrepancy <= 1e-10
    assert report.agrees


def test_noncommutative_model_skips_product_form(y_protocol, plus_y_state):
    report = kp.oracle_compare(y_protocol, plus_y_state, 2)
    assert not report.commutative
    assert report.max_product_form_discrepancy is None


def test_oracle_on_probe_dimension_three():
    model = kp.random_model(5, 3, 3, commuting=False)
    protocol = kp.fourier_protocol(model, 3)
    rho = random_density(np.random.default_rng(8), 3)
    report = kp.oracle_compare(protocol, rho, 3)
    assert report.max_abs_discrepancy <= 1e-11


def test_oracle_on_classical_noise_protocol():
    realization = kp.random_noise_realization(13, 4)
    protocol = kp.classical_noise_model(realization, 4)
    report = kp.oracle_compare(protocol, np.array([[1.0]], dtype=complex), 4)
    assert report.max_abs_discrepancy <= 1e-11
    assert report.commutative


@pytest.mark.parametrize(
    "defect, product, agrees",
    [(0.0, None, True), (1e-3, None, False), (0.0, 0.0, True), (0.0, 1e-3, False)],
)
def test_agreement_gates_every_discrepancy(defect, product, agrees):
    report = kp.OracleReport(3, 0.0, (0.0,) * 3, defect, product is not None, product, kp.DEFAULT.as_dict())
    assert report.agrees is agrees
    assert report.to_dict()["agrees"] is agrees


def test_a_shifted_defect_route_disagrees(y_protocol, plus_y_state, monkeypatch):
    def shifted(*args):
        return _state_defects(*args) + 1e-3

    monkeypatch.setattr("kcprobe.oracle._state_defects", shifted)
    report = kp.oracle_compare(y_protocol, plus_y_state, 3)
    assert report.max_abs_discrepancy <= 1e-11
    assert report.max_defect_discrepancy == pytest.approx(1e-3)
    assert not report.agrees


@pytest.mark.parametrize("n_max", [0, -1])
def test_n_max_below_one_is_a_protocol_error(y_protocol, plus_y_state, n_max):
    with pytest.raises(ProtocolError, match="n_max"):
        kp.oracle_compare(y_protocol, plus_y_state, n_max)
