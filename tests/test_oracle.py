import numpy as np
import pytest

import kcprobe as kp
from kcprobe.errors import LabelError, ProtocolError
from kcprobe.sequences import _state_defects

from conftest import random_density, transposed_pull_back

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


@pytest.mark.parametrize("n_max", [4, 10])
def test_n_max_beyond_the_protocol_is_a_protocol_error(y_protocol, plus_y_state, n_max):
    # the same n_max raises in check_kc_all and full_distribution; it is not clamped
    with pytest.raises(ProtocolError, match=f"^n_max = {n_max} not in 1..3$"):
        kp.oracle_compare(y_protocol, plus_y_state, n_max)


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


def test_a_slip_in_the_scan_disagrees(monkeypatch):
    # the defect gate reads the operator scan, so a wrong pull-back there
    # shows against the naive Kraus chains, on every random qubit model
    monkeypatch.setattr("kcprobe.sequences._pull_back", transposed_pull_back)
    for seed in range(5):
        protocol = kp.qubit_xy_protocol(kp.random_model(seed, 2, 2, commuting=False), "XYX")
        report = kp.oracle_compare(protocol, random_density(np.random.default_rng(seed), 2), 3)
        assert report.max_abs_discrepancy <= 1e-11
        assert not report.agrees


@pytest.mark.parametrize("n_max", [0, -1])
def test_n_max_below_one_is_a_protocol_error(y_protocol, plus_y_state, n_max):
    with pytest.raises(ProtocolError, match="n_max"):
        kp.oracle_compare(y_protocol, plus_y_state, n_max)


# Each naive route checks its own labels: a non-integral one is refused, not
# truncated; numpy integers pass; an out-of-range one names its position.
NAIVE_ROUTES = {
    "naive_sequence_probability": lambda p, seq: kp.naive_sequence_probability(p, I2 / 2, seq),
    "effect_product_probability": lambda p, seq: kp.effect_product_probability(p, I2 / 2, seq),
    "naive_kc_defect": lambda p, seq: kp.naive_kc_defect(p, I2 / 2, 3, 1, seq),
}


@pytest.mark.parametrize("route", list(NAIVE_ROUTES))
def test_naive_routes_refuse_labels_the_fast_route_refuses(y_protocol, route):
    call = NAIVE_ROUTES[route]
    with pytest.raises(LabelError, match="must be integers"):
        call(y_protocol, (0.9, 1))
    assert call(y_protocol, (np.int64(1), np.uint8(0))) == call(y_protocol, (1, 0))
    with pytest.raises(LabelError, match="outcome 2 at position 2 is not in 0..1"):
        call(y_protocol, (0, 2))
    with pytest.raises(LabelError, match="outcome -1 at position 1"):
        call(y_protocol, (-1, 0))


# Each naive route also checks its own lengths and (n, j), in code of its own,
# where it used to raise IndexError or answer a question the fast route refuses.
@pytest.mark.parametrize("route", ["naive_sequence_probability", "effect_product_probability"])
@pytest.mark.parametrize("seq", [(), (0, 1, 0, 1)])
def test_naive_probabilities_refuse_a_length_the_protocol_lacks(y_protocol, route, seq):
    with pytest.raises(ProtocolError, match=f"^{len(seq)} outcomes for a protocol of 3 steps$"):
        NAIVE_ROUTES[route](y_protocol, seq)


@pytest.mark.parametrize("fixed", [(0,), (0, 1, 0)])
def test_naive_kc_defect_refuses_a_wrong_length_fixed(y_protocol, fixed):
    with pytest.raises(ProtocolError, match=f"^need 2 fixed outcomes, got {len(fixed)}$"):
        kp.naive_kc_defect(y_protocol, I2 / 2, 3, 1, fixed)


@pytest.mark.parametrize(
    "n, j, message",
    [
        (3, 3, "j = 3 not in 1..2"),
        (3, 0, "j = 0 not in 1..2"),
        (1, 1, "n = 1 not in 2..3"),
        (4, 1, "n = 4 not in 2..3"),
    ],
)
def test_naive_kc_defect_refuses_what_the_fast_route_refuses(y_protocol, n, j, message):
    fixed = (0,) * (n - 1)
    with pytest.raises(ProtocolError):
        kp.kc_defect_state(y_protocol, I2 / 2, n, j, fixed)
    with pytest.raises(ProtocolError, match=f"^{message}"):
        kp.naive_kc_defect(y_protocol, I2 / 2, n, j, fixed)


@pytest.mark.parametrize("n", [0, 4])
def test_naive_distribution_refuses_n_outside_the_protocol(y_protocol, n):
    with pytest.raises(ProtocolError, match=f"^n = {n} not in 1..3$"):
        kp.naive_distribution(y_protocol, I2 / 2, n)
