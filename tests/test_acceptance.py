"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints one pass/fail line (visible with ``pytest -s``).
Ensembles are seeded module-scoped fixtures shared across criteria; the
final criterion replays every sampled configuration through the naive
oracle path.
"""

import functools
import itertools

import numpy as np
import pytest

import kcprobe as kp
from kcprobe.linalg import frobenius

from conftest import random_density, random_hermitian

I2 = np.eye(2, dtype=complex)
PM = {0: 1.0, 1: -1.0}

LG_SEARCH_SEED = 20240811


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({name}): FAIL")
                raise
            print(f"criterion {number} ({name}): PASS")

        return run

    return wrap


def _full_support_preparation(rng, d_p):
    while True:
        amps = rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p)
        amps = amps / np.linalg.norm(amps)
        if np.min(np.abs(amps) ** 2) >= 0.02:
            return kp.PreparationState(amps)


def _random_basis_protocol(rng, model, n_steps):
    bases = tuple(
        kp.MeterBasis(kp.haar_unitary(model.probe_dim, rng), tuple(map(str, range(model.probe_dim))))
        for _ in range(n_steps)
    )
    return kp.MeasurementProtocol(model, _full_support_preparation(rng, model.probe_dim), bases)


def _single_basis_protocol(rng, model, n_steps):
    basis = kp.MeterBasis(
        kp.haar_unitary(model.probe_dim, rng), tuple(map(str, range(model.probe_dim)))
    )
    return kp.MeasurementProtocol(
        model, _full_support_preparation(rng, model.probe_dim), (basis,) * n_steps
    )


@pytest.fixture(scope="module")
def commuting_ensemble():
    """100 commuting models with per-step random meter bases and 20 states each."""
    dims = list(itertools.product((2, 3), (2, 3, 4)))
    cases = []
    for i in range(100):
        d_p, d_s = dims[i % len(dims)]
        model = kp.random_model(1000 + i, d_p, d_s, commuting=True)
        rng = np.random.default_rng([9000, i])
        protocol = _random_basis_protocol(rng, model, 4)
        rhos = tuple(random_density(rng, d_s) for _ in range(20))
        cases.append((model, protocol, rhos))
    return cases


@pytest.fixture(scope="module")
def lemma_ensemble():
    """200 mixed models with one fixed random meter basis reused at every step."""
    dims = list(itertools.product((2, 3), (2, 3, 4)))
    cases = []
    for i in range(200):
        d_p, d_s = dims[i % len(dims)]
        model = kp.random_model(2000 + i, d_p, d_s, commuting=(i % 2 == 0))
        rng = np.random.default_rng([9100, i])
        protocol = _single_basis_protocol(rng, model, 4)
        cases.append((model, protocol, random_density(rng, d_s)))
    return cases


@pytest.fixture(scope="module")
def qubit_ensemble():
    """200 qubit-probe models with X and Y three-step protocols."""
    cases = []
    for i in range(200):
        rng = np.random.default_rng([9200, i])
        d_s = (2, 3, 4)[i % 3]
        t = float(rng.uniform(0.3, 1.5))
        model = kp.random_model(4000 + i, 2, d_s, commuting=(i % 2 == 0), step_time=t)
        cases.append(
            (
                model,
                kp.qubit_xy_protocol(model, "XXX"),
                kp.qubit_xy_protocol(model, "YYY"),
                random_density(rng, d_s),
            )
        )
    return cases


@pytest.fixture(scope="module")
def witness_ensemble():
    """50 qubit models with same-axis protocols and one state each."""
    cases = []
    for i in range(50):
        rng = np.random.default_rng([9300, i])
        d_s = (2, 3, 4)[i % 3]
        model = kp.random_model(5000 + i, 2, d_s, commuting=(i % 4 == 0))
        axis = "X" if i % 2 == 0 else "Y"
        protocol = kp.qubit_xy_protocol(model, axis * 3)
        cases.append((model, protocol, random_density(rng, d_s)))
    return cases


@pytest.fixture(scope="module")
def noise_cases():
    realizations = [kp.random_noise_realization(7000 + i, 5) for i in range(50)]
    mixtures = []
    for i in range(10):
        rng = np.random.default_rng([9400, i])
        members = [
            kp.random_noise_realization(int(s), 5) for s in rng.integers(0, 1 << 30, size=4)
        ]
        weights = rng.uniform(0.2, 1.0, size=4)
        mixtures.append((members, weights / weights.sum()))
    return realizations, mixtures


@pytest.fixture(scope="module")
def anchor_protocol():
    return kp.qubit_xy_protocol(kp.degenerate_qubit_instance(), "YYY")


@criterion(1, "commutative implies consistency")
def test_criterion_1(commuting_ensemble):
    for model, protocol, rhos in commuting_ensemble:
        report = kp.check_kc_all(protocol, 4, rhos)
        assert report.max_operator_defect <= 1e-9, report.max_operator_defect
        assert report.max_state_defect <= 1e-9, report.max_state_defect


@criterion(2, "single-basis consistency equivalence")
def test_criterion_2(lemma_ensemble):
    disagreements = 0
    for model, protocol, _rho in lemma_ensemble:
        effects = protocol.step_measurements[0].effects
        predicate = (
            max(
                frobenius(kp.commutator(h, e))
                for h in model.hamiltonians
                for e in effects
            )
            <= 1e-9
        )
        n2_consistent = all(
            frobenius(kp.kc_defect_operator(protocol, 2, 1, (m,))) <= 1e-9
            for m in range(model.probe_dim)
        )
        if predicate != n2_consistent:
            disagreements += 1
        if n2_consistent:
            report = kp.check_kc_all(protocol, 4)
            assert report.max_operator_defect <= 1e-9
    assert disagreements == 0


@criterion(3, "nondegenerate effects decide commutativity")
def test_criterion_3(lemma_ensemble):
    qualifying = 0
    disagreements = 0
    gap = kp.DEFAULT.replace(gap=1e-6)
    for model, protocol, _rho in lemma_ensemble:
        effects = protocol.step_measurements[0].effects
        if not all(kp.effect_nondegenerate(e, gap)[0] for e in effects):
            continue
        qualifying += 1
        consistent = kp.check_kc_all(protocol, 3).consistent
        commutative, _ = kp.is_commutative(model.hamiltonians)
        if consistent != commutative:
            disagreements += 1
    assert qualifying >= 100, f"only {qualifying} qualifying samples"
    assert disagreements == 0


@criterion(4, "two-axis equivalence for a qubit probe")
def test_criterion_4(qubit_ensemble):
    disagreements = 0
    for model, x_protocol, y_protocol, _rho in qubit_ensemble:
        both_consistent = (
            kp.check_kc_all(x_protocol, 3).consistent
            and kp.check_kc_all(y_protocol, 3).consistent
        )
        commuting = frobenius(kp.commutator(*model.hamiltonians)) <= 1e-9
        if both_consistent != commuting:
            disagreements += 1
    assert disagreements == 0
    # the degenerate single-axis counterexample
    model = kp.degenerate_qubit_instance()
    assert kp.check_kc_all(kp.qubit_xy_protocol(model, "XXX"), 3).consistent
    assert not kp.check_kc_all(kp.qubit_xy_protocol(model, "YY"), 2).consistent
    assert not kp.is_commutative(model.hamiltonians)[0]


@criterion(5, "anchored scalar defects")
def test_criterion_5(anchor_protocol, plus_y_state):
    protocol = anchor_protocol
    assert kp.kc_defect_state(protocol, plus_y_state, 2, 1, (0,)) == pytest.approx(
        1.0, abs=1e-10
    )
    assert abs(kp.kc_defect_state(protocol, I2 / 2, 3, 2, (0, 0))) == pytest.approx(
        0.5, abs=1e-10
    )
    assert kp.kc_defect_state(protocol, I2 / 2, 2, 1, (0,)) == pytest.approx(
        0.0, abs=1e-11
    )
    # oracle cross-checks of the same three values
    assert kp.naive_kc_defect(protocol, plus_y_state, 2, 1, (0,)) == pytest.approx(
        1.0, abs=1e-10
    )
    assert abs(kp.naive_kc_defect(protocol, I2 / 2, 3, 2, (0, 0))) == pytest.approx(
        0.5, abs=1e-10
    )
    assert kp.naive_kc_defect(protocol, I2 / 2, 2, 1, (0,)) == pytest.approx(
        0.0, abs=1e-11
    )


@criterion(6, "witness definitions agree")
def test_criterion_6(witness_ensemble):
    for _model, protocol, rho in witness_ensemble:
        two = protocol.prefix(2)
        assert abs(
            kp.delta_2_1(two, rho) - kp.delta_correlation(two, rho, 2, 1, PM)
        ) <= 1e-12
        dist3 = kp.full_distribution(protocol, rho, 3)
        dist2 = kp.full_distribution(protocol.drop_step(2), rho, 2)
        explicit = 0.0
        for m1, m3 in itertools.product(range(2), repeat=2):
            term = sum(dist3.table[(m1, m2, m3)] for m2 in range(2)) - dist2.table[(m1, m3)]
            explicit += PM[m3] * PM[m1] * term
        assert abs(kp.delta_3_2(protocol, rho) - explicit) <= 1e-11


@criterion(7, "two-measurement inequality")
def test_criterion_7(commuting_ensemble):
    checked = 0
    for model, _protocol, rhos in commuting_ensemble:
        if model.probe_dim != 2:
            continue
        checked += 1
        result = kp.lg_check(kp.qubit_xy_protocol(model, "XX"), rhos[0])
        assert abs(result.delta) <= 1e-9
        assert result.lg_satisfied
    assert checked >= 40
    findings = kp.lg_violation_search(LG_SEARCH_SEED, 40)
    assert findings, "seeded search found no inequality violation"
    first = findings[0]
    protocol, rho = kp.lg_search_instance(first.seed, first.index)
    replay = kp.lg_check(protocol, rho)
    assert not replay.lg_satisfied
    assert replay.delta == pytest.approx(first.delta, abs=1e-12)
    assert not kp.is_commutative(protocol.model.hamiltonians)[0]


@criterion(8, "fixed points are the commutant")
def test_criterion_8():
    disagreements = 0
    for i in range(50):
        rng = np.random.default_rng([9500, i])
        d_p = (2, 3)[i % 2]
        d_s = (2, 3, 4)[i % 3]
        model = kp.random_model(6000 + i, d_p, d_s, commuting=(i % 4 == 0))
        prep = _full_support_preparation(rng, d_p)
        commutant = kp.commutant_basis(kp.conditional_unitaries(model))
        samples = [random_hermitian(rng, d_s) for _ in range(100)]
        # plus engineered members, so both sides of the equivalence appear
        for a in samples[:10]:
            proj = np.zeros_like(a)
            for b in commutant.basis:
                proj = proj + kp.hs_inner(b, a) * b
            samples.append((proj + proj.conj().T) / 2)
        for a in samples:
            mapped = kp.nonselective_apply(model, prep, a, "observable")
            fixed = frobenius(mapped - a) <= 1e-10
            member = commutant.projection_residual(a) <= 1e-8
            if fixed != member:
                disagreements += 1
    assert disagreements == 0


@criterion(9, "spin-bath scenario limits")
def test_criterion_9():
    zero_field = kp.nv_center_model(1, 0.0, 0.3, (0.8, 0.5, 0.4))
    longitudinal = kp.nv_center_model(2, 1.2, 0.0, [[0, 0, 1.1], [0, 0, 0.6]])
    for model in (zero_field, longitudinal):
        assert kp.is_commutative(model.hamiltonians)[0]
        for axis in "XY":
            assert kp.check_kc_all(kp.qubit_xy_protocol(model, axis * 3), 3).consistent
    base = kp.nv_center_model(1, 1.0, 0.0, (1.0, 0.0, 0.0))
    _, comm = kp.is_commutative(base.hamiltonians)
    assert comm == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-10)
    worst = 0.0
    for k in range(1, 21):
        model = base.with_step_time(0.1 * k)
        for axis in "XY":
            report = kp.check_kc_all(kp.qubit_xy_protocol(model, axis * 2), 2)
            worst = max(worst, report.max_operator_defect)
    assert worst > 1e-3


@criterion(10, "classical noise stays consistent")
def test_criterion_10(noise_cases):
    realizations, mixtures = noise_cases
    for realization in realizations:
        protocol = kp.classical_noise_model(realization, 5)
        report = kp.check_kc_all(protocol, 5)
        assert report.max_operator_defect <= 1e-10
    for members, weights in mixtures:
        assert kp.ensemble_kc_max_defect(members, weights, 5) <= 1e-10
    quarter = kp.classical_noise_model(kp.NoiseRealization((np.pi / 4,), (1.0,)), 1)
    e_plus = quarter.step_measurements[0].effects[0][0, 0].real
    assert e_plus == pytest.approx(0.5, abs=1e-12)


@criterion(11, "oracle agreement across all sampled configurations")
def test_criterion_11(
    commuting_ensemble,
    lemma_ensemble,
    qubit_ensemble,
    witness_ensemble,
    noise_cases,
    anchor_protocol,
    plus_y_state,
):
    runs = []
    for _model, protocol, rhos in commuting_ensemble:
        runs.append((protocol, rhos[0], 4))
    for _model, protocol, rho in lemma_ensemble:
        runs.append((protocol, rho, 4))
    for _model, x_protocol, y_protocol, rho in qubit_ensemble:
        runs.append((x_protocol, rho, 3))
        runs.append((y_protocol, rho, 3))
    for _model, protocol, rho in witness_ensemble:
        runs.append((protocol, rho, 3))
    for realization in noise_cases[0][:5]:
        runs.append((kp.classical_noise_model(realization, 4), np.array([[1.0]]), 4))
    runs.append((anchor_protocol, plus_y_state, 3))
    runs.append((anchor_protocol, I2 / 2, 3))
    base = kp.nv_center_model(1, 1.0, 0.0, (1.0, 0.0, 0.0))
    for t in (0.5, 1.0, 2.0):
        for axis in "XY":
            protocol = kp.qubit_xy_protocol(base.with_step_time(t), axis * 3)
            runs.append((protocol, I2 / 2, 3))
    lg_protocol, lg_rho = kp.lg_search_instance(LG_SEARCH_SEED, 0)
    runs.append((lg_protocol, lg_rho, 2))
    worst = 0.0
    for protocol, rho, n_max in runs:
        report = kp.oracle_compare(protocol, rho, n_max)
        worst = max(worst, report.max_abs_discrepancy, report.max_defect_discrepancy)
    assert worst <= 1e-11, worst
