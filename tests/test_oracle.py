import ast
import dataclasses
import inspect
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import kcprobe as kp
import kcprobe.oracle
from kcprobe.errors import InvariantViolation, LabelError, NumericalFault, ProtocolError
from kcprobe.oracle import (
    _all_outcomes,
    _chain_effects,
    _chain_probabilities,
    _defect_gaps,
    _effect_products,
    _naive_defects,
)
from kcprobe.sequences import _TRANSFER_MAX_DIM, PREFIX_BLOCK_BYTES, _pull

from conftest import (
    nan_chain,
    random_density,
    random_hermitian,
    shifted_blocks,
    swapped_pull_back,
    swapped_transfer,
    transposed_pull_back,
    transposed_transfer,
)

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


def test_the_gated_discrepancies_are_fields_named_in_one_place():
    fields = [f.name for f in dataclasses.fields(kp.OracleReport)]
    assert "GATED" not in fields
    assert [name for name in fields if name in kp.OracleReport.GATED] == list(kp.OracleReport.GATED)


NAIVE_READERS = {
    "naive_sequence_probability": lambda p, rho: kp.naive_sequence_probability(p, rho, (0, 1)),
    "naive_distribution": lambda p, rho: kp.naive_distribution(p, rho, 2),
    "naive_kc_defect": lambda p, rho: kp.naive_kc_defect(p, rho, 2, 1, (0,)),
    "effect_product_probability": lambda p, rho: kp.effect_product_probability(p, rho, (0, 1)),
}


@pytest.mark.parametrize("reader", list(NAIVE_READERS))
def test_the_naive_readers_validate_the_state(y_protocol, reader):
    read = NAIVE_READERS[reader]
    with pytest.raises(ProtocolError, match=r"^state shape \(3, 3\) does not match operator \(2, 2\)$"):
        read(y_protocol, np.eye(3, dtype=complex) / 3)
    for bad in (np.full((2, 2), np.nan), np.diag([1.5, -0.5])):
        with pytest.raises(InvariantViolation):
            read(y_protocol, bad)
    read(y_protocol, I2 / 2)


def test_a_shifted_defect_route_disagrees(y_protocol, plus_y_state, monkeypatch):
    # every D gains 1e-3 times the identity, whose Frobenius norm is 1e-3 sqrt(2)
    monkeypatch.setattr("kcprobe.oracle._defect_blocks", shifted_blocks(1e-3 * I2))
    report = kp.oracle_compare(y_protocol, plus_y_state, 3)
    assert report.max_abs_discrepancy <= 1e-11
    assert report.max_defect_discrepancy == pytest.approx(1e-3 * np.sqrt(2))
    assert not report.agrees


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_a_traceless_slip_disagrees_at_the_maximally_mixed_state(monkeypatch, eps):
    # tr(D / d) cannot see eps T for a traceless T, so only a gate on the
    # whole operator defect catches it; both bindings of the scan slip
    d_s = 3
    slip = np.diag([1.0, -1.0, 0.0]).astype(complex)
    for target in ("kcprobe.sequences._defect_blocks", "kcprobe.oracle._defect_blocks"):
        monkeypatch.setattr(target, shifted_blocks(eps * slip), raising=False)
    protocol = kp.qubit_xy_protocol(kp.random_model(4, 2, d_s, commuting=False), "XYX")
    report = kp.oracle_compare(protocol, np.eye(d_s, dtype=complex) / d_s, 3)
    assert report.max_abs_discrepancy <= 1e-11
    assert report.max_defect_discrepancy == pytest.approx(eps * np.sqrt(2), rel=1e-6)
    assert not report.agrees


@pytest.mark.parametrize(
    "target, d_s, slip",
    [("_transfer", 2, transposed_transfer), ("_pull_back", _TRANSFER_MAX_DIM + 1, transposed_pull_back)],
    ids=["transfer", "matrices"],
)
def test_a_transposed_step_is_a_numerical_fault(monkeypatch, target, d_s, slip):
    # K^T X K in place of K^H X K breaks the fast probabilities too, which
    # read the same pull-back, so the Born-rule guard raises on every model
    monkeypatch.setattr(f"kcprobe.sequences.{target}", slip)
    for seed in range(5):
        protocol = kp.qubit_xy_protocol(kp.random_model(seed, 2, d_s, commuting=False), "XYX")
        with pytest.raises(NumericalFault, match="probability|distribution"):
            kp.oracle_compare(protocol, random_density(np.random.default_rng(seed), d_s), 3)


@pytest.mark.parametrize(
    "target, d_s, slip",
    [("_transfer", 2, swapped_transfer), ("_pull_back", _TRANSFER_MAX_DIM + 1, swapped_pull_back)],
    ids=["transfer", "matrices"],
)
def test_an_outcome_swap_in_the_scan_disagrees(monkeypatch, target, d_s, slip):
    # swapped outcomes keep every probability in [0, 1] and their sum at 1,
    # so only the naive Kraus chains show them, on every random model
    monkeypatch.setattr(f"kcprobe.sequences.{target}", slip)
    for seed in range(5):
        protocol = kp.qubit_xy_protocol(kp.random_model(seed, 2, d_s, commuting=False), "XYX")
        report = kp.oracle_compare(protocol, random_density(np.random.default_rng(seed), d_s), 3)
        assert report.max_abs_discrepancy > 1e-2
        assert report.max_defect_discrepancy > 1e-2
        assert not report.agrees


def adjoint_pull(protocol, k, stack, m=None):
    """The scan's Heisenberg step with ``K_m X K_m^H`` in place of
    ``K_m^H X K_m``, the products in the wrong order."""
    kraus = np.asarray(protocol.step_measurements[k].kraus)
    step = SimpleNamespace(kraus=kraus.conj().swapaxes(1, 2))
    return _pull(SimpleNamespace(step_measurements={k: step}), k, stack, m)


@pytest.mark.parametrize("d_s", [3, _TRANSFER_MAX_DIM + 1])
def test_a_wrong_product_order_disagrees(monkeypatch, d_s):
    # the stacked naive chains share no product with the fast route, so a
    # product taken in the wrong order there shows on every random model;
    # the dephasing channel is unital, so each distribution still sums to 1
    monkeypatch.setattr("kcprobe.sequences._pull", adjoint_pull)
    for seed in range(5):
        protocol = kp.qubit_xy_protocol(kp.random_model(seed, 2, d_s, commuting=False), "XYX")
        report = kp.oracle_compare(protocol, random_density(np.random.default_rng(seed), d_s), 3)
        assert not report.agrees


@pytest.mark.parametrize(
    "steps, row, gate",
    [
        ((0,), (1,), "max_abs_discrepancy"),  # an n = 1 chain: only the probabilities read it
        ((0, 2), (1, 1), "max_defect_discrepancy"),  # the reduced chain of (n, j) = (3, 2)
    ],
    ids=["probabilities", "defects"],
)
def test_a_nan_discrepancy_disagrees(monkeypatch, steps, row, gate):
    # the NaN sits at a sequence other than the first, where a fold with
    # Python's max would drop it
    monkeypatch.setattr("kcprobe.oracle._chain_effects", nan_chain(steps, row))
    protocol = kp.qubit_xy_protocol(kp.random_model(3, 2, 2, commuting=False), "XYX")
    report = kp.oracle_compare(protocol, random_density(np.random.default_rng(3), 2), 3)
    other = ({"max_abs_discrepancy", "max_defect_discrepancy"} - {gate}).pop()
    assert np.isnan(getattr(report, gate))
    assert getattr(report, other) <= 1e-11
    assert not report.agrees


def loop_chain(protocol, seq, steps):
    """``K``, applied one step at a time to the identity."""
    r = np.eye(protocol.system_dim, dtype=complex)
    for step, m in zip(steps, seq):
        r = protocol.step_measurements[step].kraus[m] @ r
    return r


def loop_chain_probability(protocol, rho, seq, steps):
    """``tr(rho K^H K)`` of :func:`loop_chain`."""
    r = loop_chain(protocol, seq, steps)
    return float(np.trace(rho @ r.conj().T @ r).real)


def loop_chain_effect(protocol, seq, steps):
    """``K^H K`` of :func:`loop_chain`."""
    r = loop_chain(protocol, seq, steps)
    return r.conj().T @ r


def stacked_effects(protocol, seqs, steps):
    """Every effect of :func:`_chain_effects`, its stacks checked to follow on."""
    stacks = list(_chain_effects(protocol, seqs, steps))
    assert [lo for lo, _ in stacks] == list(itertools.accumulate((len(e) for _, e in stacks[:-1]), initial=0))
    return np.concatenate([effects for _, effects in stacks])


def distinct_steps_protocol(rng, d_p, d_s, n_steps):
    """A random model with a random meter basis and duration at each step."""
    hams = tuple(random_hermitian(rng, d_s) for _ in range(d_p))
    model = kp.DephasingModel(d_p, d_s, hams, 1.0)
    bases = tuple(
        kp.MeterBasis(kp.haar_unitary(d_p, rng), tuple(map(str, range(d_p)))) for _ in range(n_steps)
    )
    amps = rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p)
    preparation = kp.PreparationState(amps / np.linalg.norm(amps))
    return kp.MeasurementProtocol(model, preparation, bases, tuple(rng.uniform(0.3, 1.5, n_steps)))


@pytest.mark.parametrize("block_bytes", [1, 16 * 16 * 5, PREFIX_BLOCK_BYTES])
@pytest.mark.parametrize("d_s", [1, 2, 3, 4])
@pytest.mark.parametrize("d_p", [2, 3])
def test_stacked_chains_match_a_loop_per_sequence(monkeypatch, d_p, d_s, block_bytes):
    monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(10 * d_p + d_s)
    protocol = distinct_steps_protocol(rng, d_p, d_s, 4)
    rho = random_density(rng, d_s)
    for k in range(1, 5):
        seqs = list(itertools.product(range(d_p), repeat=k))
        got = _chain_probabilities(protocol, rho, _all_outcomes(d_p, k), range(k))
        want = [loop_chain_probability(protocol, rho, seq, range(k)) for seq in seqs]
        assert np.abs(got - want).max() <= 1e-15
        got = stacked_effects(protocol, _all_outcomes(d_p, k), range(k))
        want = [loop_chain_effect(protocol, seq, range(k)) for seq in seqs]
        assert np.abs(got - want).max() <= 1e-15
    for n in range(2, 5):
        fixed = list(itertools.product(range(d_p), repeat=n - 1))
        for j in range(1, n):
            # the reduced chain: the protocol's own steps with step j left out
            steps = [s for s in range(n) if s != j - 1]
            got = _chain_probabilities(protocol, rho, _all_outcomes(d_p, n - 1), steps)
            want = [loop_chain_probability(protocol, rho, seq, steps) for seq in fixed]
            assert np.abs(got - want).max() <= 1e-15
            reduced = np.array([loop_chain_effect(protocol, seq, steps) for seq in fixed])
            assert np.abs(stacked_effects(protocol, _all_outcomes(d_p, n - 1), steps) - reduced).max() <= 1e-15
            totals = np.array([
                sum(loop_chain_effect(protocol, f[: j - 1] + (m,) + f[j - 1 :], range(n)) for m in range(d_p))
                for f in fixed
            ])
            want = totals - reduced
            want = (want + want.conj().swapaxes(1, 2)) / 2
            got = _naive_defects(protocol, j, _all_outcomes(d_p, n - 1))
            assert np.abs(got - want).max() <= 1e-15


def test_naive_work_space_stays_within_the_block_bound(monkeypatch):
    # a stack holds the gathered factors and the old and the new product, so
    # three blocks, and the outcome rows add a little.  The operator gate
    # holds a block of the scan's defects and suffix effects, the naive slice
    # of the same rows and its difference, each at most 1 / d_P of a block,
    # and the chains of that slice, 3 / d_P blocks: 3.5 blocks at d_P = 2,
    # while the scan holds at most SCAN_BLOCKS = 3 as it builds a block.  So
    # four blocks beyond the result bound every read, whatever n is; the gate
    # reads every (n, j) up to an n_max in one call, one sweep for every j
    block_bytes = 2**16  # 16 matrices of 16 x 16
    d_s, n = 16, 9
    monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
    protocol = kp.qubit_xy_protocol(kp.random_model(8, 2, d_s, commuting=False), "XY" * 5)
    rho = np.eye(d_s, dtype=complex) / d_s
    seqs = _all_outcomes(2, n)
    fixed = {k: _all_outcomes(2, k - 1) for k in range(2, n + 1)}

    def pairs(n_max):
        return [(k, j) for k in range(2, n_max + 1) for j in range(1, k)]

    reads = [
        lambda: _chain_probabilities(protocol, rho, seqs, range(n)),
        lambda: _effect_products(protocol, rho, seqs),
        *(lambda j=j: _naive_defects(protocol, j, fixed[n]) for j in range(1, n)),
        *(lambda k=k: _defect_gaps(protocol, pairs(k)) for k in range(2, n + 1)),
    ]
    for read in reads:
        tracemalloc.start()
        try:
            values = read()
            result_bytes, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape in {(2**n,), (2 ** (n - 1), d_s, d_s), *((len(pairs(k)),) for k in fixed)}
        assert peak - result_bytes <= 4 * block_bytes


def test_the_operator_gate_reads_one_scan(monkeypatch):
    # one call of the scan's blocks serves every (n, j), and it sweeps once:
    # every smaller n is read off the deepest sweep, where one sweep per n
    # made n_max - 1
    calls, sweeps = [], []
    blocks, sweep = kcprobe.oracle._defect_blocks, kcprobe.sequences._sweep
    monkeypatch.setattr(
        "kcprobe.oracle._defect_blocks",
        lambda protocol, pairs: calls.append(list(pairs)) or blocks(protocol, pairs),
    )
    monkeypatch.setattr(
        "kcprobe.sequences._sweep",
        lambda protocol, n, js, count: sweeps.append((n, sorted(js))) or sweep(protocol, n, js, count),
    )
    protocol = kp.qubit_xy_protocol(kp.random_model(6, 2, 3, commuting=False), "XYXYX")
    for n_max in range(1, 6):
        calls.clear()
        sweeps.clear()
        assert kp.oracle_compare(protocol, np.eye(3) / 3, n_max).agrees
        assert calls == [[(n, j) for n in range(2, n_max + 1) for j in range(1, n)]]
        assert sweeps == ([(n_max, list(range(1, n_max)))] if n_max > 1 else [])


def test_the_naive_route_reads_no_code_of_the_fast_route():
    # from kcprobe.sequences the oracle takes its fast side (the scan's
    # blocks and the distribution), the cap check and the block bound, which
    # it reads at call time; no product or pull-back
    tree = ast.parse(inspect.getsource(kcprobe.oracle))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sequences"
        for alias in node.names
    }
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sequences"
    }
    assert imported == {"_check_capacity", "_defect_blocks", "full_distribution"}
    assert read == {"PREFIX_BLOCK_BYTES"}


@pytest.mark.parametrize("n_max", [0, -1])
def test_n_max_below_one_is_a_protocol_error(y_protocol, plus_y_state, n_max):
    with pytest.raises(ProtocolError, match="n_max"):
        kp.oracle_compare(y_protocol, plus_y_state, n_max)


# Each naive route checks its labels with the fast route's check: a
# non-integral one is refused, not truncated; numpy integers pass; an
# out-of-range one names its position.
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


# Each naive route also checks its lengths and (n, j) with the fast route's
# checks, where it used to raise IndexError or answer a question the fast
# route refuses.
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
        (3, 3, "marginalizing the final step is trivially consistent"),
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
