import ast
import inspect
import itertools
import re
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import kcprobe as kp
import kcprobe.sequences
from kcprobe.errors import (
    CapacityError,
    LabelError,
    NumericalFault,
    PreconditionError,
    ProtocolError,
)
from kcprobe.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, _coordinates, _matrices, frobenius
from kcprobe.model import _transfer
from kcprobe.sequences import (
    _TRANSFER_MAX_DIM,
    PREFIX_BLOCK_BYTES,
    SCAN_BLOCKS,
    SCAN_OVERHEAD_BYTES,
    _probabilities,
    _scan,
    _state_defects,
)
from kcprobe.serialize import canonical_json
from kcprobe.witnesses import PLUS_MINUS_VALUES

from conftest import per_n_scan, random_density, random_hermitian, zero_amplitude_cycle

I2 = np.eye(2, dtype=complex)


def marginal_over_step(table, j):
    """Sum step ``j`` (1-based) out of a distribution table; keys keep the
    remaining steps' time order."""
    out = {}
    for seq, p in table.items():
        key = seq[: j - 1] + seq[j:]
        out[key] = out.get(key, 0.0) + p
    return out


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

    def test_non_integral_label_is_a_label_error(self, y_protocol):
        with pytest.raises(LabelError, match="must be integers"):
            kp.history_operator(y_protocol, (0.5, 1))

    def test_numpy_integer_labels_are_accepted(self, y_protocol):
        want = kp.history_operator(y_protocol, (0, 1))
        got = kp.history_operator(y_protocol, (np.int64(0), np.uint8(1)))
        assert got.sequence == (0, 1)
        assert np.array_equal(got.q, want.q)

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
        marginal = marginal_over_step(dist2.table, 1)
        for key, value in dist1.table.items():
            assert marginal[key] == pytest.approx(value, abs=1e-12)

    def test_normalization(self, y_protocol, plus_y_state):
        dist = kp.full_distribution(y_protocol, plus_y_state, 2)
        assert sum(dist.table.values()) == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("d_p, d_s", [(3, 2), (2, 5), (2, 7), (2, 9), (3, 9)])
    def test_leading_steps_walked_in_blocks(self, monkeypatch, d_p, d_s):
        # rows of an (N, d**2) product round differently at d 5..7, so the
        # head walk must read each effect alike whatever the stack's length
        n = 4
        model = kp.random_model(6, d_p, d_s, commuting=False)
        protocol = kp.fourier_protocol(model, n) if d_p == 3 else kp.qubit_xy_protocol(model, "XYXY")
        rho = random_density(np.random.default_rng(6), d_s)
        want = _probabilities(protocol, rho, n, kp.DEFAULT)
        # one head per sequence of the first n - 1 steps; then 1, 2 and 3 trailing steps
        for block in (1, *(16 * d_s * d_s * 4 * d_p**k for k in (1, 2, 3))):
            monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block)
            assert np.array_equal(_probabilities(protocol, rho, n, kp.DEFAULT), want)
        assert_matches_walk(protocol, rho, n)

    @pytest.mark.parametrize("block_bytes, n", [(None, 14), (2**16, 9)], ids=["default", "tight"])
    def test_memory_stays_within_the_block_bound(self, monkeypatch, block_bytes, n):
        d_s = 16
        if block_bytes is not None:  # 16 matrices of 16 x 16
            monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        block = kcprobe.sequences.PREFIX_BLOCK_BYTES
        assert 2**n * d_s * d_s * 16 >= 4 * block  # unblocked, the last level holds four blocks
        protocol = kp.qubit_xy_protocol(kp.random_model(8, 2, d_s, commuting=False), "X" * n)
        rho = np.eye(d_s, dtype=complex) / d_s
        tracemalloc.start()
        try:
            probs = _probabilities(protocol, rho, n, kp.DEFAULT)
            result_bytes, peak = tracemalloc.get_traced_memory()
            del probs
            tracemalloc.reset_peak()
            dist = kp.full_distribution(protocol, rho, n)
            table_bytes, table_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dist.table) == 2**n
        assert peak <= 2 * block + result_bytes
        assert table_peak <= 2 * block + table_bytes

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


def test_two_routes_to_a_defect_share_no_product():
    # every fast-route number in sequences.py reads a step's Kraus operators
    # in _pull alone, which hands them to the matrix pull-back only and
    # otherwise reads the step's transfer, built in model.py, as does the
    # first step of a sweep; no function reads a step's stored effects, so
    # a step is scanned from one source on both sides of the transfer cut;
    # the single-entry routes read the oracle's chains at call time
    tree = ast.parse(inspect.getsource(kcprobe.sequences))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def nodes(name, kind):
        return [node for node in ast.walk(functions[name]) if isinstance(node, kind)]

    def calls(name, callee):
        return [
            call for call in nodes(name, ast.Call) if isinstance(call.func, ast.Name) and call.func.id == callee
        ]

    def kraus_reads(node):
        return [sub for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and sub.attr == "kraus"]

    readers = {name for name in functions if kraus_reads(functions[name])}
    assert readers == {"_pull"}
    assert not [name for name in functions if "effects" in {n.attr for n in nodes(name, ast.Attribute)}]
    pulled = [read for call in calls("_pull", "_pull_back") for read in kraus_reads(call.args[0])]
    assert pulled and pulled == kraus_reads(functions["_pull"])
    assert [ast.unparse(call) for call in calls("_pull", "_transfer")] == ["_transfer(measurement)"]
    readers = {name for name in functions if "_transfer" in {n.id for n in nodes(name, ast.Name)}}
    assert readers == {"_pull", "_last_effects"}
    for name in ("history_operator", "kc_defect_state", "kc_defect_operator"):
        assert [(node.module, node.level) for node in nodes(name, ast.ImportFrom)] == [("oracle", 1)]


def test_one_loop_reads_the_scan():
    # _defect_blocks has three readers, the scan's one loop, the fault path,
    # which scans each pair or grid point alone through it, and the oracle's
    # gate; check_kc_all and _state_defects reach it only through _scan, and
    # no witness forms a defect by subtracting two distributions
    package = Path(inspect.getsourcefile(kcprobe.sequences)).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}

    def names(node):
        """Every name read under ``node``: bare, as an attribute or imported."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name

    readers = {
        (module, getattr(top, "name", None))
        for module, tree in trees.items()
        for top in tree.body
        if not isinstance(top, ast.ImportFrom) and "_defect_blocks" in set(names(top))
    }
    assert readers == {("sequences", "_scan"), ("sequences", "_raise_fault"), ("oracle", "_defect_gaps")}
    assert not {"full_distribution", "prefix", "drop_step"} & set(names(trees["witnesses"]))
    functions = {top.name: top for top in trees["sequences"].body if isinstance(top, ast.FunctionDef)}
    # the sweep has one reader, and the fault path builds no entries
    sweepers = {
        (module, getattr(top, "name", None)) for module, tree in trees.items() for top in tree.body if "_sweep" in set(names(top))
    }
    assert sweepers == {("sequences", "_defect_blocks")}
    assert not {"_KCEntries", "_scan"} & set(names(functions["_raise_fault"]))
    for name in ("check_kc_all", "_state_defects"):
        loops = [node.iter for node in ast.walk(functions[name]) if isinstance(node, (ast.For, ast.comprehension))]
        assert not any("_defect_blocks" in set(names(it)) for it in loops)
        assert "_scan" in set(names(functions[name]))


def assert_tensor_matches_single_entries(protocol, rho, n_max):
    pairs = [(n, j) for n in range(2, n_max + 1) for j in range(1, n)]
    for (n, j), tensor in zip(pairs, _state_defects(protocol, [rho], pairs, kp.DEFAULT), strict=True):
        assert tensor.shape == (1,) + (protocol.probe_dim,) * (n - 1)
        for fixed in itertools.product(range(protocol.probe_dim), repeat=n - 1):
            assert abs(kp.kc_defect_state(protocol, rho, n, j, fixed) - tensor[(0, *fixed)]) <= 1e-14


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

    @pytest.mark.parametrize("d_p, d_s", [(2, 2), (2, 16), (3, 3)])
    def test_a_stack_of_states_reads_as_each_state_alone(self, d_p, d_s):
        # exactly, so that a sweep row of the first state matches its run row
        rng = np.random.default_rng(d_p * d_s)
        protocol = kp.fourier_protocol(noncommuting_model(d_s, d_p, d_s), 3)
        states = [random_density(rng, d_s) for _ in range(3)]
        pairs = [(3, 2), (2, 1)]
        stacked = _state_defects(protocol, states, pairs, kp.DEFAULT)
        for i, rho in enumerate(states):
            alone = _state_defects(protocol, [rho], pairs, kp.DEFAULT)
            for (n, _), tensor, single in zip(pairs, stacked, alone, strict=True):
                assert tensor.shape == (3,) + (d_p,) * (n - 1)
                assert np.array_equal(tensor[i], single[0])


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

    @pytest.mark.parametrize("fixed", [(0.9,), (1.0,), ("0",), (None,)])
    def test_non_integral_fixed_outcome_is_a_label_error(self, y_protocol, fixed):
        with pytest.raises(LabelError, match="must be integers"):
            kp.kc_defect_operator(y_protocol, 2, 1, fixed)
        with pytest.raises(LabelError, match="must be integers"):
            kp.kc_defect_state(y_protocol, I2 / 2, 2, 1, fixed)

    def test_numpy_integer_labels_are_accepted(self, y_protocol):
        for m in range(2):
            want = kp.kc_defect_operator(y_protocol, 3, 2, (m, 1))
            got = kp.kc_defect_operator(y_protocol, 3, 2, np.array([m, 1], dtype=np.int32))
            assert np.array_equal(got, want)

    def test_out_of_range_fixed_outcome_is_a_label_error(self, y_protocol):
        with pytest.raises(LabelError, match="outcome 2 at position 2"):
            kp.kc_defect_operator(y_protocol, 3, 1, (0, 2))
        with pytest.raises(LabelError, match="outcome -1 at position 1"):
            kp.kc_defect_operator(y_protocol, 3, 1, (-1, 0))

    def test_marginalizing_final_step_is_rejected(self, y_protocol):
        with pytest.raises(ProtocolError):
            kp.kc_defect_state(y_protocol, I2 / 2, 2, 2, (0,))

    def test_state_of_the_wrong_dimension_is_a_protocol_error(self, y_protocol):
        with pytest.raises(ProtocolError, match=r"^state shape \(3, 3\) does not match operator \(2, 2\)$"):
            kp.kc_defect_state(y_protocol, np.eye(3) / 3, 2, 1, (0,))

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

    def test_a_blind_middle_step_leaves_the_verdict_to_n3(self):
        # a pointer-basis meter reads effects proportional to 1, so the (2, 1)
        # defects of X Z X vanish, while summing the Z step out at n = 3 does not
        z_meter = kp.MeterBasis(np.eye(2, dtype=complex), ("0", "1"))
        model = kp.random_model(1, 2, 2, commuting=False)
        steps = (kp.xy_meter_basis("X"), z_meter, kp.xy_meter_basis("X"))
        protocol = kp.MeasurementProtocol(model, kp.plus_x_preparation(), steps)
        report = kp.check_kc_all(protocol, 3)
        assert report.verdict == "violated"
        assert max(e.operator_defect for e in report.entries if e.n == 2) <= 1e-14
        assert not report.decided_by_n2_j1
        two = kp.check_kc_all(protocol, 2)
        assert two.verdict == "consistent" and two.decided_by_n2_j1

    @pytest.mark.parametrize("d_p", [1, 2, 3, 4])
    def test_a_step_s_outcomes_add_in_order(self, d_p):
        # M = ((X_0 + X_1) + X_2) + ... - P, bit for bit, in whatever layout
        # a pull-back leaves its stacks
        rng = np.random.default_rng(d_p)
        scale = 10.0 ** rng.integers(-8, 8, (d_p, 5, 9))
        pulled = (rng.standard_normal((d_p, 5, 9)) * scale).transpose(0, 2, 1).copy().transpose(0, 2, 1)
        post = rng.standard_normal((5, 9)) * 10.0 ** rng.integers(-8, 8, (5, 9))
        want = pulled[0].copy()
        for m in range(1, d_p):
            want = want + pulled[m]
        want = want - post
        for stack in (pulled, np.ascontiguousarray(pulled)):
            assert kcprobe.sequences._step_defects(stack, post).tobytes() == want.tobytes()

    def test_non_finite_defect_is_a_numerical_fault(self, y_protocol):
        protocol = poisoned_protocol(y_protocol, 1, 0, np.nan)
        with pytest.raises(NumericalFault, match=r"at n=2, j=1, fixed=\(0,\) is not finite"):
            kp.check_kc_all(protocol, 2)

    def test_state_defects_recorded(self, y_protocol, plus_y_state):
        report = kp.check_kc_all(y_protocol, 2, (plus_y_state, I2 / 2))
        assert report.max_state_defect == pytest.approx(1.0, abs=1e-10)
        entry = report.entries[0]
        assert len(entry.state_defects) == 2

    def test_state_of_the_wrong_dimension_is_a_protocol_error(self, y_protocol):
        with pytest.raises(ProtocolError, match=r"state shape \(3, 3\) does not match operator \(2, 2\)"):
            kp.check_kc_all(y_protocol, 2, np.eye(3) / 3)
        with pytest.raises(ProtocolError, match="state shape"):
            kp.check_kc_all(y_protocol, 2, [I2 / 2, np.eye(3) / 3])

    def test_an_array_of_states_and_a_nested_list_read_by_their_dimensions(self, y_protocol, plus_y_state):
        pair = (plus_y_state, I2 / 2)
        want = kp.check_kc_all(y_protocol, 3, pair).to_dict()
        assert kp.check_kc_all(y_protocol, 3, np.array(pair)).to_dict() == want
        one = [[1, 0], [0, 0]]
        want = kp.check_kc_all(y_protocol, 3, (np.array(one, dtype=complex),)).to_dict()
        assert kp.check_kc_all(y_protocol, 3, one).to_dict() == want
        assert len(want["entries"][0]["state_defects"]) == 1

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
                marginal = marginal_over_step(dist_n.table, n)
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
        h0 = np.kron(SIGMA_Z, I2)
        h1 = np.kron(SIGMA_X, I2)
        model = kp.DephasingModel(2, 4, (h0, h1), 0.9)
        protocol = kp.qubit_xy_protocol(model, "YYY")
        assert not kp.is_commutative(model.hamiltonians)[0]
        rng = np.random.default_rng(4)
        rho = np.kron(I2 / 2, random_density(rng, 2))
        assert max(frobenius(kp.commutator(rho, h)) for h in model.hamiltonians) <= 1e-12
        for m2 in range(2):
            assert abs(kp.kc_defect_state(protocol, rho, 2, 1, (m2,))) <= 1e-10
        # the three-step condition does detect this model
        worst = max(
            abs(kp.kc_defect_state(protocol, rho, 3, 2, fixed))
            for fixed in itertools.product(range(2), repeat=2)
        )
        assert worst > 1e-3


def completeness_residuals(protocol):
    """``|sum_m E_m - 1|_F`` of each step, in step order."""
    d = protocol.system_dim
    return [frobenius(np.asarray(m.effects).sum(axis=0) - np.eye(d)) for m in protocol.step_measurements]


def random_basis_protocol(rng, d_p, d_s, n_steps, commuting):
    """A random model read through a random meter basis per step."""
    model = kp.random_model(int(rng.integers(1 << 30)), d_p, d_s, commuting)
    bases = tuple(
        kp.MeterBasis(kp.haar_unitary(d_p, rng), tuple(map(str, range(d_p)))) for _ in range(n_steps)
    )
    amps = rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p)
    return kp.MeasurementProtocol(model, kp.PreparationState(amps / np.linalg.norm(amps)), bases)


def block_scan_ensemble():
    """(protocol, states) over d_P 2-3 x d_S 2-4, commuting and not, 4 steps."""
    rng = np.random.default_rng(9500)
    cases = []
    for d_p, d_s in itertools.product((2, 3), (2, 3, 4)):
        for commuting in (False, True):
            protocol = random_basis_protocol(rng, d_p, d_s, 4, commuting)
            cases.append((protocol, [random_density(rng, d_s) for _ in range(3)]))
    return cases


def poisoned_protocol(protocol, step, outcome, value):
    """``protocol``'s Kraus data, with Kraus operator ``outcome`` of the 0-based
    ``step`` filled with ``value``."""
    steps = []
    for k, measurement in enumerate(protocol.step_measurements):
        kraus = np.array(measurement.kraus)
        if k == step:
            kraus[outcome] = value
        steps.append(SimpleNamespace(kraus=kraus))
    return SimpleNamespace(
        model=protocol.model,
        probe_dim=protocol.probe_dim,
        system_dim=protocol.system_dim,
        n_steps=protocol.n_steps,
        step_measurements=tuple(steps),
    )


def scan_order(d_p, n_max):
    return [
        (n, j, fixed)
        for n in range(2, n_max + 1)
        for j in range(1, n)
        for fixed in itertools.product(range(d_p), repeat=n - 1)
    ]


class TestBlockScan:
    """``check_kc_all`` reads each ``(n, j)`` as blocks of factorised defects."""

    def test_every_entry_is_the_defect_operator_in_entry_order(self):
        protocol = kp.fourier_protocol(kp.random_model(3, 3, 2, commuting=False), 4)
        report = kp.check_kc_all(protocol, 4)
        order = scan_order(3, 4)
        assert len(order) == sum((n - 1) * 3 ** (n - 1) for n in (2, 3, 4))
        assert [(e.n, e.j, e.fixed) for e in report.entries] == order
        for e in report.entries:
            norm = frobenius(kp.kc_defect_operator(protocol, e.n, e.j, e.fixed))
            assert abs(e.operator_defect - norm) <= 1e-15 * max(1.0, norm)

    def test_entries_match_the_single_entry_routes(self):
        for protocol, states in block_scan_ensemble():
            report = kp.check_kc_all(protocol, 4, states)
            for e in report.entries:
                defect = kp.kc_defect_operator(protocol, e.n, e.j, e.fixed)
                norm = frobenius(defect)
                assert abs(e.operator_defect - norm) <= 1e-15 * max(1.0, norm)
                for rho, got in zip(states, e.state_defects, strict=True):
                    assert abs(got - np.trace(rho @ defect).real) <= 1e-14
            assert report.max_operator_defect == max(e.operator_defect for e in report.entries)
            assert report.max_state_defect == max(
                abs(x) for e in report.entries for x in e.state_defects
            )

    @pytest.mark.parametrize("block_bytes", [1, 16 * 4 * 3, 16 * 4 * 5])
    def test_chunked_scan_gives_the_same_report(self, monkeypatch, block_bytes):
        # d_P = 3, d = 2: one, three or five matrices a block, so prefixes and
        # leading suffix outcomes are walked
        protocol = kp.fourier_protocol(kp.random_model(5, 3, 2, commuting=False), 4)
        states = [I2 / 2, random_density(np.random.default_rng(5), 2)]
        want = canonical_json(kp.check_kc_all(protocol, 4, states).to_dict())
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        assert canonical_json(kp.check_kc_all(protocol, 4, states).to_dict()) == want

    @pytest.mark.parametrize("block_bytes", [16 * 4 * 9, 16 * 4 * 27])
    def test_partly_batched_scan_gives_the_same_report(self, monkeypatch, block_bytes):
        # d_P = 3, d = 2: suffix and defect stacks of at most three or nine
        # matrices, so one or two trailing suffix steps and, at nine, one
        # trailing prefix step are batched, while the rest are walked
        protocol = kp.fourier_protocol(kp.random_model(5, 3, 2, commuting=False), 4)
        states = [I2 / 2, random_density(np.random.default_rng(5), 2)]
        want = canonical_json(kp.check_kc_all(protocol, 4, states).to_dict())
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        assert canonical_json(kp.check_kc_all(protocol, 4, states).to_dict()) == want

    @pytest.mark.parametrize("block_bytes", [1, 16 * 4 * 2, PREFIX_BLOCK_BYTES])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_defect_names_the_first_bad_entry(self, y_protocol, monkeypatch, block_bytes, value):
        # only the last step's second Kraus operator is bad, so the first bad
        # entry is the second one of (n, j) = (3, 1), inside its block
        protocol = poisoned_protocol(y_protocol, 2, 1, value)
        with np.errstate(invalid="ignore"):  # inf * 0 in the products
            first = next(
                (n, j, fixed)
                for n, j, fixed in scan_order(2, 3)
                if not np.isfinite(kp.kc_defect_operator(protocol, n, j, fixed)).all()
            )
        assert first == (3, 1, (0, 1))
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        with pytest.raises(NumericalFault, match=r"at n=3, j=1, fixed=\(0, 1\) is not finite"):
            kp.check_kc_all(protocol, 3, I2 / 2)

    @pytest.mark.parametrize("block_bytes", [1, 16 * 4 * 2, PREFIX_BLOCK_BYTES])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "step, first",
        [(1, (2, 1, (1,))), (2, (3, 1, (0, 1)))],
        ids=["second-step", "third-step"],
    )
    def test_every_defect_reader_raises_the_scan_fault(
        self, y_protocol, monkeypatch, block_bytes, value, step, first
    ):
        # the state-level readers go through the scan's own guard, so they
        # name the same first bad entry in the same words, not a NaN witness
        protocol = poisoned_protocol(y_protocol, step, 1, value)
        n, j, _ = first
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        with pytest.raises(NumericalFault) as scan:
            kp.check_kc_all(protocol, 3, I2 / 2)
        message = str(scan.value)
        assert message.endswith(f"at n={n}, j={j}, fixed={first[2]} is not finite")
        readers = [
            lambda: _state_defects(protocol, [I2 / 2], [(n, j)], kp.DEFAULT),
            lambda: kp.delta_correlation(protocol, I2 / 2, n, j, PLUS_MINUS_VALUES),
            lambda: kp.oracle_compare(protocol, I2 / 2, 3),
        ]
        for read in readers:
            with pytest.raises(NumericalFault) as got:
                read()
            assert str(got.value) == message

    @pytest.mark.parametrize("block_bytes", [1, PREFIX_BLOCK_BYTES])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("bad, raised", [({1: 2, 3: 1}, 1), ({3: 1}, 3), ({2: 2, 0: 2}, 0)])
    def test_a_grid_raises_its_first_bad_point_s_own_fault(self, sigma_model, monkeypatch, block_bytes, value, bad, raised):
        # point g's Kraus operator 1 of step bad[g] is filled with value: the
        # batched scan raises the fault of the first bad point scanned alone,
        # though a later point (a bad second step) faults in an earlier block
        times = (0.4, 0.9, 1.3, 1.7)
        protocols = [kp.qubit_xy_protocol(sigma_model.with_step_time(t), "YYY") for t in times]
        stacks = []
        for k in range(3):
            kraus = np.array([p.step_measurements[k].kraus for p in protocols]).swapaxes(0, 1)
            for g, step in bad.items():
                if step == k:
                    kraus[1, g] = value
            effects = np.array([p.step_measurements[k].effects for p in protocols]).swapaxes(0, 1)
            stacks.append(kp.model._Stacked(kraus, effects, ("+", "-"), np.zeros(len(times))))
        models = tuple(p.model for p in protocols)
        grid = kp.model._Grid(models, protocols[0].preparation, protocols[0].step_bases, tuple(stacks))
        pairs = [(n, j) for n in range(2, 4) for j in range(1, n)]
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        with pytest.raises(NumericalFault) as alone:
            kcprobe.sequences._scan(grid.protocol(raised), pairs, [])
        with pytest.raises(NumericalFault) as batched:
            _state_defects(grid, [I2 / 2], pairs, kp.DEFAULT)
        assert str(batched.value) == str(alone.value)
        assert "grid point" not in str(batched.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("outcome", [0, 1])
    @pytest.mark.parametrize("d_s", [2, _TRANSFER_MAX_DIM + 1])
    def test_a_bad_final_step_names_one_entry_on_both_sides_of_the_cut(self, d_s, outcome, value):
        # Kraus operator `outcome` of the fourth step is bad, its stored
        # effects are gone: no pair of n <= 3 reads the step, and the first
        # bad entry is the first of (4, 1) whose last outcome is `outcome`,
        # through the transfer (d = 2) as through the matrices (d = 9)
        rng = np.random.default_rng([4, d_s])
        protocol = poisoned_protocol(random_basis_protocol(rng, 2, d_s, 4, commuting=False), 3, outcome, value)
        with pytest.raises(NumericalFault, match=rf"at n=4, j=1, fixed=\(0, 0, {outcome}\) is not finite$"):
            kp.check_kc_all(protocol, 4)

    @pytest.mark.parametrize("block_bytes", [1, PREFIX_BLOCK_BYTES])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_grid_above_the_cut_raises_its_first_bad_point_s_own_fault(self, monkeypatch, block_bytes, value):
        # d = 9, three points, four steps: Kraus operator 1 of point 1's
        # fourth step and of point 2's third step is bad.  In walked blocks
        # point 2 faults first, but point 1 is the first whose own scan
        # faults, at (4, 1); point 2 alone would name (3, 1)
        d_s = _TRANSFER_MAX_DIM + 1
        model = kp.random_model(37, 2, d_s, commuting=False)
        models = [model.with_step_time(t) for t in (0.6, 1.1, 1.4)]
        bases = tuple(kp.xy_meter_basis(a) for a in "XYXY")
        (grid,) = kp.model._grids(models, kp.plus_x_preparation(), {"steps": bases}).values()
        stacks = []
        for k, stacked in enumerate(grid.step_measurements):  # one stack a step, so each is poisoned alone
            kraus = np.array(stacked.kraus)
            for g, step in {1: 3, 2: 2}.items():
                if step == k:
                    kraus[1, g] = value
            stacks.append(kp.model._Stacked(kraus, stacked.effects, stacked.labels, stacked.residuals))
        grid = kp.model._Grid(grid.models, grid.preparation, grid.step_bases, tuple(stacks))
        pairs = [(n, j) for n in range(2, 5) for j in range(1, n)]
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        with pytest.raises(NumericalFault) as alone:
            _scan(grid.protocol(1), pairs, [])
        assert str(alone.value).endswith("at n=4, j=1, fixed=(0, 0, 1) is not finite")
        with pytest.raises(NumericalFault) as batched:
            _state_defects(grid, [np.eye(d_s) / d_s], pairs, kp.DEFAULT)
        assert str(batched.value) == str(alone.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_single_entry_defect_is_a_fault(self, y_protocol, value):
        # the single-entry state route reads the oracle's chains, which would
        # give NaN; it raises instead, while the operator route stays raw
        protocol = poisoned_protocol(y_protocol, 1, 1, value)
        with pytest.raises(NumericalFault, match=r"^defect nan at n=2, j=1, fixed=\(1,\) is not finite$"):
            kp.kc_defect_state(protocol, I2 / 2, 2, 1, (1,))
        with np.errstate(invalid="ignore"):  # inf * 0 in the products
            assert not np.isfinite(kp.kc_defect_operator(protocol, 2, 1, (1,))).all()
        assert np.isfinite(kp.kc_defect_state(protocol, I2 / 2, 2, 1, (0,)))

    def test_one_sweep_serves_every_n(self, monkeypatch):
        # each j is swept once, at the deepest n asked of it, and every
        # smaller n of it is read off that sweep: one sweep for check_kc_all,
        # where one per n made n_max - 1
        sweeps = []
        sweep = kcprobe.sequences._sweep
        monkeypatch.setattr(
            "kcprobe.sequences._sweep",
            lambda protocol, n, js, count: sweeps.append((n, sorted(js))) or sweep(protocol, n, js, count),
        )
        protocol = kp.qubit_xy_protocol(kp.random_model(6, 2, 3, commuting=False), "XY" * 3)
        rho = np.eye(3) / 3
        for n_max in range(2, 7):
            sweeps.clear()
            kp.check_kc_all(protocol, n_max, rho)
            assert sweeps == [(n_max, list(range(1, n_max)))]
        for pairs, want in [
            ([(2, 1), (3, 2)], [(2, [1]), (3, [2])]),
            ([(5, 1), (3, 1), (4, 3), (5, 2)], [(4, [3]), (5, [1, 2])]),
        ]:
            sweeps.clear()
            _state_defects(protocol, [rho], pairs, kp.DEFAULT)
            assert sweeps == want

    @pytest.mark.parametrize("block_bytes", [1, PREFIX_BLOCK_BYTES])
    def test_a_one_outcome_probe_reads_every_n_off_one_sweep(self, monkeypatch, block_bytes):
        # d_P = 1: every level holds one entry, the one entry of the level above
        model = kp.DephasingModel(1, 2, (SIGMA_Z + 0.3 * SIGMA_X,), 0.7)
        basis = kp.MeterBasis(np.eye(1), ("0",))
        protocol = kp.MeasurementProtocol(model, kp.PreparationState(np.array([1.0])), (basis,) * 5)
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        pairs = [(n, j) for n in range(2, 6) for j in range(1, n)]
        entries = _scan(protocol, pairs, [I2 / 2])
        for (n, j), (norms, traces) in zip(pairs, per_n_scan(protocol, pairs, [I2 / 2]), strict=True):
            got_norms, got_traces = entries._pair(n, j)
            assert got_norms.shape == (1,)
            assert np.abs(got_norms - norms).max() <= 1e-14
            assert np.abs(got_traces - traces).max() <= 1e-14

    @pytest.mark.parametrize("d_s", [3, _TRANSFER_MAX_DIM + 1])
    @pytest.mark.parametrize("r", [1e-6, 1e-9])
    def test_a_completeness_residual_bounds_the_levels(self, monkeypatch, d_s, r):
        # with the effects of step k summing to 1 + Delta_k, a level n read
        # off the sweep of n_max differs from its own sweep by at most
        # 2 sum_{k=n+1}^{n_max} |Delta_k|_F, besides rounding.  Step 4's Kraus
        # operators scaled by sqrt(1 - r / sqrt(d)) make |Delta_4|_F = r
        rng = np.random.default_rng(40 + d_s)
        protocol = random_basis_protocol(rng, 2, d_s, 5, commuting=False)
        steps = [np.array(m.kraus) for m in protocol.step_measurements]
        steps[3] *= np.sqrt(1.0 - r / np.sqrt(d_s))
        effects = [np.einsum("mki,mkj->mij", k.conj(), k) for k in steps]
        residual = [frobenius(e.sum(axis=0) - np.eye(d_s)) for e in effects]
        assert residual[3] == pytest.approx(r, rel=1e-6)

        def perturbed():  # fresh measurements: nothing kept from an earlier scan
            return SimpleNamespace(
                model=protocol.model,
                probe_dim=2,
                system_dim=d_s,
                n_steps=5,
                step_measurements=tuple(SimpleNamespace(kraus=k, effects=e) for k, e in zip(steps, effects)),
            )

        states = [np.eye(d_s) / d_s, random_density(rng, d_s)]
        pairs = [(n, j) for n in range(2, 6) for j in range(1, n)]
        reference = per_n_scan(perturbed(), pairs, states)
        sweeps = []
        sweep = kcprobe.sequences._sweep
        monkeypatch.setattr(
            "kcprobe.sequences._sweep",
            lambda protocol, n, js, count: sweeps.append((n, sorted(js))) or sweep(protocol, n, js, count),
        )
        # r is far above rounding, so n = 3, whose level would sum step 4
        # out, is swept itself, and n = 2 read off it: every entry is within
        # rounding of its own sweep, and each swept n reads as it bit for bit
        entries = _scan(perturbed(), pairs, states)
        assert sweeps == [(3, [1, 2]), (5, [1, 2, 3, 4])]
        for (n, j), (norms, traces) in zip(pairs, reference, strict=True):
            got_norms, got_traces = entries._pair(n, j)
            if n in (3, 5):
                assert np.array_equal(got_norms, norms) and np.array_equal(got_traces, traces)
            assert np.all(np.abs(got_norms - norms) <= 1e-13 * np.maximum(1.0, norms))
            assert np.all(np.abs(got_traces - traces) <= 1e-13 * np.maximum(1.0, norms)[:, None])
        # every level read off the sweep of n = 5 regardless moves within the bound
        sweeps.clear()
        monkeypatch.setattr("kcprobe.sequences._LEVEL_BOUND", np.inf)
        entries = _scan(perturbed(), pairs, states)
        assert sweeps == [(5, [1, 2, 3, 4])]
        moved = {}
        for (n, j), (norms, traces) in zip(pairs, reference, strict=True):
            got_norms, got_traces = entries._pair(n, j)
            bound = 2.0 * sum(residual[n:]) + 1e-13 * np.maximum(1.0, norms)
            assert np.all(np.abs(got_norms - norms) <= bound)
            assert np.all(np.abs(got_traces - traces) <= bound[:, None])  # |tr(rho X)| <= |X|_F
            moved[n] = max(moved.get(n, 0.0), float(np.abs(got_norms - norms).max()))
        assert min(moved[2], moved[3]) >= 0.01 * r
        assert moved[4] <= 1e-14 and moved[5] == 0.0

    def test_a_loose_preparation_sweeps_each_n(self):
        # a preparation given to about ten digits, norm^2 = 1 + 5e-11, passes
        # validation, and every step's effects then sum to (1 + 5e-11) 1: each
        # level read off a deeper sweep would be off by that much a step
        # summed out, beyond the oracle's agreement.  So each n is swept
        # itself, and the scan reads as the sweeps of one n and agrees with
        # the oracle's naive chains
        rng = np.random.default_rng(33)
        model = kp.random_model(int(rng.integers(1 << 30)), 2, 3, commuting=False)
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps *= np.sqrt(1.0 + 5e-11) / np.linalg.norm(amps)
        bases = tuple(kp.MeterBasis(kp.haar_unitary(2, rng), ("0", "1")) for _ in range(4))
        protocol = kp.MeasurementProtocol(model, kp.PreparationState(amps), bases)
        residual = completeness_residuals(protocol)
        assert min(residual) >= 5e-11  # (1 + 5e-11) sqrt(3) - sqrt(3)
        states = [np.eye(3) / 3, random_density(rng, 3)]
        report = kp.check_kc_all(protocol, 4, states)
        pairs = [(n, j) for n in range(2, 5) for j in range(1, n)]
        for (n, j), (norms, traces) in zip(pairs, per_n_scan(protocol, pairs, states), strict=True):
            got_norms, got_traces = report.entries._pair(n, j)
            assert np.abs(got_norms - norms).max() <= 1e-13
            assert np.abs(got_traces - traces).max() <= 1e-13
        oracle = kp.oracle_compare(protocol, states[1], 4)
        assert oracle.agrees
        assert oracle.max_defect_discrepancy <= 1e-13

    def test_state_defects_stay_within_the_block_bound(self, monkeypatch):
        # the witnesses' reader walks the scan's blocks too, within its bound
        block_bytes = 2**16  # 16 matrices of 16 x 16
        d_s, n = 16, 9
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        protocol = kp.qubit_xy_protocol(kp.random_model(8, 2, d_s, commuting=False), "XY" * 5)
        rho = np.eye(d_s, dtype=complex) / d_s
        for j in range(1, n):
            tracemalloc.start()
            try:
                (defects,) = _state_defects(protocol, [rho], [(n, j)], kp.DEFAULT)
                result_bytes, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert defects.shape == (1,) + (2,) * (n - 1)
            assert peak - result_bytes <= SCAN_BLOCKS * block_bytes

    @pytest.mark.parametrize("block_bytes", [1, 16 * 4 * 3, 16 * 4 * 5])
    def test_entries_behave_like_a_tuple(self, monkeypatch, block_bytes):
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        protocol = kp.fourier_protocol(kp.random_model(5, 3, 2, commuting=False), 4)
        states = [I2 / 2, random_density(np.random.default_rng(5), 2)]
        for rho in (None, states):
            entries = kp.check_kc_all(protocol, 4, rho).entries
            walked = list(entries)
            assert len(entries) == len(walked) == len(scan_order(3, 4))
            assert [(e.n, e.j, e.fixed) for e in walked] == scan_order(3, 4)
            for k in range(len(walked)):
                assert entries[k] == walked[k]
                assert entries[-k - 1] == walked[-k - 1]
            for cut in (slice(None), slice(3, 40, 7), slice(-5, None), slice(None, None, -11)):
                assert type(entries[cut]) is tuple
                assert entries[cut] == tuple(walked[cut])
            assert list(entries) == walked
            with pytest.raises(IndexError):
                entries[len(walked)]
            with pytest.raises(IndexError):
                entries[-len(walked) - 1]
        assert kp.check_kc_all(protocol, 4) == kp.check_kc_all(protocol, 4)
        assert kp.check_kc_all(protocol, 4, states) == kp.check_kc_all(protocol, 4, states)
        assert kp.check_kc_all(protocol, 4) != kp.check_kc_all(protocol, 4, states)

    def test_the_scan_makes_no_entry_until_one_is_read(self, monkeypatch):
        made = []
        init = kp.KCEntry.__init__

        def counting_init(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(kp.KCEntry, "__init__", counting_init)
        protocol = kp.fourier_protocol(kp.random_model(5, 3, 2, commuting=False), 4)
        report = kp.check_kc_all(protocol, 4, I2 / 2)
        assert made == []
        report.to_dict()
        assert made == []
        entries = list(report.entries)
        assert len(made) == len(entries) == len(report.entries)

    @pytest.mark.parametrize("states", [0, 1])
    def test_entries_retain_eight_bytes_per_value(self, states):
        # d_P 2, d_S 2, n_max 12: 40962 entries, held as one norm and one
        # float per state each, with room for the report's other fields
        protocol = kp.qubit_xy_protocol(kp.random_model(8, 2, 2, commuting=False), "XY" * 6)
        assert len(protocol.step_measurements) == 12
        rho = [I2 / 2] if states else None
        tracemalloc.start()
        try:
            report = kp.check_kc_all(protocol, 12, rho)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entries = len(report.entries)
        assert entries == len(scan_order(2, 12)) == 40962
        assert retained <= 8 * (1 + states) * entries + 64 * 2**10

    def test_memory_stays_within_the_block_bound(self, monkeypatch):
        block_bytes = 2**16  # 16 matrices of 16 x 16
        d_s, n = 16, 9
        assert 2 ** (n - 1) * d_s * d_s * 16 >= 16 * block_bytes  # unchunked, one (n, j) is 1 MiB
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        protocol = kp.qubit_xy_protocol(kp.random_model(8, 2, d_s, commuting=False), "XY" * 5)
        states = [np.eye(d_s, dtype=complex) / d_s]
        tracemalloc.start()
        try:
            report = kp.check_kc_all(protocol, n, states)
            entry_bytes, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entries = len(report.entries)
        assert entries == len(scan_order(2, n))
        # besides the entries' arrays, which entry_bytes counts, the scan
        # holds its blocks
        assert peak - entry_bytes <= SCAN_BLOCKS * block_bytes + 16 * entries

    @pytest.mark.parametrize("d_p, d_s, n", [(2, 2, 7), (2, 2, 9), (3, 3, 5), (4, 2, 4), (2, 4, 8)])
    def test_small_blocks_add_a_fixed_overhead(self, monkeypatch, d_p, d_s, n):
        # at 1 KiB a block is small against the scan's own Python and numpy
        # objects, which add a fixed SCAN_OVERHEAD_BYTES to the block bound
        block_bytes = 2**10
        assert 32 * d_s * d_s * d_p <= block_bytes  # a block holds a stack
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        model = kp.random_model(3, d_p, d_s, commuting=False)
        protocol = kp.qubit_xy_protocol(model, "XY" * n) if d_p == 2 else kp.fourier_protocol(model, n)
        states = [np.eye(d_s, dtype=complex) / d_s, random_density(np.random.default_rng(2), d_s)]
        _scan(protocol, [(n, 1)], states)  # the transfers, built once per measurement
        every = [(k, j) for k in range(2, n + 1) for j in range(1, k)]
        for pairs in [*([(n, j)] for j in range(1, n)), every]:
            tracemalloc.start()
            try:
                entries = _scan(protocol, pairs, states)
                entry_bytes, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(entries) == sum(d_p ** (k - 1) for k, _ in pairs)
            assert peak - entry_bytes <= SCAN_BLOCKS * block_bytes + SCAN_OVERHEAD_BYTES


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

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e5, 1e7])
    def test_verdict_does_not_depend_on_the_units(self, scale):
        # H -> c H with t -> t / c leaves every unitary, and so the map, as it
        # is; a -> c' a scales both sides of the map's defect
        model = kp.random_model(17, 2, 3, commuting=True)
        effect = kp.qubit_xy_protocol(model, "X").step_measurements[0].effects[0]
        scaled = kp.DephasingModel(
            2, 3, tuple(scale * h for h in model.hamiltonians), model.step_time / scale
        )
        h0 = model.hamiltonians[0]
        noncommuting = kp.DephasingModel(2, 2, (scale * SIGMA_Z, scale * SIGMA_X), np.pi / 2 / scale)
        for a_scale in (1.0, 1e-12, 1e6, 1e9):
            for a in (effect, h0 @ h0):
                assert kp.fixed_point_check(a_scale * a, scaled, kp.plus_x_preparation()).is_fixed
            result = kp.fixed_point_check(a_scale * SIGMA_Z, noncommuting, kp.plus_x_preparation())
            assert not result.is_fixed
            assert result.commutator_norms[1] == pytest.approx(a_scale * scale * 2.0 * np.sqrt(2.0))

    def test_zero_amplitude_preparation_rejected(self, sigma_model):
        prep = kp.PreparationState(np.array([1.0, 0.0]))
        with pytest.raises(PreconditionError):
            kp.fixed_point_check(I2, sigma_model, prep)


# Every public reader of a state checks it with the one ``check_density``, so
# a state of the wrong size gets the same error from each.
STATE_READERS = {
    "full_distribution": lambda p, rho: kp.full_distribution(p, rho, 2),
    "check_kc_all": lambda p, rho: kp.check_kc_all(p, 2, rho),
    "kc_defect_state": lambda p, rho: kp.kc_defect_state(p, rho, 2, 1, (0,)),
    "naive_sequence_probability": lambda p, rho: kp.naive_sequence_probability(p, rho, (0,)),
    "naive_distribution": lambda p, rho: kp.naive_distribution(p, rho, 2),
    "naive_kc_defect": lambda p, rho: kp.naive_kc_defect(p, rho, 2, 1, (0,)),
    "effect_product_probability": lambda p, rho: kp.effect_product_probability(p, rho, (0,)),
    "oracle_compare": lambda p, rho: kp.oracle_compare(p, rho, 2),
    "delta_correlation": lambda p, rho: kp.delta_correlation(p, rho, 2, 1, PLUS_MINUS_VALUES),
    "delta_2_1": lambda p, rho: kp.delta_2_1(p, rho),
    "delta_3_2": lambda p, rho: kp.delta_3_2(p, rho),
    "lg_check": lambda p, rho: kp.lg_check(p, rho),
    "classical_wrt_state": lambda p, rho: kp.classical_wrt_state(rho, kp.generate_algebra(p.model.hamiltonians)),
    "zero_entanglement_condition": lambda p, rho: kp.zero_entanglement_condition(rho, p.model),
}


@pytest.mark.parametrize("reader", list(STATE_READERS))
def test_every_state_reader_refuses_a_state_of_the_wrong_size_alike(x_protocol, reader):
    with pytest.raises(ProtocolError, match=r"^state shape \(3, 3\) does not match operator \(2, 2\)$"):
        STATE_READERS[reader](x_protocol, np.eye(3) / 3)


class TestTransfer:
    """The scan's operators as real coordinates, pulled back through each step's transfer."""

    @pytest.mark.parametrize("d_s", range(1, _TRANSFER_MAX_DIM + 1))
    def test_coordinates_are_an_isometry(self, d_s):
        rng = np.random.default_rng(d_s)
        x, y = random_hermitian(rng, d_s), random_hermitian(rng, d_s)
        c = _coordinates(np.array([x, y]))
        assert c.dtype == float and c.shape == (2, d_s * d_s)
        assert np.array_equal(_matrices(c[0]), _matrices(c)[0])
        assert np.abs(_matrices(c) - [x, y]).max() <= 1e-15 * frobenius(x)
        assert abs(np.linalg.norm(c[0]) - frobenius(x)) <= 1e-15 * frobenius(x)
        assert abs(c[0] @ c[1] - np.trace(x @ y).real) <= 1e-14 * frobenius(x) * frobenius(y)
        # a non-Hermitian X reads as its Hermitian part
        z = x + 1j * y
        assert np.abs(_coordinates(z) - _coordinates((z + z.conj().T) / 2)).max() <= 1e-15 * frobenius(z)

    @pytest.mark.parametrize("d_p", [2, 3, 4])
    @pytest.mark.parametrize("d_s", range(1, _TRANSFER_MAX_DIM + 1))
    def test_the_transfer_is_the_heisenberg_step(self, d_p, d_s):
        rng = np.random.default_rng([d_p, d_s])
        model, zero_prep, bases = zero_amplitude_cycle(rng, d_p, d_s, n_steps=1)
        amps = rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p)
        full_prep = kp.PreparationState(amps / np.linalg.norm(amps))
        x = random_hermitian(rng, d_s)
        for prep in (zero_prep, full_prep):
            measurement = kp.MeasurementProtocol(model, prep, bases).step_measurements[0]
            transfer = _transfer(measurement)
            assert transfer.shape == (d_p, d_s * d_s, d_s * d_s)
            assert _transfer(measurement) is transfer  # kept on the measurement
            for k, effect, t in zip(measurement.kraus, measurement.effects, transfer, strict=True):
                scale = frobenius(x) * max(1.0, frobenius(k) ** 2)
                assert np.abs(_coordinates(x) @ t - _coordinates(k.conj().T @ x @ k)).max() <= 1e-15 * scale
                assert np.abs(_coordinates(np.eye(d_s)) @ t - _coordinates(effect)).max() <= 1e-15 * d_s

    @pytest.mark.parametrize("d_s", [_TRANSFER_MAX_DIM + 1, 16])
    def test_the_matrix_branch_matches_the_single_entry_routes(self, d_s):
        rng = np.random.default_rng(d_s)
        protocol = random_basis_protocol(rng, 2, d_s, 3, commuting=False)
        states = [np.eye(d_s, dtype=complex) / d_s, random_density(rng, d_s)]
        report = kp.check_kc_all(protocol, 3, states)
        assert len(report.entries) == len(scan_order(2, 3))
        # each n swept itself: the n = 3 entries of the scan to 3, and the
        # n = 2 entries of the scan to 2
        swept = [e for e in report.entries if e.n == 3] + list(kp.check_kc_all(protocol, 2, states).entries)
        assert len(swept) == len(report.entries)
        for e in swept:
            defect = kp.kc_defect_operator(protocol, e.n, e.j, e.fixed)
            norm = frobenius(defect)
            assert abs(e.operator_defect - norm) <= 1e-15 * max(1.0, norm)
            for rho, got in zip(states, e.state_defects, strict=True):
                assert abs(got - np.trace(rho @ defect).real) <= 1e-14
        # an n = 2 entry of the scan to 3 is read off the n = 3 sweep, so it
        # also carries the completeness residual of step 3, at most 2 |Delta_3|_F
        marginal = 2.0 * completeness_residuals(protocol)[2]
        for e in report.entries[:2]:
            assert e.n == 2
            defect = kp.kc_defect_operator(protocol, e.n, e.j, e.fixed)
            norm = frobenius(defect)
            assert abs(e.operator_defect - norm) <= 1e-15 * max(1.0, norm) + marginal
            for rho, got in zip(states, e.state_defects, strict=True):
                assert abs(got - np.trace(rho @ defect).real) <= 1e-14 + marginal

    @pytest.mark.parametrize("block_bytes", [1, 16 * 16 * 5, PREFIX_BLOCK_BYTES])
    @pytest.mark.parametrize("d_s", [4, 5, 7, _TRANSFER_MAX_DIM + 1])
    def test_the_report_does_not_depend_on_the_chunking(self, monkeypatch, d_s, block_bytes):
        # at d_S = 5 and 7 a plain product of a stack of rows with T[m] rounds
        # a row by the stack's length on some BLAS builds, which the scan's
        # column products do not; above _TRANSFER_MAX_DIM the scan holds matrices
        rng = np.random.default_rng(d_s)
        protocol = random_basis_protocol(rng, 2, d_s, 5, commuting=False)
        states = [np.eye(d_s, dtype=complex) / d_s, random_density(rng, d_s)]
        want = canonical_json(kp.check_kc_all(protocol, 5, states).to_dict())
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        assert canonical_json(kp.check_kc_all(protocol, 5, states).to_dict()) == want

    @pytest.mark.parametrize("block_bytes", [1, 16 * 3, PREFIX_BLOCK_BYTES])
    def test_a_classical_noise_report_does_not_depend_on_the_chunking(self, monkeypatch, block_bytes):
        protocol = kp.classical_noise_model(kp.random_noise_realization(5, 6), 6)
        assert protocol.system_dim == 1
        states = [np.eye(1, dtype=complex)]
        want = canonical_json(kp.check_kc_all(protocol, 6, states).to_dict())
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        assert canonical_json(kp.check_kc_all(protocol, 6, states).to_dict()) == want

    def test_one_pair_reads_as_in_the_all_pairs_scan(self, monkeypatch):
        protocol = kp.fourier_protocol(kp.random_model(5, 3, 2, commuting=False), 4)
        rho = random_density(np.random.default_rng(5), 2)
        pairs = [(n, j) for n in range(2, 5) for j in range(1, n)]
        (alone,) = _state_defects(protocol, [rho], [(3, 2)], kp.DEFAULT)
        # the all-pairs scan reads (3, 2) off the n = 4 sweep, to rounding
        scanned = _state_defects(protocol, [rho], pairs, kp.DEFAULT)[pairs.index((3, 2))]
        assert np.abs(alone - scanned).max() <= 1e-14
        # a pair that an all-pairs scan sweeps, at its deepest n, reads alike alone
        for n_max, pair in [(3, (3, 2)), (4, (4, 2)), (4, (4, 1))]:
            swept = [(n, j) for n in range(2, n_max + 1) for j in range(1, n)]
            (one,) = _state_defects(protocol, [rho], [pair], kp.DEFAULT)
            assert np.array_equal(one, _state_defects(protocol, [rho], swept, kp.DEFAULT)[swept.index(pair)])
        # and so does every pair of a scan that sweeps each n itself, as one
        # does where the completeness residuals are above rounding
        monkeypatch.setattr("kcprobe.sequences._LEVEL_BOUND", -1.0)
        assert np.array_equal(alone, _state_defects(protocol, [rho], pairs, kp.DEFAULT)[pairs.index((3, 2))])


class TestStateFreeScan:
    """A scan without a state sizes no traces and makes no trace product; its
    norms, verdict and entries are bit for bit those of the same scan with
    states, on either side of ``_TRANSFER_MAX_DIM``, and a grid point's are
    those of its protocol built alone."""

    @staticmethod
    def model(rng, d_p, d_s):
        if d_s == 1:  # random_model starts at 2; a scalar model commutes
            hams = tuple(np.array([[h]], dtype=complex) for h in rng.standard_normal(d_p))
            return kp.DephasingModel(d_p, 1, hams, 1.0)
        return kp.random_model(int(rng.integers(1 << 30)), d_p, d_s, commuting=False)

    @staticmethod
    def bases(d_p, n_max):
        if d_p == 2:
            return tuple(kp.xy_meter_basis(a) for a in "XYYXY"[:n_max])
        return (kp.fourier_meter_basis(d_p),) * n_max

    @staticmethod
    def without_states(report):
        """``report.to_dict()`` without its state fields."""
        data = report.to_dict()
        del data["max_state_defect"]
        data["entries"] = [{k: v for k, v in e.items() if k != "state_defects"} for e in data["entries"]]
        return canonical_json(data)

    @pytest.mark.parametrize("n_max", [2, 3, 4, 5])
    @pytest.mark.parametrize("d_p", [2, 3])
    @pytest.mark.parametrize("d_s", range(1, _TRANSFER_MAX_DIM + 2))
    def test_a_state_free_scan_reads_as_with_states(self, d_s, d_p, n_max):
        rng = np.random.default_rng([d_s, d_p, n_max])
        model = self.model(rng, d_p, d_s)
        preparation = kp.uniform_preparation(d_p)
        bases = self.bases(d_p, n_max)
        states = [np.eye(d_s, dtype=complex) / d_s, random_density(rng, d_s)]
        protocol = kp.MeasurementProtocol(model, preparation, bases)
        bare = kp.check_kc_all(protocol, n_max)  # the first scan builds what the steps keep
        stated = kp.check_kc_all(protocol, n_max, states)
        assert bare.max_state_defect is None and stated.max_state_defect is not None
        assert bare.entries._norms.tobytes() == stated.entries._norms.tobytes()
        assert bare.decided_by_n2_j1 == stated.decided_by_n2_j1
        assert self.without_states(bare) == self.without_states(stated)
        assert self.without_states(kp.check_kc_all(protocol, n_max)) == self.without_states(bare)
        # a grid's point, after the grid's own scan has built what its stacks
        # keep, reads as its protocol built and scanned alone
        models = [model.with_step_time(t) for t in (0.7, 1.0, 1.3)]
        (grid,) = kp.model._grids(models, preparation, {"steps": bases}).values()
        pairs = [(n, j) for n in range(2, n_max + 1) for j in range(1, n)]
        _state_defects(grid, states[:1], pairs, kp.DEFAULT)
        for g, point in enumerate(models):
            alone = kp.check_kc_all(kp.MeasurementProtocol(point, preparation, bases), n_max)
            assembled = kp.check_kc_all(grid.protocol(g), n_max)
            assert assembled.entries._norms.tobytes() == alone.entries._norms.tobytes()
            assert canonical_json(assembled.to_dict()) == canonical_json(alone.to_dict())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("d_s", [2, _TRANSFER_MAX_DIM + 1])
    def test_a_non_finite_step_raises_alike_without_a_warning(self, d_s, value):
        # the second step's Kraus operator 1 is poisoned, its stored effects
        # left finite: the scan with states and without raise the same fault,
        # naming the same first bad entry through the transfer (d = 2) as
        # through the matrices (d = 9), and no RuntimeWarning escapes either;
        # the probabilities, on a copy that keeps no transfer yet, raise the
        # Born rule's fault alone
        protocol = random_basis_protocol(np.random.default_rng(d_s), 2, d_s, 3, commuting=False)

        def poisoned():
            steps = list(protocol.step_measurements)
            kraus = np.array(steps[1].kraus)
            kraus[1] = value
            steps[1] = SimpleNamespace(kraus=kraus, effects=steps[1].effects)
            return SimpleNamespace(
                model=protocol.model,
                probe_dim=2,
                system_dim=d_s,
                n_steps=3,
                step_measurements=tuple(steps),
            )

        scanned, mixed = poisoned(), np.eye(d_s, dtype=complex) / d_s
        messages = []
        for states in (None, [mixed]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalFault) as fault:
                    kp.check_kc_all(scanned, 3, states)
            messages.append(str(fault.value))
        assert messages[0] == messages[1]
        assert re.fullmatch(r"defect norm (nan|inf) at n=2, j=1, fixed=\(1,\) is not finite", messages[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFault, match=r"^probability has imaginary residue nan$"):
                kp.full_distribution(poisoned(), mixed, 3)
