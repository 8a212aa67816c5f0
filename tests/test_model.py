import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kcprobe as kp
from kcprobe.errors import DimensionError, InvariantViolation, ProtocolError
from kcprobe.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, frobenius, unitary_from_eigensystem

from conftest import random_hermitian, zero_amplitude_cycle

I2 = np.eye(2, dtype=complex)


def trivial_model():
    zero = np.zeros((2, 2), dtype=complex)
    return kp.DephasingModel(2, 2, (zero, zero), 1.0)


class TestBuildConditionalHamiltonians:
    def test_commuting_pair(self):
        model = kp.build_conditional_hamiltonians(SIGMA_Z, SIGMA_Z, (0.0, 0.0), (0.0, 1.0))
        assert np.allclose(model.hamiltonians[0], SIGMA_Z)
        assert np.allclose(model.hamiltonians[1], 2.0 * SIGMA_Z)
        assert kp.is_commutative(model.hamiltonians)[0]

    def test_noncommuting_pair(self):
        model = kp.build_conditional_hamiltonians(SIGMA_Z, SIGMA_X, (0.0, 0.0), (0.0, 1.0))
        assert np.allclose(model.hamiltonians[1], SIGMA_Z + SIGMA_X)
        comm = kp.commutator(model.hamiltonians[0], model.hamiltonians[1])
        assert np.allclose(comm, 2j * SIGMA_Y)

    def test_scalar_multiples_of_identity(self):
        zero = np.zeros((2, 2))
        model = kp.build_conditional_hamiltonians(zero, SIGMA_X, (1.0, 2.0), (0.0, 0.0))
        assert np.allclose(model.hamiltonians[0], np.eye(2))
        assert np.allclose(model.hamiltonians[1], 2.0 * np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kp.build_conditional_hamiltonians(SIGMA_Z, np.eye(3), (0.0, 0.0), (0.0, 1.0))


class TestConditionalUnitaries:
    def test_zero_time(self):
        model = kp.DephasingModel(2, 2, (SIGMA_Z, SIGMA_X), 0.0)
        for u in kp.conditional_unitaries(model):
            assert np.allclose(u, I2)

    def test_sigma_pair_quarter_period(self, sigma_model):
        u_up, u_dn = kp.conditional_unitaries(sigma_model)
        assert np.allclose(u_up, -1j * SIGMA_Z, atol=1e-12)
        assert np.allclose(u_dn, -1j * SIGMA_X, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_phase_raises_without_a_warning(self):
        model = kp.random_model(3, 2, 2, commuting=False, scale=3.0)
        with pytest.raises(InvariantViolation, match="overflow"):
            kp.conditional_unitaries(model, 1e308)

    def test_equal_hamiltonians_give_equal_unitaries(self):
        h = random_hermitian(np.random.default_rng(0), 3)
        model = kp.DephasingModel(2, 3, (h, h), 0.8)
        u0, u1 = kp.conditional_unitaries(model)
        assert np.allclose(u0, u1)


class TestInducedKraus:
    def test_trivial_evolution(self):
        measurement = kp.induced_kraus(
            trivial_model(), kp.plus_x_preparation(), kp.xy_meter_basis("X")
        )
        assert np.allclose(measurement.kraus[0], I2)
        assert np.allclose(measurement.kraus[1], 0.0)
        assert np.allclose(measurement.effects[0], I2)
        assert np.allclose(measurement.effects[1], 0.0)

    def test_opposite_sign_dephasing(self):
        model = kp.DephasingModel(2, 2, (SIGMA_Z, -SIGMA_Z), np.pi / 4)
        measurement = kp.induced_kraus(model, kp.plus_x_preparation(), kp.xy_meter_basis("X"))
        assert np.allclose(measurement.effects[0], I2 / 2, atol=1e-12)

    def test_anticommuting_pair_degenerate_effects(self, sigma_model):
        measurement = kp.induced_kraus(
            sigma_model, kp.plus_x_preparation(), kp.xy_meter_basis("X")
        )
        assert np.allclose(measurement.effects[0], I2 / 2, atol=1e-12)
        assert np.allclose(measurement.effects[1], I2 / 2, atol=1e-12)

    def test_nan_unitaries_fail_completeness(self):
        nan = np.full((2, 2), np.nan, dtype=complex)
        prep, meter = kp.plus_x_preparation(), kp.xy_meter_basis("X")
        with pytest.raises(InvariantViolation, match="identity"):
            kp.induced_kraus(trivial_model(), prep, meter, unitaries=(nan, nan))

    def test_meter_orthonormality_is_enforced(self):
        s = 1.0 / np.sqrt(2.0)
        with pytest.raises(InvariantViolation):
            kp.MeterBasis(np.array([[s, s], [s, 0.9 * s]], dtype=complex), ("+", "-"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_meter_with_a_non_finite_state_is_not_orthonormal(self, bad):
        with pytest.raises(InvariantViolation, match="^meter states do not form an orthonormal basis$"):
            kp.MeterBasis([[bad, 0], [0, 1]], ("0", "1"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_preparation_with_a_non_finite_amplitude_is_not_normalized(self, bad):
        with pytest.raises(InvariantViolation, match=r"^preparation amplitudes have norm\^2 = (nan|inf), expected 1$"):
            kp.PreparationState([bad, 1])


def loop_induced_kraus(model, preparation, meter):
    """Per-outcome reference: each K_m summed weight by weight, zero weights skipped."""
    unitaries = kp.conditional_unitaries(model)
    kraus, effects = [], []
    for m in range(model.probe_dim):
        k = np.zeros((model.system_dim, model.system_dim), dtype=complex)
        for w, u in zip(preparation.amplitudes * meter.states[m].conj(), unitaries):
            if w != 0.0:
                k = k + w * u
        e = k.conj().T @ k
        kraus.append(k)
        effects.append((e + e.conj().T) / 2)
    return np.array(kraus), np.array(effects)


class TestStackedKraus:
    @pytest.mark.parametrize("d_p", [2, 3, 4])
    @pytest.mark.parametrize("d_s", [1, 2, 3, 4])
    def test_matches_the_per_outcome_loop(self, d_p, d_s):
        model, prep, (basis,) = zero_amplitude_cycle(np.random.default_rng([d_p, d_s]), d_p, d_s)
        assert prep.amplitudes[0] == 0.0
        measurement = kp.induced_kraus(model, prep, basis)
        kraus, effects = loop_induced_kraus(model, prep, basis)
        assert np.max(np.abs(measurement.kraus - kraus)) <= 1e-14
        assert np.max(np.abs(measurement.effects - effects)) <= 1e-14

    @staticmethod
    def assert_read_only_stack(a, shape):
        assert isinstance(a, np.ndarray) and a.shape == shape and a.dtype == np.complex128
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0, 0] = 1.0

    def test_protocol_measurements_are_read_only_stacks(self):
        model, prep, bases = zero_amplitude_cycle(np.random.default_rng(5), 3, 2, n_steps=2)
        for measurement in kp.MeasurementProtocol(model, prep, bases).step_measurements:
            self.assert_read_only_stack(measurement.kraus, (3, 2, 2))
            self.assert_read_only_stack(measurement.effects, (3, 2, 2))

    def test_tuples_are_stacked_and_copied(self):
        k = [I2.copy(), np.zeros((2, 2))]
        measurement = kp.InducedMeasurement(tuple(k), (I2, np.zeros((2, 2))), ("0", "1"))
        self.assert_read_only_stack(measurement.kraus, (2, 2, 2))
        self.assert_read_only_stack(measurement.effects, (2, 2, 2))
        k[0][0, 0] = 5.0
        assert measurement.kraus[0, 0, 0] == 1.0

    @pytest.mark.parametrize(
        "kraus, effects",
        [((I2, I2), (I2,)), (I2, I2), (np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))],
    )
    def test_other_shapes_raise(self, kraus, effects):
        with pytest.raises(DimensionError, match=r"\(d_P, d, d\)"):
            kp.InducedMeasurement(kraus, effects, ("0", "1"))

    def test_one_label_per_outcome(self):
        with pytest.raises(DimensionError, match="3 labels for 2 outcomes"):
            kp.InducedMeasurement((I2, I2), (I2, I2), ("0", "1", "2"))


class TestQubitXYProtocol:
    def test_kraus_forms_match_unitary_combinations(self, sigma_model):
        u_up, u_dn = kp.conditional_unitaries(sigma_model)
        protocol = kp.qubit_xy_protocol(sigma_model, "XY")
        kx = protocol.step_measurements[0].kraus
        assert frobenius(kx[0] - (u_up + u_dn) / 2) <= 1e-12
        assert frobenius(kx[1] - (u_up - u_dn) / 2) <= 1e-12
        ky = protocol.step_measurements[1].kraus
        assert frobenius(ky[0] - (u_up + 1j * u_dn) / 2) <= 1e-12
        assert frobenius(ky[1] - (u_up - 1j * u_dn) / 2) <= 1e-12

    def test_trivial_evolution_x_axis(self):
        protocol = kp.qubit_xy_protocol(trivial_model(), "X")
        assert np.allclose(protocol.step_measurements[0].kraus[0], I2)
        assert np.allclose(protocol.step_measurements[0].kraus[1], 0.0)

    def test_y_effects_of_sigma_pair(self, sigma_model):
        protocol = kp.qubit_xy_protocol(sigma_model, "Y")
        effects = protocol.step_measurements[0].effects
        assert np.allclose(effects[0], (I2 - SIGMA_Y) / 2, atol=1e-12)
        assert np.allclose(effects[1], (I2 + SIGMA_Y) / 2, atol=1e-12)
        ok, gap = kp.effect_nondegenerate(effects[0])
        assert ok and gap == pytest.approx(1.0)

    def test_multi_axis_structure(self, sigma_model):
        protocol = kp.qubit_xy_protocol(sigma_model, "XYX")
        assert protocol.n_steps == 3
        assert protocol.axes == ("X", "Y", "X")

    def test_requires_qubit_probe(self):
        model = kp.random_model(0, 3, 2, commuting=True)
        with pytest.raises(DimensionError):
            kp.qubit_xy_protocol(model, "XX")


class TestNonselectiveApply:
    def test_identity_fixed_both_directions(self, sigma_model):
        prep = kp.plus_x_preparation()
        for direction in ("state", "observable"):
            out = kp.nonselective_apply(sigma_model, prep, I2, direction)
            assert np.allclose(out, I2, atol=1e-12)

    def test_observable_direction_flips_effect(self, sigma_model):
        prep = kp.plus_x_preparation()
        e_plus = (I2 - SIGMA_Y) / 2
        out = kp.nonselective_apply(sigma_model, prep, e_plus, "observable")
        assert np.allclose(out, (I2 + SIGMA_Y) / 2, atol=1e-12)

    def test_commuting_model_effects_are_fixed_points(self):
        model = kp.random_model(7, 2, 3, commuting=True)
        protocol = kp.qubit_xy_protocol(model, "X")
        for effect in protocol.step_measurements[0].effects:
            out = kp.nonselective_apply(model, protocol.preparation, effect, "observable")
            assert frobenius(out - effect) <= 1e-10

    def test_trace_preserving_and_unital_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            model = kp.random_model(int(rng.integers(1 << 30)), 2, 4, commuting=False)
            prep = kp.plus_x_preparation()
            a = random_hermitian(rng, 4)
            out_state = kp.nonselective_apply(model, prep, a, "state")
            assert abs(np.trace(out_state) - np.trace(a)) <= 1e-12 * max(1.0, abs(np.trace(a)))
            out_obs = kp.nonselective_apply(model, prep, np.eye(4), "observable")
            assert frobenius(out_obs - np.eye(4)) <= 1e-12

    def test_direction_is_validated(self, sigma_model):
        with pytest.raises(ProtocolError):
            kp.nonselective_apply(sigma_model, kp.plus_x_preparation(), I2, "sideways")


class TestStackedCycles:
    def test_a_stack_of_cycles_is_each_cycle_alone(self):
        # the search's screen: (model, time) stacks of X, Y and Fourier cycles
        times = np.array([0.3, np.pi / 2, 2.0])
        for d_p, d_s, meters in ((2, 3, ("X", "Y")), (3, 2, ("F",)), (4, 4, ("F",))):
            models = [kp.random_model(seed, d_p, d_s, commuting=False) for seed in range(3)]
            cycles = [
                (kp.plus_x_preparation(), kp.xy_meter_basis(a)) if a in "XY"
                else (kp.uniform_preparation(d_p), kp.fourier_meter_basis(d_p))
                for a in (meters * 3)[:3]
            ]
            w = np.stack([m.eigenvalues for m in models])[:, None]
            v = np.stack([m.eigenvectors for m in models])[:, None]
            weights = np.stack([kp.model._cycle_weights(d_p, *cycle) for cycle in cycles])[:, None]
            unitaries = unitary_from_eigensystem(w, v, times[:, None])
            kraus, effects, completeness = kp.model._cycles(weights, unitaries, kp.DEFAULT)
            assert kraus.shape == effects.shape == (3, 3, d_p, d_s, d_s)
            assert completeness.shape == (3, 3)
            for c, (m, (prep, meter)) in enumerate(zip(models, cycles)):
                for g, t in enumerate(times):
                    alone = kp.induced_kraus(m.with_step_time(t), prep, meter)
                    # bit for bit: each cycle is the same steps whatever the stack
                    assert np.array_equal(kraus[c, g], alone.kraus)
                    assert np.array_equal(effects[c, g], alone.effects)
                    assert completeness[c, g] == kp.model._residual(alone)

    @pytest.mark.parametrize("step_times", [None, (0.3, 0.9, 0.3, 1.7)])
    def test_each_protocol_step_is_its_cycle_built_alone(self, step_times):
        # the one assembly, at the model's own step time or at each step's
        model = kp.random_model(5, 3, 3, commuting=False)
        other = kp.MeterBasis(kp.haar_unitary(3, np.random.default_rng(5)), ("a", "b", "c"))
        steps = (kp.fourier_meter_basis(3), other, kp.fourier_meter_basis(3), other)
        protocol = kp.MeasurementProtocol(model, kp.uniform_preparation(3), steps, step_times)
        for basis, t, built in zip(steps, protocol.effective_step_times(), protocol.step_measurements, strict=True):
            alone = kp.induced_kraus(model.with_step_time(t), protocol.preparation, basis)
            assert built.kraus.tobytes() == alone.kraus.tobytes()
            assert built.effects.tobytes() == alone.effects.tobytes()
            assert kp.model._residual(built) == kp.model._residual(alone)
            assert built.labels == basis.labels

    def test_a_stack_names_its_first_incomplete_cycle(self):
        weights = kp.model._cycle_weights(2, kp.plus_x_preparation(), kp.xy_meter_basis("X"))
        # cycle 0 is complete; cycles 1 and 2 scale the unitaries by 2 and 3
        unitaries = np.array([1.0, 2.0, 3.0])[:, None, None, None] * np.eye(2, dtype=complex)
        with pytest.raises(InvariantViolation, match=r"^effects do not sum to the identity: defect 4\.243e\+00$"):
            kp.model._cycles(weights, np.broadcast_to(unitaries, (3, 2, 2, 2)), kp.DEFAULT)

    def test_a_complete_cycle_has_positive_effects(self):
        # _cycles checks completeness alone: each effect is the Hermitian part
        # of K^H K, so lambda_min(E) >= -O(d eps) |K|^2, and completeness (which
        # a NaN fails too) bounds |K|^2 by 1 + 1e-10.  The cycles are made to
        # sit at that edge: integer spectra at norms 1e-6..1e5, in one shared
        # eigenbasis or not, at t = 0, at resonances (pi / scale, where every
        # U_i is +-1 on its eigenspaces and K_m can be exactly singular), at
        # random times and at 0.999 of the phase-rounding cap; pointer,
        # Fourier and Haar meters and uniform, random and zero-amplitude
        # preparations, each perturbed within its 1e-10 acceptance
        rng = np.random.default_rng(38)
        cap = kp.DEFAULT.unitarity / np.finfo(float).eps  # the largest |w t| a unitary is formed at
        complete = incomplete = 0
        for d_p in (2, 3, 4):
            labels = tuple(map(str, range(d_p)))
            meters = (np.eye(d_p), kp.fourier_meter_basis(d_p).states, kp.haar_unitary(d_p, rng))
            for d_s in (1, 2, 3, 5, 8, 16, 32):
                scale = 10 ** rng.uniform(-6.0, 5.0)
                shared = kp.haar_unitary(d_s, rng)
                for v in (shared, None):
                    hams = []
                    for _ in range(d_p):  # few levels: degenerate spectra
                        basis = kp.haar_unitary(d_s, rng) if v is None else v
                        hams.append(scale * (basis * rng.integers(-2, 3, d_s)) @ basis.conj().T)
                    model = kp.DephasingModel(d_p, d_s, tuple((h + h.conj().T) / 2 for h in hams), 1.0)
                    top = max(float(np.abs(model.eigenvalues).max()), scale)
                    times = np.array([0.0, np.pi / scale, np.pi / (2 * scale), 0.999 * cap / top])
                    times = np.concatenate((times, rng.uniform(0.0, 0.999, 2) * cap / top))
                    unitaries = unitary_from_eigensystem(model.eigenvalues, model.eigenvectors, times[:, None])
                    for states in meters:
                        for amps in (np.ones(d_p), rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p)):
                            amps = amps * (np.arange(d_p) > 0) if rng.integers(2) else amps
                            try:
                                size = 10 ** rng.uniform(-13.0, -10.8)
                                meter = kp.MeterBasis(states + size * random_hermitian(rng, d_p), labels)
                                amps = amps * np.sqrt(1.0 + rng.uniform(-1e-10, 1e-10)) / np.linalg.norm(amps)
                                preparation = kp.PreparationState(amps)
                            except InvariantViolation:  # outside their acceptance: not a cycle
                                continue
                            weights = kp.model._cycle_weights(d_p, preparation, meter)
                            try:
                                effects = kp.model._cycles(weights, unitaries, kp.DEFAULT)[1]
                            except InvariantViolation:
                                incomplete += len(times)
                                continue
                            complete += len(times)
                            lowest = np.linalg.eigvalsh(effects)[..., 0]
                            norms = np.linalg.norm(effects, 2, axis=(-2, -1))
                            assert np.all(lowest >= -1e-13 * np.maximum(1.0, norms))
        assert complete > 500 and incomplete > 0, (complete, incomplete)


class TestProtocolShape:
    def test_prefix_and_drop_step(self, sigma_model):
        protocol = kp.qubit_xy_protocol(sigma_model, "XYX")
        assert protocol.prefix(2).axes == ("X", "Y")
        assert protocol.drop_step(2).axes == ("X", "X")
        with pytest.raises(ProtocolError):
            protocol.drop_step(4)

    def test_step_times_override(self, sigma_model):
        basis = kp.xy_meter_basis("X")
        protocol = kp.MeasurementProtocol(
            sigma_model, kp.plus_x_preparation(), (basis, basis), (0.3, 0.9)
        )
        assert protocol.effective_step_times() == (0.3, 0.9)
        # per-step measurements really use their own durations
        u_fast = kp.conditional_unitaries(sigma_model, 0.3)
        expected = (u_fast[0] + u_fast[1]) / 2
        assert frobenius(protocol.step_measurements[0].kraus[0] - expected) <= 1e-12


def _count_cycles(monkeypatch) -> list:
    """The cycles that each call of the one Kraus builder, ``_cycles``, builds."""
    calls = []
    original = kp.model._cycles

    def counting(weights, unitaries, tol):
        built = original(weights, unitaries, tol)
        calls.append(built[2].size)
        return built

    monkeypatch.setattr(kp.model, "_cycles", counting)
    return calls


class TestProtocolSlicing:
    def test_prefix_and_drop_step_reuse_the_parent_measurements(self, sigma_model):
        protocol = kp.qubit_xy_protocol(sigma_model, "XYYX")
        parent = protocol.step_measurements
        for n, kept in ((1, (0,)), (3, (0, 1, 2))):
            sub = protocol.prefix(n)
            assert sub.step_bases == tuple(protocol.step_bases[k] for k in kept)
            assert all(m is parent[k] for m, k in zip(sub.step_measurements, kept, strict=True))
        for j, kept in ((1, (1, 2, 3)), (2, (0, 2, 3)), (4, (0, 1, 2))):
            sub = protocol.drop_step(j)
            assert sub.axes == tuple(protocol.axes[k] for k in kept)
            assert all(m is parent[k] for m, k in zip(sub.step_measurements, kept, strict=True))
            assert sub.step_times is None and sub.model is protocol.model
        assert protocol.prefix(4) is protocol

    def test_slices_keep_per_step_times(self):
        realization = kp.NoiseRealization((0.3, -1.1, 2.0, 0.7), (1.0, 0.5, 1.0, 2.0))
        protocol = kp.classical_noise_model(realization, 4)
        times = protocol.step_times
        assert len(set(times)) == 4
        for sub, kept in (
            (protocol.prefix(2), (0, 1)),
            (protocol.drop_step(1), (1, 2, 3)),
            (protocol.drop_step(3), (0, 1, 3)),
            (protocol.drop_step(3).drop_step(1), (1, 3)),
        ):
            assert sub.step_times == tuple(times[k] for k in kept)
            assert sub.effective_step_times() == sub.step_times
            rebuilt = kp.MeasurementProtocol(
                protocol.model, protocol.preparation, sub.step_bases, sub.step_times
            )
            for mine, fresh in zip(sub.step_measurements, rebuilt.step_measurements, strict=True):
                assert all(np.array_equal(a, b) for a, b in zip(mine.kraus, fresh.kraus))
                assert all(np.array_equal(a, b) for a, b in zip(mine.effects, fresh.effects))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda p: p.prefix(0), "n = 0 not in 1..3"),
            (lambda p: p.prefix(4), "n = 4 not in 1..3"),
            (lambda p: p.drop_step(0), "step 0 out of range 1..3"),
            (lambda p: p.drop_step(4), "step 4 out of range 1..3"),
            (lambda p: p.prefix(1).drop_step(1), "cannot drop the only step of a protocol"),
        ],
    )
    def test_slicing_errors(self, sigma_model, call, message):
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            call(kp.qubit_xy_protocol(sigma_model, "XYX"))

    def test_oracle_builds_no_measurement_after_the_protocol(self, monkeypatch):
        model = kp.random_model(4, 3, 2, commuting=False)
        protocol = kp.fourier_protocol(model, 4)
        calls = _count_cycles(monkeypatch)
        report = kp.oracle_compare(protocol, np.eye(2) / 2, 4)
        assert report.agrees
        assert calls == []

    @pytest.mark.parametrize("axes, builds", [("XXX", 1), ("XYX", 2), ("YXYY", 2), ("Y", 1)])
    def test_identical_steps_share_one_measurement(self, sigma_model, monkeypatch, axes, builds):
        calls = _count_cycles(monkeypatch)
        protocol = kp.qubit_xy_protocol(sigma_model, axes)
        assert calls == [builds]  # one stacked build of the distinct cycles
        for a, m in zip(protocol.axes, protocol.step_measurements):
            assert m is protocol.step_measurements[protocol.axes.index(a)]

    def test_steps_with_different_times_do_not_share(self, sigma_model):
        basis = kp.xy_meter_basis("X")
        protocol = kp.MeasurementProtocol(
            sigma_model, kp.plus_x_preparation(), (basis,) * 3, (0.3, 0.9, 0.3)
        )
        first, second, third = protocol.step_measurements
        assert first is third and first is not second

    def test_distinct_bases_with_equal_kets_and_labels_share(self, sigma_model, monkeypatch):
        calls = _count_cycles(monkeypatch)
        first = kp.xy_meter_basis("X")
        second = kp.MeterBasis(first.states.copy(), first.labels)
        protocol = kp.MeasurementProtocol(
            sigma_model, kp.plus_x_preparation(), (first, second, first, second), (0.3, 0.3, 0.9, 0.9)
        )
        assert calls == [2]  # one per duration
        a, b, c, d = protocol.step_measurements
        assert a is b and c is d and a is not c

    def test_bases_with_different_labels_do_not_share(self, sigma_model, monkeypatch):
        calls = _count_cycles(monkeypatch)
        x = kp.xy_meter_basis("X")
        relabelled = kp.MeterBasis(x.states, ("0", "1"), name="X")
        protocol = kp.MeasurementProtocol(sigma_model, kp.plus_x_preparation(), (x, relabelled))
        assert calls == [2]
        assert [m.labels for m in protocol.step_measurements] == [("+", "-"), ("0", "1")]


class TestEigensystems:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(8)
        return kp.DephasingModel(3, 4, tuple(random_hermitian(rng, 4) for _ in range(3)), 0.6)

    def test_eigensystems_diagonalize_the_hamiltonians(self, model):
        for h, w, v in zip(model.hamiltonians, model.eigenvalues, model.eigenvectors, strict=True):
            assert frobenius((v * w) @ v.conj().T - h) <= 1e-12
            assert not w.flags.writeable and not v.flags.writeable

    @pytest.mark.parametrize("t", [0.0, -0.0, 0.6, -1.7, np.pi / 2, 12.5])
    def test_conditional_unitaries_are_bitwise_unitary_from_hamiltonian(self, model, t):
        expected = [kp.unitary_from_hamiltonian(h, t) for h in model.hamiltonians]
        for u, ref in zip(kp.conditional_unitaries(model, t), expected, strict=True):
            assert np.array_equal(u, ref)
        if t == 0.0:
            assert all(np.array_equal(u, np.eye(4)) for u in expected)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_raises(self, model, t):
        with pytest.raises(InvariantViolation, match="time must be finite"):
            kp.conditional_unitaries(model, t)
        with pytest.raises(InvariantViolation, match="time must be finite"):
            kp.unitary_from_hamiltonian(model.hamiltonians[0], t)

    def test_grid_unitaries_are_the_per_time_ones(self, model):
        rng = np.random.default_rng(9)
        models = [model] + [
            kp.DephasingModel(3, 4, tuple(random_hermitian(rng, 4) for _ in range(3)), 1.0) for _ in range(2)
        ]
        times = np.array([0.0, 0.6, -1.7, np.pi / 2, np.pi, 12.5])
        w = np.stack([m.eigenvalues for m in models])[:, None]
        v = np.stack([m.eigenvectors for m in models])[:, None]
        grid = unitary_from_eigensystem(w, v, times[:, None])
        assert grid.shape == (3, 6, 3, 4, 4)
        for c, m in enumerate(models):
            for g, t in enumerate(times):
                for i in range(3):
                    alone = unitary_from_eigensystem(m.eigenvalues[i], m.eigenvectors[i], t)
                    assert np.max(np.abs(grid[c, g, i] - alone)) <= 1e-15

    @pytest.mark.parametrize("t", [0.0, 1e-320])
    def test_a_time_without_phase_gives_the_exact_identity(self, model, t):
        # every |w t| at most eps / 2: exp(-i t H) is within half an ulp of 1
        grid = unitary_from_eigensystem(model.eigenvalues, model.eigenvectors, np.array([[t], [0.6]]))
        assert np.array_equal(grid[0], np.broadcast_to(np.eye(4), (3, 4, 4)))
        assert not np.array_equal(grid[1, 0], np.eye(4))
        assert all(np.array_equal(u, np.eye(4)) for u in kp.conditional_unitaries(model, t))

    @pytest.mark.parametrize(
        "times, message",
        [
            # |w| is 3 and 1: the first failing (time, eigensystem) in C order is (2e5, 3)
            ([1e5, 2e5, 1e6], r"^phase \|w\*t\| = 6\.000e\+05 rad at time 200000\.0 has a rounding error"),
            ([1e5, 1e308], r"^phases w\*t overflow at time 1e\+308$"),
            ([1e5, np.nan, 1e6], r"^step time must be finite, got nan$"),
        ],
    )
    def test_a_stack_names_its_first_failing_time(self, times, message):
        w = np.array([[3.0, 0.0], [1.0, -1.0]])
        v = np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2))
        with pytest.raises(InvariantViolation, match=message):
            unitary_from_eigensystem(w, v, np.array(times)[:, None])

    def test_with_step_time_shares_the_eigensystems(self, model):
        moved = model.with_step_time(2.5)
        assert moved.step_time == 2.5 and model.step_time == 0.6
        assert moved.eigenvalues is model.eigenvalues and moved.eigenvectors is model.eigenvectors
        assert moved.hamiltonians is model.hamiltonians
        for u, ref in zip(kp.conditional_unitaries(moved), kp.conditional_unitaries(model, 2.5)):
            assert np.array_equal(u, ref)
        with pytest.raises(InvariantViolation, match="step time must be finite"):
            model.with_step_time(np.nan)


class TestFourierBasis:
    def test_reduces_to_x_basis_for_qubits(self):
        fourier = kp.fourier_meter_basis(2)
        x_basis = kp.xy_meter_basis("X")
        assert np.allclose(fourier.states, x_basis.states)

    def test_orthonormal_for_larger_probes(self):
        for d in (3, 4):
            basis = kp.fourier_meter_basis(d)
            gram = basis.states @ basis.states.conj().T
            assert np.allclose(gram, np.eye(d), atol=1e-12)

    def test_fourier_protocol_shape(self):
        model = kp.random_model(1, 3, 2, commuting=True)
        protocol = kp.fourier_protocol(model, 3)
        assert protocol.n_steps == 3
        assert protocol.probe_dim == 3


class TestPovmInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 4), st.integers(2, 5))
    def test_random_meter_bases_give_complete_povms(self, seed, d_p, d_s):
        rng = np.random.default_rng(seed)
        hams = tuple(random_hermitian(rng, d_s) for _ in range(d_p))
        model = kp.DephasingModel(d_p, d_s, hams, float(rng.uniform(0.1, 2.0)))
        basis = kp.MeterBasis(kp.haar_unitary(d_p, rng), tuple(map(str, range(d_p))))
        amps = rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p)
        prep = kp.PreparationState(amps / np.linalg.norm(amps))
        measurement = kp.induced_kraus(model, prep, basis)
        total = sum(measurement.effects)
        assert frobenius(total - np.eye(d_s)) <= 1e-10
        for k, effect in zip(measurement.kraus, measurement.effects):
            assert np.linalg.eigvalsh(effect)[0] >= -1e-10
            assert frobenius(effect - k.conj().T @ k) <= 1e-12

    def test_xy_effect_pairs_are_antisymmetric_about_half(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model = kp.DephasingModel(
                2, 3, (random_hermitian(rng, 3), random_hermitian(rng, 3)), 0.7
            )
            for axis in "XY":
                effects = kp.qubit_xy_protocol(model, axis).step_measurements[0].effects
                eye = np.eye(3)
                assert frobenius(effects[0] + effects[1] - eye) <= 1e-12
                assert frobenius((effects[0] - eye / 2) + (effects[1] - eye / 2)) <= 1e-12

    def test_commuting_hamiltonians_give_commuting_kraus_and_effects(self):
        rng = np.random.default_rng(3)
        for seed in rng.integers(0, 1 << 30, size=10):
            model = kp.random_model(int(seed), 2, 4, commuting=True)
            measurement = kp.induced_kraus(
                model, kp.plus_x_preparation(), kp.xy_meter_basis("Y")
            )
            for k in measurement.kraus:
                for e in measurement.effects:
                    assert frobenius(kp.commutator(k, e)) <= 1e-10
