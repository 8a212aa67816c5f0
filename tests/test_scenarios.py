import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kcprobe as kp
from kcprobe import scenarios, sequences
from kcprobe.cli import main
from kcprobe.errors import CapacityError, DimensionError, InvariantViolation, PreconditionError, ProtocolError
from kcprobe.linalg import SIGMA_X, SIGMA_Z, _frobenius, frobenius
from kcprobe.serialize import fingerprint, model_payload


def reference_hamiltonians(seed, probe_dim, system_dim, commuting, scale=1.0):
    """``random_model``'s Hamiltonians drawn by a loop of their own, with the
    number of noncommuting draws taken: each Hamiltonian from a real and then
    an imaginary ``standard_normal((d, d))`` block, the whole draw redrawn by
    ``is_commutative`` while its norm is below ``_REDRAW_CUT * scale**2``
    (read at call time); or one Haar basis and a uniform spectrum each."""
    rng = np.random.default_rng(seed)
    d = system_dim
    if commuting:
        v = kp.haar_unitary(d, rng)
        hams = []
        for _ in range(probe_dim):
            h = (v * rng.uniform(-abs(scale), abs(scale), size=d)) @ v.conj().T
            hams.append((h + h.conj().T) / 2)
        return hams, 0
    draws = 0
    while True:
        draws += 1
        hams = []
        for _ in range(probe_dim):
            g = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
            hams.append((g + g.conj().T) / 2)
        if kp.is_commutative(hams)[1] >= scenarios._REDRAW_CUT * scale**2:
            return hams, draws


def reference_model(seed, probe_dim, system_dim, commuting, scale=1.0):
    hams, _ = reference_hamiltonians(seed, probe_dim, system_dim, commuting, scale)
    return kp.DephasingModel(probe_dim, system_dim, tuple(hams), 1.0)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRandomModel:
    def test_commuting_by_construction(self):
        for seed in range(10):
            model = kp.random_model(seed, 2, 4, commuting=True)
            ok, worst = kp.is_commutative(model.hamiltonians)
            assert ok, worst

    def test_noncommuting_has_separated_commutator(self):
        for seed in range(10):
            model = kp.random_model(seed, 3, 3, commuting=False)
            _, worst = kp.is_commutative(model.hamiltonians)
            assert worst > 1e-6

    def test_bit_stable_determinism(self):
        a = kp.random_model(1234, 2, 3, commuting=True)
        b = kp.random_model(1234, 2, 3, commuting=True)
        for ha, hb in zip(a.hamiltonians, b.hamiltonians):
            assert np.array_equal(ha, hb)
        assert fingerprint(model_payload(a)) == fingerprint(model_payload(b))

    def test_a_small_scale_draws_the_scaled_model(self):
        # the redraw cut scales with scale**2, so a small scale neither hangs
        # nor redraws more often than scale 1
        for seed in range(5):
            unit = kp.random_model(seed, 2, 3, commuting=False)
            small = kp.random_model(seed, 2, 3, commuting=False, scale=1e-4)
            for h, h_small in zip(unit.hamiltonians, small.hamiltonians):
                assert frobenius(h_small - 1e-4 * h) <= 1e-15 * frobenius(h_small)

    @pytest.mark.parametrize("scale", [0.0, np.nan, np.inf])
    @pytest.mark.parametrize("commuting", [False, True])
    def test_zero_or_non_finite_scale_is_refused(self, scale, commuting):
        with pytest.raises(PreconditionError, match="scale must be finite and nonzero"):
            kp.random_model(0, 2, 2, commuting, scale=scale)

    @pytest.mark.parametrize("scale", [1e154, 1e200, 1e300, 1e308, -1e308, np.nextafter(1e64, np.inf)])
    @pytest.mark.parametrize("commuting", [False, True])
    def test_a_scale_whose_draw_could_overflow_is_refused(self, monkeypatch, scale, commuting):
        # refused before anything is drawn, with one message (the suite turns
        # a RuntimeWarning into an error, so none is emitted either)
        monkeypatch.setattr("numpy.random.default_rng", lambda *args: pytest.fail("drew"))
        with pytest.raises(PreconditionError, match=r"^\|scale\| must be at most 1e\+64, got "):
            kp.random_model(0, 2, 2, commuting, scale=scale)

    @pytest.mark.parametrize("scale", [1e64, -1e64, -1.0])
    @pytest.mark.parametrize("commuting", [False, True])
    def test_a_scale_within_the_bound_draws_without_overflow(self, scale, commuting):
        # the largest draws: four Hamiltonians of d_S 16; a negative scale
        # draws the commuting spectra in [scale, -scale]
        for seed in range(3):
            model = kp.random_model(seed, 4, 16, commuting, scale=scale, step_time=1e-70)
            assert np.isfinite(model.eigenvalues).all()
            assert np.abs(model.eigenvalues).max() <= 16 * 14 * abs(scale)
            hams, _ = reference_hamiltonians(seed, 4, 16, commuting, scale)
            assert same_bits(model.hamiltonians, hams)

    @pytest.mark.parametrize("commuting", [False, True])
    @pytest.mark.parametrize("probe_dim", [2, 3, 4])
    def test_the_draw_is_the_reference_loop(self, probe_dim, commuting):
        # seeds 0-49 at d_S 2-8: Hamiltonians and eigensystems bit for bit
        for seed in range(50):
            for system_dim in range(2, 9):
                model = kp.random_model(seed, probe_dim, system_dim, commuting)
                reference = reference_model(seed, probe_dim, system_dim, commuting)
                for name in ("hamiltonians", "eigenvalues", "eigenvectors"):
                    assert same_bits(getattr(model, name), getattr(reference, name)), (seed, system_dim, name)

    @pytest.mark.parametrize("probe_dim, system_dim", [(2, 2), (3, 3), (4, 2)])
    def test_a_forced_redraw_lands_on_its_own_trial(self, monkeypatch, probe_dim, system_dim):
        # at the median first-draw norm about half of the trials redraw, some
        # more than once, each from its own generator, in one stack of trials
        seeds = list(range(40))
        first = [kp.is_commutative(reference_hamiltonians(s, probe_dim, system_dim, False)[0])[1] for s in seeds]
        monkeypatch.setattr("kcprobe.scenarios._REDRAW_CUT", float(np.median(first)))
        drawn = [reference_hamiltonians(s, probe_dim, system_dim, False) for s in seeds]
        assert {draws for _, draws in drawn} >= {1, 2, 3}
        stack = scenarios._noncommuting_hamiltonians(seeds, probe_dim, system_dim)
        for seed, hams, (reference, _) in zip(seeds, stack, drawn, strict=True):
            assert same_bits(hams, reference), seed
        # the search's trials: at t = 0 every trial is screened in and built
        built = {}
        monkeypatch.setattr(
            "kcprobe.scenarios._evaluate_candidate",
            lambda model, axis, t, gap, source, seed, index, tol: built.setdefault(index, model.hamiltonians),
        )
        search = (8, 40, probe_dim, system_dim, (0.0,), [])
        kp.counterexample_search(*search)
        candidates = list(search_candidates(*search))
        assert list(built) == [c[5] for c in candidates]
        for model, *_, index in candidates:
            assert same_bits(built[index], model.hamiltonians), index

    @pytest.mark.parametrize("above", [False, True])
    def test_a_trial_at_the_cut_is_kept_and_one_ulp_below_it_redrawn(self, monkeypatch, above):
        # the draws whose commutator norm a complex sum (the stacked norm of
        # an earlier draw) rounds otherwise than is_commutative: a cut at the
        # norm keeps the trial, a cut one ulp above it redraws the trial, in
        # a stack of trials and through the search, as the reference loop
        def complex_sum_norm(a, b):
            flat = (a @ b - b @ a).ravel()
            return float(np.sqrt(np.vecdot(flat, flat).real))

        ties = []
        for seed in range(100):
            (a, b), _ = reference_hamiltonians(seed, 2, 4, False)
            exact = kp.is_commutative([a, b])[1]
            if complex_sum_norm(a, b) != exact:
                ties.append((seed, np.nextafter(exact, np.inf) if above else exact))
        assert len(ties) >= 10
        for seed, cut in ties:
            monkeypatch.setattr("kcprobe.scenarios._REDRAW_CUT", cut)
            reference, draws = reference_hamiltonians(seed, 2, 4, False)
            assert (draws > 1) == above
            stack = scenarios._noncommuting_hamiltonians([0, seed, 1], 2, 4)
            assert same_bits(stack[1], reference), seed
        # the search's own trials: a cut at one tie trial's norm, or one ulp above it
        built = {}
        monkeypatch.setattr(
            "kcprobe.scenarios._evaluate_candidate",
            lambda model, axis, t, gap, source, seed, index, tol: built.setdefault(index, model.hamiltonians),
        )
        search = (8, 30, 2, 4, (0.0,), [])
        monkeypatch.setattr("kcprobe.scenarios._REDRAW_CUT", 0.0)
        first = {c[5]: c[0].hamiltonians for c in search_candidates(*search)}
        index = next(i for i, hams in first.items() if complex_sum_norm(*hams) != kp.is_commutative(hams)[1])
        exact = kp.is_commutative(first[index])[1]
        monkeypatch.setattr("kcprobe.scenarios._REDRAW_CUT", np.nextafter(exact, np.inf) if above else exact)
        kp.counterexample_search(*search)
        for model, *_, i in search_candidates(*search):
            assert same_bits(built[i], model.hamiltonians), i
        assert same_bits(built[index], first[index]) != above

    def test_dimension_limits(self):
        with pytest.raises(DimensionError):
            kp.random_model(0, 5, 2, commuting=True)
        with pytest.raises(DimensionError):
            kp.random_model(0, 2, 17, commuting=True)

    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(5)
        u = kp.haar_unitary(6, rng)
        assert frobenius(u.conj().T @ u - np.eye(6)) <= 1e-12


class TestNVModel:
    def test_zero_field_is_commutative(self):
        model = kp.nv_center_model(1, 0.0, 0.0, (0.4, 0.3, 0.2))
        ok, _ = kp.is_commutative(model.hamiltonians)
        assert ok
        assert frobenius(model.hamiltonians[0]) == 0.0

    def test_no_transverse_coupling_is_commutative(self):
        couplings = [[0.0, 0.0, 1.1], [0.0, 0.0, 0.7]]
        model = kp.nv_center_model(2, 1.5, 0.3, couplings)
        ok, _ = kp.is_commutative(model.hamiltonians)
        assert ok

    def test_transverse_coupling_commutator_norm(self):
        model = kp.nv_center_model(1, 1.0, 0.0, (1.0, 0.0, 0.0))
        _, worst = kp.is_commutative(model.hamiltonians)
        assert worst == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)

    def test_splitting_never_affects_commutativity(self):
        for splitting in (0.0, 3.7):
            model = kp.nv_center_model(1, 1.0, splitting, (1.0, 0.0, 0.0))
            _, worst = kp.is_commutative(model.hamiltonians)
            assert worst == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)

    def test_dimension_scaling_and_limits(self):
        model = kp.nv_center_model(3, 0.5, 0.0, np.ones((3, 3)))
        assert model.system_dim == 8
        with pytest.raises(DimensionError):
            kp.nv_center_model(6, 0.5, 0.0, np.ones((6, 3)))


class TestClassicalNoise:
    def test_quarter_turn_effects(self):
        realization = kp.NoiseRealization((np.pi / 4,), (1.0,))
        protocol = kp.classical_noise_model(realization, 1)
        effects = protocol.step_measurements[0].effects
        assert effects[0][0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert effects[1][0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_zero_phase_effects(self):
        realization = kp.NoiseRealization((0.0,), (1.0,))
        protocol = kp.classical_noise_model(realization, 1)
        effects = protocol.step_measurements[0].effects
        assert effects[0][0, 0].real == pytest.approx(1.0)
        assert effects[1][0, 0].real == pytest.approx(0.0, abs=1e-15)

    def test_kraus_scalars_match_trig_values(self):
        realization = kp.random_noise_realization(17, 4)
        protocol = kp.classical_noise_model(realization, 4)
        for alpha, measurement in zip(realization.phases(), protocol.step_measurements):
            assert measurement.kraus[0][0, 0] == pytest.approx(np.cos(alpha), abs=1e-12)
            assert measurement.kraus[1][0, 0] == pytest.approx(-1j * np.sin(alpha), abs=1e-12)

    def test_every_realization_is_consistent(self):
        for seed in range(10):
            realization = kp.random_noise_realization(seed, 4)
            protocol = kp.classical_noise_model(realization, 4)
            report = kp.check_kc_all(protocol, 4)
            assert report.consistent
            assert report.max_operator_defect <= 1e-10

    def test_needs_enough_segments(self):
        realization = kp.random_noise_realization(0, 2)
        with pytest.raises(PreconditionError):
            kp.classical_noise_model(realization, 3)

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_needs_a_step_as_every_protocol_does(self, n_steps):
        with pytest.raises(ProtocolError, match="^a protocol needs at least one step$"):
            kp.classical_noise_model(kp.random_noise_realization(0, 2), n_steps)


class TestNoiseEnsemble:
    def test_single_realization_matches_direct_distribution(self):
        realization = kp.random_noise_realization(3, 3)
        rho = np.array([[1.0]], dtype=complex)
        direct = kp.full_distribution(kp.classical_noise_model(realization, 3), rho, 3)
        averaged = kp.noise_ensemble_average([realization], [1.0], 3)
        for seq, p in direct.table.items():
            assert averaged.table[seq] == pytest.approx(p, abs=1e-15)

    def test_two_point_mixture_single_step(self):
        quiet = kp.NoiseRealization((0.0,), (1.0,))
        loud = kp.NoiseRealization((np.pi / 2,), (1.0,))
        averaged = kp.noise_ensemble_average([quiet, loud], [0.5, 0.5], 1)
        assert averaged.table[(0,)] == pytest.approx(0.5, abs=1e-12)

    def test_mixture_normalization_and_consistency(self):
        rng = np.random.default_rng(9)
        realizations = [kp.random_noise_realization(int(s), 4) for s in rng.integers(0, 1 << 30, 5)]
        weights = rng.uniform(0.2, 1.0, size=5)
        weights = weights / weights.sum()
        dist = kp.noise_ensemble_average(realizations, weights, 4)
        assert sum(dist.table.values()) == pytest.approx(1.0, abs=1e-10)
        assert kp.ensemble_kc_max_defect(realizations, weights, 4) <= 1e-10

    def test_n_max_is_checked_on_the_built_protocols(self):
        realizations = [kp.random_noise_realization(s, 2) for s in (1, 2)]
        with pytest.raises(ProtocolError, match=r"^n_max = 1 not in 2\.\.1$"):
            kp.ensemble_kc_max_defect(realizations, [0.5, 0.5], 1)

    def test_weights_must_normalize(self):
        realization = kp.random_noise_realization(0, 2)
        with pytest.raises(PreconditionError):
            kp.noise_ensemble_average([realization], [0.9], 2)

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0], [np.inf, -np.inf]])
    def test_non_finite_weights_are_rejected(self, weights):
        realizations = [kp.random_noise_realization(s, 2) for s in (1, 2)]
        with pytest.raises(PreconditionError):
            kp.noise_ensemble_average(realizations, weights, 2)
        with pytest.raises(PreconditionError):
            kp.ensemble_kc_max_defect(realizations, weights, 2)

    def test_cap_is_checked_before_any_defect(self, monkeypatch):
        calls = []
        monkeypatch.setattr("kcprobe.sequences._scan", lambda *args: calls.append(args))
        realizations = [kp.random_noise_realization(s, 4) for s in (1, 2)]
        tol = kp.DEFAULT.replace(enumeration_cap=8)
        with pytest.raises(CapacityError, match=r"^2\^4 = 16 sequences exceeds cap 8$"):
            kp.ensemble_kc_max_defect(realizations, [0.5, 0.5], 4, tol)
        assert calls == []

    def test_one_scan_per_realization(self, monkeypatch):
        scans = []
        scan = kp.sequences._scan
        monkeypatch.setattr("kcprobe.sequences._scan", lambda *args: scans.append(args[1]) or scan(*args))
        realizations = [kp.random_noise_realization(s, 5) for s in range(4)]
        assert kp.ensemble_kc_max_defect(realizations, [0.25] * 4, 5) <= 1e-10
        assert scans == [[(n, j) for n in range(2, 6) for j in range(1, n)]] * 4


class TestCounterexampleSearch:
    def test_canonical_instance_is_found(self):
        # the sigma_z/sigma_x X-axis effects stay proportional to the
        # identity at every step time, so each grid point qualifies
        model = kp.degenerate_qubit_instance()
        findings = kp.counterexample_search(
            0, 1, t_grid=(np.pi / 4, np.pi / 2), include=[(model, "X")]
        )
        canonical = [f for f in findings if f.source == "include"]
        assert [f.step_time for f in canonical] == pytest.approx([np.pi / 4, np.pi / 2])
        for f in canonical:
            assert f.max_effect_gap <= 1e-10
            assert f.max_operator_defect <= 1e-10
            assert f.generator_commutator == pytest.approx(2 * np.sqrt(2.0))

    def test_zero_trials_rejected(self):
        with pytest.raises(PreconditionError):
            kp.counterexample_search(0, 0)

    @pytest.mark.parametrize(
        "probe_dim, system_dim, message",
        [(5, 2, "probe dimension 5 not in 2..4"), (2, 17, "system dimension 17 not in 2..16")],
    )
    def test_trials_keep_random_model_s_shape_limits(self, probe_dim, system_dim, message):
        # after the included models, as when each trial was a random_model call
        with pytest.raises(DimensionError, match=f"^{message}$"):
            kp.counterexample_search(0, 3, probe_dim, system_dim, include=[CANONICAL])

    def test_qutrit_trials_read_fourier_protocols(self, monkeypatch):
        # every effect passes as degenerate, so that each candidate reaches the scan
        read = []

        def scan(protocol, n_max, tol):
            read.append(protocol.axes)
            return kp.check_kc_all(protocol, n_max, tol=tol)

        monkeypatch.setattr("kcprobe.scenarios.effect_nondegenerate", lambda e, tol: (False, 0.0))
        monkeypatch.setattr("kcprobe.scenarios.check_kc_all", scan)
        findings = kp.counterexample_search(3, 4, probe_dim=3, t_grid=(0.5, np.pi / 2))
        assert read == [("F", "F", "F")] * 8
        assert all(f.axis == "F" for f in findings)

    def test_qutrit_include_with_an_x_axis_reads_the_fourier_protocol(self):
        # the Fourier effects of (sigma_z, sigma_x, sigma_z) are multiples of
        # the identity, so the model is a finding at every time
        model = kp.DephasingModel(3, 2, (SIGMA_Z, SIGMA_X, SIGMA_Z), 1.0)
        findings = kp.counterexample_search(0, 1, t_grid=(0.7, np.pi / 2), include=[(model, "X")])
        included = [f for f in findings if f.source == "include"]
        assert [(f.axis, f.step_time) for f in included] == [("X", 0.7), ("X", np.pi / 2)]
        for f in included:
            fourier = kp.fourier_protocol(model.with_step_time(f.step_time), 3)
            assert f.max_operator_defect == kp.check_kc_all(fourier, 3).max_operator_defect

    def test_include_with_a_violated_scan_is_rejected(self):
        # (sigma_z (+) 0, sigma_x (+) 1) on Y at pi/2: degenerate effects,
        # noncommuting generators, and the sigma pair's violation
        h0, h1 = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
        h0[:2, :2], h1[:2, :2], h1[2, 2] = SIGMA_Z, SIGMA_X, 1.0
        model = kp.DephasingModel(2, 3, (h0, h1), np.pi / 2)
        protocol = kp.qubit_xy_protocol(model, "YYY")
        assert not any(kp.effect_nondegenerate(e)[0] for e in protocol.step_measurements[0].effects)
        assert not kp.is_commutative(model.hamiltonians)[0]
        assert kp.check_kc_all(protocol, 3).verdict == "violated"
        findings = kp.counterexample_search(0, 1, t_grid=(np.pi / 2,), include=[(model, "Y")])
        assert [f for f in findings if f.source == "include"] == []

    def test_include_with_commuting_generators_is_rejected(self):
        model = kp.DephasingModel(2, 2, (SIGMA_Z, SIGMA_Z), np.pi / 2)
        protocol = kp.qubit_xy_protocol(model, "XXX")
        assert not any(kp.effect_nondegenerate(e)[0] for e in protocol.step_measurements[0].effects)
        findings = kp.counterexample_search(0, 1, t_grid=(np.pi / 2,), include=[(model, "X")])
        assert [f for f in findings if f.source == "include"] == []

    @pytest.mark.parametrize("t", [0.0, 1e-320])
    def test_a_time_with_commuting_unitaries_gives_no_finding(self, t):
        # with no evolution every defect is exactly 0, so a finding is vacuous
        assert kp.counterexample_search(3, 5, t_grid=(t,)) == []

    @pytest.mark.parametrize("include", [(), ((kp.degenerate_qubit_instance(), "X"),)])
    def test_the_screen_checks_completeness_as_a_protocol_build_does(self, include):
        # every protocol build checks completeness at DEFAULT, so a caller's
        # povm_completeness is read by no check of the search, the screen's included
        search = (11, 50, 2, 2, (np.pi / 4, np.pi / 2), include)
        strict = kp.counterexample_search(*search, tol=kp.DEFAULT.replace(povm_completeness=1e-300))
        want = kp.counterexample_search(*search)
        assert len(want) == 2 * len(include)
        assert [f.to_dict() for f in strict] == [f.to_dict() for f in want]

    def test_canonical_include_at_pi_is_rejected(self):
        # exp(-i pi sigma) = -1 for both generators: the unitaries commute
        model = kp.degenerate_qubit_instance()
        assert kp.is_commutative(kp.conditional_unitaries(model, np.pi))[0]
        findings = kp.counterexample_search(0, 1, t_grid=(np.pi, np.pi / 2), include=[(model, "X")])
        assert [f.step_time for f in findings if f.source == "include"] == [np.pi / 2]


def search_candidates(seed, trials, probe_dim, system_dim, t_grid, include):
    """Every candidate of a search, in search order, as the arguments of
    ``_evaluate_candidate`` before ``tol``: include models first, then the
    trials by index, each at every time in grid order."""
    for idx, (model, axis) in enumerate(include):
        for t in t_grid:
            yield model, axis, t, "include", None, idx
    axes = ("X", "Y") if probe_dim == 2 else ("F",)
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        model = reference_model(int(rng.integers(0, 2**63 - 1)), probe_dim, system_dim, commuting=False)
        axis = axes[int(rng.integers(0, len(axes)))]
        for t in t_grid:
            yield model, axis, t, "random", seed, index


def reference_search(*args, tol=kp.DEFAULT):
    """The search as one ``_evaluate_candidate`` call per candidate whose
    first-step effects are all degenerate, each decided by a protocol build
    of its own, with the largest of their gaps; no screen."""
    found = []
    for model, axis, t, *rest in search_candidates(*args):
        preparation, meter = scenarios._candidate_cycle(model.probe_dim, axis)
        protocol = kp.MeasurementProtocol(model.with_step_time(t), preparation, (meter,) * 3)
        decided = [kp.effect_nondegenerate(e, tol=tol) for e in protocol.step_measurements[0].effects]
        if not any(ok for ok, _ in decided):
            found.append(scenarios._evaluate_candidate(model, axis, t, max(gap for _, gap in decided), *rest, tol))
    return [f.to_dict() for f in found if f is not None]


def sigma_pair_plus_level():
    """(sigma_z (+) 0, sigma_x (+) 1): degenerate Y effects at pi/2, a violated scan."""
    h0, h1 = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
    h0[:2, :2], h1[:2, :2], h1[2, 2] = SIGMA_Z, SIGMA_X, 1.0
    return kp.DephasingModel(2, 3, (h0, h1), 1.0)


CANONICAL = (kp.degenerate_qubit_instance(), "X")
INCLUDES = [
    CANONICAL,
    (sigma_pair_plus_level(), "Y"),
    (kp.DephasingModel(2, 2, (SIGMA_Z, SIGMA_Z), 1.0), "X"),
    (kp.DephasingModel(3, 2, (SIGMA_Z, SIGMA_X, SIGMA_Z), 1.0), "X"),
]
GRID = (0.0, np.pi / 4, np.pi / 2, np.pi)
# (seed, trials, probe_dim, system_dim, t_grid, include): qubit X/Y and
# Fourier trials, d_S 2-4, include models of other shapes than the trials'
SEARCHES = [
    (11, 12, 2, 2, GRID, INCLUDES),
    (5, 8, 2, 3, GRID, INCLUDES),
    (7, 6, 2, 4, (np.pi / 2, 0.0, 1.3), INCLUDES[::-1]),
    (3, 8, 3, 2, GRID, INCLUDES),
    (2, 5, 3, 3, (np.pi, np.pi / 2), [CANONICAL]),
    (4, 4, 4, 2, (0.0, 0.8), []),
]


class TestSearchScreen:
    @pytest.mark.parametrize("search", SEARCHES)
    def test_findings_are_the_reference_loops(self, search):
        seed, trials, probe_dim, system_dim, t_grid, include = search
        found = kp.counterexample_search(seed, trials, probe_dim, system_dim, t_grid, include)
        assert [f.to_dict() for f in found] == reference_search(*search)

    @pytest.mark.parametrize("search", SEARCHES)
    def test_the_screen_keeps_the_candidates_with_all_effects_degenerate(self, search):
        # the include models one by one, the trials in one stack, as the search screens them
        t_grid = search[4]
        models = {(c[3], c[5]): c[:2] for c in search_candidates(*search)}
        groups = [[pair] for key, pair in models.items() if key[0] == "include"]
        groups.append([pair for key, pair in models.items() if key[0] == "random"])
        for group in groups:
            stacked, axes = zip(*group)
            eigensystems = np.stack([m.eigenvalues for m in stacked]), np.stack([m.eigenvectors for m in stacked])
            screened, gaps = scenarios._screen(*eigensystems, axes, t_grid, kp.DEFAULT)
            for (model, axis), row, row_gaps in zip(group, screened, gaps, strict=True):
                preparation, meter = scenarios._candidate_cycle(model.probe_dim, axis)
                for t, kept, gap in zip(t_grid, row, row_gaps, strict=True):
                    effects = kp.induced_kraus(model.with_step_time(t), preparation, meter).effects
                    decided = [kp.effect_nondegenerate(e) for e in effects]
                    assert kept == (not any(ok for ok, _ in decided))
                    assert same_bits(gap, max(g for _, g in decided))  # the gap a finding reports

    def test_each_candidate_is_screened_along_its_own_axis(self):
        # the canonical pair's X effects are degenerate at every time, its Y effects at none
        model = kp.degenerate_qubit_instance()
        axes = ["X", "Y", "Y", "X", "Y"]
        stack = np.stack([model.eigenvalues] * 5), np.stack([model.eigenvectors] * 5)
        screened, _ = scenarios._screen(*stack, axes, (np.pi / 4, np.pi / 2, 1.0), kp.DEFAULT)
        assert screened.tolist() == [[axis == "X"] * 3 for axis in axes]

    def test_every_candidate_reaches_the_evaluation_in_search_order(self, monkeypatch):
        # with every effect read as degenerate, each candidate is evaluated
        seen = []
        monkeypatch.setattr("kcprobe.scenarios.effect_nondegenerate", lambda e, tol: (False, 0.0))
        monkeypatch.setattr(
            "kcprobe.scenarios._evaluate_candidate",
            lambda model, axis, t, gap, source, seed, index, tol: seen.append((source, index, axis, t)),
        )
        # chunks of 3 trials (13 pairs of 384 bytes over 4 times), each screened in one stack
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", 5000)
        search = (9, 7, 2, 2, GRID, INCLUDES)
        assert kp.counterexample_search(*search) == []
        assert seen == [(c[3], c[5], c[1], c[2]) for c in search_candidates(*search)]

    @pytest.mark.parametrize("block_bytes", [1, 2000, 20000])
    def test_chunking_leaves_the_findings(self, monkeypatch, block_bytes):
        expected = [kp.counterexample_search(*search) for search in SEARCHES]
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        assert [kp.counterexample_search(*search) for search in SEARCHES] == expected

    @pytest.mark.parametrize(
        "probe_dim, system_dim, trials, t_grid",
        [(2, 2, 600, 8), (2, 4, 300, 8), (3, 3, 200, 5), (4, 6, 20, 40)],
    )
    def test_a_chunk_stays_within_the_block_bound(self, monkeypatch, probe_dim, system_dim, trials, t_grid):
        # a chunk's unitaries, Kraus operators and effects fill at most one
        # block; the products' temporaries and the chunk's models at most two more
        block = 128 * 2**10
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block)
        grid = tuple(np.linspace(0.1, 3.0, t_grid))
        assert trials * t_grid * 48 * probe_dim * system_dim**2 >= 8 * block  # unchunked stacks
        kp.counterexample_search(1, 2, probe_dim, system_dim, grid)  # imports and caches first
        tracemalloc.start()
        try:
            kp.counterexample_search(1, trials, probe_dim, system_dim, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * block

    @pytest.mark.parametrize(
        "probe_dim, system_dim, trials, t_grid",
        [(2, 2, 1200, 1), (2, 4, 300, 1), (3, 3, 250, 1), (4, 6, 60, 2)],
    )
    def test_a_chunk_counts_its_trials_own_stacks(self, monkeypatch, probe_dim, system_dim, trials, t_grid):
        # on a short grid a trial's draws, Hamiltonians and eigensystems weigh
        # as much as its (trial, time) pairs: they count as one more pair, so
        # that the chunk's stacks fill one block and its temporaries one more
        block = 128 * 2**10
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block)
        grid = tuple(np.linspace(0.1, 3.0, t_grid))
        assert trials * (t_grid + 1) * 48 * probe_dim * system_dim**2 >= 4 * block  # unchunked stacks
        kp.counterexample_search(1, 2, probe_dim, system_dim, grid)  # imports and caches first
        tracemalloc.start()
        try:
            kp.counterexample_search(1, trials, probe_dim, system_dim, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * block

    def test_only_screened_in_candidates_are_built(self, monkeypatch, tmp_path):
        # search_degenerate.json: 402 candidates, of which the canonical
        # model's two grid times are the only ones with degenerate effects;
        # no model is built for a random trial, and each chunk of trials
        # (one of 200, then four of 50) is diagonalized by one stacked eigh
        screened, builds, models, eighs = [], [], [], []
        screen, post_init = scenarios._screen, kp.MeasurementProtocol.__post_init__
        model_init, eigh = kp.DephasingModel.__post_init__, np.linalg.eigh

        def counting_screen(*args):
            mask, gaps = screen(*args)
            screened.append(int(mask.sum()))
            return mask, gaps

        def counting_post_init(protocol):
            builds.append(protocol.axes)
            post_init(protocol)

        def counting_model_init(model):
            models.append(model.hamiltonians)
            model_init(model)

        monkeypatch.setattr("kcprobe.scenarios._screen", counting_screen)
        monkeypatch.setattr(kp.MeasurementProtocol, "__post_init__", counting_post_init)
        monkeypatch.setattr(kp.DephasingModel, "__post_init__", counting_model_init)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(np.shape(a)) or eigh(a))
        config = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "search_degenerate.json"
        chunks = {sequences.PREFIX_BLOCK_BYTES: [200], 150 * 48 * 2 * 2**2: [50] * 4}
        for block_bytes, sizes in chunks.items():
            for seen in (screened, builds, models, eighs):
                seen.clear()
            monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
            assert main(["search", str(config), "--out", str(tmp_path / str(block_bytes))]) == 0
            assert len(builds) == sum(screened) == 2
            assert len(models) == 1 and same_bits(models[0], (SIGMA_Z, SIGMA_X))  # the canonical include
            assert eighs == [(2, 2, 2)] + [(size, 2, 2, 2) for size in sizes]

    @pytest.mark.parametrize("block_bytes", [1, sequences.PREFIX_BLOCK_BYTES])
    @pytest.mark.parametrize("t_grid", [(1e6,), (2e5, 1e6), (1e5, 5e5), (0.5, 1.85e5), (1.85e5, 2e5)])
    def test_a_broken_phase_names_the_reference_loops_first_candidate(self, monkeypatch, block_bytes, t_grid):
        # |w| is 0.1 and 1 for the included pairs; among the trials, 2.37 for
        # trial 0 and 2.52 for trial 9, the only one that breaks at 1.85e5
        monkeypatch.setattr("kcprobe.sequences.PREFIX_BLOCK_BYTES", block_bytes)
        small = kp.DephasingModel(2, 2, (0.1 * SIGMA_Z, 0.1 * SIGMA_X), 1.0)
        for include in ([], [(small, "X")], [(small, "X"), CANONICAL]):
            search = (3, 20, 2, 3, t_grid, include)
            with pytest.raises(InvariantViolation) as expected:
                reference_search(*search)
            with pytest.raises(InvariantViolation, match=f"^{re.escape(str(expected.value))}$"):
                kp.counterexample_search(*search)

    def test_a_non_finite_time_is_a_step_time_error(self):
        # the search checks its grid first, the screen's unitaries again: one message
        with pytest.raises(InvariantViolation, match="^step time must be finite, got nan$"):
            kp.counterexample_search(0, 2, t_grid=(0.5, np.nan), include=[CANONICAL])
        model = kp.degenerate_qubit_instance()
        with pytest.raises(InvariantViolation, match="^step time must be finite, got nan$"):
            scenarios._screen(model.eigenvalues[None], model.eigenvectors[None], ["X"], (0.5, np.nan), kp.DEFAULT)


class TestScenarioSpec:
    def test_build_random(self):
        spec = kp.ScenarioSpec("random", 5, {"probe_dim": 2, "system_dim": 3, "commuting": True})
        model = kp.build_scenario(spec)
        assert model.system_dim == 3
        again = kp.build_scenario(spec)
        assert fingerprint(model_payload(model)) == fingerprint(model_payload(again))

    def test_build_nv_and_noise(self):
        nv = kp.build_scenario(
            kp.ScenarioSpec("nv", 0, {"n_nuclei": 1, "omega": 1.0, "couplings": [[1, 0, 0]]})
        )
        assert nv.probe_dim == 2
        noise = kp.build_scenario(kp.ScenarioSpec("classical_noise", 3, {"n_segments": 4}))
        assert noise.n_steps == 4

    def test_unknown_kind(self):
        with pytest.raises(PreconditionError):
            kp.build_scenario(kp.ScenarioSpec("exotic", 0, {}))
