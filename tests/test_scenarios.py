import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kcprobe as kp
from kcprobe import scenarios, sequences
from kcprobe.cli import main
from kcprobe.errors import CapacityError, DimensionError, InvariantViolation, PreconditionError, ProtocolError
from kcprobe.linalg import SIGMA_X, SIGMA_Z, frobenius
from kcprobe.serialize import fingerprint, model_payload


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
        model = kp.random_model(int(rng.integers(0, 2**63 - 1)), probe_dim, system_dim, commuting=False)
        axis = axes[int(rng.integers(0, len(axes)))]
        for t in t_grid:
            yield model, axis, t, "random", seed, index


def reference_search(*args, tol=kp.DEFAULT):
    """The search as one ``_evaluate_candidate`` call per candidate, no screen."""
    found = (scenarios._evaluate_candidate(*candidate, tol) for candidate in search_candidates(*args))
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
            screened = scenarios._screen(*zip(*group), t_grid, kp.DEFAULT)
            for (model, axis), row in zip(group, screened, strict=True):
                preparation, meter = scenarios._candidate_cycle(model.probe_dim, axis)
                for t, kept in zip(t_grid, row, strict=True):
                    effects = kp.induced_kraus(model.with_step_time(t), preparation, meter).effects
                    assert kept == (not any(kp.effect_nondegenerate(e)[0] for e in effects))

    def test_every_candidate_reaches_the_evaluation_in_search_order(self, monkeypatch):
        # with every effect read as degenerate, each candidate is evaluated
        seen = []
        monkeypatch.setattr("kcprobe.scenarios.effect_nondegenerate", lambda e, tol: (False, 0.0))
        monkeypatch.setattr(
            "kcprobe.scenarios._evaluate_candidate",
            lambda model, axis, t, source, seed, index, tol: seen.append((source, index, axis, t)),
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

    def test_only_screened_in_candidates_are_built(self, monkeypatch, tmp_path):
        # search_degenerate.json: 402 candidates, of which the canonical
        # model's two grid times are the only ones with degenerate effects
        screened, builds = [], []
        screen, post_init = scenarios._screen, kp.MeasurementProtocol.__post_init__

        def counting_screen(*args):
            mask = screen(*args)
            screened.append(int(mask.sum()))
            return mask

        def counting_post_init(protocol):
            builds.append(protocol.axes)
            post_init(protocol)

        monkeypatch.setattr("kcprobe.scenarios._screen", counting_screen)
        monkeypatch.setattr(kp.MeasurementProtocol, "__post_init__", counting_post_init)
        config = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "search_degenerate.json"
        assert main(["search", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(builds) == sum(screened) == 2

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
        with pytest.raises(InvariantViolation, match="^step time must be finite, got nan$"):
            scenarios._screen([kp.degenerate_qubit_instance()], ["X"], (0.5, np.nan), kp.DEFAULT)


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
