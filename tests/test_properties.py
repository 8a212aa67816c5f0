"""Property tests on small models drawn near and far from the numerical cuts.

Every example draws a model with ``d_P`` 2-3 and ``d_S`` 1-4 from one of four
families:

- ``far``: independent random Hermitian generators, far from every cut;
- ``commuting``: generators diagonal in one shared Haar basis;
- ``near_cut``: a commuting family plus a random rest of relative size
  1e-12..1e-8, the whole scaled by 1e-3..1e3 (with the step time divided by
  the same scale, so the unitaries stay alike);
- ``resonant``: integer spectra, each in its own Haar basis, at
  ``t`` in ``{pi, 2 pi}``, where every unitary is ``+-1`` on each eigenspace.

A protocol of three random meter bases and a random preparation reads the
model, at equal step times or at three unequal ones.  The draws are
derandomised, so every run checks the same examples.

The scan must not depend on the units of the generators (``H -> c H`` with
``t -> t / c``) nor on a common shift ``H_i -> H_i + s 1``, which only
multiplies every Kraus operator of a step by one phase.  The maximally
mixed state must see no ``(n, 1)`` defect, up to four steps.  Every ``n`` that
the scan reads off its deepest sweep must agree with a sweep of that ``n``
alone, at ``d_P`` 2-4 and ``d_S`` 1-9 (both the transfer and the matrix
branch).  The commutant restricted to the eigenspaces of a random element
must report as the full stack does, at ``d_S`` 2-8.  A grid of protocols
(a sweep's chunk) must read each of its points bit for bit as that point's
protocol alone, at ``d_S`` 2-4 and 9.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import kcprobe as kp
import kcprobe.sequences
from kcprobe.sequences import _scan
from kcprobe.witnesses import _axis_deltas

from conftest import full_route_commutant, per_n_scan, random_density, random_hermitian

FAMILIES = ("far", "commuting", "near_cut", "resonant")
N_STEPS = 3


def commuting_family(rng, d_p, d_s):
    v = kp.haar_unitary(d_s, rng)
    return [(v * rng.uniform(-1.0, 1.0, d_s)) @ v.conj().T for _ in range(d_p)]


def family_model(family, seed, d_p, d_s):
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0.3, 2.0))
    if family == "far":
        hams = [random_hermitian(rng, d_s) for _ in range(d_p)]
    elif family == "commuting":
        hams = commuting_family(rng, d_p, d_s)
    elif family == "near_cut":
        scale = 10 ** rng.uniform(-3.0, 3.0)
        rest = 10 ** rng.uniform(-12.0, -8.0)
        hams = [scale * (h + rest * random_hermitian(rng, d_s)) for h in commuting_family(rng, d_p, d_s)]
        t /= scale
    else:
        hams = []
        for _ in range(d_p):
            v = kp.haar_unitary(d_s, rng)
            hams.append((v * rng.integers(-3, 4, d_s)) @ v.conj().T)
        t = float(rng.choice([np.pi, 2 * np.pi]))
    hams = tuple((h + h.conj().T) / 2 for h in hams)
    return kp.DephasingModel(d_p, d_s, hams, t), rng


def family_protocol(family, seed, d_p, d_s, unequal_times, scale=1.0, shift=0.0, n_steps=N_STEPS):
    """The protocol of ``n_steps`` steps (at most four) of one draw, read on
    the generators ``scale * H_i + shift * 1`` at the step times divided by
    ``scale``, and a random state."""
    model, rng = family_model(family, seed, d_p, d_s)
    hams = tuple(scale * h + shift * np.eye(d_s) for h in model.hamiltonians)
    model = kp.DephasingModel(d_p, d_s, hams, model.step_time / scale)
    labels = tuple(map(str, range(d_p)))
    bases = tuple(kp.MeterBasis(kp.haar_unitary(d_p, rng), labels) for _ in range(n_steps))
    amps = rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p)
    times = tuple(model.step_time * f for f in (1.0, 0.5, 1.5, 0.8)[:n_steps]) if unequal_times else None
    protocol = kp.MeasurementProtocol(model, kp.PreparationState(amps / np.linalg.norm(amps)), bases, times)
    return protocol, random_density(rng, d_s)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
    st.integers(1, 4),
    st.booleans(),
)
@example("near_cut", 3, 3, 4, True)
@example("resonant", 5, 2, 3, True)
def test_scan_state_defects_match_the_single_entry_route(family, seed, d_p, d_s, unequal_times):
    """``tr(rho D)`` of every ``check_kc_all`` entry is ``kc_defect_state``."""
    protocol, rho = family_protocol(family, seed, d_p, d_s, unequal_times)
    report = kp.check_kc_all(protocol, N_STEPS, rho)
    assert len(report.entries) == sum((n - 1) * d_p ** (n - 1) for n in range(2, N_STEPS + 1))
    for e in report.entries:
        (got,) = e.state_defects
        assert abs(got - kp.kc_defect_state(protocol, rho, e.n, e.j, e.fixed)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
    st.integers(1, 4),
    st.booleans(),
    st.integers(2, 4),
)
def test_the_maximally_mixed_state_is_blind_at_j_1(family, seed, d_p, d_s, unequal_times, n_max):
    """``tr(1/d D(n, 1)) = 0`` within 1e-14 at every ``n``: the first step's
    nonselective map ``sum_m K_m X K_m^H`` is unital (``sum_m K_m K_m^H = sum_i
    |g_i|^2 U_i U_i^H = 1``), so ``tr D(n, 1) = tr(X) - tr(X) = 0`` for the
    rest ``X`` of the history, and the maximally mixed state sees no
    ``(n, 1)`` defect."""
    protocol, _ = family_protocol(family, seed, d_p, d_s, unequal_times, n_steps=n_max)
    report = kp.check_kc_all(protocol, n_max, np.eye(d_s) / d_s)
    for e in report.entries:
        if e.j == 1:
            assert abs(e.state_defects[0]) <= 1e-14


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
    st.integers(1, 4),
    st.booleans(),
    st.sampled_from([1e-3, 1e3]),
    st.floats(-5.0, 5.0),
)
def test_scan_does_not_depend_on_the_units_or_a_common_shift(
    family, seed, d_p, d_s, unequal_times, scale, shift
):
    """Every entry norm moves by at most 1e-12, and the verdict not at all."""
    protocol, _ = family_protocol(family, seed, d_p, d_s, unequal_times)
    report = kp.check_kc_all(protocol, N_STEPS)
    if family == "commuting":
        assert report.consistent
    norms = np.array([e.operator_defect for e in report.entries])
    for moved in ({"scale": scale}, {"shift": shift}):
        other = kp.check_kc_all(family_protocol(family, seed, d_p, d_s, unequal_times, **moved)[0], N_STEPS)
        assert other.verdict == report.verdict
        assert np.abs(np.array([e.operator_defect for e in other.entries]) - norms).max() <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
    st.integers(1, 4),
    st.booleans(),
    st.sampled_from([(2, 1), (3, 1), (3, 2)]),
)
def test_witness_of_a_commuting_family_is_zero(seed, d_p, d_s, unequal_times, step_pair):
    """Any value map's correlation difference of a commuting family is 0."""
    protocol, rho = family_protocol("commuting", seed, d_p, d_s, unequal_times)
    values = dict(enumerate(np.random.default_rng(seed).uniform(-1.0, 1.0, d_p)))
    assert abs(kp.delta_correlation(protocol, rho, *step_pair, values)) <= kp.DEFAULT.witness


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 4))
@example("near_cut", 1, 2, 4)
def test_a_trivial_commutant_means_the_full_algebra(family, seed, d_p, d_s):
    """``commutant_dimension == 1`` only with ``dimension == d**2``: the
    algebra is the second commutant, and that of ``C 1`` is all of ``M_d``."""
    report = kp.algebra_report(family_model(family, seed, d_p, d_s)[0])
    assert report.commutant_dimension != 1 or report.dimension == d_s**2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 4))
@example("near_cut", 4, 2, 4)
def test_algebra_dimensions_do_not_depend_on_the_system_basis(family, seed, d_p, d_s):
    """``H_i -> V H_i V^H`` for a Haar unitary ``V`` moves neither dimension."""
    model, rng = family_model(family, seed, d_p, d_s)
    v = kp.haar_unitary(d_s, rng)
    rotated = kp.DephasingModel(d_p, d_s, tuple(v @ h @ v.conj().T for h in model.hamiltonians), model.step_time)
    report, other = kp.algebra_report(model), kp.algebra_report(rotated)
    assert (other.dimension, other.commutant_dimension) == (report.dimension, report.commutant_dimension)


def deep_protocol(seed, d_p, d_s, n_steps):
    """A random model read through ``n_steps`` random meter bases, or at
    ``d_S = 1`` a classical-noise protocol (qubit probe), and two states."""
    rng = np.random.default_rng(seed)
    if d_s == 1:
        noise = kp.NoiseRealization(tuple(rng.normal(size=n_steps)), tuple(rng.uniform(0.1, 2.0, n_steps)))
        return kp.classical_noise_model(noise, n_steps), [np.eye(1)] * 2
    model = kp.random_model(int(rng.integers(1 << 30)), d_p, d_s, bool(rng.integers(2)))
    labels = tuple(map(str, range(d_p)))
    bases = tuple(kp.MeterBasis(kp.haar_unitary(d_p, rng), labels) for _ in range(n_steps))
    amps = rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p)
    protocol = kp.MeasurementProtocol(model, kp.PreparationState(amps / np.linalg.norm(amps)), bases)
    return protocol, [np.eye(d_s) / d_s, random_density(rng, d_s)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(1, 9),
    st.integers(2, 8),
    st.sampled_from([None, 2**10, 2**13]),
)
@example(3, 2, 1, 8, 2**10)
@example(5, 3, 9, 6, 2**13)
@example(7, 4, 9, 5, None)
def test_every_n_read_off_the_deepest_sweep_matches_its_own_sweep(seed, d_p, d_s, n_max, block_bytes):
    """Each entry of every ``(n, j)`` up to ``n_max`` agrees with a sweep of
    its own ``n`` (a test-local copy of the scan of one sweep per ``n``)
    within ``1e-13 max(1, norm)``, at the default blocks and at blocks small
    enough that the sums of a level carry over from block to block.  An
    ``(n, j)`` at the deepest ``n`` is that sweep's block, bit for bit."""
    d_p = 2 if d_s == 1 else d_p
    while d_p ** (n_max - 1) > 512:  # at most 512 entries an (n, j)
        n_max -= 1
    protocol, states = deep_protocol(seed, d_p, d_s, n_max)
    pairs = [(n, j) for n in range(2, n_max + 1) for j in range(1, n)]
    blocks = mock.patch.object(kcprobe.sequences, "PREFIX_BLOCK_BYTES", block_bytes or kcprobe.sequences.PREFIX_BLOCK_BYTES)
    with blocks:
        entries = _scan(protocol, pairs, states)
        want = per_n_scan(protocol, pairs, states)
    for (n, j), (norms, traces) in zip(pairs, want, strict=True):
        got_norms, got_traces = entries._pair(n, j)
        if n == n_max:
            assert np.array_equal(got_norms, norms)
            assert np.array_equal(got_traces, traces)
        scale = 1e-13 * np.maximum(1.0, norms)
        assert np.all(np.abs(got_norms - norms) <= scale)
        assert np.all(np.abs(got_traces - traces) <= scale[:, None])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.sampled_from([1, 2, 37]),
    st.booleans(),
)
@example("far", 11, 9, 37, False)  # the matrix branch
@example("near_cut", 3, 4, 37, True)
@example("resonant", 5, 3, 2, False)
def test_a_grid_reads_each_point_as_that_point_alone(family, seed, d_s, points, by_model):
    """Δ21 and Δ32 of two states, and their state-defect tensors, from one
    witness scan of a grid of ``XXX`` (and of ``YYY``) protocols, are bit for
    bit those of each point's protocol built and scanned alone; so are the
    Kraus operators and the KC report of a point's assembled protocol, which
    carries the point's own model.  The
    grid varies the step time of one model, or the model at one step time."""
    model, rng = family_model(family, seed, 2, d_s)
    if by_model:
        models = [family_model(family, seed + k, 2, d_s)[0].with_step_time(model.step_time) for k in range(points)]
    else:
        models = [model.with_step_time(model.step_time * f) for f in rng.uniform(0.5, 1.5, points)]
    states = [kp.linalg.check_density(random_density(rng, d_s), d_s) for _ in range(2)]
    bases = {axis: (kp.xy_meter_basis(axis),) * N_STEPS for axis in "XY"}
    for axis, grid in kp.model._grids(models, kp.plus_x_preparation(), bases).items():
        batched = _axis_deltas(grid, states, (2, 3), kp.DEFAULT, "XY")
        for g, point in enumerate(models):
            alone = kp.qubit_xy_protocol(point, axis * N_STEPS)
            want = _axis_deltas(alone, states, (2, 3), kp.DEFAULT, "XY")
            for (values, tensor), (want_values, want_tensor) in zip(batched, want, strict=True):
                assert values[g].tobytes() == want_values.tobytes()
                assert tensor[g].tobytes() == want_tensor.tobytes()
            assembled = grid.protocol(g)
            assert assembled.model is point
            assert len(set(map(id, assembled.step_measurements))) == 1  # its equal steps share one
            assert assembled.step_measurements[0].kraus.tobytes() == alone.step_measurements[0].kraus.tobytes()
            report = kp.check_kc_all(assembled, N_STEPS, states).to_dict()
            assert report == kp.check_kc_all(alone, N_STEPS, states).to_dict()


def _algebra_fields(report):
    return report.dimension, report.commutant_dimension, report.commutant_singular_values_near_cut


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 8))
@example("near_cut", 18, 3, 6)
@example("near_cut", 8, 3, 7)
def test_the_restricted_commutant_reports_as_the_full_stack(family, seed, d_p, d_s):
    """``dimension``, ``commutant_dimension`` and the near-cut singular values
    are those of the full stack (a test-local copy), with the restriction
    taken at every ``d_S``.  On the far and commuting families every
    restriction stands.  Without the fallback the first example reported
    ``(36, 1)`` in place of ``(6, 3)``; with the window cut at ``100 cut``
    (no factor ``K``) the second lost its six near-cut values."""
    model = family_model(family, seed, d_p, d_s)[0]
    restricted = kp.algebra._restricted
    stood = []

    def recording(parts, tol):
        found = restricted(parts, tol)
        stood.append(found is not None)
        return found

    restrict_everywhere = mock.patch.object(kp.algebra, "_RESTRICT_MIN_DIM", 2)
    with restrict_everywhere, mock.patch.object(kp.algebra, "_restricted", recording):
        report = kp.algebra_report(model)
    with mock.patch.object(kp.algebra, "commutant_basis", full_route_commutant):
        want = kp.algebra_report(model)
    assert _algebra_fields(report) == _algebra_fields(want)
    if family in ("far", "commuting"):
        assert stood and all(stood)
