import numpy as np
import pytest

import kcprobe as kp
from kcprobe.errors import NumericalFault
from kcprobe.linalg import _basis, _coordinates, _matrices, as_complex_matrix
from kcprobe.oracle import _chain_effects
from kcprobe.model import _transfer
import kcprobe.sequences
from kcprobe.sequences import _TRANSFER_MAX_DIM, _defect_blocks, _pull_back, _sweep


@pytest.fixture
def sigma_model():
    """Noncommutative qubit pair (sigma_z, sigma_x) at step time pi/2."""
    return kp.degenerate_qubit_instance()


@pytest.fixture
def y_protocol(sigma_model):
    return kp.qubit_xy_protocol(sigma_model, "YYY")


@pytest.fixture
def x_protocol(sigma_model):
    return kp.qubit_xy_protocol(sigma_model, "XXXX")


@pytest.fixture
def plus_y_state():
    """|+y><+y| for the standard sigma_y."""
    return np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)


def random_hermitian(rng, d, scale=1.0):
    g = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    return (g + g.conj().T) / 2


def full_route_commutant(ops, tol=kp.DEFAULT):
    """Reference: ``commutant_basis`` with all ``d**2`` coordinates unknown,
    never restricted to a random element's eigenspaces: one real SVD of the
    QR-reduced stack of the maps ``X -> i[X, P]`` of the Hermitian parts."""
    mats = [as_complex_matrix(op) for op in ops]
    d = mats[0].shape[0]
    parts = [(g + g.conj().T) / 2 for g in mats] + [(g - g.conj().T) / 2j for g in mats]
    parts = np.array([p for p in parts if p.any()] or [np.zeros((d, d))])
    products = (_basis(d).reshape(d**3, d) @ (2j * parts)).reshape(-1, d, d)
    stacked = _coordinates(products).reshape(-1, d * d)
    if len(stacked) > d * d:
        stacked = np.linalg.qr(stacked, mode="r")
    _, svals, vh = np.linalg.svd(stacked)
    if not svals[-1] < tol.nullspace:
        raise NumericalFault("empty commutant")
    return kp.AlgebraBasis(tuple(mats), tuple(_matrices(vh[svals < tol.nullspace])), svals)


def per_n_scan(protocol, pairs, states):
    """Reference: the norms and ``tr(rho D)`` (rows by state) of the operator
    defects of each ``(n, j)`` of ``pairs``, from one backward sweep per
    ``n``, each ``D`` swept at its own ``n`` and never read off a deeper
    sweep: the scan before it read every smaller ``n`` off the deepest."""
    d_p, d = protocol.probe_dim, protocol.system_dim
    count = max(1, kcprobe.sequences.PREFIX_BLOCK_BYTES // (16 * d * d)) // (2 * d_p)
    states = _coordinates(np.array(states, dtype=complex)).reshape(-1, d * d)
    found = {}
    for n in dict.fromkeys(n for n, _ in pairs):
        for j, start, stack in _sweep(protocol, n, {j for m, j in pairs if m == n}, count):
            # above _TRANSFER_MAX_DIM the sweep holds flattened matrices
            rows = _coordinates(stack.reshape(-1, d, d)) if d > _TRANSFER_MAX_DIM else np.ascontiguousarray(stack)
            norms, traces = found.setdefault((n, j), (np.empty(d_p ** (n - 1)), np.empty((d_p ** (n - 1), len(states)))))
            norms[start : start + len(rows)] = np.sqrt(np.einsum("ak,ak->a", rows, rows))
            traces[start : start + len(rows)] = np.einsum("ak,sk->as", rows, states)
    return [found[pair] for pair in pairs]


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def zero_amplitude_cycle(rng, d_p, d_s, n_steps=1):
    """A random model, ``n_steps`` random meter bases and a preparation whose
    first amplitude is exactly zero."""
    hams = tuple(random_hermitian(rng, d_s) for _ in range(d_p))
    model = kp.DephasingModel(d_p, d_s, hams, float(rng.uniform(0.1, 2.0)))
    bases = tuple(
        kp.MeterBasis(kp.haar_unitary(d_p, rng), tuple(map(str, range(d_p)))) for _ in range(n_steps)
    )
    amps = rng.standard_normal(d_p) + 1j * rng.standard_normal(d_p)
    amps[0] = 0.0
    return model, kp.PreparationState(amps / np.linalg.norm(amps)), bases


def transposed_pull_back(kraus, x):
    """The scan's Heisenberg step on matrices (d > 8) with ``K^T`` in place of ``K^H``."""
    return kraus.swapaxes(1, 2)[:, None] @ (x @ kraus[:, None])


def transposed_transfer(measurement):
    """The scan's transfer of a step (d <= 8), built with ``K^T`` in place of
    ``K^H`` and kept nowhere."""
    kraus = np.asarray(measurement.kraus)
    d_p, d = kraus.shape[:2]
    pairs = (kraus[:, :, None, :, None] * kraus[:, None, :, None, :]).reshape(d_p, d * d, d * d)
    basis = _basis(d)
    return (basis @ pairs).view(float) @ basis.view(float).T


def swapped_transfer(measurement):
    """The scan's transfer of a step (d <= 8) with its outcomes in reverse order."""
    return _transfer(measurement)[::-1]


def swapped_pull_back(kraus, x):
    """The scan's Heisenberg step on matrices (d > 8) with the outcomes of
    ``kraus`` in reverse order."""
    return _pull_back(kraus[::-1], x)


def nan_chain(steps, row):
    """The oracle's ``_chain_effects`` with a NaN effect for the chain of the
    outcomes ``row`` over the 0-based ``steps``."""

    def chain(protocol, seqs, chain_steps):
        for lo, effects in _chain_effects(protocol, seqs, chain_steps):
            if tuple(chain_steps) == steps:
                effects[(np.asarray(seqs[lo : lo + len(effects)]) == row).all(axis=1)] = np.nan
            yield lo, effects

    return chain


def shifted_blocks(shift):
    """The scan's ``_defect_blocks`` with the Hermitian ``d x d`` matrix ``shift``
    added to every operator defect it yields, as coordinates."""

    def blocks(protocol, pairs):
        for j, pieces, defects, *norms in _defect_blocks(protocol, pairs):
            yield j, pieces, defects + _coordinates(shift), *norms

    return blocks
