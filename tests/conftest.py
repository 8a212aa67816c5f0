import numpy as np
import pytest

import kcprobe as kp


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
