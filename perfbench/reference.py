"""Reference numerics that the benchmark checks kcprobe's outputs against.

Only numpy is used; nothing here imports kcprobe.  Meter kets and the probe
preparation are rebuilt from the step names ("X", "Y", "F"), so a slip in the
program's basis or Kraus construction shows as a mismatch.  Consistency
defects are computed in one batched step per ``(n, j)`` from shared prefix
and suffix products, a different route from the program's per-entry loop.
Algebra dimensions come from commutants restricted to the eigenspaces of the
first operator, and the generated algebra from the double commutant, so they
share no algorithm with the program's SVD of the full commutator stack or its
product-closure loop.
"""

from __future__ import annotations

import itertools

import numpy as np

_S = 1.0 / np.sqrt(2.0)
# Singular values below this are null directions.  Inputs whose spectrum
# comes within a decade below or three decades above it are refused.
NULL_CUT = 1e-9


def meter_kets(name: str, d: int) -> np.ndarray:
    """Rows are the meter kets of one step in the pointer basis."""
    if name == "X":
        return np.array([[_S, _S], [_S, -_S]], dtype=complex)
    if name == "Y":
        return np.array([[_S, -1j * _S], [_S, 1j * _S]], dtype=complex)
    if name == "F":
        idx = np.arange(d)
        return np.exp(2j * np.pi * np.outer(idx, idx) / d) / np.sqrt(d)
    raise ValueError(f"no reference meter for step name {name!r}")


def step_kraus(hams, axes, times) -> list[np.ndarray]:
    """Per-step Kraus arrays of shape ``(d_P, d, d)`` for a uniform preparation.

    ``K_m = sum_i g_i conj(m_i) exp(-i t H_i)`` with ``g_i = 1/sqrt(d_P)``,
    which is the ``|+x>`` preparation for a qubit probe.
    """
    d_p = len(hams)
    gamma = np.full(d_p, 1.0 / np.sqrt(d_p))
    eig = [np.linalg.eigh(np.asarray(h, dtype=complex)) for h in hams]
    steps = []
    for axis, t in zip(axes, times):
        units = np.stack([(v * np.exp(-1j * w * t)) @ v.conj().T for w, v in eig])
        weights = gamma[None, :] * meter_kets(axis, d_p).conj()
        steps.append(np.einsum("mi,iab->mab", weights, units))
    return steps


def _chain(steps, d: int) -> np.ndarray:
    """Kraus products over all outcome strings of ``steps``, lexicographic
    with the first step most significant; later steps act on the left."""
    r = np.eye(d, dtype=complex)[None]
    for k in steps:
        r = np.einsum("mab,sbc->smac", k, r).reshape(-1, d, d)
    return r


def probabilities(steps, rho) -> np.ndarray:
    """Probability of every outcome string of ``steps`` in ``_chain`` order,
    that is ``itertools.product`` order over the outcomes."""
    rho = np.asarray(rho, dtype=complex)
    r = _chain(steps, rho.shape[0])
    return np.einsum("sba,sbc,ca->s", r.conj(), r, rho).real


def kc_defects(steps, n_max: int, states) -> tuple[np.ndarray, np.ndarray]:
    """Operator-defect norms and state defects in ``check_kc_all`` order.

    Returns ``(norms, state_defects)`` with one row per entry, entries ordered
    by ``n``, then ``j``, then the fixed outcomes lexicographically.
    """
    d = steps[0].shape[1]
    states = [np.asarray(r, dtype=complex) for r in states]
    norms, per_state = [], []
    for n in range(2, n_max + 1):
        for j in range(1, n):
            pre = _chain(steps[: j - 1], d)
            post = _chain(steps[j:n], d)
            p = np.einsum("sba,sbc->sac", post.conj(), post)
            k = steps[j - 1]
            m = np.einsum("xba,sbc,xcd->sad", k.conj(), p, k) - p
            dm = np.einsum("pba,qbc,pcd->pqad", pre.conj(), m, pre).reshape(-1, d, d)
            dm = (dm + dm.conj().transpose(0, 2, 1)) / 2
            norms.append(np.linalg.norm(dm, axis=(1, 2)))
            per_state.append(
                np.stack([np.einsum("ij,nji->n", r, dm).real for r in states], axis=1)
                if states
                else np.zeros((dm.shape[0], 0))
            )
    return np.concatenate(norms), np.concatenate(per_state)


def max_commutator(ops) -> float:
    return max(
        float(np.linalg.norm(a @ b - b @ a)) for a, b in itertools.combinations(ops, 2)
    )


def _eigen_blocks(h: np.ndarray):
    w, v = np.linalg.eigh(h)
    cut = 1e-8 * max(float(np.linalg.norm(h)), 1.0)
    blocks, start = [], 0
    for i in range(1, w.size + 1):
        if i == w.size or w[i] - w[start] > cut:
            blocks.append(np.arange(start, i))
            start = i
    return v, blocks


def commutant(ops) -> list[np.ndarray]:
    """Basis of the operators commuting with every Hermitian ``ops`` member.

    The commutant of ``ops[0]`` is block diagonal in its eigenbasis; the
    remaining commutation conditions are solved inside that subspace.
    """
    ops = [np.asarray(o, dtype=complex) for o in ops]
    d = ops[0].shape[0]
    v, blocks = _eigen_blocks(ops[0])
    units = []
    for idx in blocks:
        for a, b in itertools.product(idx, repeat=2):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1.0
            units.append(e)
    rest = [v.conj().T @ g @ v for g in ops[1:]]
    if not rest:
        null = np.eye(len(units), dtype=complex)
    else:
        cols = np.stack(
            [np.concatenate([(g @ e - e @ g).ravel() for g in rest]) for e in units], axis=1
        )
        _, s, vh = np.linalg.svd(cols, full_matrices=True)
        s = np.concatenate([s, np.zeros(len(units) - s.size)])
        if np.any((s > NULL_CUT * 1e-1) & (s < NULL_CUT * 1e3)):
            raise ValueError("reference commutant rank is ambiguous")
        null = vh[s < NULL_CUT].conj().T
    out = []
    for coeffs in null.T:
        x = sum(c * e for c, e in zip(coeffs, units))
        out.append(v @ x @ v.conj().T)
    return out


def algebra_dimension(ops) -> int:
    """Dimension of the algebra generated by ``{1} u ops``: ``(ops')'``."""
    herm = []
    for x in commutant(ops):  # unit-norm members
        for h in (x + x.conj().T, 1j * (x - x.conj().T)):
            norm = float(np.linalg.norm(h))
            if norm > 1e-6:  # a smaller part is rounding noise, not a direction
                herm.append(h / norm)
    # A generic combination splits only the eigenspaces the whole set shares,
    # so the restriction step never works inside an accidental near-degeneracy.
    mix = sum(c * h for c, h in zip(np.random.default_rng(0).standard_normal(len(herm)), herm))
    return len(commutant([mix, *herm]))
