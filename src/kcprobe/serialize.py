"""Serialization helpers: complex values as [re, im] pairs, matrices as
row-major nested arrays, one record rule for report dataclasses, canonical
JSON, and content fingerprints."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator

import numpy as np

from .errors import ConfigError


class Record:
    """Report dataclass mixin: ``to_dict`` writes every field under its own
    name, in field order, tuples as lists, and leaves out a field named in
    ``OMIT_IF_NONE`` while it is ``None``."""

    OMIT_IF_NONE: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        names, read = _record_fields(type(self))
        out = {}
        for name, value in zip(names, read(self)):
            if isinstance(value, tuple):
                out[name] = list(value)
            elif value is not None or name not in self.OMIT_IF_NONE:
                out[name] = value
        return out


@functools.cache
def _record_fields(cls) -> tuple:
    """A record's field names (two or more) and one getter that reads them all."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    return names, operator.attrgetter(*names)


def complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def pair_complex(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ConfigError(f"expected [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def matrix_rows(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    return [[complex_pair(z) for z in row] for row in a]


def rows_matrix(rows) -> np.ndarray:
    try:
        return np.array([[pair_complex(z) for z in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed matrix: {exc}") from exc


def vector_pairs(v: np.ndarray) -> list:
    return [complex_pair(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


def pairs_vector(pairs) -> np.ndarray:
    try:
        return np.array([pair_complex(z) for z in pairs], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed vector: {exc}") from exc


def model_payload(model) -> dict:
    return {
        "probe_dim": model.probe_dim,
        "system_dim": model.system_dim,
        "step_time": model.step_time,
        "hamiltonians": [matrix_rows(h) for h in model.hamiltonians],
    }


def protocol_payload(protocol) -> dict:
    payload = {
        "model": model_payload(protocol.model),
        "preparation": vector_pairs(protocol.preparation.amplitudes),
        "step_bases": [
            {
                "name": basis.name,
                "labels": list(basis.labels),
                "states": matrix_rows(basis.states),
            }
            for basis in protocol.step_bases
        ],
    }
    if protocol.step_times is not None:
        payload["step_times"] = list(protocol.step_times)
    return payload


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fingerprint(data) -> str:
    """Stable 16-hex-digit digest of a JSON-serializable payload."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()[:16]


def write_json(path, data) -> None:
    """Write ``data`` as indented JSON; a NaN or infinite number raises
    ``ValueError``, since it has no JSON form."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
