"""Central numerical tolerance record.

Every check in the package reads its cutoffs from a single Tolerances value so
that each report can echo exactly the settings it was produced with.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-12        # relative: |M - M^H|_F <= tol * |M|_F
    unitarity: float = 1e-10          # |U^H U - 1|_F
    density_trace: float = 1e-10
    density_eig: float = 1e-10        # smallest eigenvalue >= -tol
    rank: float = 1e-9                # residual cut when orthonormalizing operator sets
    kraus_effect: float = 1e-12       # |E - K^H K|_F per outcome
    povm_completeness: float = 1e-10  # |sum_m E_m - 1|_F
    effect_psd: float = 1e-10
    probability_imag: float = 1e-12
    probability_clip: float = 1e-10
    distribution_sum: float = 1e-9
    kc: float = 1e-9                  # operator-defect norm deciding a consistency verdict
    witness: float = 1e-9
    commutator: float = 1e-10         # pairwise commutator norm deciding commutativity
    closure: float = 1e-9
    nullspace: float = 1e-9           # singular-value cut for commutant computation
    gap: float = 1e-8                 # minimum eigenvalue gap for a nondegenerate effect
    fixed_point: float = 1e-10
    spacing: float = 1e-9             # level-spacing equality cut
    entanglement: float = 1e-10
    weight_sum: float = 1e-12
    oracle_agreement: float = 1e-11
    enumeration_cap: int = 10**6      # maximum number of outcome sequences enumerated

    def __post_init__(self) -> None:
        # a NaN or non-positive cut would silently decide verdicts the wrong way
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"tolerance {f.name} must be a number, got {value!r}")
            if f.name == "enumeration_cap":
                if not (math.isfinite(value) and value == int(value) and value >= 1):
                    raise ConfigError(f"enumeration_cap must be an integer >= 1, got {value!r}")
                # an integral float (as parsed from --tol) is stored as an int
                object.__setattr__(self, f.name, int(value))
            elif not (math.isfinite(value) and value > 0):
                raise ConfigError(f"tolerance {f.name} must be finite and > 0, got {value!r}")

    def replace(self, **overrides) -> "Tolerances":
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ConfigError(f"unknown tolerance name(s): {sorted(unknown)}")
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict:
        # the fields are plain numbers, so asdict's deep copy is only cost
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


DEFAULT = Tolerances()
