"""Numerical laboratory for sequential measurements on a dephasing probe.

The package builds the measurement machinery a pure-dephasing probe induces
on the system it couples to (Kraus operators, POVMs, history operators),
checks Kolmogorov consistency of outcome-sequence statistics at state and
operator level, evaluates scalar noncommutativity witnesses, analyzes the
operator algebra the probe can sense, and ships deterministic scenario
builders plus a brute-force oracle for cross-validation.
"""

from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    InvariantViolation,
    KCProbeError,
    LabelError,
    NumericalFault,
    PreconditionError,
    ProtocolError,
)
from .tolerances import DEFAULT, Tolerances
from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    hermitian_eig,
    hs_inner,
    orthonormalize_hs,
    unitary_from_hamiltonian,
)
from .model import (
    DephasingModel,
    InducedMeasurement,
    MeasurementProtocol,
    MeterBasis,
    PreparationState,
    build_conditional_hamiltonians,
    conditional_unitaries,
    fourier_meter_basis,
    fourier_protocol,
    induced_kraus,
    nonselective_apply,
    plus_x_preparation,
    qubit_xy_protocol,
    uniform_preparation,
    xy_meter_basis,
)
from .sequences import (
    FixedPointResult,
    HistoryOperator,
    JointDistribution,
    KCEntry,
    KCReport,
    check_kc_all,
    fixed_point_check,
    full_distribution,
    history_operator,
    joint_probability,
    kc_defect_operator,
    kc_defect_state,
)
from .witnesses import (
    LGFinding,
    LGResult,
    WitnessReport,
    delta_2_1,
    delta_3_2,
    delta_correlation,
    lg_check,
    lg_search_instance,
    lg_violation_search,
    witness_report,
)
from .algebra import (
    AlgebraBasis,
    AlgebraReport,
    algebra_report,
    classical_wrt_state,
    commutant_basis,
    effect_nondegenerate,
    generate_algebra,
    is_commutative,
    spacing_degeneracy_predicate,
    zero_entanglement_condition,
)
from .scenarios import (
    CounterexampleFinding,
    NoiseRealization,
    ScenarioSpec,
    build_scenario,
    classical_noise_model,
    counterexample_search,
    degenerate_qubit_instance,
    ensemble_kc_max_defect,
    haar_unitary,
    noise_ensemble_average,
    nv_center_model,
    random_model,
    random_noise_realization,
)
from .oracle import (
    OracleReport,
    effect_product_probability,
    naive_distribution,
    naive_kc_defect,
    naive_sequence_probability,
    oracle_compare,
)

__version__ = "0.1.0"
