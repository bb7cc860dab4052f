"""Desk-scale simulator for four-qubit Dicke-state networking protocols.

Library layers: labeled-register linear algebra (register), named states
(states), the conversion gate stage (circuits), entanglement witnesses and
biseparability bounds (witnesses), telecloning and open-destination
teleportation (protocols), and shot-noise tomography (tomography). The cli
module ties them into scenario commands.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .register import (
    ImpossibleBranchError,
    MixedState,
    PureState,
    RegisterError,
    RegisterLayout,
    apply_gate,
    basis_ket,
    fidelity,
    partial_trace,
    permute_to,
    project,
    single_qubit,
    states_close,
    tensor,
)
from .states import (
    ClientParams,
    bell,
    client_ket,
    client_state,
    dicke,
    dicke_physical,
    physical_logical_permutation,
    werner_dicke,
    werner_weight_for_fidelity,
    xi_state,
)
from .circuits import (
    Circuit,
    ConversionSearch,
    GateSpec,
    conversion_pool,
    find_conversion_circuit,
    run_circuit,
)
from .witnesses import (
    BisepBoundResult,
    CollectiveSpinSet,
    FidelityBound,
    Observable,
    WitnessReport,
    biseparable_bound,
    biseparable_bound_result,
    collective_spin,
    fidelity_bound_from_d3_witness,
    fidelity_bound_from_wm,
    propagate_wcs_error,
    witness_projector_d3,
    witness_wcs,
    witness_wm,
    witness_wm_calibrated,
)
from .protocols import (
    BranchOutcome,
    CorrectionSearchError,
    OdtResult,
    QtcResult,
    bell_measure,
    derive_correction_table,
    qtc_mixed_band,
    qtc_theory_fidelity,
    run_odt,
    run_qtc,
)
from .tomography import (
    CountsRecord,
    MissingSettingError,
    born_probabilities,
    estimate_correlator,
    estimate_witness,
    exact_counts,
    fidelity_with_error,
    simulate_counts,
    tomography_linear,
)
