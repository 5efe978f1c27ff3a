"""Distributed quantum inner-product estimation: simulators for the
multi-copy and single-copy estimation protocols, symmetric-subspace
machinery, and a classical-communication protocol harness."""

from .rng import RngStream
from .linalg import (
    PureState,
    DensityMatrix,
    sample_haar_state,
    sample_haar_unitary,
    overlap2,
    trace_inner,
    trace_distance,
    dmax,
)
from .estimators import (
    EstimateRecord,
    multicopy_estimate,
    multicopy_variance_exact,
    multicopy_variance_bound,
    singlecopy_estimate,
    singlecopy_variance_exact_pure,
    swap_test_variance,
    generalized_swap_variance,
    dipe_decide_threshold,
    dipe_decide_pi0,
    make_state_pair,
)
from .symmetric import (
    sym_dimension,
    sym_projector,
    standard_povm_sample,
    beta_coefficient,
    block_spectrum,
    rho_u_closed_form,
    trace_distance_rho_u_block,
    maximally_mixed_sym,
    mp_channel,
    clone_channel,
)
from .protocol import (
    Role,
    Smp,
    OneWay,
    Interactive,
    Transcript,
    run_protocol,
    validate_transcript,
    transcript_cost,
)
from .experiments import ExperimentConfig, ExperimentResult, run_experiment

__version__ = "0.1.0"
