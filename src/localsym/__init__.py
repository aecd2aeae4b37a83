"""Local symmetries and optimal local conversions of multiqubit pure states."""

__version__ = "0.1.0"

from .states import (
    PureState,
    LocalOperatorChain,
    make_w,
    make_ln,
    make_ghz,
    make_gabcd,
    apply_chain,
    reduced_density,
    fidelity,
    sample_haar_state,
    sample_chain,
)
from .invariants import SlipValue, f2, f4, check_invariance
from .critical import (
    CriticalityReport,
    ScalingResult,
    criticality_report,
    scale_to_critical,
    min_norm_probe,
)
from .stabilizer import (
    StabilizerProbe,
    TrivialityVerdict,
    lie_stabilizer_dim,
    discrete_stabilizer_search,
    phase_stabilizer_search,
    gtilde_triviality_probe,
    adjoint_closure_check,
)
from .convert import (
    ConversionPlan,
    ProtocolRunStats,
    pmax,
    build_protocol,
    simulate_protocol,
    find_connector,
)
from .genericity import (
    SearchBudget,
    GenericityReport,
    genericity_report,
    benchmark_census,
)
