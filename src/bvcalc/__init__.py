"""bvcalc: linear-growth functionals on BV functions against a Radon measure.

Numerical workbench for evaluating integral functionals of measure-
derivative type, their recession-term representation, generalized Young
measures and the associated semicontinuity/Jensen-type checks, at desk
scale on box domains.
"""

from .bv import (
    BVFunction,
    Jump,
    Piece,
    boundary_trace,
    derivative,
    verify_integration_by_parts,
    zero_extension,
)
from .functional import (
    FunctionalSpec,
    admissibility_check,
    evaluate,
    lsc_experiment,
    relaxation_upper_bound,
    reshetnyak_experiment,
)
from .integrands import (
    Integrand,
    SQIntegrand,
    generalized_recession,
    quasiconvexity_refuter,
    rank_one_convexity_check,
    recession,
    sq_envelope,
    transform_T,
    transform_T_inv,
)
from .measures import (
    CarrierRegistry,
    Domain,
    MatrixRadonMeasure,
    ScalarRadonMeasure,
    SingularCarrier,
    area_functional,
    mutually_singular,
    pair_with_test_function,
    rn_decompose,
    total_variation,
)
from .oracle import oracle_1d
from .scenarios import RunConfig, Scenario, run, scenario_catalog
from .young import (
    GeneralizedYoungMeasure,
    barycenter,
    elementary,
    empirical_generation_check,
    jensen_check_lebesgue,
    jensen_check_mu,
    pairing,
    pairings,
)

__version__ = "0.1.0"
