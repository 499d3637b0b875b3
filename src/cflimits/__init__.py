"""Limit sets and asymptotics of divergent continued fractions.

Predictably divergent infinite processes: continued fractions, matrix
products, Poincare-type recurrences and (r, s)-matrix continued fractions
whose characteristic data sits on the unit circle do not converge, but
their approximants are asymptotic to explicit Moebius images of powers of
a unit-circle ratio.  This package computes those asymptotics, the limit
sets they trace (circles, lines, or finitely many points), the residue-
class limits and ranks, and the convergent companion fractions that pick
out single limit points.
"""

from .sphere import (
    INFINITY,
    Circle,
    CircleOrLine,
    ExtendedComplex,
    Line,
    MobiusMap,
    as_extended,
    chordal_distance,
    mobius_through,
)
from .cf import (
    ContinuedFraction,
    ConvergentStream,
    EvalResult,
    convergents,
    equivalence_transform,
    evaluate,
    limit_along_residue,
    modified_value,
)
from .limitset import (
    Concentration,
    EllipticCFSpec,
    LambdaOrder,
    LimitSetReport,
    ResidueLimitsResult,
    UnitModulusNumber,
    asymptotic_predictor,
    build_cf,
    compute_h_direct,
    compute_h_via_modifications,
    concentration_points,
    det_product,
    geometric_spec,
    limit_set_report,
    normalize_elliptic,
    order_of_lambda,
    q_cf_rank,
    residue_limits,
    tail_omega,
)
from .bauermuir import (
    BMTransformResult,
    bm_at_infinity,
    bm_at_lambda_power,
    bm_at_zero,
    rbm_identity,
)
from .qseries import (
    QParams,
    pxy,
    qpochhammer,
    ramanujan_limit_map,
    rogers_ramanujan_two_limits,
    verify_ramanujan_claim,
)
from .matprod import (
    CocycleResult,
    MatrixSequencePair,
    cocycle_limit,
    entry_norm,
    product_predictor,
    residue_matrix_limits,
    wedderburn_product,
)
from .recur import (
    AsymptoticCoefficients,
    PoincareRecurrence,
    asymptotic_coefficients,
    characteristic_roots,
    perron_limsup_diagnostic,
    residue_limits_recurrence,
)
from .rsmatrix import (
    RSAsymptotics,
    RSSystem,
    f_projection,
    rs_approximants,
    rs_asymptotics,
)

__version__ = "0.1.0"
