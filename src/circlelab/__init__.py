"""Exact-arithmetic laboratory for subgroups of the circle group that are
characterized by a sequence of vanishing multiples, in the plain or the
density-statistical sense.

The package works with an arithmetic base sequence a_0 = 1, a_k = b_k a_{k-1}
and its derived enumeration d_1 < d_2 < ... of the proper multiples r a_k,
1 <= r < b_{k+1}. Points of the circle carry canonical mixed-radix digits;
every reported bound is an exact fraction obtained from finite digit windows,
never a float.
"""

from .circle import (
    BoundInterval,
    CirclePoint,
    EnclosureCache,
    FiniteDigits,
    FloorDivDigits,
    FuncDigits,
    IndicatorDigits,
    RationalDigits,
    default_depth_cap,
    derived_frac_bound,
    derived_norm_bound,
    digits_from_rational,
    frac_bound,
    frac_exact,
    mult_frac_bound,
    norm_bound,
    parse_point,
    tail_upper_bound,
)
from .classify import (
    ClassVerdict,
    b_bounded_split,
    check_b_bounded,
    check_strongly_non_dli,
    check_weakly_dli_condition,
    weakly_dli_witness_set,
    witness_recursion,
)
from .density import (
    DensityEstimate,
    FiniteNatSet,
    IntervalNatSet,
    LazyIntervalNatSet,
    NatSet,
    PredicateNatSet,
    cube_gap_blocks,
    difference,
    evens,
    full_set,
    intersect,
    lift,
    parse_set_expr,
    prefix_density,
    set_algebra,
    squares,
    translate,
    union,
)
from .errors import (
    CircleLabError,
    HorizonError,
    PreconditionError,
    SpecParseError,
)
from .membership import (
    MemberVerdict,
    ScanResult,
    convergence_verdict,
    finite_support_member,
    statistical_scan,
)
from .sequences import ArithSeq, DerivedSeq, RatioSpec, cube_block_edges
from .witness import (
    CertRow,
    Partition,
    WitnessReport,
    arbault_witness,
    bad_interval_family,
    certify_nonmembership,
    continuum_exceptional_set,
    continuum_family_point,
    factor_u,
    nonmembership_partition,
)

__version__ = "0.1.0"
