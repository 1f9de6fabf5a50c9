"""Exact Fano / weak Fano classification of generalized Bott manifolds."""

from .lattice import IntVec, LatticeError, det, mu, nu
from .tower import (
    BottMatrix,
    Classification,
    GeneralizedBottTower,
    TowerError,
    Verdict,
    bott_fano,
    chary_condition,
    classify,
    compute_b,
    from_bott_matrix,
    validate,
)
from .oracle import (
    Fan,
    FanError,
    PrimitiveCollectionData,
    batyrev_classify,
    primitive_collections,
    primitive_collections_bruteforce,
    primitive_relation,
    validate_smooth_complete,
)
from .fan import (
    WallData,
    build_fan,
    collection_for_stage,
    expected_primitive_relation,
    signed_relation,
    wall_relation,
)
from .enumeration import (
    FANO_THREE_STAGE_TRIPLES,
    CharyCompareReport,
    SweepError,
    SweepReport,
    SweepSpec,
    chary_compare,
    sweep,
)

__version__ = "0.1.0"
