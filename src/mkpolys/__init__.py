"""Exact symbolic engine for five-parameter Koornwinder-type orthogonal
polynomial families attached to Hermitian symmetric-pair data, their
level-shifted relatives, and the rank-one coideal computations that
produce the level-shift factors."""

from .scalars import Scalar, TruncSeries, scalar_to_series
from .roots import (
    RootSystem,
    SatakeEntry,
    build_root_system,
    catalog_entries,
    dominance_leq,
    dominant_weights_below,
    dominant_weights_upto,
    satake_catalog,
    weyl_orbit,
)
from .galg import GAElem, ga_divexact, m_basis, orbit_sum
from .weights import (
    KLabel,
    PochProduct,
    PochSymbol,
    expand,
    half_density,
    koornwinder_weight,
    poch_to_gaelem,
    shift_factor,
    shifted_weight,
)
from .mkengine import (
    MKPolynomial,
    apply_qdiff,
    build_family,
    build_polynomial,
    build_polynomial_gs,
    check_bar_invariance,
    connection_coeffs,
    eigenvalue_identity_check,
    gram_matrix,
    verify_orthogonality,
)
from .qsp1 import (
    Rank1Module,
    SphericalPair,
    aiiia_parameter,
    build_rank1,
    chain_res,
    fundamental_res,
    matrix_coeff_res,
    solve_spherical,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
