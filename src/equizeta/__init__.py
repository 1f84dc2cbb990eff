"""Equivariant zeta functions of invariant Nash germs, exactly.

The package computes the naive and signed equivariant zeta functions of an
invariant Nash germ from user-supplied equivariant resolution data, expands
them as power series in T, and decides equality -- all in exact
arbitrary-precision arithmetic.  Two independent calculators back the engine
up: a direct arc-space stratification for monomial germs and a GF(2)
group-cohomology pipeline for the series of the catalog spaces.
"""

from . import arcs, catalog, cohomology, gspace, resolution, zeta
from .arcs import MonomialGerm, SignAction, arc_beta_naive, arc_beta_signed, oracle_series
from .cohomology import (
    CyclicGModule,
    F2Matrix,
    SpectralPage,
    TailSpec,
    apply_differentials,
    betti_series,
    cohomology_dim,
    hs_e2_page,
    norm_element,
)
from .errors import (
    DivisionByZero,
    EquizetaError,
    InvalidInput,
    InvalidResolution,
    NotExpandable,
    NotInvariant,
    ParseError,
    RankTooLarge,
    SchemaError,
    TailMismatch,
    UnknownAtom,
    UnknownFixture,
    ZeroDenominator,
)
from .gspace import (
    Atom,
    ClosedComplement,
    DisjointUnion,
    ProductWithAffine,
    ProductWithPuncturedLines,
    Rational,
    atom_value,
    beta_value,
)
from .ratpoly import BiPoly, RatFunc, TSeries, ZetaRational
from .resolution import Divisor, GroupSpec, ResolutionData, StratumEntry
from .zeta import ComparisonReport, denef_loeser, display, distinguish

__version__ = "0.1.0"

__all__ = [
    "MonomialGerm", "SignAction", "arc_beta_naive", "arc_beta_signed",
    "oracle_series", "CyclicGModule", "F2Matrix", "SpectralPage", "TailSpec",
    "apply_differentials", "betti_series", "cohomology_dim", "hs_e2_page",
    "norm_element", "Atom", "ClosedComplement", "DisjointUnion",
    "ProductWithAffine", "ProductWithPuncturedLines", "Rational",
    "atom_value", "beta_value", "BiPoly", "RatFunc", "TSeries",
    "ZetaRational", "Divisor", "GroupSpec", "ResolutionData", "StratumEntry",
    "ComparisonReport", "denef_loeser", "display", "distinguish",
    "EquizetaError", "ZeroDenominator", "DivisionByZero", "NotExpandable",
    "UnknownAtom", "RankTooLarge", "TailMismatch", "InvalidInput",
    "ParseError", "SchemaError", "UnknownFixture", "InvalidResolution",
    "NotInvariant", "arcs", "catalog", "cohomology", "gspace", "resolution",
    "zeta",
]
