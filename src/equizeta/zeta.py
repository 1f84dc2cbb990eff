"""The closed-form engine for equivariant zeta functions.

Given resolution data, each declared stratum orbit contributes

    (u-1)^e  *  beta  *  prod_i  T^N_i / (u^nu_i - T^N_i)

where e is the size of the representative subset for the naive variant and
one less for the signed variants (which read the cover values instead of
beta).  Every u^-nu T^N / (1 - u^-nu T^N) is stored as the factor
(nu, N) of T^N / (u^nu - T^N).  The engine returns the sum of these terms
as a ``ZetaRational``; its display, series, equality and cleared fraction
all derive from that one object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidResolution
from .gspace import ProductWithPuncturedLines, beta_value
from .ratpoly import RatFunc, ZetaRational
from .resolution import ResolutionData, StratumEntry, validate

VARIANTS = ("naive", "plus", "minus")


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _stratum_expr(st: StratumEntry, variant: str):
    if variant == "naive":
        return st.beta
    if variant == "plus":
        return st.beta_plus
    return st.beta_minus


def _stratum_terms(res: ResolutionData, variant: str):
    """Per-stratum (coefficient, factor multiset) pairs, declared order.

    A resolution's strata repeat a few G-space values, so each distinct
    (expression, (u-1) exponent e) pair is evaluated once, as the value of
    the expression times (R*)^e; the memo lives for this one call only.
    """
    dmap = res.divisor_map()
    coeffs = {}
    terms = []
    for st in res.strata:
        expr = _stratum_expr(st, variant)
        if expr is None:
            continue
        exponent = len(st.divisors) - (0 if variant == "naive" else 1)
        key = (expr, exponent)
        if key not in coeffs:
            coeffs[key] = beta_value(ProductWithPuncturedLines(expr, exponent))
        coeff = coeffs[key]
        if coeff.is_zero():
            continue
        factors = [(dmap[i].nu, dmap[i].N) for i in st.divisors]
        terms.append((coeff, factors))
    return terms


def denef_loeser(res: ResolutionData, variant: str = "naive") -> ZetaRational:
    """Closed-form zeta function of resolution data, validated here."""
    _check_variant(variant)
    diags = validate(res)
    if diags:
        raise InvalidResolution(diags)
    return ZetaRational(_stratum_terms(res, variant))


def display(z: ZetaRational) -> str:
    """Per-stratum sum in the u^-nu T^N notation, for eyeballing."""
    if not z.terms:
        return "0"
    parts = []
    for coeff, factors in z.terms:
        text = str(coeff)
        if " " in text or "/" in text:
            text = f"({text})"
        pieces = [text]
        for nu, N in factors:
            pieces.append(f"[u^-{nu} T^{N} / (1 - u^-{nu} T^{N})]")
        parts.append(" * ".join(pieces))
    return " + ".join(parts)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing one zeta variant of two resolutions.

    ``first_differing_T_order`` is the smallest series order that separates
    them, when one exists within the searched window; the two coefficients at
    that order come along as the witness.
    """

    equal: bool
    variant: str
    first_differing_T_order: Optional[int] = None
    lhs_coeff: Optional[RatFunc] = None
    rhs_coeff: Optional[RatFunc] = None

    def to_json(self) -> dict:
        return {
            "equal": self.equal,
            "variant": self.variant,
            "first_differing_T_order": self.first_differing_T_order,
            "lhs_coeff": None if self.lhs_coeff is None else self.lhs_coeff.to_json(),
            "rhs_coeff": None if self.rhs_coeff is None else self.rhs_coeff.to_json(),
        }


def distinguish(
    a: ResolutionData, b: ResolutionData, variant: str = "naive", order: int = 16
) -> ComparisonReport:
    """Compare a zeta variant of two germs' resolution data.

    Equality is certified (``ZetaRational.first_difference``).  When the
    smallest separating T-order lies within T^order, the two coefficients
    there come along as the witness; otherwise the report carries none.
    """
    za = denef_loeser(a, variant)
    zb = denef_loeser(b, variant)
    diff = za.first_difference(zb)
    if diff is None:
        return ComparisonReport(equal=True, variant=variant)
    n, lhs, rhs = diff
    if n > order:
        return ComparisonReport(equal=False, variant=variant)
    return ComparisonReport(False, variant, n, lhs, rhs)


def zeta_json(res: ResolutionData, variant: str, expand_order: Optional[int] = None) -> dict:
    """Machine-readable bundle: cleared fraction, optional series, display.
    The cleared fraction is ``z`` itself, which ``cli._emit`` writes from its
    rows."""
    z = denef_loeser(res, variant)
    out = {
        "variant": variant,
        "rational": z,
        "series": None if expand_order is None else z.t_series(expand_order).to_json(),
        "display": display(z),
    }
    return out
