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
from .gspace import beta_value
from .ratpoly import RatFunc, ZetaRational, _times_u_minus_1
from .resolution import ResolutionData, validate

VARIANTS = ("naive", "plus", "minus")


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


_EXPR_FIELD = {"naive": "beta", "plus": "beta_plus", "minus": "beta_minus"}


def _stratum_terms(res: ResolutionData, variant: str, memo: tuple):
    """Per-stratum (coefficient, factor multiset) pairs, declared order.

    Strata repeat a few G-space values, often as one shared expression
    object.  Each stratum's coefficient is looked up first among this
    resolution's own expression objects, by identity and (u-1) exponent e,
    and only then through ``memo``, so that both sides of ``compare``
    evaluate each distinct value once.  ``memo`` holds two dicts that live
    for one command: each distinct expression's value, keyed by the
    expression compared by value, and each coefficient, that value times (u-1)^e with
    no gcd step (``ratpoly._times_u_minus_1``), keyed by the identity of the
    value the first dict returned, which that dict keeps alive, and e.
    """
    values, coeffs = memo
    field = _EXPR_FIELD[variant]
    drop = 0 if variant == "naive" else 1
    factor = {d.id: (d.nu, d.N) for d in res.divisors}
    own = {}  # (id(expression), e) -> coefficient; res keeps the objects alive
    terms = []
    for st in res.strata:
        expr = getattr(st, field)
        if expr is None:
            continue
        e = len(st.divisors) - drop
        coeff = own.get((id(expr), e))
        if coeff is None:
            value = values.get(expr)
            if value is None:
                value = values[expr] = beta_value(expr)
            coeff = coeffs.get((id(value), e))
            if coeff is None:
                coeff = coeffs[id(value), e] = _times_u_minus_1(value, e)
            own[id(expr), e] = coeff
        if coeff:
            terms.append((coeff, [factor[i] for i in st.divisors]))
    return terms


def _closed_form(res: ResolutionData, variant: str, memo: tuple) -> ZetaRational:
    """``denef_loeser`` with the stratum values and coefficients memoised in
    ``memo`` (``_stratum_terms``)."""
    _check_variant(variant)
    diags = validate(res)
    if diags:
        raise InvalidResolution(diags)
    return ZetaRational(_stratum_terms(res, variant, memo))


def denef_loeser(res: ResolutionData, variant: str = "naive") -> ZetaRational:
    """Closed-form zeta function of resolution data, validated here."""
    return _closed_form(res, variant, ({}, {}))


def display(z: ZetaRational) -> str:
    """Per-stratum sum in the u^-nu T^N notation, for eyeballing.  Terms
    repeat a few coefficients and (nu, N) factors, so each distinct
    coefficient and each distinct factor is formatted once, in this call."""
    if not z.terms:
        return "0"
    coeff_text = {}  # (num, den) -> the coefficient's text
    factor_text = {}
    parts = []
    for coeff, factors in z.terms:
        key = coeff.num, coeff.den
        text = coeff_text.get(key)
        if text is None:
            text = str(coeff)
            if " " in text or "/" in text:
                text = f"({text})"
            coeff_text[key] = text
        pieces = [text]
        for f in factors:
            piece = factor_text.get(f)
            if piece is None:
                nu, N = f
                piece = factor_text[f] = f"[u^-{nu} T^{N} / (1 - u^-{nu} T^{N})]"
            pieces.append(piece)
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
    memo = {}, {}  # both sides share their values and coefficients
    za = _closed_form(a, variant, memo)
    zb = _closed_form(b, variant, memo)
    diff = za.first_difference(zb)
    if diff is None:
        return ComparisonReport(equal=True, variant=variant)
    n, lhs, rhs = diff
    if n > order:
        return ComparisonReport(equal=False, variant=variant)
    return ComparisonReport(False, variant, n, lhs, rhs)


def zeta_json(res: ResolutionData, variant: str, expand_order: Optional[int] = None) -> dict:
    """Machine-readable bundle: cleared fraction, optional series, display.
    The cleared fraction is ``z`` itself and the series the ``TSeries``,
    which ``cli._emit`` writes straight from the objects."""
    z = denef_loeser(res, variant)
    out = {
        "variant": variant,
        "rational": z,
        "series": None if expand_order is None else z.t_series(expand_order),
        "display": display(z),
    }
    return out
