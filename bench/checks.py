"""Per-job correctness gate.

``verify`` compares a job's exit code and output with a reference that the
timed call did not produce:

* a mutant's rational output is byte-identical to its unmutated fixture's,
  and its display lists the same terms in another order;
* a cleared fraction, evaluated at points (u, T), equals the sum over strata
  of (u-1)^e * beta * prod T^N / (u^nu - T^N), with beta from the atom
  algebra and no BiPoly arithmetic;
* series and compare witnesses equal a ``Fraction`` long division of the
  cleared fraction at integer u, and ``y4-x2_Z2`` against ``x4-y2_Z2`` first
  differs at T^4;
* the engine series of ``x2k_Z2(k)`` equals the arc oracle's;
* oracle series equal the product of geometric series that the monomial
  stratification sums to, at integer u;
* a widened cohomology pipeline prints m times the catalog atom.

Display output has no independent route, so fixture displays are pinned:
their SHA-256 digests, taken from the seed code, live in ``pinned.json``
(rewrite it with ``python3 bench/pin.py``).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from equizeta import catalog, gspace
from jobs import PIPELINES, compute_argv

PINS = Path(__file__).with_name("pinned.json")
U_POINTS = (3, 7)
UT_POINTS = ((3, Fraction(1, 101)), (7, Fraction(2, 1009)))
SEPARATING_PAIR = {"y4-x2_Z2", "x4-y2_Z2"}


def pin_key(name, variant):
    return f"display|{name}|{variant}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _peval(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + int(c)
    return out


def _ratfunc_at(obj, u0) -> Fraction:
    return Fraction(_peval(obj["num"], u0), _peval(obj["den"], u0))


def _bipoly_at(terms, u0, t0) -> Fraction:
    return sum((int(t["c"]) * Fraction(u0) ** t["u"] * t0 ** t["t"] for t in terms), Fraction(0))


def _t_poly_at(terms, u0) -> dict:
    """A (u, T) polynomial at u = u0, as {T exponent: integer}."""
    out = {}
    for t in terms:
        out[t["t"]] = out.get(t["t"], 0) + int(t["c"]) * u0 ** t["u"]
    return out


def long_division(rational: dict, u0: int, order: int):
    """T-series of num/den at u = u0 through T^order, in Fractions."""
    num = _t_poly_at(rational["num"], u0)
    den = _t_poly_at(rational["den"], u0)
    d0 = den.get(0, 0)
    if d0 == 0:
        raise ValueError(f"denominator vanishes at T=0, u={u0}")
    out = []
    for n in range(order + 1):
        acc = Fraction(num.get(n, 0))
        for j in range(1, n + 1):
            if den.get(j):
                acc -= den[j] * out[n - j]
        out.append(acc / d0)
    return out


def strata_value(name, variant, u0, t0) -> Fraction:
    """The engine's defining sum over strata, evaluated at (u0, t0)."""
    res = catalog.get(name)
    dmap = res.divisor_map()
    total = Fraction(0)
    for st in res.strata:
        expr = {"naive": st.beta, "plus": st.beta_plus, "minus": st.beta_minus}[variant]
        if expr is None:
            continue
        beta = gspace.beta_value(expr)
        term = Fraction(_peval(beta.num, u0), _peval(beta.den, u0))
        term *= (u0 - 1) ** (len(st.divisors) - (variant != "naive"))
        for i in st.divisors:
            d = dmap[i]
            term *= t0**d.N / (u0**d.nu - t0**d.N)
        total += term
    return total


def display_terms(text: str):
    """Split a display line at its top-level ' + ' separators."""
    text = text.rstrip("\n")
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            terms.append(text[start:i])
            start = i + 3
    terms.append(text[start:])
    return sorted(terms)


def oracle_product_series(exps, sign, eps, variant, u0, order):
    """Monomial-germ series at u0 from its product form.

    The order-n arc strata of sign * prod x_i^N_i sum to
    prefactor * prod_i sum_{k>=1} u^-k T^(k N_i), with prefactor
    point * (u-1)^d for the naive variant, and for the signed variants the
    series of the leading-coefficient orthants solving the sign equation.
    """
    series = [Fraction(1)] + [Fraction(0)] * order
    for N in exps:
        factor = [Fraction(0)] * (order + 1)
        for k in range(1, order // N + 1):
            factor[k * N] = Fraction(1, u0**k)
        series = [
            sum(series[j] * factor[n - j] for j in range(n + 1)) for n in range(order + 1)
        ]
    d = len(exps)
    if variant == "naive":
        point = 1 if eps is None else Fraction(u0, u0 - 1)
        pref = point * (u0 - 1) ** d
    else:
        target = 1 if variant == "plus" else -1
        if any(n % 2 for n in exps):
            count = 2 ** (d - 1)
        else:
            count = 2**d if sign == target else 0
        if eps is None:
            pref = Fraction(count * u0 ** (d - 1))
        elif all(e == 1 for e in eps):
            pref = Fraction(count * u0**d, u0 - 1)
        else:
            pref = Fraction(count, 2) * u0 ** (d - 1)
    return [pref * c for c in series]


class References:
    """Reference outputs, made outside the timed calls and cached per run."""

    def __init__(self, call_cli, pins):
        self.call_cli = call_cli
        self.pins = pins
        self._cli = {}
        self._series = {}
        self._fixture_ok = {}

    def cli(self, argv) -> str:
        argv = tuple(argv)
        if argv not in self._cli:
            code, out, err = self.call_cli(argv)
            if code != 0:
                raise ValueError(f"reference {argv} exited {code}: {err.strip()}")
            self._cli[argv] = out
        return self._cli[argv]

    def fixture_output(self, name, variant, fmt) -> str:
        return self.cli(compute_argv(name, variant, fmt))

    def series_at(self, name, variant, u0, order):
        key = (name, variant, u0)
        have = self._series.get(key)
        if have is None or len(have) <= order:
            rational = json.loads(self.fixture_output(name, variant, "rational"))
            have = long_division(rational, u0, max(order, 32))
            self._series[key] = have
        return have[: order + 1]

    def check_fixture(self, out, name, variant, fmt):
        """Failure reason for a fixture's own output, or None."""
        if fmt == "display":
            want = self.pins.get(pin_key(name, variant))
            if want is None:
                return f"no pinned display digest for {name} {variant}"
            return None if digest(out) == want else "display differs from the pinned digest"
        obj = json.loads(out)
        for u0, t0 in UT_POINTS:
            got = _bipoly_at(obj["num"], u0, t0) / _bipoly_at(obj["den"], u0, t0)
            if got != strata_value(name, variant, u0, t0):
                return f"cleared fraction disagrees with the strata sum at u={u0}"
        return None

    def fixture_ok(self, name, variant, fmt):
        key = (name, variant, fmt)
        if key not in self._fixture_ok:
            out = self.fixture_output(name, variant, fmt)
            self._fixture_ok[key] = self.check_fixture(out, name, variant, fmt)
        return self._fixture_ok[key]


def _same_as_fixture(refs, out, err, name, variant, fmt):
    reason = refs.fixture_ok(name, variant, fmt)
    if reason:
        return f"reference {name}: {reason}"
    ref = refs.fixture_output(name, variant, fmt)
    if fmt == "rational":
        return None if out == ref else f"rational output differs from {name}'s"
    return None if display_terms(out) == display_terms(ref) else f"display terms differ from {name}'s"


def _fixture(refs, out, err, name, variant, fmt):
    return refs.check_fixture(out, name, variant, fmt)


def _error(refs, out, err, kind):
    if out:
        return f"{kind}: printed to stdout"
    return None if err.startswith("error: ") else f"{kind}: no error message"


def _compare_equal(refs, out, err, variant):
    want = {
        "equal": True, "variant": variant, "first_differing_T_order": None,
        "lhs_coeff": None, "rhs_coeff": None,
    }
    return None if json.loads(out) == want else "equal pair not reported equal"


def _compare_unequal(refs, out, err, lhs, rhs, variant, order):
    rep = json.loads(out)
    if rep["equal"] is not False or rep["variant"] != variant:
        return "unequal pair not reported unequal"
    sides = {u0: (refs.series_at(lhs, variant, u0, order), refs.series_at(rhs, variant, u0, order))
             for u0 in U_POINTS}
    first = min(
        (n for sa, sb in sides.values() for n in range(order + 1) if sa[n] != sb[n]),
        default=None,
    )
    if {lhs, rhs} == SEPARATING_PAIR and variant == "naive" and order >= 4 and first != 4:
        return f"reference separates the pair at T^{first}, not T^4"
    if rep["first_differing_T_order"] != first:
        return f"first difference at T^{rep['first_differing_T_order']}, reference T^{first}"
    if first is None:
        return None if rep["lhs_coeff"] is None and rep["rhs_coeff"] is None else "witness without order"
    if rep["lhs_coeff"] == rep["rhs_coeff"]:
        return "witness coefficients are equal"
    for u0, (sa, sb) in sides.items():
        if _ratfunc_at(rep["lhs_coeff"], u0) != sa[first] or _ratfunc_at(rep["rhs_coeff"], u0) != sb[first]:
            return f"witness coefficients disagree with the long division at u={u0}"
    return None


def _series(refs, out, err, name, variant, order):
    obj = json.loads(out)
    if obj["order"] != order or len(obj["coeffs"]) != order + 1:
        return "series has the wrong order"
    for u0 in U_POINTS:
        want = refs.series_at(name, variant, u0, order)
        for n, coeff in enumerate(obj["coeffs"]):
            if _ratfunc_at(coeff, u0) != want[n]:
                return f"T^{n} coefficient disagrees with the long division at u={u0}"
    if name.startswith("x2k_Z2("):
        k = int(name[len("x2k_Z2("):-1])
        oracle = refs.cli(("oracle", f"--exponents={2 * k}", "--action=-1",
                           "--variant", variant, "--order", str(order)))
        if json.loads(oracle) != obj:
            return "engine series differs from the arc oracle's"
    return None


def _oracle(refs, out, err, exps, sign, eps, variant, order):
    obj = json.loads(out)
    if obj["order"] != order or len(obj["coeffs"]) != order + 1:
        return "series has the wrong order"
    for u0 in U_POINTS:
        want = oracle_product_series(exps, sign, eps, variant, u0, order)
        for n, coeff in enumerate(obj["coeffs"]):
            if _ratfunc_at(coeff, u0) != want[n]:
                return f"T^{n} coefficient disagrees with the product form at u={u0}"
    return None


def _cohomology(refs, out, err, shape, m):
    atom_name = PIPELINES[shape][1]
    atom = gspace.atom_value(atom_name)
    lines = out.splitlines()
    if not lines or lines[0] != str(atom * m):
        return f"series is not {m} times {atom_name}"
    top = (len(atom.num) - 1) - (len(atom.den) - 1)
    laurent = " ".join(str(m * c) for c in atom.laurent(-4))
    if lines[1:] != [f"laurent u^{top}..u^-4: {laurent}"]:
        return "laurent line is not m times the atom's"
    return None


CHECKS = {
    "same_as_fixture": _same_as_fixture,
    "fixture": _fixture,
    "error": _error,
    "compare_equal": _compare_equal,
    "compare_unequal": _compare_unequal,
    "series": _series,
    "oracle": _oracle,
    "cohomology": _cohomology,
}


def verify(job, code, out, err, refs):
    """None when the job's outcome is correct, else the reason it is not."""
    if code != job.expect_exit:
        return f"exit {code}, expected {job.expect_exit}: {err.strip()[:200]}"
    kind, *params = job.check
    try:
        return CHECKS[kind](refs, out, err, *params)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"{kind}: unreadable output ({type(exc).__name__}: {exc})"


def load_pins():
    return json.loads(PINS.read_text()) if PINS.exists() else {}
