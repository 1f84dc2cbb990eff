"""The cleared fraction of a ``ZetaRational``, on packed T-rows.

The cleared fraction num / den of a sum of coeff * prod T^N / (u^nu - T^N)
terms multiplies out products of binomials u^nu - T^N.  Every T-exponent on
the way is g times a row j, g the gcd of the factors' N, and one of two
passes, picked once per cleared fraction by ``_Layout.packs_whole``, holds
each polynomial in ``ratpoly``'s packed format:

* bare int (``_bare_pass``): one int over all the rows under the skewed
  Kronecker map of ``_Layout``, where the rows are dense and the layout's
  span proves both caps, so that no step checks one.  Every catalog tree
  takes it;
* ratpoly's packed rows (``_row_pass``), the T-expansion's {j: (low, v)},
  elsewhere: a T-sparse polynomial, or one whose bands lie far apart,
  costs its rows and not the empty digits between them.

Each pass reads num and den out of the form it holds, as interleaved
[c, t, u, ...] lists in (t, u) order for ``cli`` to print with one format
call: the bare pass reads its two ints through one list of row starts
(``_Layout.terms``), the row pass its rows in row order (``_row_terms``).
``ZetaRational._cleared`` imports this module on first use, so commands
that print no cleared fraction do not load it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cmp_to_key
from itertools import chain, repeat
from math import gcd, inf
from operator import add, itemgetter, mul, sub

from . import ratpoly
from .errors import InvalidInput
from .ratpoly import (
    _add_shifted,
    _byte_width,
    _common_den,
    _digits,
    _factor_max,
    _grouped,
    _l1,
    _pack,
    _valuation,
    _width,
    _within_bits,
)

# Cap on the nonzero (u, T) terms of any one polynomial that
# ``cleared_fraction`` holds while it builds num / den, checked after each
# step on ratpoly's packed rows beside ``ratpoly.MAX_PACKED_BITS``
# (``_Layout.within_cap``), and by the layout's span alone on bare ints.
# The catalog's largest polynomials on the way are gk(62,+,-) at 83,324
# terms (span 111,316), hk(129,+) at 47,891 and gk(64,+,+) at 45,758.
# Sixteen divisors whose N have distinct subset sums, with every pair a
# stratum, pass it within a second and fail with InvalidInput (exit 2);
# twice the cap lets them print 16 MB of JSON in 0.7-0.85 s at 91 MiB peak
# RSS (one process on a shared 2-core host).
MAX_CLEARED_TERMS = 1 << 17


def _nonzero_digits(v: int, w: int) -> int:
    """The number of nonzero digits of v, in a few passes over its bits and
    without reading the digits off: with 2^(w-1) added to each digit and
    xor-ed off again, a digit is 0 exactly where v's is, and or-ing the w
    bits of each digit into its lowest leaves one bit per nonzero digit."""
    n = v.bit_length() // w + 1
    ones, count = 1, 1  # a 1 in each of count >= n digits
    while count < n:
        ones |= ones << (w * count)
        count *= 2
    half = ones << (w - 1)
    bits = (v + half) ^ half
    covered = 1
    while covered < w:
        step = min(covered, w - covered)
        bits |= bits >> step
        covered += step
    return (bits & ones).bit_count()


def _segments(factors) -> list:
    """[(B, a, nu, N)], the greedy fill of T-heights by the (nu, N) factors,
    each M times, in the given order: on [B, B + M N] it has used the
    factors before this one whole and gives up a + (t - B) nu / N of u."""
    out, B, a = [], 0, 0
    for (nu, N), M in factors:
        out.append((B, a, nu, N))
        B += M * N
        a += M * nu
    return out


# About the bits at which one integer operation costs as much as the Python
# steps of one more int, 64 machine words: the bare-int pass may spend this
# many bits per T-height that can hold terms (``_Layout.packs_whole``), and
# the term count joins short rows up to this many bits (``_terms_in``).
_SLACK_BITS = 1 << 12


def _terms_in(values: list, sizes: list, w: int) -> int:
    """The nonzero digits of the packed values of bit lengths ``sizes``, one
    ``_nonzero_digits`` call per _SLACK_BITS bits or longer value: a value
    of b bits fits in b // w + 1 digits, so values joined side by side at
    those offsets keep theirs."""
    count, joined, used = 0, 0, 0
    room = _SLACK_BITS // w
    for v, b in zip(values, sizes):
        digits = b // w + 1
        if used + digits > room:
            count += _nonzero_digits(joined, w)
            joined, used = v, digits
        else:
            joined += v << w * used
            used += digits
    return count + _nonzero_digits(joined, w)


class _Layout:
    """The skewed Kronecker map of one cleared fraction: u -> 2^w and
    T^g -> 2^(w k), so that u^a T^(g j) is the digit at position a + k j of
    an integer whose balanced digits |c| < 2^(w-1) are the coefficients.
    g is the gcd of the factors' N, so every T-exponent is g times a row j.

    The bare-int pass holds a polynomial as one (e, v), the int v whose
    digit i sits at position e + i, and ``terms`` reads it out.  The row
    pass holds ratpoly's packed rows {j: (low, v)} and reads them without
    the map (``_row_terms``); it takes only the span and the widths.

    Every polynomial on the way lies, up to a shift in u, in the factors'
    zonotope sum_f M_f [(nu_f, 0), (0, N_f)] widened by the u-range [lo, hi]
    of den_u and the P_g.  Its row t is the band [L(t), U(t)] = [lo + A -
    Mx(t), hi + A - Mn(t)], A = sum_f M_f nu_f, where Mx(t) and Mn(t) are the
    most and the least of u that T-height t can take from A: greedy fills by
    nu / N, piecewise linear, concave and convex.  With k = 1 + max_t (U(t) -
    L(t + g)) every row ends before the next one starts, so the map is one to
    one on each polynomial, and row j of the cleared fraction starts at the
    digit S(j) = ceil(L(g j)) + k j.  U(t) - L(t + g) is concave, so its max
    lies on a breakpoint: k costs one walk up the breakpoints of the two
    fills, whatever dT is.

    Each polynomial on the way is, up to its shift in u, one whose row j
    holds its digits in [S(j), S(j + 1)): so it spreads over at most
    ``span`` = S(R + 1) - S(0) digits, R = sum_f M_f N_f / g its last row.
    Then it has at most span terms, its rows at the exact width take at
    most span * exact bits, and the digits that ``ratpoly._add_shifted``
    charges are fewer than span: where span is within MAX_CLEARED_TERMS and
    span * exact within MAX_PACKED_BITS, no check can fire.
    """

    __slots__ = ("g", "k", "w", "exact", "span", "_top", "_steep")

    def __init__(self, factors, polys, exact: int):
        """factors as ((nu, N), M) pairs; polys the nonzero u-polynomials
        that multiply their products, den_u and the P_g; ``exact`` the
        ``_width`` of their coefficients, which the caps count digits at,
        held at the ``_byte_width`` w."""
        self.exact = exact
        self.w = _byte_width(exact)
        g = self.g = gcd(*(N for (_, N), _ in factors)) or 1
        lo = min(map(_valuation, polys))
        spread = max(map(len, polys)) - 1 - lo
        # by nu / N from the largest, compared exactly
        steep = sorted(factors, key=cmp_to_key(lambda f, h: h[0][0] * f[0][1] - f[0][0] * h[0][1]))
        flat = _segments(reversed(steep))
        steep = self._steep = _segments(steep)
        self._top = lo + sum(nu * M for (nu, _), M in factors)
        end = sum(N * M for (_, N), M in factors) - g  # the last row t with one after it
        heights = {0, end, *(B for B, *_ in flat), *(B - g for B, *_ in steep)}
        # one walk up the heights and both fills, each at its segment from
        # the last that starts at or below its height: the steep fill at t + g
        # and the flat one at t
        most, i, f = 0, 0, 0
        for t in sorted(t for t in heights if 0 <= t <= end):
            while i + 1 < len(steep) and steep[i + 1][0] <= t + g:
                i += 1
            while f + 1 < len(flat) and flat[f + 1][0] <= t:
                f += 1
            B, a, nu, N = steep[i]
            C, b, mu, M = flat[f]
            x, y = a * N + (t + g - B) * nu, b * M + (t - C) * mu
            most = max(most, (x * M - y * N) // (N * M))
        self.k = 1 + spread + most
        # S(R + 1) - S(0), S(0) = top and the row R + 1 after the last on
        # the steep fill's last segment
        after = end // g + 2
        B, a, nu, N = steep[-1] if steep else (0, 0, 0, 1)
        self.span = self.k * after - a - (g * after - B) * nu // N

    def _row_starts(self, j0: int, j1: int) -> list:
        """S(j) for the rows j0..j1 of the cleared fraction."""
        g, k, top, steep = self.g, self.k, self._top, self._steep
        out = []
        i = bisect_right(steep, (g * j0, inf)) - 1
        while j0 <= j1:
            B, a, nu, N = steep[i]
            i += 1
            last = j1 if i == len(steep) else min(j1, (steep[i][0] - 1) // g)
            out += [top - a - (g * j - B) * nu // N + k * j for j in range(j0, last + 1)]
            j0 = max(j0, last + 1)
        return out

    def proves_caps(self) -> bool:
        """Whether the span proves both caps, so that no step can pass
        either: the caps are read at each call, so a cap set after the
        layout was built still holds."""
        return self.span <= MAX_CLEARED_TERMS and self.span * self.exact <= ratpoly.MAX_PACKED_BITS

    def packs_whole(self, factors) -> bool:
        """Whether ``cleared_fraction`` holds each polynomial on the way to
        the factors' cleared fraction as one bare packed int: where the span
        proves both caps, and the span's bits per T-height that can hold
        terms, times the rows per such height, are at most _SLACK_BITS.
        Every polynomial on the way holds terms only at heights
        sum_f c_f N_f, 0 <= c_f <= M_f, counted here as the bits of one int.
        So where every row can hold terms, a row is at most _SLACK_BITS on
        average; where few can, the int is mostly empty rows, whose digits
        each step moves and the readout walks, while ratpoly's packed rows
        skip them."""
        if not self.proves_caps():
            return False
        reach = 1  # bit j set where T-height g j can hold terms
        for (_, N), M in factors:
            for _ in range(M):
                reach |= reach << N // self.g
        heights = reach.bit_count()
        return self.span * self.w * reach.bit_length() <= _SLACK_BITS * heights * heights

    def within_cap(self, rows: dict) -> dict:
        """The row pass's packed rows, or InvalidInput once they hold more
        than MAX_CLEARED_TERMS nonzero (u, T) terms or, by
        ``ratpoly._within_bits``, MAX_PACKED_BITS bits: one comparison where
        the span proves both caps, and past it a count (``_terms_in``) only
        where the rows' digits, a bound from above, pass the cap."""
        if self.proves_caps():
            return rows
        w = self.w
        values = list(map(itemgetter(1), rows.values()))
        sizes = list(map(int.bit_length, values))
        if sum(sizes) // w + len(sizes) > MAX_CLEARED_TERMS and _terms_in(
            values, sizes, w
        ) > MAX_CLEARED_TERMS:
            raise InvalidInput(
                f"the cleared fraction would hold more than MAX_CLEARED_TERMS = "
                f"{MAX_CLEARED_TERMS} terms; the strata hold too many distinct factors or "
                "too large multiplicities"
            )
        return _within_bits(rows, w, self.exact)

    def terms(self, e: int, v: int, starts: list) -> list:
        """The nonzero terms of the bare packed polynomial (e, v) in (t, u)
        order, as one interleaved list [c, t, u, c, t, u, ...], with
        ``starts`` the ``_row_starts`` S(1)..S(R) of all the rows after the
        first, which num and den share.  Row j holds its digits from S(j)
        on, the digit at position p being the term c u^(p - k j) T^(g j):
        so over row j, u counts up from S(j) - k j, and each digit's t and u
        come off ranges chained row by row, all in C."""
        digits = _digits(v, self.w)
        end = e + len(digits)
        first, last = bisect_right(starts, e), bisect_left(starts, end)
        bounds = [e, *starts[first:last], end]
        rows = range(first, last + 1)
        shifts = [self.k * j for j in rows]
        t_of = map(repeat, map(mul, rows, repeat(self.g)), map(sub, bounds[1:], bounds))
        u_of = map(range, map(sub, bounds, shifts), map(sub, bounds[1:], shifts))
        return _interleaved(digits, chain.from_iterable(t_of), chain.from_iterable(u_of))


def _interleaved(digits, ts, us) -> list:
    """[c, t, u, c, t, u, ...] for the nonzero digits c that ``digits``
    gives, each with the t and the u that ``ts`` and ``us`` give its place,
    in one pass in C."""
    return list(chain.from_iterable(filter(itemgetter(0), zip(digits, ts, us))))


def _row_terms(rows: dict, w: int, g: int) -> list:
    """The nonzero terms of packed rows {j: (low, v)} in (t, u) order, as
    one interleaved list [c, t, u, ...]: the i-th digit c of row j is the
    term c u^(low + i) T^(g j), and ``ratpoly._digits`` reads the b // w + 1
    digits of a row of b bits, chained over the rows in row order."""
    js = sorted(rows)
    lows, values = zip(*map(rows.__getitem__, js))
    sizes = [v.bit_length() // w + 1 for v in values]
    ts = chain.from_iterable(map(repeat, [g * j for j in js], sizes))
    us = chain.from_iterable(map(range, lows, map(add, lows, sizes)))
    return _interleaved(chain.from_iterable(map(_digits, values, repeat(w))), ts, us)


def _plus(a: tuple, b: tuple, w: int) -> tuple:
    """The sum of two bare packed polynomials (e, v) of digit width w: one
    aligned shift and one int add, with no trim."""
    (e, v), (f, x) = a, b
    if e > f:
        e, v, f, x = f, x, e, v
    return e, v + (x << w * (f - e))


def _bare_pass(layout, factors, joining: dict, factorless, den_u: tuple) -> tuple:
    """(num, den) of ``cleared_fraction`` with each polynomial on the way
    held as one bare pair (e, v), v the int whose digit i sits at position
    e + i of the layout, empty rows and cancelled digits and all.  A product
    by u^nu - T^N is one shift and one subtraction, a sum one aligned add
    (``_plus``), and each group's P_g is packed once.  Only for a layout
    whose span proves both caps (``_Layout.packs_whole``): no step checks
    either.  num and den are read out through one list of row starts."""
    k, w, g = layout.k, layout.w, layout.g
    pending = {} if factorless is None else {(): _pack(factorless, w)}
    prefix = 0, 1
    for i, ((nu, N), count) in enumerate(factors):
        step = w * (k * (N // g) - nu)  # from the u^nu copy up to the T^N one
        merged = {}
        for held, (e, v) in pending.items():
            m = held[0][1] if held and held[0][0] == i else 0
            for _ in range(count - m):
                v -= v << step
            rest = held[1:] if m else held
            e += nu * (count - m)
            merged[rest] = _plus(merged[rest], (e, v), w) if rest in merged else (e, v)
        e, v = prefix
        powers = [v]  # prefix * x_i^c for c = 0 .. M_i, each from e + nu c
        for _ in range(count):
            v -= v << step
            powers.append(v)
        for held, poly, shift in joining.get(i, ()):
            c = count - held[0][1]
            low, p = _pack(poly, w)
            joined = e + nu * c + low + k * (shift // g), powers[c] * p
            rest = held[1:]
            merged[rest] = _plus(merged[rest], joined, w) if rest in merged else joined
        pending, prefix = merged, (e + nu * count, v)
    e, v = pending.get((), (0, 0))
    if not v:
        return [], [1, 0, 0]
    starts = layout._row_starts(1, sum(N * M for (_, N), M in factors) // g)
    low, p = _pack(den_u, w)
    return layout.terms(e, v, starts), layout.terms(prefix[0] + low, prefix[1] * p, starts)


def _times(layout, rows: dict, nu: int, N: int) -> dict:
    """Packed rows {j: (low, v)} times u^nu - T^N, checked: the rows moved to
    low + nu, plus the rows negated at j + N / g."""
    moved = {j: (low + nu, v) for j, (low, v) in rows.items()}
    n = N // layout.g
    return layout.within_cap(_add_shifted(
        moved, {j + n: row for j, row in rows.items()}, (-1,), layout.w, layout.exact
    ))


def _row_pass(layout, factors, joining: dict, factorless, den_u: tuple) -> tuple:
    """(num, den) of ``cleared_fraction`` for a layout that
    ``_Layout.packs_whole`` turns down: each polynomial on the way is packed
    rows {j: (low, v)}, each product summed by ``ratpoly._add_shifted`` and
    each step checked by ``_Layout.within_cap``; num and den are read out
    row by row (``_row_terms``)."""
    w, exact, g = layout.w, layout.exact, layout.g
    pending = {}  # (factor index, multiplicity) pairs still held -> partial sum
    if factorless is not None:
        pending[()] = layout.within_cap(_add_shifted({}, {0: (0, 1)}, factorless, w, exact))
    prefix = {0: (0, 1)}
    for i, ((nu, N), count) in enumerate(factors):
        merged = {}
        for held, rows in pending.items():
            m = held[0][1] if held and held[0][0] == i else 0
            for _ in range(count - m):
                rows = _times(layout, rows, nu, N)
            rest = held[1:] if m else held
            merged[rest] = (layout.within_cap(_add_shifted(merged[rest], rows, (1,), w, exact))
                            if rest in merged else rows)
        powers = [prefix]  # prefix * x_i^c for c = 0 .. M_i
        for _ in range(count):
            powers.append(_times(layout, powers[-1], nu, N))
        for held, poly, shift in joining.get(i, ()):
            n, acc = shift // g, merged.get(held[1:], {})
            rows = {j + n: row for j, row in powers[count - held[0][1]].items()}
            merged[held[1:]] = layout.within_cap(_add_shifted(acc, rows, poly, w, exact))
        pending, prefix = merged, powers[-1]
    num = pending.get((), {})
    if not num:
        return [], [1, 0, 0]
    den = layout.within_cap(_add_shifted({}, prefix, den_u, w, exact))
    return _row_terms(num, w, g), _row_terms(den, w, g)


def cleared_fraction(terms) -> tuple:
    """The cleared fraction of the ``ZetaRational`` terms ``terms`` as
    (layout, num, den), num and den each one interleaved list [c, t, u, ...]
    of its nonzero terms in (t, u) order, with den = den_u * prod_f
    x_f^M_f, x_f = u^nu - T^N.  Only tests read the layout, for its span
    and widths.

    With the distinct factors f_1 < ... < f_K at their largest
    multiplicities M_i, num = sum_g P_g T^N_g prod_f x_f^(M_f - m_g(f))
    over the ``_grouped`` groups g, where m_g(f) is the multiplicity of f
    in g and N_g the sum of N over g.  One pass over the factors builds
    it, with no T-series and no division, keeping one partial sum for
    each set of factors that its groups still hold.  Step i multiplies
    the prefix Pre = prod_(j<i) x_j^M_j by x_i^M_i and each partial sum by
    x_i^(M_i - m(f_i)), and merges the sums that hold the same factors
    after f_i.  A group whose first factor is f_i then joins the sum for
    the rest of its factors as P_g T^N_g Pre x_i^(M_i - m_g(f_i)), so all
    the groups that hold the same factors from some point on share the
    products after it.  The sum that holds no factor is num, and
    den = den_u * Pre_K; 0 / 1 when every group cancels.  ``_bare_pass``
    builds them where ``_Layout.packs_whole`` allows it, ``_row_pass``
    elsewhere.  Every polynomial on the way is a sum of some groups times
    at most sum M_f binomials of L1 norm 2, or den_u times the prefix, so
    its coefficients are at most max(sum_g |P_g|_1, |den_u|_1) *
    2^(sum M_f), which sets w.
    Not gcd-reduced: bivariate gcds are expensive and nothing needs them.
    InvalidInput as soon as a polynomial on the way holds more than
    MAX_CLEARED_TERMS terms or MAX_PACKED_BITS bits.
    """
    den_u = _common_den(terms)
    groups = _grouped(den_u, terms)
    factors = sorted(_factor_max(factors for _, factors in terms).items())
    exact = _width(
        max(sum(map(_l1, groups.values())), _l1(den_u)) << sum(count for _, count in factors)
    )
    if not groups:
        return _Layout((), [den_u], exact), [], [1, 0, 0]
    layout = _Layout(factors, [den_u, *groups.values()], exact)
    index = {f: i for i, (f, _) in enumerate(factors)}
    joining = {}  # index of the first factor -> [(held pairs, poly, T shift)]
    factorless = None  # the one group that holds no factor
    for group, poly in groups.items():
        held = tuple((index[f], group.count(f)) for f in dict.fromkeys(group))
        if held:
            joining.setdefault(held[0][0], []).append((held, poly, sum(N for _, N in group)))
        else:
            factorless = poly
    fold = _bare_pass if layout.packs_whole(factors) else _row_pass
    return layout, *fold(layout, factors, joining, factorless, den_u)
