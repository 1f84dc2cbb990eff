"""The cleared fraction of a ``ZetaRational``, as runs of skew-packed T-rows.

The cleared fraction num / den of a sum of coeff * prod T^N / (u^nu - T^N)
terms multiplies out products of binomials u^nu - T^N, which are dense in T.
So each polynomial on the way is held as runs of consecutive T-rows, each
run one int under the skewed Kronecker map u -> 2^w, T^g -> 2^(w k)
(``_Layout``): g is the gcd of the factors' N, and k keeps each row clear of
the next in the factors' zonotope.  A product by a binomial is then one
shift and one subtraction per run.  Runs that share a row become one by
``ratpoly._band_sum``, and neighbouring runs join only across at most
_SLACK_BITS empty bits, so T-sparse polynomials, and rows whose u-bands lie
far apart, keep a run per row, as the T-expansion's packed rows in
``ratpoly`` do.  The runs use ``ratpoly``'s packed format: its width rule
(digits stored at the ``_byte_width`` of the coefficients' exact
``_width``), its readout ``_digits``, and its bit count ``_exact_bits``.
The caps count terms, and the bits that each row would take packed alone at
the exact width, whatever the runs hold.  No polynomial on the way spans
more digits than its layout's ``span``, so where the span lies within both
caps a step takes one comparison, and only past that bound are the steps
counted.  The readout gives every polynomial as one interleaved
[c, t, u, ...] list in (t, u) order, which ``cli`` prints with one format
call.
``ratpoly.ZetaRational._cleared`` imports this module when a cleared
fraction is first asked for, so commands that print none do not load it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cmp_to_key
from itertools import chain, compress, repeat
from math import gcd, inf
from operator import itemgetter, mul, sub

from .errors import InvalidInput
from .ratpoly import (
    MAX_PACKED_BITS,
    _band_sum,
    _byte_width,
    _common_den,
    _digits,
    _exact_bits,
    _factor_max,
    _grouped,
    _l1,
    _pack,
    _too_many_bits,
    _valuation,
    _width,
)

# Cap on the nonzero (u, T) terms of any one polynomial that
# ``cleared_fraction`` holds while it builds num / den, checked after each
# step; ``ratpoly.MAX_PACKED_BITS`` bounds the bits its rows would take as
# packed rows (``_Layout.within_cap``).  Where the layout's span, the digits
# that any polynomial on the way can spread over, is within both caps, the
# check is that one comparison; past it the terms are counted exactly.  The
# catalog's largest polynomials on the way are gk(62,+,-) at 83,324 terms
# (span 111,316), hk(129,+) at 47,891 and gk(64,+,+) at 45,758.  Sixteen
# divisors whose N have distinct subset sums, with every pair a stratum,
# pass it within a second and fail with InvalidInput (exit 2); twice the cap
# lets them print 16 MB of JSON in 0.8 s at 94 MB peak RSS.
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


def _row_bits(flat: list, w: int) -> int:
    """The bits that the terms ``flat``, an interleaved [c, t, u, ...] list
    in (t, u) order, take as packed rows of digit width w: for each row, w
    bits a digit from its lowest term up to its highest, and that one's own
    bits, less one where it is a power of two and the term below it in the
    row, whose sign the digits below take, has the other sign."""
    cs, ts, us = flat[::3], flat[1::3], flat[2::3]
    bits, first = 0, 0
    for i, t in enumerate(ts):
        if i + 1 < len(ts) and ts[i + 1] == t:
            continue
        c = cs[i]
        bits += (us[i] - us[first]) * w + c.bit_length()
        if i > first and (cs[i - 1] < 0) != (c < 0) and not abs(c) & (abs(c) - 1):
            bits -= 1
        first = i + 1
    return bits


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


# The most empty bits that two runs join across: 64 machine words of empty
# digits cost an integer operation less than the Python steps of one more
# run.
_SLACK_BITS = 1 << 12


def _joins(gap: int, parts: int, span: int) -> bool:
    """Whether two runs whose rows lie apart join into one: ``gap`` empty
    bits between them, ``parts`` bits in the two, ``span`` bits from the
    lowest digit of one to the highest of the other.  They join across at
    most _SLACK_BITS empty bits, and only where those cost no more than
    the two runs or the joined run is no longer than _SLACK_BITS.  Runs
    that share a row are not joined but summed, by ``ratpoly._band_sum``."""
    return gap <= _SLACK_BITS and (gap <= parts or span <= _SLACK_BITS)


class _Layout:
    """The skewed Kronecker map of one cleared fraction: u -> 2^w and
    T^g -> 2^(w k), so that u^a T^(g j) is the digit at position a + k j of
    an integer whose balanced digits |c| < 2^(w-1) are the coefficients.
    g is the gcd of the factors' N, so every T-exponent is g times a row j.

    A polynomial is a list of runs (j0, j1, e, v) in row order: the rows
    j0..j1, held as the one integer v whose digit i, the lowest nonzero, sits
    at position e + i; a run keeps its rows when the digits of its first or
    last ones cancel.  A product by u^nu - T^N is then one shift and one
    subtraction per run, and a product by a u-polynomial one int product.

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
    Then it has at most span nonzero terms, its rows packed at the exact
    width take at most span * exact bits, and the empty digits that ``add``
    and ``times`` open in one row are fewer than span: where span is within
    MAX_CLEARED_TERMS and span * exact within MAX_PACKED_BITS, none of their
    checks can fire (``within_cap``).
    """

    __slots__ = ("g", "k", "w", "exact", "span", "_top", "_steep", "_starts")

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
        self._starts = 0, -1, []
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

    def starts(self, j0: int, j1: int) -> list:
        """S(j) for the rows j0..j1, built once per row over the calls that
        ask for them: the layout keeps the last range it built, and builds
        only the rows outside it of a range that meets it, so the readouts
        of num and den share theirs, while rows that no run holds, between
        the runs of a T-sparse polynomial, are never built."""
        if j0 > j1:
            return []
        c0, c1, held = self._starts
        if j0 < c0 or j1 > c1:
            if held and j0 <= c1 + 1 and c0 <= j1 + 1:
                held = self._row_starts(j0, c0 - 1) + held + self._row_starts(c1 + 1, j1)
                c0, c1 = min(c0, j0), max(c1, j1)
            else:
                held, c0, c1 = self._row_starts(j0, j1), j0, j1
            self._starts = c0, c1, held
        return held[j0 - c0:j1 - c0 + 1]

    def scaled(self, runs: list, poly: tuple, N: int = 0) -> list:
        """runs * poly(u) T^N for a nonzero u-polynomial poly, one int
        product per run; InvalidInput, before the products, once the digits
        that poly adds to the runs would exceed MAX_PACKED_BITS bits at the
        exact width."""
        low, p = _pack(poly, self.w)
        if (len(poly) - 1 - low) * len(runs) > MAX_PACKED_BITS // self.exact:
            raise _too_many_bits()
        n = N // self.g
        shift = low + self.k * n
        if p == 1:
            return [(j0 + n, j1 + n, e + shift, v) for j0, j1, e, v in runs]
        return [(j0 + n, j1 + n, e + shift, v * p) for j0, j1, e, v in runs]

    def times(self, runs: list, nu: int, N: int) -> list:
        """runs * (u^nu - T^N): each run shifted by u^nu, less each run
        shifted by T^N, summed by ``add``.  A dense polynomial is a single
        run, and most products are of one; its T^N copy lies above its u^nu
        copy, k n > nu, so ``add``'s rules come down to one shift and one
        subtraction, or the two copies apart, which it takes here in a few
        steps: ``ratpoly._band_sum``'s gap check, as the copies' lows differ
        and no low digit cancels, and ``add``'s join rule."""
        n = N // self.g
        shift = self.k * n
        w = self.w
        if len(runs) == 1:
            j0, j1, e, v = runs[0]
            bits = v.bit_length()
            gap = shift - nu - bits // w - 1  # empty digits between the copies
            if j1 - j0 >= n:  # they share a row
                if gap > MAX_PACKED_BITS // self.exact:
                    raise _too_many_bits()
            elif not _joins(gap * w, 2 * bits, (shift - nu + bits // w + 1) * w):
                return self.within_cap([(j0, j1, e + nu, v), (j0 + n, j1 + n, e + shift, -v)])
            return self.within_cap([(j0, j1 + n, e + nu, v - (v << w * (shift - nu)))])
        return self.add(
            [(j0, j1, e + nu, v) for j0, j1, e, v in runs],
            [(j0 + n, j1 + n, e + shift, -v) for j0, j1, e, v in runs],
        )

    def add(self, a: list, b: list) -> list:
        """a + b, checked by ``within_cap``, in one pass over the runs by
        first row.  A run that shares a row with the last one is summed into
        it by ``ratpoly._band_sum``, the one band-sum rule: InvalidInput,
        before allocating them, once the empty digits opened between the
        bands in one row would exceed MAX_PACKED_BITS bits at the exact
        width, and the low digits that cancel are trimmed off, so each row
        is dense in its band as a packed row is; a run whose digits all
        cancel goes.  Any other run is appended.  The last run then joins
        the one before it by ``_joins`` as long as they may: so a dense
        polynomial is one run, while T-sparse ones, and rows whose bands lie
        far apart, keep a run per row, and no run holds more than
        _SLACK_BITS empty bits per row."""
        if not a or not b:
            return self.within_cap(a or b)
        w = self.w
        spare = MAX_PACKED_BITS // self.exact
        runs = []
        for j0, j1, e, v in sorted(a + b, key=itemgetter(0)):
            if runs and j0 <= runs[-1][1]:
                i0, i1, low, x = runs.pop()
                e, v, spare = _band_sum(low, x, e, v, w, spare)
                if not v:
                    continue
                j0, j1 = i0, max(i1, j1)
            runs.append((j0, j1, e, v))
            while len(runs) > 1:  # rows apart: join the last run down while it may
                (i0, _, low, x), (_, i1, e, v) = runs[-2:]
                below, above = x.bit_length(), v.bit_length()
                if not _joins((e - low - below // w - 1) * w, below + above,
                              (e + above // w - low + 1) * w):
                    break
                runs[-2:] = [(i0, i1, low, x + (v << w * (e - low)))]
        return self.within_cap(runs)

    def within_cap(self, runs: list) -> list:
        """runs, or InvalidInput once they hold more than MAX_CLEARED_TERMS
        nonzero (u, T) terms, or once their rows, as packed rows of the
        coefficients' exact width, would hold more than MAX_PACKED_BITS
        bits.  Where the layout's span is within both caps, neither can
        fire, and runs come back at once; the caps are read at each check,
        so a cap set after the layout was built still holds.  Past that
        bound each is first bounded from above in O(runs) and counted only
        when the bound exceeds its cap: the digits by the bits over w, plus
        one per run; the bits by the runs' own, and then by those at the
        exact width, where a run of b bits holds b // w digits below its top
        one, whose b % w bits are the same at either width."""
        w, exact = self.w, self.exact
        if self.span <= MAX_CLEARED_TERMS and self.span * exact <= MAX_PACKED_BITS:
            return runs
        values = list(map(itemgetter(3), runs))
        sizes = list(map(int.bit_length, values))
        bits = sum(sizes)
        if bits // w + len(runs) > MAX_CLEARED_TERMS and sum(
            _nonzero_digits(v, w) for v in values
        ) > MAX_CLEARED_TERMS:
            raise InvalidInput(
                f"the cleared fraction would hold more than MAX_CLEARED_TERMS = "
                f"{MAX_CLEARED_TERMS} terms; the strata hold too many distinct factors or "
                "too large multiplicities"
            )
        if (
            bits > MAX_PACKED_BITS
            and _exact_bits(sizes, w, exact) > MAX_PACKED_BITS
            and _row_bits(self.terms(runs), exact) > MAX_PACKED_BITS
        ):
            raise _too_many_bits()
        return runs

    def terms(self, runs: list) -> list:
        """The nonzero terms of the cleared fraction's polynomial ``runs`` in
        (t, u) order, as one interleaved list [c, t, u, c, t, u, ...].  Row j
        of a run holds its digits from S(j) on, the digit at position p
        being the term c u^(p - k j) T^(g j): so over row j, u counts up
        from S(j) - k j, and each digit's t and u come off ranges chained
        row by row, all in C.  A machine-width digit memoryview becomes a
        list once, so the three ``compress`` selections, four passes over
        the digits, read its ints instead of making each digit anew on every
        pass."""
        cs, ts, us = [], [], []
        for j0, j1, e, v in runs:
            digits = _digits(v, self.w)
            if isinstance(digits, memoryview):
                digits = digits.tolist()
            end = e + len(digits)
            starts = self.starts(j0 + 1, j1)
            first, last = bisect_right(starts, e), bisect_left(starts, end)
            bounds = [e, *starts[first:last], end]
            rows = range(j0 + first, j0 + last + 1)
            shifts = [self.k * j for j in rows]
            t_of = map(repeat, map(mul, rows, repeat(self.g)), map(sub, bounds[1:], bounds))
            u_of = map(range, map(sub, bounds, shifts), map(sub, bounds[1:], shifts))
            cs += compress(digits, digits)
            ts += compress(chain.from_iterable(t_of), digits)
            us += compress(chain.from_iterable(u_of), digits)
        flat = [0] * (3 * len(cs))
        flat[::3] = cs
        flat[1::3] = ts
        flat[2::3] = us
        return flat


def cleared_fraction(terms) -> tuple:
    """The cleared fraction of the ``ZetaRational`` terms ``terms`` as
    (layout, num, den), num and den runs of the ``_Layout``, with
    den = den_u * prod_f x_f^M_f, x_f = u^nu - T^N.

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
    den = den_u * Pre_K; (0, 1) when every group cancels.  Both come as
    runs of the one ``_Layout``.  Every polynomial on the way is a sum of
    some groups times at most sum M_f binomials of L1 norm 2, or den_u
    times the prefix, so its coefficients are at most
    max(sum_g |P_g|_1, |den_u|_1) * 2^(sum M_f), which sets w.
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
    one = [(0, 0, 0, 1)]
    if not groups:
        return _Layout((), [den_u], exact), [], one
    layout = _Layout(factors, [den_u, *groups.values()], exact)
    index = {f: i for i, (f, _) in enumerate(factors)}
    pending = {}  # (factor index, multiplicity) pairs still held -> partial sum
    joining = {}  # index of the first factor -> [(held pairs, poly, T shift)]
    for group, poly in groups.items():
        held = tuple((index[f], group.count(f)) for f in dict.fromkeys(group))
        shift = sum(N for _, N in group)
        if held:
            joining.setdefault(held[0][0], []).append((held, poly, shift))
        else:  # the one factorless group
            pending[()] = layout.within_cap(layout.scaled(one, poly, shift))
    prefix = one
    for i, ((nu, N), count) in enumerate(factors):
        merged = {}
        for held, runs in pending.items():
            m = held[0][1] if held and held[0][0] == i else 0
            for _ in range(count - m):
                runs = layout.times(runs, nu, N)
            rest = held[1:] if m else held
            merged[rest] = layout.add(merged[rest], runs) if rest in merged else runs
        powers = [prefix]  # prefix * x_i^k for k = 0 .. M_i
        for _ in range(count):
            powers.append(layout.times(powers[-1], nu, N))
        for held, poly, shift in joining.get(i, ()):
            joined = layout.scaled(powers[count - held[0][1]], poly, shift)
            rest = held[1:]
            merged[rest] = (layout.add(merged[rest], joined) if rest in merged
                            else layout.within_cap(joined))
        pending, prefix = merged, powers[-1]
    num = pending.get((), [])
    if not num:
        return layout, num, one
    return layout, num, layout.within_cap(layout.scaled(prefix, den_u))
