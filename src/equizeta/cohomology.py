"""Cyclic-group cohomology over GF(2) and spectral-page bookkeeping.

The linear algebra is bit-level: a matrix row is an int whose bit j is the
entry in column j.  Cohomology dimensions come from rank arithmetic on the
two structural maps of a cyclic group -- the generator-plus-identity map and
the norm map N = s + s^2 + ... + s^d.

Spectral pages hold dimensions only.  Differentials are *declared* ranks
(they come from geometry, not from this module) and are simply subtracted
from source and target.  A series is assembled from a page plus a tail
declaration saying how the anti-diagonal dimensions stabilize in low degree;
the stable part is summed in closed form as tail_dim * u^n0 / (u - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Tuple

from .errors import InvalidInput, RankTooLarge, SchemaError, TailMismatch
from .ratpoly import RatFunc, pmonomial
from .resolution import require


# ---------------------------------------------------------------------------
# bit matrices over GF(2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class F2Matrix:
    rows: int
    cols: int
    data: Tuple[int, ...]  # row bitmasks, bit j = column j

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.data) != self.rows:
            raise ValueError("row count does not match data")
        mask = (1 << self.cols) - 1
        for r in self.data:
            if r & ~mask:
                raise ValueError("row has bits outside the column range")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "F2Matrix":
        n = len(rows)
        m = len(rows[0]) if n else 0
        data = tuple(
            sum((1 << j) for j, v in enumerate(row) if v % 2) for row in rows
        )
        return cls(n, m, data)

    @classmethod
    def from_strings(cls, rows: Sequence[str], cols: int = None) -> "F2Matrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        data = []
        for row in rows:
            if not isinstance(row, str) or len(row) != cols or any(ch not in "01" for ch in row):
                raise SchemaError(f"bad bit-string row {row!r}")
            data.append(sum((1 << j) for j, ch in enumerate(row) if ch == "1"))
        return cls(len(rows), cols, tuple(data))

    def to_strings(self):
        return [
            "".join("1" if (r >> j) & 1 else "0" for j in range(self.cols))
            for r in self.data
        ]

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return F2Matrix(
            self.rows, self.cols, tuple(a ^ b for a, b in zip(self.data, other.data))
        )

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not compose")
        out = []
        for row in self.data:
            acc = 0
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                acc ^= other.data[j]
                r &= r - 1
            out.append(acc)
        return F2Matrix(self.rows, other.cols, tuple(out))

    def power(self, e: int) -> "F2Matrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices have powers")
        out = F2Matrix.identity(self.rows)
        base = self
        while e:
            if e & 1:
                out = out @ base
            base = base @ base
            e >>= 1
        return out

    def rank(self) -> int:
        rows = [r for r in self.data if r]
        rank = 0
        while rows:
            pivot = rows.pop()
            if not pivot:
                continue
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
            rows = [r for r in rows if r]
        return rank

    def nullity(self) -> int:
        return self.cols - self.rank()


# ---------------------------------------------------------------------------
# cyclic-group modules and their cohomology dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicGModule:
    """GF(2) vector space with an action of a cyclic group of order d.

    ``action`` is the matrix of the chosen generator s; s^d must be the
    identity.
    """

    dim: int
    action: F2Matrix
    group_order: int

    def __post_init__(self):
        if self.group_order < 1:
            raise InvalidInput("group order must be positive")
        if (self.action.rows, self.action.cols) != (self.dim, self.dim):
            raise InvalidInput("action matrix shape does not match dim")
        if self.action.power(self.group_order) != F2Matrix.identity(self.dim):
            raise InvalidInput("generator order does not divide the group order")

    @classmethod
    def trivial(cls, dim: int, group_order: int = 2) -> "CyclicGModule":
        return cls(dim, F2Matrix.identity(dim), group_order)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "group_order": self.group_order,
            "action": self.action.to_strings(),
        }

    @classmethod
    def from_json(cls, obj) -> "CyclicGModule":
        dim = require(obj, "dim", int, "module")
        order = require(obj, "group_order", int, "module")
        rows = require(obj, "action", list, "module")
        if len(rows) != dim:
            raise SchemaError("action must list one bit-string per row")
        return cls(dim, F2Matrix.from_strings(rows, dim), order)


def norm_element(module: CyclicGModule) -> F2Matrix:
    """The matrix of N = s + s^2 + ... + s^d over GF(2).

    By doubling over the bits of d, from the top: with S_k = s + ... + s^k,
    S_2k = S_k + s^k S_k and S_(2k+1) = S_2k + s^(2k+1), so N takes
    O(log d) matrix products.
    """
    acc = F2Matrix.zero(module.dim, module.dim)  # S_k
    power = F2Matrix.identity(module.dim)  # s^k
    for bit in bin(module.group_order)[2:]:
        acc = acc + power @ acc
        power = power @ power
        if bit == "1":
            power = power @ module.action
            acc = acc + power
    return acc


def _cohomology_dims(module: CyclicGModule) -> Tuple[int, int, int]:
    """Degree-0, odd-degree and positive-even-degree cohomology dimensions.

    Degree 0 is the fixed part; positive even degrees are fixed-part mod the
    norm image; odd degrees are the norm kernel mod the (1+s) image.  The
    (1+s) map and the norm are built and ranked once each.
    """
    s_plus_1_rank = (module.action + F2Matrix.identity(module.dim)).rank()
    norm_rank = norm_element(module).rank()
    fixed = module.dim - s_plus_1_rank
    return fixed, module.dim - norm_rank - s_plus_1_rank, fixed - norm_rank


def cohomology_dim(module: CyclicGModule, n: int) -> int:
    """dim of the degree-n group cohomology of the cyclic group in the module;
    it depends only on whether n is 0, odd or even (``_cohomology_dims``)."""
    if n < 0:
        raise ValueError("cohomology degree must be non-negative")
    zero, odd, even = _cohomology_dims(module)
    return zero if n == 0 else odd if n % 2 else even


# ---------------------------------------------------------------------------
# spectral pages
# ---------------------------------------------------------------------------

class SpectralPage:
    """Sparse dimensions at positions (p, q) with p <= 0 and q >= 0."""

    __slots__ = ("dims",)

    def __init__(self, dims: Mapping[Tuple[int, int], int] = ()):
        clean = {}
        for (p, q), d in dict(dims).items():
            if p > 0 or q < 0:
                raise ValueError(f"position ({p}, {q}) outside the second quadrant")
            if d < 0:
                raise ValueError("negative dimension")
            if d:
                clean[(p, q)] = d
        object.__setattr__(self, "dims", clean)

    def __setattr__(self, *args):
        raise AttributeError("SpectralPage is immutable")

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def antidiagonal(self, n: int) -> int:
        return sum(d for (p, q), d in self.dims.items() if p + q == n)

    def __eq__(self, other):
        if not isinstance(other, SpectralPage):
            return NotImplemented
        return self.dims == other.dims

    def to_json(self) -> list:
        return [[p, q, d] for (p, q), d in sorted(self.dims.items())]

    @classmethod
    def from_json(cls, obj) -> "SpectralPage":
        if not isinstance(obj, list):
            raise SchemaError("page must be an array of [p, q, dim] triples")
        dims = {}
        for entry in obj:
            if not isinstance(entry, list) or [type(x) for x in entry] != [int] * 3:
                raise SchemaError(f"bad page entry {entry!r}")
            p, q, d = entry
            dims[(p, q)] = d
        return cls(dims)

    def __repr__(self):
        return f"SpectralPage({self.dims!r})"


def hs_e2_page(
    homology: Iterable[Tuple[int, CyclicGModule]], p_min: int
) -> SpectralPage:
    """Second page with entry (p, q) = degree-(-p) cohomology of H_q.

    Rows extend infinitely to the left; only the window p_min <= p <= 0 is
    materialized, so pick p_min comfortably below every degree later steps
    will inspect.
    """
    if p_min > 0:
        raise InvalidInput("p_min must be <= 0")
    dims = {}
    for q, module in homology:
        if q < 0:
            raise InvalidInput("homology degrees must be non-negative")
        zero, odd, even = _cohomology_dims(module)
        for p in range(p_min, 1):
            d = zero if p == 0 else odd if p % 2 else even
            if d:
                dims[(p, q)] = d
    return SpectralPage(dims)


def apply_differentials(
    page: SpectralPage, ranks: Iterable[Tuple[int, int, int, int]]
) -> SpectralPage:
    """Subtract declared differential ranks, lowest page number first.

    Each declaration (r, p, q, rank) kills ``rank`` dimensions at the source
    (p, q) and at the target (p - r, q + r - 1).
    """
    dims = dict(page.dims)
    for r, p, q, rank in sorted(ranks, key=lambda entry: entry[0]):
        if rank == 0:
            continue
        src = (p, q)
        tgt = (p - r, q + r - 1)
        avail = min(dims.get(src, 0), dims.get(tgt, 0))
        if rank > avail:
            raise RankTooLarge(
                f"d^{r} at {src} declared rank {rank} but only {avail} available"
            )
        for key in (src, tgt):
            dims[key] -= rank
            if not dims[key]:
                del dims[key]
    return SpectralPage(dims)


# ---------------------------------------------------------------------------
# series assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailSpec:
    """How anti-diagonal dimensions behave below the stable cutoff.

    Every total degree n < stable_below is declared to have dimension
    tail_dim; ``explicit`` optionally pins the dimensions at degrees
    >= stable_below for cross-checking.
    """

    stable_below: int
    tail_dim: int
    explicit: Mapping[int, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "stable_below": self.stable_below,
            "tail_dim": self.tail_dim,
            "explicit": {str(k): v for k, v in self.explicit.items()},
        }

    @classmethod
    def from_json(cls, obj) -> "TailSpec":
        stable_below = require(obj, "stable_below", int, "tail")
        tail_dim = require(obj, "tail_dim", int, "tail")
        pinned = require(obj, "explicit", dict, "tail", {})
        explicit = {_degree(k): require(pinned, k, int, "tail.explicit") for k in pinned}
        return cls(stable_below, tail_dim, explicit)


def _degree(key: str) -> int:
    """A total degree written as a JSON object key."""
    try:
        return int(key)
    except ValueError as exc:
        raise SchemaError(f"tail.explicit: key {key!r} is not an integer") from exc


def betti_series(page: SpectralPage, tail: TailSpec) -> RatFunc:
    """Total series of a converged page: explicit head plus geometric tail.

    The page is trusted only at total degrees >= tail.stable_below; below
    that the tail declaration applies, validated against the page on a window
    of width 3 directly under the cutoff.
    """
    n0 = tail.stable_below
    totals = {}  # the anti-diagonal dimensions, summed in one pass
    for (p, q), d in page.dims.items():
        totals[p + q] = totals.get(p + q, 0) + d
    for n in range(n0 - 3, n0):
        got = totals.get(n, 0)
        if got != tail.tail_dim:
            raise TailMismatch(
                f"anti-diagonal at degree {n} has dimension {got}, "
                f"tail declares {tail.tail_dim}"
            )
    for n, want in sorted(tail.explicit.items()):
        got = totals.get(n, 0)
        if got != want:
            raise TailMismatch(
                f"anti-diagonal at degree {n} has dimension {got}, "
                f"explicit declares {want}"
            )
    # the head sum_{n >= n0} totals[n] u^n as one fraction over u^-lo
    head = {n: d for n, d in totals.items() if n >= n0}
    lo = min(0, min(head, default=0))
    coeffs = [0] * (max(head, default=0) - lo + 1)
    for n, d in head.items():
        coeffs[n - lo] = d
    total = RatFunc(coeffs, pmonomial(-lo))
    if tail.tail_dim:
        # sum_{n < n0} tail_dim * u^n == tail_dim * u^n0 / (u - 1)
        total = total + RatFunc.monomial(n0, tail.tail_dim) / RatFunc.poly((-1, 1))
    return total


# ---------------------------------------------------------------------------
# pipeline descriptions (homology -> page -> differentials -> series)
# ---------------------------------------------------------------------------

def run_pipeline(spec: dict) -> RatFunc:
    """Evaluate a JSON pipeline: E2 page, declared differentials, series."""
    homology_json = require(spec, "homology", list, "pipeline")
    p_min = require(spec, "p_min", int, "pipeline")
    tail_json = require(spec, "tail", object, "pipeline")  # parsed after the page
    homology = []
    for entry in homology_json:
        q = require(entry, "q", int, "homology entry")
        module = require(entry, "module", object, "homology entry")
        homology.append((q, CyclicGModule.from_json(module)))
    page = hs_e2_page(homology, p_min)
    ranks = []
    for entry in require(spec, "differentials", list, "pipeline", []):
        r, p, q, rank = (
            require(entry, key, int, "differential") for key in ("r", "p", "q", "rank")
        )
        if rank < 0:
            raise SchemaError(f"differential: rank must be non-negative, got {rank}")
        ranks.append((r, p, q, rank))
    page = apply_differentials(page, ranks)
    return betti_series(page, TailSpec.from_json(tail_json))


def sphere_free_pipeline(p_min: int = -16) -> dict:
    """Sphere with a free involution: the cross-degree differential kills
    everything except three classes, leaving a polynomial series."""
    triv = CyclicGModule.trivial(1).to_json()
    return {
        "homology": [{"q": 0, "module": triv}, {"q": 2, "module": triv}],
        "p_min": p_min,
        "differentials": [
            {"r": 3, "p": p, "q": 0, "rank": 1} for p in range(0, p_min + 2, -1)
        ],
        "tail": {"stable_below": 0, "tail_dim": 0, "explicit": {"0": 1, "1": 1, "2": 1}},
    }


def sphere_fixed_pipeline(p_min: int = -16) -> dict:
    """Sphere with an involution fixing a point: nothing dies, so the two
    unit rows stack into a rank-2 geometric tail."""
    triv = CyclicGModule.trivial(1).to_json()
    return {
        "homology": [{"q": 0, "module": triv}, {"q": 2, "module": triv}],
        "p_min": p_min,
        "differentials": [],
        "tail": {"stable_below": 1, "tail_dim": 2, "explicit": {"1": 1, "2": 1}},
    }


def circle_fixed_pipeline(p_min: int = -16) -> dict:
    """Circle with an involution fixing a point."""
    triv = CyclicGModule.trivial(1).to_json()
    return {
        "homology": [{"q": 0, "module": triv}, {"q": 1, "module": triv}],
        "p_min": p_min,
        "differentials": [],
        "tail": {"stable_below": 1, "tail_dim": 2, "explicit": {"1": 1}},
    }
