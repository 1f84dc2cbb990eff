"""Cyclic-group cohomology over GF(2) and spectral-page bookkeeping.

The linear algebra is bit-level: a matrix row is an int whose bit j is the
entry in column j.  Cohomology dimensions come from rank arithmetic on the
two structural maps of a cyclic group -- the generator-plus-identity map and
the norm map N = s + s^2 + ... + s^d.

Spectral pages hold dimensions only, each row in closed form: the
cohomology of a cyclic group is periodic, so a row is its degree-0, odd and
even dimensions over a window of p, whatever the window's width.
Differentials are *declared* ranks (they come from geometry, not from this
module) and are simply subtracted from source and target, as sparse
offsets on the rows.  A series is assembled from a page plus a tail
declaration saying how the anti-diagonal dimensions stabilize in low degree;
the stable part is summed in closed form as tail_dim * u^n0 / (u - 1).  So
a pipeline costs its modules, differentials and tail, not its window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Sequence, Tuple

from .errors import InvalidInput, RankTooLarge, SchemaError, TailMismatch
from .ratpoly import RatFunc, _laurent_over, ptrim
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
    def _trusted(cls, rows: int, cols: int, data: tuple) -> "F2Matrix":
        """A matrix with no per-row check, for a value valid by construction:
        ``data`` is a tuple of ``rows`` bitmasks below 2^cols and neither
        dimension is negative.  The caller guarantees that invariant."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        return self

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        return cls._trusted(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        if n < 0:
            raise ValueError("negative matrix dimensions")
        return cls._trusted(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_strings(cls, rows: Sequence[str], cols: int = None) -> "F2Matrix":
        if cols is None:
            # a first row that is not a string is refused by the loop below
            cols = len(rows[0]) if rows and isinstance(rows[0], str) else 0
        data = []
        for row in rows:
            # a row of "0"s and "1"s strips to "", and is read reversed
            # because bit j is column j
            if not isinstance(row, str) or len(row) != cols or row.strip("01"):
                raise SchemaError(f"bad bit-string row {row!r}")
            data.append(int(row[::-1], 2) if row else 0)
        if cols < 0:
            raise ValueError("negative matrix dimensions")
        return cls._trusted(len(rows), cols, tuple(data))

    def to_strings(self):
        return [
            "".join("1" if (r >> j) & 1 else "0" for j in range(self.cols))
            for r in self.data
        ]

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return F2Matrix._trusted(
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
        return F2Matrix._trusted(self.rows, other.cols, tuple(out))

    def power(self, e: int) -> "F2Matrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices have powers")
        if e < 0:
            raise ValueError("negative exponent")
        out = None  # the identity, until a bit of e is set
        base = self
        while e:
            if e & 1:
                out = base if out is None else out @ base
            e >>= 1
            if e:
                base = base @ base
        return F2Matrix.identity(self.rows) if out is None else out

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
        """Each field takes one exact type check; only a field that fails it
        goes through ``require``, which names what is wrong or accepts the
        value (a subclass of the JSON type)."""
        if type(obj) is dict:
            dim, order, rows = obj.get("dim"), obj.get("group_order"), obj.get("action")
        if type(obj) is not dict or not (
            type(dim) is int and type(order) is int and type(rows) is list
        ):
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
    O(log d) matrix products.  The top bit of d gives S_1 = s.
    """
    acc = power = module.action  # S_k and s^k
    for bit in bin(module.group_order)[3:]:
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

def _row_value(rows: dict, p_min: int, p: int, q: int) -> int:
    """The dimension that row q of closed-form ``rows`` gives at (p, q): its
    degree-0, odd or even value inside the window p_min <= p <= 0, else 0."""
    row = rows.get(q)
    if row is None or not p_min <= p <= 0:
        return 0
    return row[0] if p == 0 else row[1] if p % 2 else row[2]


class SpectralPage:
    """Dimensions at positions (p, q) with p <= 0 and q >= 0.

    A page is closed-form rows plus sparse offsets.  Row q is a triple
    ``(zero, odd, even)``: its dimension is ``zero`` at p = 0, ``odd`` at odd
    p and ``even`` at even p < 0, for every p in the window p_min <= p <= 0,
    and 0 outside it.  ``_offsets`` adds to that, position by position, each
    inside a row's window: minus the ranks that differentials subtracted, or
    every entry of a page built from a mapping of dimensions, whose rows are
    zero rows at the q it lists over the window of its lowest p.  So a page
    holds its rows and declarations, not one entry per degree of its window;
    ``dims`` lists every nonzero entry when asked for.
    """

    __slots__ = ("_p_min", "_rows", "_offsets")

    def __init__(self, dims: Mapping[Tuple[int, int], int] = ()):
        clean = {}
        for (p, q), d in dict(dims).items():
            if p > 0 or q < 0:
                raise ValueError(f"position ({p}, {q}) outside the second quadrant")
            if d < 0:
                raise ValueError("negative dimension")
            if d:
                clean[(p, q)] = d
        object.__setattr__(self, "_p_min", min((p for p, _ in clean), default=0))
        object.__setattr__(self, "_rows", dict.fromkeys((q for _, q in clean), (0, 0, 0)))
        object.__setattr__(self, "_offsets", clean)

    @classmethod
    def _clean(cls, p_min: int, rows: dict, offsets: dict) -> "SpectralPage":
        """A page that takes ``rows`` and ``offsets`` as they are, with no
        check, for values already in the form described above: p_min <= 0,
        every row at a q >= 0 with non-negative dimensions, and every offset
        nonzero, at a position with p <= 0 and q >= 0 whose dimension, row
        value plus offset, is not negative, and inside a row's window.  The
        caller guarantees that invariant and gives up both dicts."""
        self = object.__new__(cls)
        object.__setattr__(self, "_p_min", p_min)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_offsets", offsets)
        return self

    def __setattr__(self, *args):
        raise AttributeError("SpectralPage is immutable")

    @property
    def dims(self) -> dict:
        """Every nonzero dimension by position, in a new dict: one entry per
        p in the window of each nonzero row, so built only when asked for.
        The zero rows of a page built from a mapping add no entry."""
        dims = {}
        for q, (zero, odd, even) in self._rows.items():
            for p in range(self._p_min, 1) if zero or odd or even else ():
                d = zero if p == 0 else odd if p % 2 else even
                if d:
                    dims[(p, q)] = d
        for key, offset in self._offsets.items():
            d = dims.get(key, 0) + offset
            if d:
                dims[key] = d
            else:
                del dims[key]
        return dims

    def dim(self, p: int, q: int) -> int:
        return _row_value(self._rows, self._p_min, p, q) + self._offsets.get((p, q), 0)

    def antidiagonal(self, n: int) -> int:
        return _totals(self, (n,))[n]

    def __eq__(self, other):
        if not isinstance(other, SpectralPage):
            return NotImplemented
        return self.dims == other.dims

    def __repr__(self):
        return f"SpectralPage({self.dims!r})"


# The deepest page window, p_min >= -MAX_PAGE_DEPTH, and the highest homology
# degree, q <= MAX_PAGE_DEPTH, that ``hs_e2_page`` takes.  A row costs one
# triple whatever its window, but the window and q bound the total degrees
# that ``betti_series`` reads: its head holds one coefficient per degree from
# the cutoff (or the page's lowest degree) to the largest q, so at most
# 2 * MAX_PAGE_DEPTH + 1, and ``SpectralPage.dims`` one entry per p in the
# window.  Nothing else bounds p_min or q in pipeline JSON, so either past its
# bound fails at once with InvalidInput (exit 2).  Built-in pipelines use
# p_min from -16 to -256 and q <= 2.
MAX_PAGE_DEPTH = 1 << 12

# The most entries that the rows of an E2 page cover: rows * (1 - p_min),
# counted before any row is built.  ``betti_series`` adds each row's values
# at the head degrees that its window covers, and ``SpectralPage.dims`` lists
# every entry, so this bounds that work and that dict.  Nothing else bounds
# the number of rows in pipeline JSON; 256 rows at the deepest window, 17.7 KB
# of JSON, would cover a million entries and fail with InvalidInput (exit 2)
# at once instead.  Sixteen rows fit at the deepest window, and the built-in
# pipelines use two rows of at most 257 entries.
MAX_PAGE_CELLS = 1 << 16


def hs_e2_page(
    homology: Iterable[Tuple[int, CyclicGModule]], p_min: int
) -> SpectralPage:
    """Second page with entry (p, q) = degree-(-p) cohomology of H_q.

    Rows extend infinitely to the left; each is kept in closed form over the
    window p_min <= p <= 0, from ``_cohomology_dims`` computed once per
    distinct module, so the page costs its rows, not its window.  Pick p_min
    comfortably below every degree later steps will inspect, and no lower
    than -MAX_PAGE_DEPTH.  InvalidInput when a degree q lies outside
    0..MAX_PAGE_DEPTH, or when the rows times the window cover more than
    MAX_PAGE_CELLS entries.  A degree q listed twice keeps, at each position,
    the last nonzero dimension listed there (``run_pipeline`` refuses it).
    """
    if p_min > 0:
        raise InvalidInput("p_min must be <= 0")
    if p_min < -MAX_PAGE_DEPTH:
        raise InvalidInput(f"p_min must be >= -MAX_PAGE_DEPTH = -{MAX_PAGE_DEPTH}")
    homology = list(homology)
    if len(homology) * (1 - p_min) > MAX_PAGE_CELLS:
        raise InvalidInput(
            f"the E2 page window would hold more than MAX_PAGE_CELLS = {MAX_PAGE_CELLS} "
            f"entries: {len(homology)} rows of {1 - p_min}"
        )
    for q, _ in homology:
        if not 0 <= q <= MAX_PAGE_DEPTH:
            raise InvalidInput(
                f"homology degree q = {q} must lie in 0..MAX_PAGE_DEPTH = {MAX_PAGE_DEPTH}"
            )
    rows = {}
    dims_of = {}  # module -> _cohomology_dims(module), for this page only
    for q, module in homology:
        dims = dims_of.get(module)
        if dims is None:
            dims = dims_of[module] = _cohomology_dims(module)
        if q in rows:
            dims = tuple(later or earlier for earlier, later in zip(rows[q], dims))
        rows[q] = dims
    # q was checked above, _cohomology_dims are non-negative and no offset
    # is set yet
    return SpectralPage._clean(p_min, rows, {})


def apply_differentials(
    page: SpectralPage, ranks: Iterable[Tuple[int, int, int, int]]
) -> SpectralPage:
    """Subtract declared differential ranks, lowest page number first.

    Each declaration (r, p, q, rank) kills ``rank`` dimensions at the source
    (p, q) and at the target (p - r, q + r - 1), as offsets on the page's
    rows.  Ranks are non-negative (ValueError otherwise).
    """
    rows, p_min = page._rows, page._p_min
    offsets = dict(page._offsets)
    for r, p, q, rank in sorted(ranks, key=itemgetter(0)):
        if rank <= 0:
            if rank:
                raise ValueError("differential rank must be non-negative")
            continue
        src = (p, q)
        tgt = (p - r, q + r - 1)
        off_src = offsets.get(src, 0)
        off_tgt = offsets.get(tgt, 0)
        avail = min(
            _row_value(rows, p_min, p, q) + off_src,
            _row_value(rows, p_min, p - r, q + r - 1) + off_tgt,
        )
        if rank > avail:
            raise RankTooLarge(
                f"d^{r} at {src} declared rank {rank} but only {avail} available"
            )
        # an offset that reaches 0 was positive, so its key is there to drop
        if off_src == rank:
            del offsets[src]
        else:
            offsets[src] = off_src - rank
        if off_tgt == rank:
            del offsets[tgt]
        else:
            offsets[tgt] = off_tgt - rank
    # a nonzero rank only lowers entries of the page that hold at least that
    # rank, so every offset stays inside a row's window
    return SpectralPage._clean(p_min, rows, offsets)


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

    @classmethod
    def from_json(cls, obj) -> "TailSpec":
        """Each field takes one exact type check, as in
        ``CyclicGModule.from_json``."""
        if type(obj) is dict:
            stable_below, tail_dim = obj.get("stable_below"), obj.get("tail_dim")
        if type(obj) is not dict or not (type(stable_below) is int and type(tail_dim) is int):
            stable_below = require(obj, "stable_below", int, "tail")
            tail_dim = require(obj, "tail_dim", int, "tail")
        pinned = require(obj, "explicit", dict, "tail", {})
        explicit = {}
        for key, value in pinned.items():
            degree = _degree(key)
            if type(value) is not int:
                value = require(pinned, key, int, "tail.explicit")
            explicit[degree] = value
        return cls(stable_below, tail_dim, explicit)


def _degree(key: str) -> int:
    """A total degree written as a JSON object key, in its canonical decimal
    form only, so that no two keys name one degree: "01", "+1", " 1" and
    "1_0" are refused."""
    try:
        degree = int(key)
    except ValueError as exc:
        raise SchemaError(f"tail.explicit: key {key!r} is not an integer") from exc
    if str(degree) != key:
        raise SchemaError(
            f"tail.explicit: key {key!r} is not the decimal form {str(degree)!r} of its degree"
        )
    return degree


def _totals(page: SpectralPage, degrees: Sequence[int]) -> dict:
    """The anti-diagonal dimensions of ``page`` at the ascending ``degrees``.

    Each row adds its value, and its offsets, at the degrees that its window
    p_min + q <= n <= q covers, found by bisection, so the work is at most
    rows * (1 - p_min) however many degrees are asked for, and no offset
    outside those degrees is read."""
    totals = dict.fromkeys(degrees, 0)
    offsets = page._offsets
    for q, (zero, odd, even) in page._rows.items():
        for n in degrees[bisect_left(degrees, page._p_min + q):bisect_right(degrees, q)]:
            p = n - q
            totals[n] += (zero if p == 0 else odd if p % 2 else even) + offsets.get((p, q), 0)
    return totals


def _degree_span(page: SpectralPage) -> Tuple[int, int]:
    """The lowest and highest total degree at which ``page`` may be nonzero,
    from the windows p_min + q .. q of its nonzero rows and the degrees of
    its offsets: a page built from a mapping, whose rows are all zero, spans
    only its entries' degrees.  An empty page gives lowest > highest."""
    degrees = [p + q for p, q in page._offsets]
    for q, row in page._rows.items():
        if any(row):
            degrees += (page._p_min + q, q)
    return (min(degrees), max(degrees)) if degrees else (1, 0)


def betti_series(page: SpectralPage, tail: TailSpec) -> RatFunc:
    """Total series of a converged page: explicit head plus geometric tail.

    The page is trusted only at total degrees >= tail.stable_below; below
    that the tail declaration applies, validated against the page on a window
    of width 3 directly under the cutoff.  Only the checked degrees and the
    head's are summed, and the series is built canonical as one Laurent
    polynomial over 1 or u - 1.
    """
    n0 = tail.stable_below
    totals = _totals(page, sorted({*range(n0 - 3, n0), *tail.explicit}))
    for n in range(n0 - 3, n0):
        if totals[n] != tail.tail_dim:
            raise TailMismatch(
                f"anti-diagonal at degree {n} has dimension {totals[n]}, "
                f"tail declares {tail.tail_dim}"
            )
    for n, want in sorted(tail.explicit.items()):
        if totals[n] != want:
            raise TailMismatch(
                f"anti-diagonal at degree {n} has dimension {totals[n]}, "
                f"explicit declares {want}"
            )
    # the head sum_{n >= lo} c_n u^n up to the page's top degree, from n0, or
    # with no tail from the page's lowest degree if that is higher
    low, top = _degree_span(page)
    lo = n0 if tail.tail_dim else max(n0, low)
    head = list(_totals(page, range(lo, top + 1)).values())
    if not tail.tail_dim:
        return _laurent_over(lo, ptrim(head), (1,))
    # head + tail_dim u^n0 / (u - 1) == u^n0 (tail_dim + (u - 1) c(u)) / (u - 1)
    # with c(u) = sum_k c_(n0+k) u^k
    num = [a - b for a, b in zip([0] + head, head + [0])]
    num[0] += tail.tail_dim
    return _laurent_over(n0, ptrim(num), (-1, 1))


# ---------------------------------------------------------------------------
# pipeline descriptions (homology -> page -> differentials -> series)
# ---------------------------------------------------------------------------

def _module_key(obj):
    """A hashable key for module JSON whose three fields have their exact
    JSON types (an object with integer ``dim`` and ``group_order`` and an
    ``action`` list of strings), else None.  Equal keys then mean equal
    fields, the only ones ``CyclicGModule.from_json`` reads, so two modules
    with one key build the same module.  A field of any other type gets no
    key: JSON ``==`` takes ``true`` for 1, and ``true`` is refused."""
    if type(obj) is not dict:
        return None
    dim, order, rows = obj.get("dim"), obj.get("group_order"), obj.get("action")
    if type(dim) is int and type(order) is int and type(rows) is list and all(
        type(row) is str for row in rows
    ):
        return (dim, order, *rows)
    return None


def run_pipeline(spec: dict) -> RatFunc:
    """Evaluate a JSON pipeline: E2 page, declared differentials, series.

    Each field takes one exact type check; only a field that fails it goes
    through ``require``, so every refusal names the field as ``require``
    does and in the same order.  Each distinct homology module is built and
    checked once per pipeline (``_module_key``); a module that fails is
    refused where it is first listed, before any row repeats it."""
    homology_json = require(spec, "homology", list, "pipeline")
    p_min = require(spec, "p_min", int, "pipeline")
    tail_json = require(spec, "tail", object, "pipeline")  # parsed after the page
    homology = {}
    built = {}  # _module_key -> module, for this pipeline only
    for entry in homology_json:
        if type(entry) is dict and type(entry.get("q")) is int and "module" in entry:
            q, module = entry["q"], entry["module"]
        else:
            q = require(entry, "q", int, "homology entry")
            module = require(entry, "module", object, "homology entry")
        if q in homology:
            # H_q is one module: a second one would overwrite its row of the page
            raise SchemaError(f"homology entry: degree q = {q} is listed twice")
        key = _module_key(module)
        if key is None:
            homology[q] = CyclicGModule.from_json(module)
            continue
        if key not in built:
            built[key] = CyclicGModule.from_json(module)
        homology[q] = built[key]
    page = hs_e2_page(homology.items(), p_min)
    ranks = []
    for entry in require(spec, "differentials", list, "pipeline", []):
        if type(entry) is dict:
            r, p, q, rank = entry.get("r"), entry.get("p"), entry.get("q"), entry.get("rank")
        if type(entry) is not dict or not (
            type(r) is int and type(p) is int and type(q) is int and type(rank) is int
        ):
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
