"""Betti-number tables for moduli of flat SU(2) connections with a marked
framing, and the genus recursions that generate them.

For a closed surface of genus g the framed space is a closed manifold of
dimension 6g-3, so its table has 6g-2 entries and satisfies Poincare
duality; its Euler characteristic vanishes because the dimension is odd.
Tables over the rationals follow the classical recursion with base
(1, 0, 0, 1); tables over the two-element field follow the conjectural
recursion with base (1, 1, 1, 1), the table of SO(3).

All counts are plain Python ints, so nothing overflows at large genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import eq, ge

from .errors import ValidationError

__all__ = [
    "BettiTable",
    "m_coeff",
    "rational_table",
    "mod2_table",
    "middle_closed_form",
    "total_rank_identity",
    "TheoremReport",
    "verify_theorem",
]

FIELDS = ("F2", "Q")
SPACES = ("framed", "plus", "relative")


def table_length(space: str, genus: int) -> int:
    # framed: degrees 0..6g-3; plus/relative: degrees 0..6g.
    return 6 * genus - 2 if space == "framed" else 6 * genus + 1


@dataclass(frozen=True)
class BettiTable:
    """One row of Betti numbers, indexed by homological degree.

    Construction checks structure only (length, non-negative entries);
    duality and Euler characteristic are exposed through :meth:`check` so
    that deliberately broken candidate tables can still be built and then
    examined.
    """

    genus: int
    field: str
    values: tuple[int, ...]
    space: str = "framed"

    def __post_init__(self):
        if self.genus < 1:
            raise ValidationError(f"genus must be >= 1, got {self.genus}")
        if self.field not in FIELDS:
            raise ValidationError(f"field must be one of {FIELDS}, got {self.field!r}")
        if self.space not in SPACES:
            raise ValidationError(f"space must be one of {SPACES}, got {self.space!r}")
        values = tuple(map(int, self.values))
        object.__setattr__(self, "values", values)
        want = table_length(self.space, self.genus)
        if len(values) != want:
            raise ValidationError(
                f"{self.space} table for genus {self.genus} needs {want} entries, "
                f"got {len(values)}"
            )
        if min(values) < 0:
            r = next(r for r, v in enumerate(values) if v < 0)
            raise ValidationError(f"negative entry {values[r]} at degree {r}")

    def __getitem__(self, r: int) -> int:
        """Entry at degree ``r``; degrees outside the table are zero."""
        if 0 <= r < len(self.values):
            return self.values[r]
        return 0

    def __iter__(self):
        """The entries from degree 0 to the top degree.

        Without this, iteration would fall back on ``__getitem__``, which
        never runs out of (zero) degrees.
        """
        return iter(self.values)

    def total(self) -> int:
        return sum(self.values)

    def euler_characteristic(self) -> int:
        return sum(self.values[::2]) - sum(self.values[1::2])

    def half(self) -> tuple[int, ...]:
        """First half of a framed table; the rest is dual to it."""
        if self.space != "framed":
            raise ValidationError("half tables only make sense for the framed space")
        return self.values[: (len(self.values) + 1) // 2]

    def check(self) -> list[str]:
        """Names of violated framed-space invariants (empty when clean)."""
        problems = []
        if self.space != "framed":
            return problems
        if self.values != self.values[::-1]:
            problems.append("poincare-duality")
        if self.euler_characteristic() != 0:
            problems.append("euler-characteristic")
        if self.values[0] != 1:
            problems.append("connectedness")
        if self.genus >= 2 and self.values[1] != 0:
            problems.append("simple-connectivity")
        return problems


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def m_coeff(g: int, r: int) -> int:
    """Coefficient of t^r in (1 + t^3)^(2g).

    This is the degree-r Betti number of the 2g-torus replacement
    SU(2)^(2g): binomial(2g, r/3) when 3 divides r and 0 <= r <= 6g,
    otherwise zero.  :func:`m_row` gives every degree at once.
    """
    if g < 1:
        raise ValidationError(f"genus must be >= 1, got {g}")
    if r < 0 or r > 6 * g or r % 3 != 0:
        return 0
    return comb(2 * g, r // 3)


def m_row(g: int) -> list[int]:
    """``m_coeff(g, r)`` for r = 0..6g, from one pass of the recurrence
    binomial(2g, k+1) = binomial(2g, k) * (2g - k) / (k + 1)."""
    if g < 1:
        raise ValidationError(f"genus must be >= 1, got {g}")
    row = [0] * (6 * g + 1)
    c = 1
    for k in range(2 * g + 1):
        row[3 * k] = c
        c = c * (2 * g - k) // (k + 1)
    return row


def _next_row(h: tuple[int, ...], g: int) -> tuple[list[int], list[int]]:
    """The genus g+1 recursion from the genus-g entries ``h``: (row, lower).

    ``row`` holds the three bands at degrees 0..6g+3: the lower band
    h[r-2] + 2h[r-3] + h[r-4] + m_r - m_{r-4} through degree 3g-1, the
    constant middle band 4h[3g] + m_{3g} - m_{3g-3} on 3g..3g+3, and the
    upper band h[r-2] + 2h[r-3] + h[r-4] + m_{r-3} - m_{r+1} from 3g+4.
    ``lower`` is the lower-band formula at degrees 0..3g+1, which the
    rational recursion reads past the mod-2 lower band.
    """
    z = (0, 0, 0, 0)
    p = z + h + z  # p[r + 4] = h[r], zero off the table
    s = [a + 2 * b + c for a, b, c in zip(p[2:], p[1:], p)]  # r = 0..6g+3
    m = [0, 0, 0, 0, *m_row(g), 0, 0, 0, 0]  # m[r + 4] = m_r, r = -4..6g+4
    lower = [v + a - b for v, a, b in zip(s[: 3 * g + 2], m[4:], m)]
    middle = 4 * h[3 * g] + m[3 * g + 4] - m[3 * g + 1]
    upper = [v + a - b for v, a, b in zip(s[3 * g + 4:], m[3 * g + 5:], m[3 * g + 9:])]
    return [*lower[: 3 * g], middle, middle, middle, middle, *upper], lower


@lru_cache(maxsize=None)
def mod2_table(g: int) -> BettiTable:
    """Framed Betti numbers over the two-element field, genus ``g``.

    Base case: the genus-1 framed space is SO(3), table (1, 1, 1, 1).
    Each further genus applies the three-band recursion (:func:`_next_row`)
    to the table of the previous genus.
    """
    if g < 1:
        raise ValidationError(f"genus must be >= 1, got {g}")
    if g == 1:
        return BettiTable(1, "F2", (1, 1, 1, 1))
    for k in range(2, g):  # bottom-up, so that the call depth stays constant
        mod2_table(k)
    row, _ = _next_row(mod2_table(g - 1).values, g - 1)
    table = BettiTable(g, "F2", row)
    if table.check():
        raise ValidationError(f"mod-2 recursion produced an invalid table: {table.check()}")
    return table


@lru_cache(maxsize=None)
def rational_table(g: int) -> BettiTable:
    """Framed Betti numbers over the rationals, genus ``g``.

    Base case (1, 0, 0, 1); the lower-band recursion holds through degree
    3g+1 (g the previous genus) and the remaining degrees are filled in by
    Poincare duality.
    """
    if g < 1:
        raise ValidationError(f"genus must be >= 1, got {g}")
    if g == 1:
        return BettiTable(1, "Q", (1, 0, 0, 1))
    for k in range(2, g):  # bottom-up, so that the call depth stays constant
        rational_table(k)
    _, lower = _next_row(rational_table(g - 1).values, g - 1)
    table = BettiTable(g, "Q", (*lower, *reversed(lower)))
    if table.check():
        raise ValidationError(f"rational recursion produced an invalid table: {table.check()}")
    return table


def middle_closed_form(g: int) -> int:
    """Common value of the four middle mod-2 Betti numbers.

    For genus g >= 2 the framed table is constant on degrees 3g-3..3g and
    equals 2^(2g-1) - binomial(2g-1, g) there.
    """
    if g < 2:
        raise ValidationError(f"the closed form needs genus >= 2, got {g}")
    return 2 ** (2 * g - 1) - comb(2 * g - 1, g)


def total_rank_identity(g: int) -> tuple[int, int, int]:
    """(mod-2 total, doubled rational total, closed form 2g*binom(2g, g)).

    The three numbers agree for every genus; callers can assert equality
    or display the triple.
    """
    closed = 2 * g * comb(2 * g, g)
    return (mod2_table(g).total(), 2 * rational_table(g).total(), closed)


# ---------------------------------------------------------------------------
# recursion verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Per-constraint verdicts for a candidate next-genus table.

    Each of ``families`` is (name, detail, degrees, got, want, verdicts):
    the constraint at ``degrees[i]`` compares ``got[i]`` with ``want[i]``,
    and its boolean ``verdicts[i]`` is computed once, when the report is
    built.  :attr:`all_pass` reads only those booleans; :attr:`items` is
    formatted on read, from the name and detail templates, r, got and want.
    """

    genus: int
    families: tuple[tuple, ...]

    @property
    def all_pass(self) -> bool:
        return all(all(family[-1]) for family in self.families)

    @property
    def items(self) -> tuple[tuple[str, bool, str], ...]:
        return tuple(
            (name.format(r=r), ok, detail.format(r=r, got=a, want=b))
            for name, detail, degrees, got, want, verdicts in self.families
            for r, a, b, ok in zip(degrees, got, want, verdicts)
        )


def verify_theorem(g: int, candidate: BettiTable) -> TheoremReport:
    """Check a genus g+1 framed mod-2 table against the recursion bounds.

    Verified constraints, with ``h`` the genus-g table and ``c`` the
    candidate: the lower/middle/upper band lower bounds at every degree;
    equality in the lower band at degrees 2 mod 3; the difference identity
    at degrees 1 mod 3 in the lower band; the plateau c[3g+1] = c[3g];
    Poincare duality and vanishing Euler characteristic.
    """
    if candidate.space != "framed" or candidate.field != "F2":
        raise ValidationError("candidate must be a framed mod-2 table")
    if candidate.genus != g + 1:
        raise ValidationError(
            f"candidate has genus {candidate.genus}, expected {g + 1}"
        )
    row, lower = _next_row(mod2_table(g).values, g)
    c, mid = candidate.values, 3 * g
    same, step = range(2, mid, 3), range(1, mid, 3)
    compared = [
        (f"{band}-bound@{{r}}", "{got} >= {want}", range(lo, hi), c[lo:hi], row[lo:hi], ge)
        for band, lo, hi in (("lower", 0, mid), ("middle", mid, mid + 4),
                             ("upper", mid + 4, len(c)))
    ]
    compared += [
        ("lower-equality@{r}", "{got} == {want}", same,
         [c[r] for r in same], [lower[r] for r in same], eq),
        ("difference-identity@{r}", "{got} == {want}", step,
         [c[k] - c[k - 1] for k in step], [lower[k] - lower[k - 1] for k in step], eq),
        ("plateau@{r}", f"c[{{r}}]={{got}} == c[{mid}]={{want}}", (mid + 1,),
         (c[mid + 1],), (c[mid],), eq),
    ]
    families = [
        (name, detail, degrees, got, want, tuple(map(rel, got, want)))
        for name, detail, degrees, got, want, rel in compared
    ]
    problems = candidate.check()
    families += [
        (name, detail, (None,), (None,), (None,), (name not in problems,))
        for name, detail in (("poincare-duality", "table is self-dual"),
                             ("euler-characteristic", "alternating sum is 0"))
    ]
    return TheoremReport(genus=g, families=tuple(families))
