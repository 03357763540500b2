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

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

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
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        want = table_length(self.space, self.genus)
        if len(self.values) != want:
            raise ValidationError(
                f"{self.space} table for genus {self.genus} needs {want} entries, "
                f"got {len(self.values)}"
            )
        for r, v in enumerate(self.values):
            if v < 0:
                raise ValidationError(f"negative entry {v} at degree {r}")

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

    @property
    def top_degree(self) -> int:
        return len(self.values) - 1

    def total(self) -> int:
        return sum(self.values)

    def euler_characteristic(self) -> int:
        return sum(v if r % 2 == 0 else -v for r, v in enumerate(self.values))

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
        n = self.top_degree
        if any(self.values[r] != self.values[n - r] for r in range(n + 1)):
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
    otherwise zero.
    """
    if g < 1:
        raise ValidationError(f"genus must be >= 1, got {g}")
    if r < 0 or r > 6 * g or r % 3 != 0:
        return 0
    return comb(2 * g, r // 3)


def _rhs_lower(h: BettiTable, g: int, r: int) -> int:
    # recursion term used below the middle band and, with a shift, above it
    return h[r - 2] + 2 * h[r - 3] + h[r - 4] + m_coeff(g, r) - m_coeff(g, r - 4)


def _band(h: BettiTable, g: int, r: int) -> tuple[str, int]:
    """Band of degree r in the genus g+1 table, and its recursion value from h.

    The lower band runs to degree 3g-1, the middle band 3g..3g+3 is
    constant, and the upper band starts at 3g+4.
    """
    if r <= 3 * g - 1:
        return "lower", _rhs_lower(h, g, r)
    if r <= 3 * g + 3:
        return "middle", 4 * h[3 * g] + m_coeff(g, 3 * g) - m_coeff(g, 3 * g - 3)
    return "upper", h[r - 2] + 2 * h[r - 3] + h[r - 4] + m_coeff(g, r - 3) - m_coeff(g, r + 1)


@lru_cache(maxsize=None)
def mod2_table(g: int) -> BettiTable:
    """Framed Betti numbers over the two-element field, genus ``g``.

    Base case: the genus-1 framed space is SO(3), table (1, 1, 1, 1).
    Each further genus applies the three-band recursion (:func:`_band`)
    to the table of the previous genus.
    """
    if g < 1:
        raise ValidationError(f"genus must be >= 1, got {g}")
    if g == 1:
        return BettiTable(1, "F2", (1, 1, 1, 1))
    for k in range(2, g):  # bottom-up, so that the call depth stays constant
        mod2_table(k)
    prev = mod2_table(g - 1)
    values = tuple(_band(prev, g - 1, r)[1] for r in range(6 * g - 2))
    table = BettiTable(g, "F2", values)
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
    prev = rational_table(g - 1)
    pg = g - 1
    n = 6 * g - 3
    values = [0] * (n + 1)
    for r in range(n + 1):
        if r <= 3 * pg + 1:
            values[r] = _rhs_lower(prev, pg, r)
    for r in range(3 * pg + 2, n + 1):
        values[r] = values[n - r]
    table = BettiTable(g, "Q", tuple(values))
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
    """Per-constraint verdicts for a candidate next-genus table."""

    genus: int
    items: tuple[tuple[str, bool, str], ...] = field(default_factory=tuple)

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.items)


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
    h = mod2_table(g)
    c = candidate
    items: list[tuple[str, bool, str]] = []

    for r in range(6 * (g + 1) - 2):
        band, bound = _band(h, g, r)
        items.append((f"{band}-bound@{r}", c[r] >= bound, f"{c[r]} >= {bound}"))

    for r in range(0, 3 * g):
        if r % 3 == 2:
            bound = _rhs_lower(h, g, r)
            items.append((f"lower-equality@{r}", c[r] == bound, f"{c[r]} == {bound}"))

    for k in range(0, 3 * g):
        if k % 3 == 1:
            want = _rhs_lower(h, g, k) - _rhs_lower(h, g, k - 1)
            got = c[k] - c[k - 1]
            items.append((f"difference-identity@{k}", got == want, f"{got} == {want}"))

    items.append(
        (
            f"plateau@{3 * g + 1}",
            c[3 * g + 1] == c[3 * g],
            f"c[{3 * g + 1}]={c[3 * g + 1]} == c[{3 * g}]={c[3 * g]}",
        )
    )

    problems = set(c.check())
    items.append(("poincare-duality", "poincare-duality" not in problems, "table is self-dual"))
    items.append(
        ("euler-characteristic", "euler-characteristic" not in problems, "alternating sum is 0")
    )
    return TheoremReport(genus=g, items=tuple(items))
