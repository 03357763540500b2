"""Tests for the Betti tables and genus recursions."""

from __future__ import annotations

import sys
from itertools import islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2moduli import betti, reference
from f2moduli.betti import BettiTable, m_coeff, mod2_table, rational_table
from f2moduli.errors import ValidationError

# ---------------------------------------------------------------------------
# m coefficients
# ---------------------------------------------------------------------------


def poly_pow_coeffs(g: int) -> list[int]:
    """Oracle: expand (1 + t^3)^(2g) by repeated convolution."""
    poly = [1]
    for _ in range(2 * g):
        nxt = [0] * (len(poly) + 3)
        for i, c in enumerate(poly):
            nxt[i] += c
            nxt[i + 3] += c
        poly = nxt
    return poly


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_m_coeff_matches_polynomial_expansion(g):
    coeffs = poly_pow_coeffs(g)
    for r in range(-3, 6 * g + 4):
        expect = coeffs[r] if 0 <= r < len(coeffs) else 0
        assert m_coeff(g, r) == expect


@given(st.integers(1, 40), st.integers(0, 240))
@settings(max_examples=80)
def test_m_coeff_symmetry(g, r):
    assert m_coeff(g, r) == m_coeff(g, 6 * g - r)


def test_m_coeff_genus_two():
    assert [m_coeff(2, r) for r in range(13)] == [1, 0, 0, 4, 0, 0, 6, 0, 0, 4, 0, 0, 1]


# ---------------------------------------------------------------------------
# table structure
# ---------------------------------------------------------------------------


def test_table_lengths():
    assert len(mod2_table(1).values) == 4
    assert len(mod2_table(2).values) == 10
    assert len(rational_table(3).values) == 16


def test_table_rejects_wrong_length():
    with pytest.raises(ValidationError, match="entries"):
        BettiTable(2, "F2", (1, 2, 3))


def test_table_rejects_negative():
    with pytest.raises(ValidationError, match="negative"):
        BettiTable(1, "F2", (1, -1, 1, 1))


def test_iteration_ends_at_the_top_degree():
    t = mod2_table(2)
    # bounded first: a table that iterated through __getitem__ would never end
    assert list(islice(t, len(t.values) + 1)) == list(t.values)
    assert list(t) == list(t.values)
    assert max(t) == max(t.values)
    assert t.values[0] in t
    assert max(t.values) + 1 not in t


def test_out_of_range_indexing_is_zero():
    t = mod2_table(2)
    assert t[-1] == 0 and t[10] == 0 and t[0] == 1


# ---------------------------------------------------------------------------
# recursion values
# ---------------------------------------------------------------------------


def test_genus_one_bases():
    assert mod2_table(1).values == (1, 1, 1, 1)
    assert rational_table(1).values == (1, 0, 0, 1)


def test_genus_two_full_tables():
    assert mod2_table(2).values == (1, 0, 1, 5, 5, 5, 5, 1, 0, 1)
    assert rational_table(2).values == (1, 0, 1, 4, 0, 0, 4, 1, 0, 1)


@pytest.mark.parametrize("g", sorted(reference.F2_HALF))
def test_mod2_half_tables_match_reference(g):
    assert mod2_table(g).half() == reference.F2_HALF[g]


@pytest.mark.parametrize("g", sorted(reference.Q_HALF))
def test_rational_half_tables_match_reference(g):
    assert rational_table(g).half() == reference.Q_HALF[g]


@pytest.mark.parametrize("g", range(1, 13))
def test_invariants_both_fields(g):
    assert mod2_table(g).check() == []
    assert rational_table(g).check() == []


@pytest.mark.parametrize("g", range(1, 11))
def test_total_rank_identity(g):
    mod2_total, doubled_rational, closed = betti.total_rank_identity(g)
    assert mod2_total == doubled_rational == closed == 2 * g * comb(2 * g, g)


@pytest.mark.parametrize("g", range(2, 11))
def test_middle_closed_form(g):
    t = mod2_table(g)
    mid = betti.middle_closed_form(g)
    assert mid == 2 ** (2 * g - 1) - comb(2 * g - 1, g)
    for r in range(3 * g - 3, 3 * g + 1):
        assert t[r] == mid


@pytest.mark.parametrize("g", range(2, 11))
def test_fields_agree_low_degrees_then_split_by_one(g):
    f2, q = mod2_table(g), rational_table(g)
    for r in range(2 * g - 1):
        assert f2[r] == q[r]
    assert f2[2 * g - 1] == q[2 * g - 1] + 1


def test_rational_total_closed_form():
    for g in range(1, 9):
        assert rational_table(g).total() == g * comb(2 * g, g)


def test_large_genus_counts_are_exact():
    # entries at genus 40 overflow 64-bit floats; exact ints must survive
    t = mod2_table(40)
    assert t.total() == 2 * 40 * comb(80, 40)
    assert t.check() == []


# ---------------------------------------------------------------------------
# recursion verdicts
# ---------------------------------------------------------------------------


def test_verify_theorem_accepts_recursion_output():
    for g in range(1, 6):
        report = betti.verify_theorem(g, mod2_table(g + 1))
        assert report.all_pass, [name for name, ok, _ in report.items if not ok]


def test_verify_theorem_middle_band_value():
    # genus 1 -> 2 middle band: 4*1 + 2 - 1 = 5
    report = betti.verify_theorem(1, mod2_table(2))
    middle = [d for name, ok, d in report.items if name.startswith("middle-bound@")]
    assert middle and all(d.endswith(">= 5") for d in middle)


def test_verify_theorem_flags_perturbation():
    good = mod2_table(3)
    bad_values = list(good.values)
    bad_values[7] -= 1
    bad = BettiTable(3, "F2", tuple(bad_values))
    report = betti.verify_theorem(2, bad)
    assert not report.all_pass
    failures = [name for name, ok, _ in report.items if not ok]
    assert "plateau@7" in failures
    assert "poincare-duality" in failures


def test_verify_theorem_rejects_wrong_genus():
    with pytest.raises(ValidationError, match="genus"):
        betti.verify_theorem(1, mod2_table(3))


def test_tables_build_without_deep_recursion():
    # a fresh high genus must not recurse once per genus below it
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    mod2_table.cache_clear()
    rational_table.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        f2, q = mod2_table(150), rational_table(150)
    finally:
        sys.setrecursionlimit(limit)
    assert f2.check() == [] and q.check() == []
    assert f2.values[: 2 * 150 - 1] == q.values[: 2 * 150 - 1]


# ---------------------------------------------------------------------------
# the per-degree formulas, as the reference for the row-at-a-time recursion
# ---------------------------------------------------------------------------


def ref_m(g: int, r: int) -> int:
    return comb(2 * g, r // 3) if 0 <= r <= 6 * g and r % 3 == 0 else 0


def ref_at(h: tuple[int, ...], r: int) -> int:
    return h[r] if 0 <= r < len(h) else 0


def ref_lower(h, g, r):
    return ref_at(h, r - 2) + 2 * ref_at(h, r - 3) + ref_at(h, r - 4) + ref_m(g, r) - ref_m(g, r - 4)


def ref_band(h, g, r):
    """Band of degree r in the genus g+1 table and its value, one degree at a time."""
    if r <= 3 * g - 1:
        return "lower", ref_lower(h, g, r)
    if r <= 3 * g + 3:
        return "middle", 4 * ref_at(h, 3 * g) + ref_m(g, 3 * g) - ref_m(g, 3 * g - 3)
    rest = ref_at(h, r - 2) + 2 * ref_at(h, r - 3) + ref_at(h, r - 4)
    return "upper", rest + ref_m(g, r - 3) - ref_m(g, r + 1)


REF_TOP = 60


def ref_tables() -> tuple[dict, dict]:
    """Mod-2 and rational framed tables for genus 1..REF_TOP, degree by degree."""
    f2, q = {1: (1, 1, 1, 1)}, {1: (1, 0, 0, 1)}
    for g in range(2, REF_TOP + 1):
        pg, n = g - 1, 6 * g - 3
        f2[g] = tuple(ref_band(f2[pg], pg, r)[1] for r in range(n + 1))
        values = [0] * (n + 1)
        for r in range(3 * pg + 2):
            values[r] = ref_lower(q[pg], pg, r)
        for r in range(3 * pg + 2, n + 1):
            values[r] = values[n - r]
        q[g] = tuple(values)
    return f2, q


REF_F2, REF_Q = ref_tables()


def ref_check(t: BettiTable) -> list[str]:
    problems = []
    if t.space != "framed":
        return problems
    v, n = t.values, len(t.values) - 1
    if any(v[r] != v[n - r] for r in range(n + 1)):
        problems.append("poincare-duality")
    if sum(x if r % 2 == 0 else -x for r, x in enumerate(v)) != 0:
        problems.append("euler-characteristic")
    if v[0] != 1:
        problems.append("connectedness")
    if t.genus >= 2 and v[1] != 0:
        problems.append("simple-connectivity")
    return problems


def ref_verify(g: int, c: BettiTable) -> list[tuple[str, bool, str]]:
    h, v = REF_F2[g], c.values
    items = []
    for r in range(6 * (g + 1) - 2):
        band, bound = ref_band(h, g, r)
        items.append((f"{band}-bound@{r}", v[r] >= bound, f"{v[r]} >= {bound}"))
    for r in range(0, 3 * g):
        if r % 3 == 2:
            bound = ref_lower(h, g, r)
            items.append((f"lower-equality@{r}", v[r] == bound, f"{v[r]} == {bound}"))
    for k in range(0, 3 * g):
        if k % 3 == 1:
            want = ref_lower(h, g, k) - ref_lower(h, g, k - 1)
            got = v[k] - v[k - 1]
            items.append((f"difference-identity@{k}", got == want, f"{got} == {want}"))
    a, b = 3 * g + 1, 3 * g
    items.append((f"plateau@{a}", v[a] == v[b], f"c[{a}]={v[a]} == c[{b}]={v[b]}"))
    problems = set(ref_check(c))
    items.append(("poincare-duality", "poincare-duality" not in problems, "table is self-dual"))
    items.append(
        ("euler-characteristic", "euler-characteristic" not in problems, "alternating sum is 0")
    )
    return items


def test_m_row_is_every_m_coeff():
    for g in range(1, REF_TOP + 1):
        assert betti.m_row(g) == [ref_m(g, r) for r in range(6 * g + 1)]
        assert betti.m_row(g) == [m_coeff(g, r) for r in range(6 * g + 1)]
    for fn in (betti.m_row, lambda g: m_coeff(g, 0)):
        with pytest.raises(ValidationError, match="^genus must be >= 1, got 0$"):
            fn(0)


def test_tables_match_the_per_degree_recursion():
    for g in range(1, REF_TOP + 1):
        assert mod2_table(g).values == REF_F2[g], f"F2 genus {g}"
        assert rational_table(g).values == REF_Q[g], f"Q genus {g}"


def perturbed(t: BettiTable) -> list[BettiTable]:
    """Candidates one step off ``t``: one entry up or down, or a dual pair up,
    at degrees in and around each band."""
    g, n = t.genus, len(t.values) - 1
    pg = g - 1
    degrees = sorted({0, 1, 2, 3, 4, 5, 3 * pg - 2, 3 * pg - 1, 3 * pg, 3 * pg + 1,
                      3 * pg + 2, 3 * pg + 3, 3 * pg + 4, n - 1, n} & set(range(n + 1)))
    out = []
    for r in degrees:
        for delta in (1, -1):
            v = list(t.values)
            v[r] += delta
            if v[r] >= 0:
                out.append(BettiTable(g, "F2", tuple(v)))
        v = list(t.values)
        v[r] += 1
        v[n - r] += 1
        out.append(BettiTable(g, "F2", tuple(v)))
    return out


def test_verify_theorem_matches_the_per_degree_verdicts():
    for g in range(1, 26):
        for c in [mod2_table(g + 1), *perturbed(mod2_table(g + 1))]:
            report = betti.verify_theorem(g, c)
            assert report.genus == g
            assert list(report.items) == ref_verify(g, c), f"genus {g} candidate {c.values}"


def test_table_checks_match_the_per_degree_reference():
    good = mod2_table(3).values
    tables = [
        BettiTable(3, "F2", good),
        BettiTable(3, "F2", (2, *good[1:])),  # connectedness, duality, Euler
        BettiTable(3, "F2", (2, *good[1:-1], 2)),  # connectedness alone
        BettiTable(3, "F2", (1, 1, *good[2:-2], 1, 1)),  # simple connectivity
        BettiTable(3, "F2", (*good[:5], good[5] + 1, *good[6:])),  # duality and Euler
        BettiTable(3, "F2", (*good[:5], good[5] + 1, good[6] + 1, *good[7:])),  # duality
        BettiTable(1, "F2", (1, 1, 1, 1)),
        BettiTable(1, "Q", (1, 0, 1, 0)),
        BettiTable(1, "F2", (0, 0, 0, 0)),
        BettiTable(1, "F2", (1,) * 7, space="plus"),
        BettiTable(1, "F2", (0, 5, 0, 0, 0, 0, 0), space="relative"),
    ]
    for t in tables:
        assert t.check() == ref_check(t), t
        assert t.euler_characteristic() == sum(x if r % 2 == 0 else -x for r, x in enumerate(t.values))
    assert [t.check() for t in tables[1:6]] == [
        ["poincare-duality", "euler-characteristic", "connectedness"],
        ["connectedness"],
        ["simple-connectivity"],
        ["poincare-duality", "euler-characteristic"],
        ["poincare-duality"],
    ]


@pytest.mark.parametrize(
    "values,message",
    [
        ((1, -1, 1, 1), "negative entry -1 at degree 1"),
        ((1, 1, -2, -3), "negative entry -2 at degree 2"),
        ((-4, 1, 1, 1), "negative entry -4 at degree 0"),
        (("1", "-5", "2", "1"), "negative entry -5 at degree 1"),
    ],
)
def test_negative_entry_message_names_the_first_negative_degree(values, message):
    with pytest.raises(ValidationError) as err:
        BettiTable(1, "F2", values)
    assert str(err.value) == message


def test_table_construction_messages():
    cases = [
        ((0, "F2", (1, 1, 1, 1)), "genus must be >= 1, got 0"),
        ((1, "Z", (1, 1, 1, 1)), "field must be one of ('F2', 'Q'), got 'Z'"),
        ((1, "F2", (1, 1, 1, 1), "closed"),
         "space must be one of ('framed', 'plus', 'relative'), got 'closed'"),
        ((2, "F2", (1, 2, 3)), "framed table for genus 2 needs 10 entries, got 3"),
        ((1, "F2", (1, -1, 1), "plus"), "plus table for genus 1 needs 7 entries, got 3"),
    ]
    for args, message in cases:
        with pytest.raises(ValidationError) as err:
            BettiTable(*args)
        assert str(err.value) == message
    assert BettiTable(1, "F2", [1.0, True, "1", 1]).values == (1, 1, 1, 1)
