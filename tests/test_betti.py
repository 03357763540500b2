"""Tests for the Betti tables and genus recursions."""

from __future__ import annotations

import sys
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
