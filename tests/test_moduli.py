import dataclasses
import hashlib
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2moduli import moduli, reference
from f2moduli.betti import BettiTable, m_coeff
from f2moduli.errors import ValidationError
from f2moduli.moduli import (
    Diagnostic,
    GenusData,
    MapProfile,
    MapRef,
    SideConstraint,
    assemble_genus_data,
    boundary_ladder,
    boundary_profiles,
    genus1_data,
    genus2_data,
    nhat_betti,
    nplus_betti,
    reference_diagnostics,
)


# ---------------------------------------------------------------------------
# profiles as values
# ---------------------------------------------------------------------------


def test_profile_notation_and_derived_dims():
    p = MapProfile(rank=4, dom=5, cod=4)
    assert p.notation() == "4_5^4"
    assert p.kernel == 1 and p.cokernel == 0
    assert p.rank == p.cod and p.rank != p.dom


def test_profile_rejects_rank_overflow():
    with pytest.raises(ValidationError):
        MapProfile(rank=3, dom=2, cod=5)
    with pytest.raises(ValidationError):
        MapProfile(rank=-1, dom=2, cod=5)


def test_constraint_kind_checked():
    with pytest.raises(ValidationError):
        SideConstraint("typo", (MapRef("nu", 3, 1),), 1, "x")


# ---------------------------------------------------------------------------
# worked examples for the closed formulas
# ---------------------------------------------------------------------------


def test_halfspace_tables_small():
    assert list(nplus_betti(1).values) == [1, 0, 1, 3, 1, 0, 0]
    assert list(nplus_betti(2).values) == [1, 0, 1, 4, 1, 5, 11, 5, 1, 1, 0, 0, 0]


def test_relative_table_is_reverse_of_halfspace():
    for g in range(1, 7):
        plus = nplus_betti(g).values
        rel = nhat_betti(g).values
        assert rel == tuple(reversed(plus))


def test_relative_degree_one_vanishes():
    assert nhat_betti(1)[1] == 0


def test_mu_kernel_examples():
    mu1, _ = boundary_profiles(1)
    mu2, _ = boundary_profiles(2)
    assert mu2[5].kernel == 5
    assert mu1[3].kernel == 1
    assert mu2[8].kernel == 4


def test_rho_profile_examples():
    _, rho1 = boundary_profiles(1)
    _, rho2 = boundary_profiles(2)
    assert rho1[3].notation() == "1_1^3"
    assert rho2[5].notation() == "5_5^5"
    assert rho2[0].notation() == "0_0^1"


def test_mu_profile_examples():
    mu1, _ = boundary_profiles(1)
    mu2, _ = boundary_profiles(2)
    assert mu2[3].notation() == "4_5^4"
    assert mu2[6].notation() == "5_10^11"
    assert mu1[5].notation() == "0_1^0"


@pytest.mark.parametrize("g", range(1, 11))
def test_profiles_read_the_halfspace_table(g):
    plus = nplus_betti(g)
    mu, rho = boundary_profiles(g)
    assert len(mu) == len(rho) == 6 * g + 1
    for r in range(6 * g + 1):
        assert mu[r].cod == plus[r], f"mu at degree {r}"
        assert rho[r].cod == plus[r], f"rho at degree {r}"


# sha256 of the lines "g r mu_r rho_r" in profile notation for genus 1-15,
# every degree 0..6g, recorded from the per-degree formulas the ladder replaced
PROFILES_1_15_SHA256 = "d1898e11de559be7ff632392d16d9b485250ef88f4a94b527b288d2b9a21577f"


def test_ladder_matches_recorded_profiles():
    lines = []
    for g in range(1, 16):
        mu, rho = boundary_profiles(g)
        lines += [f"{g} {r} {mu[r].notation()} {rho[r].notation()}\n" for r in range(6 * g + 1)]
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == PROFILES_1_15_SHA256


def test_negative_halfspace_entry_rejected(monkeypatch):
    # h[3] = 0 makes the half-space entry h[3] - m_6 at degree 5 equal -1
    broken = BettiTable(1, "F2", (1, 0, 1, 0))
    monkeypatch.setattr(moduli, "mod2_table", lambda g: broken)
    nplus_betti.cache_clear()  # the table is cached by genus, built from the real h
    with pytest.raises(ValidationError, match="half-space formula went negative"):
        nplus_betti(1)
    with pytest.raises(ValidationError, match="half-space formula went negative"):
        boundary_profiles(1)


def test_negative_mu_kernel_rejected(monkeypatch, request):
    # h[0] = 0 makes the mu kernel h[0] - m_0 at degree 0 equal -1, while
    # every half-space entry stays nonnegative
    broken = BettiTable(1, "F2", (0, 0, 1, 1))
    monkeypatch.setattr(moduli, "mod2_table", lambda g: broken)
    nplus_betti.cache_clear()
    request.addfinalizer(nplus_betti.cache_clear)  # drop the table built from the broken h
    assert nplus_betti(1).values == (1, 0, 0, 2, 1, 0, 0)
    with pytest.raises(ValidationError, match="mu kernel formula went negative at degree 0"):
        boundary_profiles(1)


# ---------------------------------------------------------------------------
# structural identities, all small genera
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", range(1, 7))
def test_exact_sequence_bookkeeping(g):
    # the connecting homomorphism alternative: coker mu_r + ker mu_{r-1}
    # must equal the relative Betti number at r
    rel = nhat_betti(g)
    mu, _ = boundary_profiles(g)
    for r in range(6 * g + 1):
        cok = mu[r].cokernel
        ker = mu[r - 1].kernel if r >= 1 else 0
        assert cok + ker == rel[r], f"degree {r}"


@pytest.mark.parametrize("g", range(1, 7))
def test_rho_bookkeeping(g):
    # same bookkeeping for rho alone: coker rho_r + ker rho_{r-1} = m_r
    _, rho = boundary_profiles(g)
    for r in range(6 * g + 1):
        cok = rho[r].cokernel
        ker = rho[r - 1].kernel if r >= 1 else 0
        assert cok + ker == m_coeff(g, r), f"degree {r}"


@pytest.mark.parametrize("g", range(1, 7))
def test_rho_injective_then_surjective(g):
    _, rho = boundary_profiles(g)
    for r in range(6 * g + 1):
        p = rho[r]
        if r <= 3 * g + 1:
            assert p.rank == p.dom
        if r >= 3 * g + 1:
            assert p.rank == p.cod


@pytest.mark.parametrize("g", range(1, 7))
def test_halfspace_total_dimension(g):
    # summing the exact-sequence bookkeeping over all degrees collapses to
    # a clean total: sum(nhat) = sum(nplus), and both count
    # sum(mu cokernels) + sum(mu kernels)
    plus = nplus_betti(g)
    mu, _ = boundary_profiles(g)
    kernels = sum(p.kernel for p in mu)
    cokernels = sum(p.cokernel for p in mu)
    assert kernels + cokernels == plus.total()


@settings(max_examples=30)
@given(g=st.integers(min_value=1, max_value=12), offset=st.integers(0, 40))
def test_mu_rank_never_exceeds_sides(g, offset):
    r = offset % (6 * g + 1)
    p = boundary_profiles(g)[0][r]
    assert 0 <= p.rank <= min(p.dom, p.cod)


# ---------------------------------------------------------------------------
# the per-degree formulas, as the reference for the row-at-a-time ladders
# ---------------------------------------------------------------------------


def ref_m(g: int, r: int) -> int:
    return comb(2 * g, r // 3) if 0 <= r <= 6 * g and r % 3 == 0 else 0


def ref_nplus(h: BettiTable, g: int) -> tuple[int, ...]:
    return tuple(
        h[r - 2] + ref_m(g, r) if r <= 3 * g + 1 else h[r - 2] - ref_m(g, r + 1)
        for r in range(6 * g + 1)
    )


def ref_nhat(h: BettiTable, g: int) -> tuple[int, ...]:
    return tuple(
        h[r - 1] - ref_m(g, r - 1) if r <= 3 * g - 1 else h[r - 1] + ref_m(g, r)
        for r in range(6 * g + 1)
    )


def ref_profiles(h: BettiTable, g: int) -> tuple[list, list]:
    """(rank, dom, cod) of mu_r and rho_r, degree by degree."""
    nplus = ref_nplus(h, g)
    mu, rho = [], []
    for r in range(6 * g + 1):
        kernel = h[r] - ref_m(g, r) if r < 3 * g else h[r] + ref_m(g, r + 1)
        dom = h[r] + h[r - 2]
        mu.append((dom - kernel, dom, nplus[r]))
        rho.append((h[r - 2] if r <= 3 * g + 1 else nplus[r], h[r - 2], nplus[r]))
    return mu, rho


def test_ladders_match_the_per_degree_formulas():
    for g in range(1, 61):
        h = moduli.mod2_table(g)
        assert nplus_betti(g).values == ref_nplus(h, g), f"n+ genus {g}"
        assert nhat_betti(g).values == ref_nhat(h, g), f"nhat genus {g}"
        mu, rho = boundary_profiles(g)
        ref_mu, ref_rho = ref_profiles(h, g)
        assert mu == tuple(MapProfile(*p) for p in ref_mu), f"mu genus {g}"
        assert rho == tuple(MapProfile(*p) for p in ref_rho), f"rho genus {g}"


def test_ladder_is_the_profiles_field_for_field():
    for g in range(1, 61):
        mu_rank, mu_dom, rho_rank, rho_dom, cod = boundary_ladder(g)
        mu, rho = boundary_profiles(g)
        assert list(mu_rank) == [p.rank for p in mu], f"mu rank genus {g}"
        assert list(mu_dom) == [p.dom for p in mu], f"mu dom genus {g}"
        assert list(rho_rank) == [p.rank for p in rho], f"rho rank genus {g}"
        assert list(rho_dom) == [p.dom for p in rho], f"rho dom genus {g}"
        assert list(cod) == [p.cod for p in mu] == [p.cod for p in rho], f"cod genus {g}"
        assert tuple(cod) == nplus_betti(g).values


def patch_nplus(monkeypatch, g: int, changes: dict[int, int]) -> None:
    values = list(nplus_betti(g).values)
    for r, v in changes.items():
        values[r] = v
    table = BettiTable(g, "F2", tuple(values), space="plus")
    monkeypatch.setattr(moduli, "nplus_betti", lambda k: table)


def test_rho_rank_past_its_domain_is_refused_as_a_profile(monkeypatch):
    # above degree 3g+1 rho_r is onto, rank n_r; n_5 = 2 at genus 1 makes
    # that rank exceed the domain h[3] = 1, while mu_5 = 0_1^2 stays a profile
    patch_nplus(monkeypatch, 1, {5: 2})
    for build in (boundary_ladder, boundary_profiles):
        with pytest.raises(ValidationError) as err:
            build(1)
        assert str(err.value) == "rank 2 exceeds min(1, 2)"


def test_mu_refusal_comes_before_a_lower_rho_refusal(monkeypatch):
    # genus 2: n_8 = 6 refuses rho_8 (rank 6 on a 5-dimensional domain),
    # n_9 = 0 refuses mu_9 (rank 1 into nothing); mu is named first
    patch_nplus(monkeypatch, 2, {8: 6, 9: 0})
    for build in (boundary_ladder, boundary_profiles):
        with pytest.raises(ValidationError) as err:
            build(2)
        assert str(err.value) == "rank 1 exceeds min(2, 0)"


def test_negative_relative_entry_rejected(monkeypatch):
    # h[0] = 0 makes the relative entry h[0] - m_0 at degree 1 equal -1
    broken = BettiTable(1, "F2", (0, 0, 1, 1))
    monkeypatch.setattr(moduli, "mod2_table", lambda g: broken)
    assert min(ref_nhat(broken, 1)) < 0
    with pytest.raises(ValidationError) as err:
        nhat_betti(1)
    assert str(err.value) == "relative formula went negative for genus 1"


def test_negative_mu_kernel_names_the_first_degree(monkeypatch, request):
    # h[3] = 3 makes the mu kernel h[3] - m_3 at degree 3 equal -1, the
    # first negative degree, while every half-space entry stays nonnegative
    values = (1, 0, 1, 3, 5, 5, 5, 5, 1, 1)
    broken = BettiTable(2, "F2", values)
    monkeypatch.setattr(moduli, "mod2_table", lambda g: broken)
    nplus_betti.cache_clear()
    request.addfinalizer(nplus_betti.cache_clear)
    assert min(ref_nplus(broken, 2)) >= 0
    with pytest.raises(ValidationError) as err:
        boundary_profiles(2)
    assert str(err.value) == "mu kernel formula went negative at degree 3"


@pytest.mark.parametrize(
    "args,message",
    [
        ((-1, 2, 5), "negative entry in profile MapProfile(rank=-1, dom=2, cod=5)"),
        ((0, -2, 5), "negative entry in profile MapProfile(rank=0, dom=-2, cod=5)"),
        ((0, 2, -5), "negative entry in profile MapProfile(rank=0, dom=2, cod=-5)"),
        ((3, 2, 5), "rank 3 exceeds min(2, 5)"),
        ((3, 5, 2), "rank 3 exceeds min(5, 2)"),
        ((1, 0, 0), "rank 1 exceeds min(0, 0)"),
    ],
)
def test_bad_profile_messages(args, message):
    with pytest.raises(ValidationError) as err:
        MapProfile(*args)
    assert str(err.value) == message


def test_profile_is_a_frozen_value():
    p = MapProfile(rank=2, dom=3, cod=4)
    assert p == MapProfile(2, 3, 4) and p != MapProfile(2, 4, 3)
    assert hash(p) == hash(MapProfile(2, 3, 4)) and len({p, MapProfile(2, 3, 4)}) == 1
    assert repr(p) == "MapProfile(rank=2, dom=3, cod=4)"
    assert dataclasses.astuple(p) == (2, 3, 4)
    assert dataclasses.replace(p, rank=3) == MapProfile(3, 3, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.rank = 1
    assert not hasattr(p, "__dict__")


# ---------------------------------------------------------------------------
# assembled bundles vs the recorded rows
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def d1():
    return genus1_data()


@pytest.fixture(scope="module")
def d2():
    return genus2_data()


def test_genus1_profiles_match_recorded_rows(d1):
    for r, (h_rec, _n_rec, mu_rec, rho_rec, nu_rec) in reference.GENUS1_ROWS.items():
        assert d1.h[r] == h_rec
        assert (d1.mu[r].rank, d1.mu[r].dom, d1.mu[r].cod) == mu_rec
        assert (d1.rho[r].rank, d1.rho[r].dom, d1.rho[r].cod) == rho_rec
        assert (d1.nu[r].rank, d1.nu[r].dom, d1.nu[r].cod) == nu_rec


def test_genus2_profiles_match_recorded_rows(d2):
    for r, (h_rec, n_rec, mu_rec, rho_rec, nu_rec) in reference.GENUS2_ROWS.items():
        assert d2.h[r] == h_rec
        assert d2.nplus[r] == n_rec
        assert (d2.mu[r].rank, d2.mu[r].dom, d2.mu[r].cod) == mu_rec
        assert (d2.rho[r].rank, d2.rho[r].dom, d2.rho[r].cod) == rho_rec
        assert (d2.nu[r].rank, d2.nu[r].dom, d2.nu[r].cod) == nu_rec


def test_genus1_halfspace_row5_differs_from_recorded(d1):
    # the recorded half-space value at degree 5 is 1; the formula, and the
    # codomains of every recorded profile in that row, give 0
    assert reference.GENUS1_ROWS[5][1] == 1
    assert d1.nplus[5] == 0
    assert reference.GENUS1_ROWS[5][2][2] == 0  # recorded mu codomain


def test_bundles_cover_all_degrees(d1, d2):
    assert len(d1.nu) == 7 and len(d2.nu) == 13
    assert d1.nu[6].dom == 0 and d2.nu[12].dom == 0


def test_bundle_constraints_recorded_verbatim(d2):
    labels = {c.label: c for c in d2.constraints}
    step4 = labels["genus2-step4"]
    # kept with the recorded genus superscript 1 on rho_8, uncorrected
    assert step4.operands == (MapRef("nu", 6, 2), MapRef("rho", 8, 1))
    assert step4.value == 0
    step3 = labels["genus2-step3"]
    assert step3.kind == "kernel-intersection" and step3.value == 1


def test_assemble_rejects_infeasible_nu():
    ranks = {r: row[4][0] for r, row in reference.GENUS2_ROWS.items()}
    ranks[3] = 0  # mu has rank 4 at degree 3, rho rank 0: nu must carry it
    with pytest.raises(ValidationError, match="degree 3"):
        assemble_genus_data(2, ranks)


def test_assemble_requires_unforced_ranks():
    with pytest.raises(ValidationError, match="not forced"):
        assemble_genus_data(1, {})


def test_bundle_length_validated(d1):
    with pytest.raises(ValidationError):
        GenusData(
            genus=1,
            h=d1.h,
            nplus=d1.nplus,
            mu=d1.mu[:-1],
            rho=d1.rho,
            nu=d1.nu,
        )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_reference_diagnostics_only_known_divergence():
    diags = reference_diagnostics()
    assert [d.name for d in diags] == ["recorded-genus1-halfspace@5"]
    assert diags[0].level == "info"
    assert "formula gives 0" in diags[0].message


def test_diagnostic_is_plain_record():
    d = Diagnostic("x", "error", "boom")
    assert d.level == "error"
