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
    genus1_data,
    genus2_data,
    mu_kernel_dim,
    mu_profile,
    nhat_betti,
    nplus_betti,
    reference_diagnostics,
    rho_profile,
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
    assert mu_kernel_dim(2, 5) == 5
    assert mu_kernel_dim(1, 3) == 1
    assert mu_kernel_dim(2, 8) == 4


def test_rho_profile_examples():
    assert rho_profile(1, 3).notation() == "1_1^3"
    assert rho_profile(2, 5).notation() == "5_5^5"
    assert rho_profile(2, 0).notation() == "0_0^1"


def test_mu_profile_examples():
    assert mu_profile(2, 3).notation() == "4_5^4"
    assert mu_profile(2, 6).notation() == "5_10^11"
    assert mu_profile(1, 5).notation() == "0_1^0"


@pytest.mark.parametrize("g", range(1, 11))
def test_profiles_read_the_halfspace_table(g):
    plus = nplus_betti(g)
    for r in range(6 * g + 1):
        assert mu_profile(g, r).cod == plus[r], f"mu at degree {r}"
        assert rho_profile(g, r).cod == plus[r], f"rho at degree {r}"


def test_negative_halfspace_entry_rejected(monkeypatch):
    # h[3] = 0 makes the half-space entry h[3] - m_6 at degree 5 equal -1
    broken = BettiTable(1, "F2", (1, 0, 1, 0))
    monkeypatch.setattr(moduli, "mod2_table", lambda g: broken)
    nplus_betti.cache_clear()  # the table is cached by genus, built from the real h
    with pytest.raises(ValidationError, match="half-space formula went negative"):
        nplus_betti(1)
    with pytest.raises(ValidationError, match="half-space formula went negative"):
        rho_profile(1, 5)
    with pytest.raises(ValidationError, match="half-space formula went negative"):
        mu_profile(1, 5)


# ---------------------------------------------------------------------------
# structural identities, all small genera
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", range(1, 7))
def test_exact_sequence_bookkeeping(g):
    # the connecting homomorphism alternative: coker mu_r + ker mu_{r-1}
    # must equal the relative Betti number at r
    rel = nhat_betti(g)
    for r in range(6 * g + 1):
        cok = mu_profile(g, r).cokernel
        ker = mu_profile(g, r - 1).kernel if r >= 1 else 0
        assert cok + ker == rel[r], f"degree {r}"


@pytest.mark.parametrize("g", range(1, 7))
def test_rho_bookkeeping(g):
    # same bookkeeping for rho alone: coker rho_r + ker rho_{r-1} = m_r
    for r in range(6 * g + 1):
        cok = rho_profile(g, r).cokernel
        ker = rho_profile(g, r - 1).kernel if r >= 1 else 0
        assert cok + ker == m_coeff(g, r), f"degree {r}"


@pytest.mark.parametrize("g", range(1, 7))
def test_rho_injective_then_surjective(g):
    for r in range(6 * g + 1):
        p = rho_profile(g, r)
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
    kernels = sum(mu_kernel_dim(g, r) for r in range(6 * g + 1))
    cokernels = sum(mu_profile(g, r).cokernel for r in range(6 * g + 1))
    assert kernels + cokernels == plus.total()


@settings(max_examples=30)
@given(g=st.integers(min_value=1, max_value=12), offset=st.integers(0, 40))
def test_mu_rank_never_exceeds_sides(g, offset):
    r = offset % (6 * g + 1)
    p = mu_profile(g, r)
    assert 0 <= p.rank <= min(p.dom, p.cod)


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
