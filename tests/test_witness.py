import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2moduli._witness import synthesize_witnesses
from f2moduli.errors import InfeasibleError
from f2moduli.f2la import rank
from f2moduli.moduli import genus1_data, genus2_data
from f2moduli.mv import canonical_data, hypothesis_data


@pytest.fixture(scope="module")
def w1():
    return synthesize_witnesses(genus1_data())


@pytest.fixture(scope="module")
def w2():
    return synthesize_witnesses(genus2_data())


def test_canonical_witnesses_pass_self_check(w1, w2):
    assert w1.check() == []
    assert w2.check() == []


@pytest.mark.parametrize("seed", [1, 2, 17, 123456])
def test_seeded_witnesses_keep_all_ranks(seed):
    d = genus2_data()
    ws = synthesize_witnesses(d, seed)
    assert ws.check() == []
    for r in range(13):
        assert rank(ws.nu[r]) == d.nu[r].rank
        assert rank(ws.rho[r]) == d.rho[r].rank


def test_matrix_shapes_follow_profiles(w2):
    d = w2.data
    for r in range(13):
        assert (w2.nu[r].rows, w2.nu[r].cols) == (d.h[r], d.nplus[r])
        assert (w2.rho[r].rows, w2.rho[r].cols) == (d.h[r - 2], d.nplus[r])


def test_image_overlap_forced_by_mu(w1, w2):
    # overlap = rank nu + rank rho - rank mu at every shared codomain
    for ws in (w1, w2):
        d = ws.data
        for r in range(6 * d.genus + 1):
            t = rank(ws.nu[r]) + rank(ws.rho[r]) - rank(ws.mu(r))
            assert t == d.nu[r].rank + d.rho[r].rank - d.mu[r].rank
            assert 0 <= t <= min(d.nu[r].rank, d.rho[r].rank)


def test_genus1_degree3_images_coincide(w1):
    # rank nu = rank rho = rank mu = 1 there, so the two images are equal
    assert rank(w1.nu[3]) + rank(w1.rho[3]) - rank(w1.mu(3)) == 1
    assert rank(w1.mu(3)) == 1


def test_kernel_intersections_take_minimal_values(w2):
    d = w2.data
    for s in range(11):  # degrees with a rho partner
        kn = d.nu[s].kernel
        kr = d.rho[s + 2].kernel
        lo = max(0, kn + kr - d.h[s])
        assert w2.kernel_intersection(s) == lo


def test_kernel_intersections_stable_across_seeds():
    d = genus2_data()
    base = [synthesize_witnesses(d, 0).kernel_intersection(s) for s in range(11)]
    for seed in (3, 9):
        ws = synthesize_witnesses(d, seed)
        assert [ws.kernel_intersection(s) for s in range(11)] == base


def test_kernel_override_within_window():
    # genus-2 degree 6: ker nu_6 = 0 so the window is [0, 0]; degree 8:
    # ker nu_8 = 0 as well.  Use a degree with slack: none exist in the
    # recorded data (the windows are all points), which is itself worth
    # asserting, and any off-window request must raise.
    d = genus2_data()
    for s in range(11):
        kn, kr = d.nu[s].kernel, d.rho[s + 2].kernel
        assert max(0, kn + kr - d.h[s]) == min(kn, kr)
    with pytest.raises(InfeasibleError, match="outside"):
        synthesize_witnesses(d, 0, kernel_overrides={3: 1})


def test_override_without_partner_rejected():
    with pytest.raises(InfeasibleError, match="no rho partner"):
        synthesize_witnesses(genus1_data(), 0, kernel_overrides={5: 0})


def test_hypothesis_bundle_synthesizes():
    d3 = hypothesis_data(3)
    ws = synthesize_witnesses(d3, 0)
    assert ws.check() == []


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_any_seed_realises_genus1(seed):
    ws = synthesize_witnesses(canonical_data(1), seed)
    assert ws.check() == []


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50))
def test_seeded_witnesses_are_reproducible(seed):
    d = genus2_data()
    ws = synthesize_witnesses(d, seed)
    assert ws.check() == []
    assert ws == synthesize_witnesses(d, seed)


def test_seeds_give_different_witnesses():
    d = genus2_data()
    a, b = synthesize_witnesses(d, 1), synthesize_witnesses(d, 2)
    assert a.nu != b.nu and a.rho != b.rho


def test_canonical_witnesses_are_partial_permutations(w1, w2):
    # seed 0 sends each surviving domain coordinate to its own codomain coordinate
    for ws in (w1, w2):
        for m in (*ws.nu, *ws.rho):
            dense = m.to_dense()
            assert (dense.sum(axis=1) <= 1).all() and (dense.sum(axis=0) <= 1).all()
