import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2moduli import _witness
from f2moduli._witness import _columns_hit, _coordinate_map, synthesize_witnesses
from f2moduli.errors import InfeasibleError
from f2moduli.f2la import BitMatrix, rank
from f2moduli.moduli import MapProfile, genus1_data, genus2_data
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


# sha256 (first 16 hex digits) of every nu and then every rho of the seeded
# witnesses of canonical_data(genus), recorded before elimination and
# compose worked a strip of eight columns at a time
SEEDED_DIGESTS = {
    (1, 1): "6a1df2223ed98375",
    (1, 2): "ce2f5e3a26560dcc",
    (2, 1): "70d49daaa36ef226",
    (2, 2): "197aa64c5f67c83d",
    (3, 1): "6ddba6a2d767be74",
    (3, 2): "ec40528ff716b3c4",
}


@pytest.mark.parametrize("genus,seed", sorted(SEEDED_DIGESTS))
def test_seeded_synthesis_is_pinned_bit_for_bit(genus, seed):
    ws = synthesize_witnesses(canonical_data(genus), seed)
    h = hashlib.sha256()
    for m in (*ws.nu, *ws.rho):
        h.update(f"{m.rows}x{m.cols};".encode())
        h.update(np.ascontiguousarray(m._bits, dtype="<u8").tobytes())
    assert h.hexdigest()[:16] == SEEDED_DIGESTS[(genus, seed)]


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


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_canonical_hits_reproduce_every_witness_matrix(g):
    # the seed-0 self-check counts these hits, so they must be exactly the
    # matrices lambda_edges and verify read
    ws = synthesize_witnesses(canonical_data(g), 0)
    for maps, hits in ((ws.nu, ws.nu_hits), (ws.rho, ws.rho_hits)):
        assert len(hits) == len(maps) == 6 * g + 1
        for m, c in zip(maps, hits):
            dense = np.zeros((m.rows, m.cols), dtype=np.uint8)
            dense[np.flatnonzero(c >= 0), c[c >= 0]] = 1
            assert c.shape == (m.rows,) and np.array_equal(dense, m.to_dense())


def test_seeded_witnesses_carry_no_hits():
    ws = synthesize_witnesses(genus2_data(), 1)
    assert ws.nu_hits is None and ws.rho_hits is None


@pytest.mark.parametrize("dom, cod", [(0, 0), (0, 5), (3, 0), (1, 1), (70, 63), (70, 64), (70, 65), (9, 130)])
def test_coordinate_map_sets_one_bit_per_surviving_row(dom, cod):
    rng = np.random.default_rng(dom * 1000 + cod)
    keep = min(dom, cod)
    alive = np.sort(rng.choice(dom, keep, replace=False)) if keep else np.array([], dtype=int)
    image = [int(c) for c in rng.choice(cod, keep, replace=False)] if keep else []
    m, hits = _coordinate_map(dom, cod, set(range(dom)) - set(alive.tolist()), image)
    want = np.zeros((dom, cod), dtype=np.uint8)
    want[alive, image] = 1
    assert (m.rows, m.cols) == (dom, cod) and np.array_equal(m.to_dense(), want)
    assert rank(m) == keep and hits[alive].tolist() == image


# ---------------------------------------------------------------------------
# the seed-0 self-check counts hit columns
# ---------------------------------------------------------------------------


def _matrix_of(width: int, *hits: np.ndarray) -> BitMatrix:
    """The rows of each hit array stacked, row i a unit vector at hits[i] or zero."""
    rows = np.concatenate([np.asarray(h, dtype=np.int64) for h in hits])
    dense = np.zeros((rows.size, width), dtype=np.uint8)
    live = np.flatnonzero(rows >= 0)
    dense[live, rows[live]] = 1
    return BitMatrix.from_dense(dense)


@pytest.mark.parametrize("g", range(1, 7))
def test_hit_count_is_the_rank_of_every_canonical_map(g):
    ws = synthesize_witnesses(canonical_data(g), 0)
    for r in range(6 * g + 1):
        n, p, w = ws.nu_hits[r], ws.rho_hits[r], ws.data.nplus[r]
        assert _columns_hit(w, n) == rank(ws.nu[r]), f"nu {r}"
        assert _columns_hit(w, p) == rank(ws.rho[r]), f"rho {r}"
        assert _columns_hit(w, n, p) == rank(ws.mu(r)), f"mu {r}"


def test_seed_0_synthesis_ranks_no_matrix(monkeypatch):
    calls = []
    monkeypatch.setattr(_witness, "rank", lambda m: calls.append(m) or rank(m))
    for g in range(1, 5):
        synthesize_witnesses(canonical_data(g), 0)
    assert calls == []
    # every other seed still checks by dense elimination
    synthesize_witnesses(genus1_data(), 1)
    assert len(calls) == 3 * 7


def _random_hits(rng: np.random.Generator, width: int) -> np.ndarray:
    """A partial injection into ``width`` columns: distinct columns on some rows, -1 elsewhere."""
    rows = int(rng.integers(0, 80))
    k = int(rng.integers(0, min(rows, width) + 1))
    hits = np.full(rows, -1, dtype=np.int64)
    hits[rng.choice(rows, k, replace=False)] = rng.choice(width, k, replace=False)
    return hits


WIDTHS = st.one_of(st.sampled_from([0, 1, 63, 64, 65]), st.integers(0, 300))


@given(WIDTHS, st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_hit_count_is_the_rank_of_random_partial_injections(width, seed):
    rng = np.random.default_rng(seed)
    n, p = _random_hits(rng, width), _random_hits(rng, width)
    assert _columns_hit(width, n) == rank(_matrix_of(width, n))
    assert _columns_hit(width, p) == rank(_matrix_of(width, p))
    # the two share columns at random, as nu_r and rho_r do inside mu_r
    assert _columns_hit(width, n, p) == rank(_matrix_of(width, n, p))


def _with_hits(ws, family: str, r: int, hits: np.ndarray):
    field = f"{family}_hits"
    maps = list(getattr(ws, field))
    maps[r] = hits
    return replace(ws, **{field: tuple(maps)})


@given(st.sampled_from(["nu", "rho"]), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_a_duplicated_hit_column_is_reported(w2, family, seed):
    rng = np.random.default_rng(seed)
    hits = getattr(w2, f"{family}_hits")
    degrees = [r for r in range(13) if np.count_nonzero(hits[r] >= 0) >= 2]
    r = int(rng.choice(degrees))
    live = np.flatnonzero(hits[r] >= 0)
    i, j = rng.choice(live, 2, replace=False)
    bad = hits[r].copy()
    bad[i] = bad[j]
    failures = _with_hits(w2, family, r, bad).check()
    assert f"{family} rank at degree {r}" in failures
    assert all(f.endswith(f" at degree {r}") for f in failures)


@given(st.sampled_from(["nu", "rho", "mu"]), st.integers(0, 12), st.sampled_from([-1, 1]))
@settings(max_examples=60)
def test_a_profile_rank_off_by_one_is_reported(w2, family, r, step):
    d = w2.data
    prof = getattr(d, family)[r]
    wrong = prof.rank + step
    if not 0 <= wrong <= min(prof.dom, prof.cod):
        return
    maps = list(getattr(d, family))
    maps[r] = MapProfile(wrong, prof.dom, prof.cod)
    ws = replace(w2, data=replace(d, **{family: tuple(maps)}))
    assert ws.check() == [f"{family} rank at degree {r}"]
