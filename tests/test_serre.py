import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2moduli.betti import mod2_table
from f2moduli.errors import ValidationError
from f2moduli.ringdata import (
    alpha_ranks_from_tables,
    base_dims,
    write_profile,
)
from f2moduli.serre import AlphaAction, genus2_ring, load_alpha_profile, serre_betti


# ---------------------------------------------------------------------------
# the genus-2 ring
# ---------------------------------------------------------------------------


def test_genus2_ring_reproduces_framed_table():
    t = serre_betti(genus2_ring())
    assert t.values == (1, 0, 1, 5, 5, 5, 5, 1, 0, 1)
    assert t.values == mod2_table(2).values


# ---------------------------------------------------------------------------
# validation of ring data
# ---------------------------------------------------------------------------


def test_dims_must_be_palindromic():
    with pytest.raises(ValidationError, match="palindromic"):
        AlphaAction(2, (1, 0, 1, 4, 1, 1, 1), (1, 0, 0, 0, 1))


def test_dims_must_start_at_one():
    with pytest.raises(ValidationError, match="connected"):
        AlphaAction(2, (2, 0, 1, 4, 1, 0, 2), (1, 0, 0, 0, 1))


def test_ranks_must_be_palindromic():
    with pytest.raises(ValidationError, match="palindromic"):
        AlphaAction(2, (1, 0, 1, 4, 1, 0, 1), (1, 0, 0, 0, 0))


def test_ranks_bounded_by_dims():
    with pytest.raises(ValidationError, match="out of range"):
        AlphaAction(2, (1, 0, 1, 4, 1, 0, 1), (1, 0, 2, 0, 1))


# ---------------------------------------------------------------------------
# the Gysin bookkeeping itself
# ---------------------------------------------------------------------------


def test_genus1_base_is_a_point():
    assert base_dims(1) == (1,)
    action = AlphaAction(1, (1,), ())
    assert serre_betti(action).values == (1, 1, 1, 1)


@settings(max_examples=60)
@given(
    g=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_zero_alpha_gives_window_sums(g, data):
    nd = 6 * g - 5
    half = data.draw(
        st.lists(st.integers(0, 6), min_size=nd // 2, max_size=nd // 2)
    )
    mid = [data.draw(st.integers(0, 6))] if nd % 2 else []
    dims = tuple([1] + half[1:] + mid + half[1:][::-1] + [1])
    assert dims == dims[::-1] and len(dims) == nd
    action = AlphaAction(g, dims, tuple([0] * (6 * g - 7)))
    t = serre_betti(action)
    for r in range(6 * g - 2):
        window = sum(
            dims[s] for s in (r, r - 1, r - 2, r - 3) if 0 <= s < nd
        )
        assert t[r] == window


@settings(max_examples=60)
@given(g=st.integers(min_value=2, max_value=4), data=st.data())
def test_symmetric_ranks_give_dual_output(g, data):
    nd, nr = 6 * g - 5, 6 * g - 7
    half = data.draw(st.lists(st.integers(0, 5), min_size=nd // 2 - 1, max_size=nd // 2 - 1))
    mid = [data.draw(st.integers(0, 5))] if nd % 2 else []
    dims = tuple([1] + half + mid + half[::-1] + [1])
    rhalf = [
        data.draw(st.integers(0, min(dims[s], dims[s + 2])))
        for s in range(nr // 2)
    ]
    rmid = (
        [data.draw(st.integers(0, min(dims[nr // 2], dims[nr // 2 + 2])))]
        if nr % 2
        else []
    )
    ranks = tuple(rhalf + rmid + rhalf[::-1])
    action = AlphaAction(g, dims, ranks)
    t = serre_betti(action)
    n = len(t.values)
    assert all(t.values[r] == t.values[n - 1 - r] for r in range(n))


@pytest.mark.parametrize("g", range(2, 7))
def test_total_dimension_identity(g):
    action = alpha_ranks_from_tables(g)
    total = sum(serre_betti(action).values)
    assert total == 4 * sum(action.dims) - 4 * sum(action.ranks)


# ---------------------------------------------------------------------------
# deriving profiles from the framed tables
# ---------------------------------------------------------------------------


def test_base_dims_genus2():
    assert base_dims(2) == (1, 0, 1, 4, 1, 0, 1)


def test_base_dims_grow_symmetric():
    for g in range(1, 8):
        d = base_dims(g)
        assert len(d) == 6 * g - 5
        assert d == d[::-1]
        assert d[0] == 1


def test_recovered_ranks_genus2_match_ring():
    assert alpha_ranks_from_tables(2).ranks == genus2_ring().ranks


@pytest.mark.parametrize("g", range(1, 7))
def test_profile_round_trip_through_gysin(g):
    assert serre_betti(alpha_ranks_from_tables(g)).values == mod2_table(g).values


# ---------------------------------------------------------------------------
# strict JSON i/o
# ---------------------------------------------------------------------------


def test_write_then_load_round_trip(tmp_path):
    p = tmp_path / "genus4.json"
    written = write_profile(p, 4)
    loaded = load_alpha_profile(p)
    assert loaded == written
    assert serre_betti(loaded).values == mod2_table(4).values


def test_load_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"genus": 2, "dims": [1], "alpha_ranks": [], "extra": 1}))
    with pytest.raises(ValidationError, match="unknown keys"):
        load_alpha_profile(p)


def test_load_rejects_missing_keys(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"genus": 2, "dims": [1, 0, 1, 4, 1, 0, 1]}))
    with pytest.raises(ValidationError, match="missing"):
        load_alpha_profile(p)


def test_load_rejects_non_integer_entries(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(
        json.dumps({"genus": 2, "dims": [1, 0, 1, 4.0, 1, 0, 1], "alpha_ranks": [1, 0, 0, 0, 1]})
    )
    with pytest.raises(ValidationError, match="integer"):
        load_alpha_profile(p)
