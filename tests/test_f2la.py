"""Tests for the bit-packed GF(2) linear algebra layer.

Ranks are checked against an independent oracle (naive full elimination on
Python int bitmasks) and kernel dimensions against exhaustive null-space
enumeration on small matrices.  The strip elimination engine is checked
against per-column elimination kept here as a reference, and seeded
products against digests of their outputs.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2moduli import f2la
from f2moduli.errors import ShapeError
from f2moduli.f2la import BitMatrix

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_rank(rows: list[int], cols: int) -> int:
    """Naive elimination on int bitmask rows, no pivot-order guarantees."""
    rows = list(rows)
    r = 0
    for col in range(cols):
        bit = 1 << col
        pivot = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        r += 1
    return r


def to_masks(m: BitMatrix) -> list[int]:
    dense = m.to_dense()
    return [int(sum(int(v) << j for j, v in enumerate(row))) for row in dense]


def oracle_kernel_dim_exhaustive(m: BitMatrix) -> int:
    """Count null-space vectors by brute force; kernel dim is the log2."""
    dense = m.to_dense().astype(np.uint8)
    count = 0
    for vec in itertools.product((0, 1), repeat=m.cols):
        v = np.array(vec, dtype=np.uint8)
        if m.cols == 0 or not ((dense @ v) & 1).any():
            count += 1
    assert count & (count - 1) == 0
    return count.bit_length() - 1


def random_matrix(rng: np.random.Generator, rows: int, cols: int) -> BitMatrix:
    return BitMatrix.from_dense(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


# ---------------------------------------------------------------------------
# word-level packing
# ---------------------------------------------------------------------------

WORD_BOUNDARY_WIDTHS = [0, 1, 63, 64, 65, 127, 128, 129]


def padding_bits(m: BitMatrix) -> np.ndarray:
    """Every stored bit past the last column, one row per matrix row."""
    octets = m._bits.astype("<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little")[:, m.cols :]


def check_packed(dense: np.ndarray, m: BitMatrix) -> None:
    """``m`` holds ``dense`` bit j of row i in bit j % 64 of word j // 64."""
    assert (m.rows, m.cols) == dense.shape
    for i, row in enumerate(dense.tolist()):
        mask = sum(v << j for j, v in enumerate(row))
        words = [(mask >> (64 * k)) & (2**64 - 1) for k in range(m._bits.shape[1])]
        assert [int(w) for w in m._bits[i]] == words
        assert np.flatnonzero(m.to_dense()[i]).tolist() == [j for j, v in enumerate(row) if v]
    assert not padding_bits(m).any()


def round_trip(rows: int, cols: int, seed: int) -> None:
    dense = np.random.default_rng(seed).integers(0, 2, size=(rows, cols), dtype=np.uint8)
    m = BitMatrix.from_dense(dense)
    out = m.to_dense()
    assert out.dtype == np.uint8 and np.array_equal(out, dense)
    check_packed(dense, m)
    assert BitMatrix.from_rows(dense.tolist(), cols) == m


@pytest.mark.parametrize("cols", WORD_BOUNDARY_WIDTHS)
@given(st.integers(0, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_dense_round_trip_at_word_boundaries(cols, rows, seed):
    round_trip(rows, cols, seed)


@given(st.integers(0, 5), st.integers(0, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_dense_round_trip_random_width(rows, cols, seed):
    round_trip(rows, cols, seed)


@given(st.integers(0, 5), st.integers(0, 140), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_packing_reads_the_low_bit(rows, cols, seed):
    arr = np.random.default_rng(seed).integers(0, 4, size=(rows, cols))
    flags = arr.astype(bool)
    assert BitMatrix.from_dense(arr) == BitMatrix.from_dense(arr & 1)
    assert BitMatrix.from_dense(flags) == BitMatrix.from_dense(flags & 1)
    assert BitMatrix.from_rows(arr.tolist(), cols) == BitMatrix.from_dense(arr & 1)


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ShapeError, match="row 2 has length 1, expected 2"):
        BitMatrix.from_rows([[1, 0], [0, 1], [1]])


@pytest.mark.parametrize("n", WORD_BOUNDARY_WIDTHS)
def test_identity_matches_numpy(n):
    m = BitMatrix.identity(n)
    assert np.array_equal(m.to_dense(), np.eye(n, dtype=np.uint8))
    assert not padding_bits(m).any()


@given(
    st.tuples(st.integers(0, 6), st.integers(0, 40)),
    st.tuples(st.integers(0, 5), st.integers(0, 40)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40)
def test_kron_matches_numpy(shape_a, shape_b, seed):
    rng = np.random.default_rng(seed)
    a, b = random_matrix(rng, *shape_a), random_matrix(rng, *shape_b)
    out = f2la.kron(a, b)
    assert np.array_equal(out.to_dense(), np.kron(a.to_dense(), b.to_dense()))
    assert not padding_bits(out).any()


def assemble_both_ways(rng, row_dims, col_dims, fill):
    """Random blocks assembled by block_assemble and by numpy slicing."""
    row_off, col_off = np.cumsum([0, *row_dims]), np.cumsum([0, *col_dims])
    dense = np.zeros((row_off[-1], col_off[-1]), dtype=np.uint8)
    blocks = {}
    for i, j in itertools.product(range(len(row_dims)), range(len(col_dims))):
        if rng.random() < 0.7:
            blk = fill(rng, row_dims[i], col_dims[j])
            blocks[(i, j)] = BitMatrix.from_dense(blk)
            dense[row_off[i] : row_off[i + 1], col_off[j] : col_off[j + 1]] = blk
    return f2la.block_assemble(blocks, row_dims, col_dims), dense


@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=3),
    st.lists(st.integers(0, 150), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60)
def test_block_assemble_matches_dense_reference(row_dims, col_dims, seed):
    rng = np.random.default_rng(seed)
    out, dense = assemble_both_ways(
        rng, row_dims, col_dims, lambda r, n, k: r.integers(0, 2, size=(n, k), dtype=np.uint8)
    )
    assert np.array_equal(out.to_dense(), dense)
    assert not padding_bits(out).any()


@pytest.mark.parametrize(
    "col_dims", [[1, 63, 1], [3, 64, 61, 130], [65, 127], [63, 2, 64], [7, 0, 121, 1]]
)
def test_block_assemble_spills_across_words(col_dims):
    # all-ones blocks at column offsets that are not multiples of 64 set
    # every bit that a word shift carries into the next word
    rng = np.random.default_rng(31)
    out, dense = assemble_both_ways(
        rng, [3, 2], col_dims, lambda r, n, k: np.ones((n, k), dtype=np.uint8)
    )
    assert np.array_equal(out.to_dense(), dense)
    assert not padding_bits(out).any()


# ---------------------------------------------------------------------------
# rank and kernel
# ---------------------------------------------------------------------------


def test_rank_identity():
    assert f2la.rank(BitMatrix.identity(7)) == 7


def test_rank_zero_matrix():
    assert f2la.rank(BitMatrix.from_dense(np.zeros((4, 9), np.uint8))) == 0


def test_rank_single_dependency():
    m = BitMatrix.from_dense(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert f2la.rank(m) == 2  # third row is the sum of the first two


def test_rank_matches_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r, c = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        m = random_matrix(rng, r, c)
        assert f2la.rank(m) == oracle_rank(to_masks(m), c)


def test_rank_wide_matrix_crosses_word_boundary():
    # 70 columns forces a second uint64 word per row.
    rng = np.random.default_rng(3)
    m = random_matrix(rng, 40, 70)
    assert f2la.rank(m) == oracle_rank(to_masks(m), 70)


def test_kernel_dim_exhaustive_small():
    rng = np.random.default_rng(11)
    for _ in range(25):
        r, c = int(rng.integers(0, 8)), int(rng.integers(0, 10))
        m = random_matrix(rng, r, c)
        assert m.cols - f2la.rank(m) == oracle_kernel_dim_exhaustive(m)


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_rank_nullity(rows, cols, seed):
    m = random_matrix(np.random.default_rng(seed), rows, cols)
    assert f2la.rank(m) + oracle_kernel_dim_exhaustive(m) == cols


@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_rank_invariant_under_permutations(rows, cols, seed):
    rng = np.random.default_rng(seed)
    dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    shuffled = dense[rng.permutation(rows)][:, rng.permutation(cols)]
    assert f2la.rank(BitMatrix.from_dense(dense)) == f2la.rank(BitMatrix.from_dense(shuffled))


def test_rank_invariant_under_transpose():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = random_matrix(rng, int(rng.integers(0, 10)), int(rng.integers(0, 10)))
        assert f2la.rank(m) == f2la.rank(BitMatrix.from_dense(m.to_dense().T))


def edge_matrix(ends: np.ndarray, cols: int) -> BitMatrix:
    """The matrix whose row k is e_u + e_v, (u, v) = ends[k]; an end equal to cols adds nothing."""
    dense = np.zeros((len(ends), cols + 1), dtype=np.uint8)
    for k, (u, v) in enumerate(ends):
        dense[k, u] ^= 1
        dense[k, v] ^= 1
    return BitMatrix.from_dense(dense[:, :cols])


def check_edge_rank(rows: int, cols: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    ends = rng.integers(0, cols + 1, size=(rows, 2))
    # a repeated row, an empty row and a row whose ends coincide (also empty)
    extra = [ends[rng.integers(rows)]] if rows else []
    extra += [(cols, cols), (cols // 2, cols // 2)]
    ends = np.concatenate([ends, np.array(extra, dtype=ends.dtype).reshape(-1, 2)])
    assert f2la.edge_rank(ends, cols) == f2la.rank(edge_matrix(ends, cols))


@pytest.mark.parametrize("cols", [0, 1, 63, 64, 65])
@given(st.integers(0, 80), st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_edge_rank_matches_elimination_at_word_boundaries(cols, rows, seed):
    check_edge_rank(rows, cols, seed)


@given(st.integers(0, 80), st.integers(0, 200), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_edge_rank_matches_elimination_random_width(rows, cols, seed):
    check_edge_rank(rows, cols, seed)


def test_edge_rank_of_a_long_path_and_a_cycle():
    n = 500
    path = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)  # n + 1 vertices, ground last
    assert f2la.edge_rank(path[::-1], n) == n
    cycle = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    assert f2la.edge_rank(cycle, n) == n - 1


def check_contraction(fixed: np.ndarray, moving: np.ndarray, cols: int) -> None:
    """r(F + V) = r(F) + the rank of V with F contracted: V's ends mapped to F's roots."""
    roots = f2la.edge_roots(fixed, cols)
    assert np.array_equal(roots[roots], roots)  # one root per component
    both = np.concatenate([fixed, moving]).reshape(-1, 2)
    contracted = f2la.edge_rank(roots[moving].reshape(-1, 2), cols)
    assert f2la.rank(edge_matrix(fixed, cols)) + contracted == f2la.rank(edge_matrix(both, cols))


@given(st.integers(0, 60), st.integers(0, 40), st.integers(0, 130), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_contracted_rank_adds_to_the_fixed_rank(fixed, moving, cols, seed):
    rng = np.random.default_rng(seed)
    f = rng.integers(0, cols + 1, size=(fixed, 2))
    f[: fixed // 4, 1] = cols  # rows with one 1: an end at the ground vertex
    v = rng.integers(0, cols + 1, size=(moving, 2))
    v[: moving // 4, 0] = cols
    check_contraction(f, v, cols)
    check_contraction(f, v[:0], cols)  # nothing moves


@given(st.integers(1, 60), st.integers(0, 130), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_rows_inside_fixed_components_contract_to_self_loops(fixed, cols, seed):
    rng = np.random.default_rng(seed)
    f = rng.integers(0, cols + 1, size=(fixed, 2))
    roots = f2la.edge_roots(f, cols)
    # each moving row joins two vertices of one fixed component, the ground's too
    u = rng.integers(0, cols + 1, size=fixed)
    mates = np.array([rng.choice(np.flatnonzero(roots == roots[x])) for x in u])
    v = np.stack([u, mates], axis=1)
    assert f2la.edge_rank(roots[v], cols) == 0
    check_contraction(f, v, cols)


@given(st.integers(0, 60), st.integers(0, 40), st.integers(0, 130), st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_compacted_contracted_rank_is_the_edge_rank(fixed, moving, cols, seed):
    """r(F + V) = r(F) + the rank of V's contracted ends on only the roots
    they touch, renumbered 0..k-1; with ground ends, self-loops and an empty V."""
    rng = np.random.default_rng(seed)
    f = rng.integers(0, cols + 1, size=(fixed, 2))
    f[: fixed // 4, 1] = cols  # rows with one 1: an end at the ground vertex
    v = rng.integers(0, cols + 1, size=(moving, 2))
    v[: moving // 4, 0] = cols
    v[moving // 4 : moving // 2, 1] = v[moving // 4 : moving // 2, 0]  # self-loops: zero rows
    roots = f2la.edge_roots(f, cols)
    for part in (v, v[:0]):
        labels, k = f2la.compact_labels(roots[part])
        assert labels.shape == part.shape and k == len(set(roots[part].ravel().tolist()))
        # the renumbering keeps the order of the roots, so it is one to one
        assert np.array_equal(np.argsort(labels.ravel(), kind="stable"),
                              np.argsort(roots[part].ravel(), kind="stable"))
        both = np.concatenate([f, part])
        assert f2la.edge_rank(f, cols) + f2la.edge_rank(labels, k - 1) == f2la.edge_rank(both, cols)


def test_compact_labels_of_nothing_and_of_one_value():
    labels, k = f2la.compact_labels(np.zeros((0, 2), dtype=np.int64))
    assert (labels.shape, k) == ((0, 2), 0)
    assert f2la.edge_rank(labels, k - 1) == 0  # an empty graph on no vertices
    labels, k = f2la.compact_labels(np.array([[7, 7], [7, 7]]))
    assert labels.tolist() == [[0, 0], [0, 0]] and k == 1


def test_edge_roots_label_each_component_by_one_vertex():
    # columns 0..5, ground 6: {0, 2, 6} joined (2 -> ground), {1, 3}, 4 and 5 alone
    roots = f2la.edge_roots(np.array([[2, 0], [3, 1], [2, 6]]), 6)
    assert roots.tolist() == [0, 1, 0, 1, 4, 5, 0]
    assert f2la.edge_rank(np.array([[2, 0], [3, 1], [2, 6]]), 6) == 3
    assert f2la.edge_roots(np.zeros((0, 2), dtype=np.int64), 3).tolist() == [0, 1, 2, 3]


def test_edge_rank_rejects_ends_outside_the_columns():
    with pytest.raises(ShapeError):
        f2la.edge_rank(np.array([[0, 4]]), 3)
    with pytest.raises(ShapeError):
        f2la.edge_rank(np.array([[-1, 0]]), 3)
    with pytest.raises(ShapeError):
        f2la.edge_rank(np.array([0, 1, 2, 3]), 3)


# ---------------------------------------------------------------------------
# strip elimination against per-column elimination
# ---------------------------------------------------------------------------


def column_echelon(bits: np.ndarray, rows: int, cols: int, reduced: bool = False):
    """Reference: in-place echelon form one column at a time, leftmost
    unused column first and the topmost available row as its pivot.

    Returns (rank, pivot column list), as ``f2la._echelon`` does.
    """
    r = 0
    pivots: list[int] = []
    for col in range(cols):
        if r == rows:
            break
        w = col // f2la.WORD
        b = np.uint64(col % f2la.WORD)
        nz = np.nonzero((bits[r:, w] >> b) & np.uint64(1))[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            bits[[r, p]] = bits[[p, r]]
        sel = np.nonzero((bits[r + 1 :, w] >> b) & np.uint64(1))[0] + r + 1
        if sel.size:
            bits[sel] ^= bits[r]
        if reduced and r:
            sel = np.nonzero((bits[:r, w] >> b) & np.uint64(1))[0]
            if sel.size:
                bits[sel] ^= bits[r]
        pivots.append(col)
        r += 1
    return r, pivots


def awkward_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A random matrix, possibly of low rank (so every strip is rank
    deficient), with zero rows, repeated rows and all-zero column bands."""
    dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    if not rows or not cols:
        return dense
    if rng.random() < 0.4:
        k = int(rng.integers(0, 12))
        left = rng.integers(0, 2, size=(rows, k), dtype=np.int64)
        dense = (left @ rng.integers(0, 2, size=(k, cols), dtype=np.int64) % 2).astype(np.uint8)
    if rng.random() < 0.5:
        dense[rng.integers(0, rows, size=rows // 3)] = 0
        dense[rng.integers(0, rows, size=rows // 2)] = dense[rng.integers(0, rows, size=rows // 2)]
    if rng.random() < 0.4:
        start = int(rng.integers(0, cols))
        dense[:, start : start + int(rng.integers(1, 20))] = 0
    return dense


def check_echelon(dense: np.ndarray) -> None:
    rows, cols = dense.shape
    m = BitMatrix.from_dense(dense)
    for reduced in (False, True):
        ours, ref = m._bits.copy(), m._bits.copy()
        got = f2la._echelon(ours, rows, cols, reduced)
        assert got == column_echelon(ref, rows, cols, reduced)
        if not reduced:
            # an echelon form of the same row space: nothing below the
            # rank, and the same reduced form
            assert not ours[got[0] :].any()
            column_echelon(ours, rows, cols, reduced=True)
            column_echelon(ref, rows, cols, reduced=True)
        assert np.array_equal(ours, ref)
    assert f2la.rank(m) == got[0]


def reference_inverse(m: BitMatrix) -> BitMatrix:
    n = m.rows
    aug = np.concatenate([m.to_dense(), np.eye(n, dtype=np.uint8)], axis=1)
    work = BitMatrix.from_dense(aug)._bits.copy()
    column_echelon(work, n, 2 * n, reduced=True)
    return BitMatrix.from_dense(BitMatrix(n, 2 * n, work).to_dense()[:, n:])


@pytest.mark.parametrize("cols", WORD_BOUNDARY_WIDTHS)
@given(st.integers(0, 140), st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_echelon_matches_column_reference_at_word_boundaries(cols, rows, seed):
    check_echelon(awkward_matrix(np.random.default_rng(seed), rows, cols))


@given(st.integers(0, 140), st.integers(0, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_echelon_matches_column_reference_random_width(rows, cols, seed):
    check_echelon(awkward_matrix(np.random.default_rng(seed), rows, cols))


def test_echelon_of_full_strips_repeated_rows_and_one_row_per_code():
    # every code of a strip present, every row repeated, and rows that are
    # unit vectors in reverse order: the basis fills from late candidates
    codes = np.arange(256, dtype=np.uint8)
    dense = np.unpackbits(codes[:, None], axis=1, bitorder="little")
    check_echelon(np.concatenate([dense, dense[::-1]]))
    check_echelon(np.tile(np.eye(70, dtype=np.uint8)[::-1], (3, 1)))
    check_echelon(np.ones((90, 129), dtype=np.uint8))


@pytest.mark.parametrize("n", [0, *WORD_BOUNDARY_WIDTHS[1:], 200])
def test_inverse_matches_column_reference(n):
    m = f2la.random_invertible(n, np.random.default_rng(n))
    assert f2la.inverse(m) == reference_inverse(m)
    assert f2la.compose(m, f2la.inverse(m)) == BitMatrix.identity(n)


# ---------------------------------------------------------------------------
# compose / add / assemble
# ---------------------------------------------------------------------------


def test_compose_matches_dense_matmul():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n, k, m = (int(rng.integers(0, 9)) for _ in range(3))
        a, b = random_matrix(rng, n, k), random_matrix(rng, k, m)
        expect = (a.to_dense().astype(int) @ b.to_dense().astype(int)) % 2
        assert np.array_equal(f2la.compose(a, b).to_dense(), expect.astype(np.uint8))


def test_compose_shape_mismatch():
    with pytest.raises(ShapeError):
        f2la.compose(
            BitMatrix.from_dense(np.zeros((2, 3), np.uint8)),
            BitMatrix.from_dense(np.zeros((4, 2), np.uint8)),
        )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_compose_rank_bound(seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    b = random_matrix(rng, a.cols, int(rng.integers(1, 9)))
    assert f2la.rank(f2la.compose(a, b)) <= min(f2la.rank(a), f2la.rank(b))


def test_block_assemble_single_block_is_identity_operation():
    rng = np.random.default_rng(17)
    m = random_matrix(rng, 5, 4)
    assert f2la.block_assemble({(0, 0): m}, [5], [4]) == m


def test_block_assemble_layout():
    a = BitMatrix.identity(2)
    b = BitMatrix.from_dense(np.array([[1], [1]]))
    out = f2la.block_assemble({(0, 0): a, (1, 1): b}, [2, 2], [2, 1])
    expect = BitMatrix.from_dense(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]))
    assert out == expect


def test_block_assemble_rejects_misfit():
    with pytest.raises(ShapeError, match=r"\(0, 1\)"):
        misfit = BitMatrix.from_dense(np.zeros((2, 2), np.uint8))
        f2la.block_assemble({(0, 1): misfit}, [2], [2, 3])


def test_block_assemble_rank_additive_when_diagonal():
    rng = np.random.default_rng(23)
    a, b = random_matrix(rng, 4, 5), random_matrix(rng, 3, 6)
    out = f2la.block_assemble({(0, 0): a, (1, 1): b}, [4, 3], [5, 6])
    assert f2la.rank(out) == f2la.rank(a) + f2la.rank(b)


def test_kron_with_identity():
    rng = np.random.default_rng(29)
    m = random_matrix(rng, 3, 2)
    out = f2la.kron(m, BitMatrix.identity(4))
    assert (out.rows, out.cols) == (12, 8)
    assert f2la.rank(out) == 4 * f2la.rank(m)


def test_inverse_round_trip():
    rng = f2la.rng_for(1, "inv-test")
    for n in (1, 2, 5, 9):
        m = f2la.random_invertible(n, rng)
        assert f2la.compose(m, f2la.inverse(m)) == BitMatrix.identity(n)


def test_inverse_rejects_singular():
    with pytest.raises(ShapeError, match="singular"):
        f2la.inverse(BitMatrix.from_dense(np.array([[1, 1], [1, 1]])))


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------


def test_rng_for_draws_are_pinned():
    # seeded witnesses are built from these draws; they must not move
    assert f2la.rng_for(3, "w2:dom:4").integers(0, 2**32, size=4).tolist() == [
        1739123023, 2332858672, 2762182288, 1012693289,
    ]


def test_random_invertible_is_invertible():
    for seed in range(10):
        rng = f2la.rng_for(seed, "ri")
        n = 1 + seed % 7
        assert f2la.rank(f2la.random_invertible(n, rng)) == n


# sha256 (first 16 hex digits) of compose, kron and random_invertible on the
# random inputs of ``pinned_outputs``, recorded from the per-row compose,
# np.kron and dense L @ U they replaced
PRODUCT_DIGESTS = {
    0: ("6f39c3941133a52a", "eda5026c194f7279", "eda5026c194f7279"),
    1: ("3dbf6e348a186609", "7a02df606a657603", "26819ab2cf61aaaf"),
    64: ("a1cf72d098859c20", "bf0ffb621417e9bc", "4d3354a35db2c966"),
    65: ("252fb24a28343417", "094af3349060f618", "dc46b0b4dbf4fb93"),
    200: ("5b6210572c7d774d", "2505c6baaef10ac9", "636f173e7ba18c7f"),
}


def digest(*mats: BitMatrix) -> str:
    """Digest of the shapes and little-endian words of the given matrices."""
    h = hashlib.sha256()
    for m in mats:
        h.update(f"{m.rows}x{m.cols};".encode())
        h.update(np.ascontiguousarray(m._bits, dtype="<u8").tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("n", sorted(PRODUCT_DIGESTS))
def test_products_are_pinned(n):
    rng = np.random.default_rng(n)
    a, b = random_matrix(rng, n, n + 7), random_matrix(rng, n + 7, n + 3)
    c, d = random_matrix(rng, n, 3), random_matrix(rng, 2, n)
    got = f2la.compose(a, b), f2la.kron(c, d), f2la.random_invertible(n, rng)
    assert tuple(map(digest, got)) == PRODUCT_DIGESTS[n]
