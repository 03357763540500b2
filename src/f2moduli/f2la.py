"""Linear algebra over GF(2): dense bit-packed matrices, and the rank of a
matrix with at most two 1s per row counted as a graph.

Matrices store each row as a strip of uint64 words, so row updates during
Gaussian elimination are whole-word XORs.  Column j is bit j % 64 of word
j // 64, packed and unpacked a whole array at a time by ``np.packbits``
with little-endian bit and byte order, so the layout is the same on every
platform.  All operations are pure: a ``BitMatrix`` is never mutated after
construction, and every routine that "modifies" a matrix returns a fresh
one.

Elimination uses a fixed pivot order (leftmost unused column first, then
topmost available row), which makes ranks, inverses and synthesized
witnesses reproducible across runs and platforms.

A matrix whose every row has at most two 1s never needs elimination: it
is the edge-vertex incidence matrix of a graph, and :func:`edge_rank`
counts its connected components instead.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError

WORD = 64

__all__ = [
    "BitMatrix",
    "rank",
    "edge_rank",
    "compose",
    "block_assemble",
    "kron",
    "inverse",
    "random_invertible",
    "rng_for",
]


def _words(cols: int) -> int:
    return max(1, (cols + WORD - 1) // WORD)


def _pack(arr: np.ndarray) -> np.ndarray:
    """Pack a 2-d array into rows of little-endian words; entry ``v`` is ``v & 1``.

    Column j lands in bit j % 64 of word j // 64; each row is padded with
    zero bytes to a whole number of words.
    """
    rows, cols = arr.shape
    packed = np.packbits((arr & 1).astype(np.uint8, copy=False), axis=1, bitorder="little")
    buf = np.zeros((rows, _words(cols) * (WORD // 8)), dtype=np.uint8)
    buf[:, : packed.shape[1]] = packed
    return buf.view("<u8")


def _unpack(bits: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of :func:`_pack`: the first ``cols`` bits of each row, as uint8."""
    octets = np.ascontiguousarray(bits, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, count=cols, bitorder="little")


class BitMatrix:
    """Immutable GF(2) matrix of shape ``rows x cols``.

    The packed storage is an internal detail; use :meth:`from_dense` and
    :meth:`to_dense` instead of touching ``_bits`` directly.
    """

    __slots__ = ("rows", "cols", "_bits")

    def __init__(self, rows: int, cols: int, bits: np.ndarray):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative shape ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        nw = _words(cols)
        bits = np.array(bits, dtype=np.uint64, copy=True)
        if bits.shape != (rows, nw):
            raise ShapeError(
                f"packed storage shape {bits.shape} does not match ({rows}, {nw})"
            )
        # Mask stray bits beyond the last valid column; block_assemble
        # shifts whole words and relies on this padding being zero.
        rem = cols % WORD
        if rem and nw:
            bits[:, -1] &= np.uint64((1 << rem) - 1)
        bits.setflags(write=False)
        self._bits = bits

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        bits = np.zeros((n, _words(n)), dtype=np.uint64)
        i = np.arange(n)
        bits[i, i // WORD] = np.uint64(1) << (i % WORD).astype(np.uint64)
        return cls(n, n, bits)

    @classmethod
    def from_rows(cls, data: Sequence[Iterable[int]], cols: int | None = None) -> "BitMatrix":
        """Build from an iterable of rows; an entry ``v`` sets its bit when ``v & 1``."""
        rows = list(map(list, data))
        if cols is None:
            cols = len(rows[0]) if rows else 0
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        ragged = np.flatnonzero(lengths != cols)
        if ragged.size:
            i = int(ragged[0])
            raise ShapeError(f"row {i} has length {len(rows[i])}, expected {cols}")
        # object dtype keeps Python's arbitrary-precision ``v & 1``
        arr = np.array(rows, dtype=object).reshape(len(rows), cols)
        return cls(len(rows), cols, _pack(arr))

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "BitMatrix":
        """Build from a 2-d array; an entry ``v`` sets its bit when ``v & 1``."""
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ShapeError(f"dense input must be 2-d, got shape {arr.shape}")
        return cls(arr.shape[0], arr.shape[1], _pack(arr))

    # -- views ---------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Unpack to a uint8 array of 0/1 entries."""
        return _unpack(self._bits, self.cols)

    # -- dunder --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self._bits, other._bits))
        )

    def __hash__(self):  # pragma: no cover - immutability guard only
        return hash((self.rows, self.cols, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols}, rank={rank(self)})"


# ---------------------------------------------------------------------------
# elimination core
# ---------------------------------------------------------------------------


def _echelon(bits: np.ndarray, rows: int, cols: int, reduced: bool = False):
    """In-place row echelon form with the fixed pivot order.

    Returns (rank, pivot column list).  With ``reduced`` the result is the
    Gauss-Jordan form (pivot columns cleared above the pivot as well).
    """
    r = 0
    pivots: list[int] = []
    for col in range(cols):
        if r == rows:
            break
        w = col // WORD
        b = np.uint64(col % WORD)
        colvals = (bits[r:, w] >> b) & np.uint64(1)
        nz = np.nonzero(colvals)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            bits[[r, p]] = bits[[p, r]]
        below = (bits[r + 1 :, w] >> b) & np.uint64(1)
        sel = np.nonzero(below)[0] + r + 1
        if sel.size:
            bits[sel] ^= bits[r]
        if reduced and r:
            above = (bits[:r, w] >> b) & np.uint64(1)
            sel = np.nonzero(above)[0]
            if sel.size:
                bits[sel] ^= bits[r]
        pivots.append(col)
        r += 1
    return r, pivots


def rank(m: BitMatrix) -> int:
    """Rank over GF(2), computed by packed Gaussian elimination."""
    if m.rows == 0 or m.cols == 0:
        return 0
    work = m._bits.copy()
    r, _ = _echelon(work, m.rows, m.cols)
    return r


def edge_rank(ends: np.ndarray, cols: int) -> int:
    """Rank over GF(2) of the matrix whose row k is e_u + e_v, (u, v) = ends[k].

    The columns are 0..cols-1; an end equal to ``cols`` is the ground
    vertex and adds nothing, so (c, cols) is a row with one 1 and
    (cols, cols) a zero row.  Adding the ground as a column equal to the
    sum of all the others keeps the rank and makes the matrix the
    incidence matrix of a graph on cols + 1 vertices, whose rank over
    GF(2) is (cols + 1) minus the number of connected components.

    Components come from vectorised hooking and pointer jumping
    (Shiloach and Vishkin, J. Algorithms 1982): each round points every
    root that an edge joins to a smaller root at the smallest such root,
    then flattens every tree to its root.
    """
    ends = np.asarray(ends, dtype=np.int64)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ShapeError(f"edge ends must be an (n, 2) array, got shape {ends.shape}")
    if ends.size and (ends.min() < 0 or ends.max() > cols):
        raise ShapeError(f"edge ends outside the columns 0..{cols}")
    parent = np.arange(cols + 1)
    u, v = ends[:, 0], ends[:, 1]
    while True:
        ru, rv = parent[u], parent[v]
        live = ru != rv
        if not live.any():
            # (cols + 1) - components: every vertex but the roots
            return int(np.count_nonzero(parent != np.arange(cols + 1)))
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def compose(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product ``a @ b`` over GF(2) (apply ``b`` first, then ``a``)."""
    if a.cols != b.rows:
        raise ShapeError(f"compose: a is {a.rows}x{a.cols}, b is {b.rows}x{b.cols}")
    dense = a.to_dense()
    out = np.zeros((a.rows, b._bits.shape[1]), dtype=np.uint64)
    for i in range(a.rows):
        sup = np.flatnonzero(dense[i])
        if sup.size:
            out[i] = np.bitwise_xor.reduce(b._bits[sup], axis=0)
    return BitMatrix(a.rows, b.cols, out)


def block_assemble(
    blocks: dict[tuple[int, int], BitMatrix],
    row_dims: Sequence[int],
    col_dims: Sequence[int],
) -> BitMatrix:
    """Assemble a sparse dict of blocks into one matrix.

    ``blocks[(i, j)]`` is placed at block row ``i``, block column ``j``;
    missing blocks are zero.  Each block must match the declared dims.
    """
    row_dims = list(row_dims)
    col_dims = list(col_dims)
    row_off = np.concatenate(([0], np.cumsum(row_dims))).astype(int)
    col_off = np.concatenate(([0], np.cumsum(col_dims))).astype(int)
    total_r, total_c = int(row_off[-1]), int(col_off[-1])
    out = np.zeros((total_r, _words(total_c)), dtype=np.uint64)
    for (bi, bj), blk in blocks.items():
        if not (0 <= bi < len(row_dims) and 0 <= bj < len(col_dims)):
            raise ShapeError(f"block ({bi}, {bj}) outside the {len(row_dims)}x{len(col_dims)} grid")
        if blk.rows != row_dims[bi] or blk.cols != col_dims[bj]:
            raise ShapeError(
                f"block ({bi}, {bj}) is {blk.rows}x{blk.cols}, "
                f"slot wants {row_dims[bi]}x{col_dims[bj]}"
            )
        if not blk.rows or not blk.cols:
            continue
        # OR the block's words in at its column offset; a shift that is not
        # a multiple of the word size spills each word's top bits into the
        # next word.  The block's padding bits are zero, so the spill past
        # its last column never reaches a word outside the output.
        rows = slice(row_off[bi], row_off[bi + 1])
        w0, shift = divmod(int(col_off[bj]), WORD)
        bits = blk._bits
        n = bits.shape[1]
        out[rows, w0 : w0 + n] |= bits << np.uint64(shift)
        if shift:
            end = min(w0 + 1 + n, out.shape[1])
            out[rows, w0 + 1 : end] |= bits[:, : end - w0 - 1] >> np.uint64(WORD - shift)
    return BitMatrix(total_r, total_c, out)


def kron(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Kronecker product; used for maps of the form (profile x identity)."""
    return BitMatrix.from_dense(np.kron(a.to_dense(), b.to_dense()))


def inverse(m: BitMatrix) -> BitMatrix:
    """Inverse of a square invertible matrix (Gauss-Jordan on [m | I])."""
    if m.rows != m.cols:
        raise ShapeError(f"inverse of non-square {m.rows}x{m.cols}")
    n = m.rows
    aug = np.concatenate([m.to_dense(), np.eye(n, dtype=np.uint8)], axis=1)
    work = BitMatrix.from_dense(aug)._bits.copy()
    r, pivots = _echelon(work, n, 2 * n, reduced=True)
    if r < n or pivots[:n] != list(range(n)):
        raise ShapeError("matrix is singular")
    full = BitMatrix(n, 2 * n, work).to_dense()
    return BitMatrix.from_dense(full[:, n:])


# ---------------------------------------------------------------------------
# deterministic witnesses
# ---------------------------------------------------------------------------


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Generator keyed by (seed, tag); stable across platforms and runs."""
    # hashlib loads OpenSSL; only seeded witnesses need it, so seed-0 runs
    # never import it
    import hashlib

    h = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(h, "little")))


def random_invertible(n: int, rng: np.random.Generator) -> BitMatrix:
    """Random invertible n x n matrix, built as P @ L @ U.

    Unit-diagonal triangular factors and a permutation guarantee
    invertibility without rejection sampling.
    """
    lo = np.tril(rng.integers(0, 2, size=(n, n), dtype=np.uint8), k=-1) + np.eye(n, dtype=np.uint8)
    up = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), k=1) + np.eye(n, dtype=np.uint8)
    perm = rng.permutation(n)
    prod = (lo @ up) & 1
    return BitMatrix.from_dense(prod[perm])

