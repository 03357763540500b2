"""Linear algebra over GF(2): dense bit-packed matrices, and the rank of a
matrix with at most two 1s per row counted as a graph.

Matrices store each row as a strip of uint64 words, so row updates during
Gaussian elimination are whole-word XORs.  Column j is bit j % 64 of word
j // 64, packed and unpacked a whole array at a time by ``np.packbits``
with little-endian bit and byte order, so the layout is the same on every
platform.  All operations are pure: a ``BitMatrix`` is never mutated after
construction, and every routine that "modifies" a matrix returns a fresh
one.

Elimination clears eight columns at a time with tables of row
combinations (the Four-Russians method).  Its pivots are the leftmost
columns that the row space allows, and its reduced form is the unique
reduced echelon form: the row space fixes both, so which rows serve as
pivots does not matter, and ranks, pivot lists, inverses and synthesized
witnesses are the same on every run and platform.

A matrix whose every row has at most two 1s never needs elimination: it
is the edge-vertex incidence matrix of a graph, and :func:`edge_rank`
counts its connected components instead (:func:`edge_roots` labels them;
:func:`compact_labels` renumbers the vertices a graph's edges touch).
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError

WORD = 64
STRIP = 8  # columns per elimination step: one byte of a word

__all__ = [
    "BitMatrix",
    "rank",
    "edge_rank",
    "edge_roots",
    "compact_labels",
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


@functools.cache
def _gray(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gray-code order for a table of the 2^k - 1 nonzero XORs of k rows.

    Step i of the k-bit Gray code flips row ``flips[i]``, so accumulating
    XOR over the rows in that order reaches every nonzero combination
    once.  The combination that holds row j when bit j of c is set is
    reached at step ``place[c]``.
    """
    step = np.arange(1, 1 << k)
    place = np.zeros(1 << k, dtype=np.intp)
    place[step ^ (step >> 1)] = step - 1
    flips = np.log2(step & -step).astype(np.intp)
    flips.setflags(write=False)
    place.setflags(write=False)
    return flips, place


def _candidates(codes: np.ndarray, live: np.ndarray):
    """(code, row) pairs from which a strip's basis grows: the distinct
    codes of its first live rows in order of appearance, then one row for
    every distinct code, so the codes' span is complete when they run out.
    """
    head = 64  # enough rows to fill a strip's basis when the codes are dense
    yield from dict(zip(codes[:head].tolist(), live[:head].tolist())).items()
    if codes.size > head:
        rep = np.empty(1 << STRIP, dtype=np.intp)
        rep[codes] = live
        present = np.bincount(codes, minlength=1 << STRIP).nonzero()[0]
        yield from zip(present.tolist(), rep[present].tolist())


def _echelon(bits: np.ndarray, rows: int, cols: int, reduced: bool = False):
    """In-place row echelon form, eight columns at a time.

    Returns (rank, pivot column list).  With ``reduced`` the result is the
    Gauss-Jordan form (pivot columns cleared above the pivot as well).

    This is the Four-Russians method (M4RI: Albrecht, Bard and Hart, ACM
    TOMS 2010).  A strip of eight columns is one byte of a word, so each
    row's bits there read as a code below 256.  The rows below the pivots
    found so far (the active rows) are zero left of the strip.  One active
    row per distinct code, taken in order until the codes' span is full,
    gives the strip's pivots and a basis of m rows.  A table of all 2^m
    combinations of the basis rows then clears the strip from every active
    row, and with ``reduced`` from the finished pivot rows as well, in one
    gather and XOR.  Table rows are zero left of the strip, so only the
    words from the strip onward are touched.
    """
    signed = bits.view(np.int64)  # arithmetic shifts give index-typed codes
    r = 0
    pivots: list[int] = []
    for c0 in range(0, cols, STRIP):
        if r == rows:
            break
        w, shift = divmod(c0, WORD)
        k = min(STRIP, cols - c0)
        active = bits[r:, w:]
        codes = (signed[r:, w] >> shift) & ((1 << k) - 1)
        live = codes.nonzero()[0]
        if not live.size:
            continue
        codes = codes[live]
        # ech maps each pivot bit (a lowest set bit) to the reduced basis
        # code that holds it; piv is their union
        basis, ech, piv = [], {}, 0
        for c, i in _candidates(codes, live):
            t = c & piv
            while t:
                lb = t & -t
                c ^= ech[lb]
                t ^= lb
            if c:
                lb = c & -c
                for p, e in ech.items():
                    if e & lb:
                        ech[p] = e ^ c
                ech[lb] = c
                piv |= lb
                basis.append(i)
                if len(basis) == k:
                    break
        m = len(basis)
        flips, _ = _gray(m)
        table = np.bitwise_xor.accumulate(active[np.array(basis)[flips]], axis=0)
        # a row's bits at the pivots pick the one table row that clears them
        at = np.empty(1 << STRIP, dtype=np.intp)
        at[(table[:, 0].view(np.int64) >> shift) & piv] = np.arange(len(table))
        active[live] ^= table[at[codes & piv]]
        if reduced and r:
            done = (signed[:r, w] >> shift) & piv
            hit = done.nonzero()[0]
            bits[hit, w:] ^= table[at[done[hit]]]
        # the basis rows are now zero: move the rows in the pivot slots into
        # them, and put the reduced strip rows, in pivot order, in the slots
        movers = [i for i in range(m) if i not in basis]
        if movers:
            active[[i for i in basis if i >= m]] = active[movers]
        order = sorted(ech)
        active[:m] = table[at[order]]
        pivots.extend(c0 + lb.bit_length() - 1 for lb in order)
        r += m
    return r, pivots


def rank(m: BitMatrix) -> int:
    """Rank over GF(2), computed by packed Gaussian elimination."""
    if m.rows == 0 or m.cols == 0:
        return 0
    work = m._bits.copy()
    r, _ = _echelon(work, m.rows, m.cols)
    return r


def edge_roots(ends: np.ndarray, cols: int) -> np.ndarray:
    """The root of each vertex's component in the graph of :func:`edge_rank`.

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
            return parent
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def edge_rank(ends: np.ndarray, cols: int) -> int:
    """Rank over GF(2) of the matrix whose row k is e_u + e_v, (u, v) = ends[k].

    The columns are 0..cols-1; an end equal to ``cols`` is the ground
    vertex and adds nothing, so (c, cols) is a row with one 1 and
    (cols, cols) a zero row.  Adding the ground as a column equal to the
    sum of all the others keeps the rank and makes the matrix the
    incidence matrix of a graph on cols + 1 vertices, whose rank over
    GF(2) is (cols + 1) minus the number of connected components.
    """
    return int(np.count_nonzero(edge_roots(ends, cols) != np.arange(cols + 1)))


def compact_labels(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` renumbered 0..k-1 in increasing order, and k, the number of
    distinct values.

    Relabelling the vertices a set of edges touches this way gives a graph
    on k vertices with the same :func:`edge_rank`, since a vertex no edge
    touches adds nothing to it.  The renumbering sorts: ``np.unique``
    would give the same, but imports ``numpy.ma``, over a MiB of resident
    memory.
    """
    values = np.asarray(values, dtype=np.int64)
    flat = values.ravel()
    order = np.argsort(flat)
    step = np.zeros(flat.size, dtype=np.int64)
    step[1:] = flat[order[1:]] != flat[order[:-1]]  # 1 where the sorted values rise
    labels = np.empty_like(flat)
    labels[order] = np.cumsum(step)
    return labels.reshape(values.shape), int(step.sum()) + 1 if flat.size else 0


def _product(a: np.ndarray, inner: int, b: np.ndarray) -> np.ndarray:
    """Packed rows of a @ b over GF(2), where ``a`` has ``inner`` columns.

    The Four-Russians product (M4RM): for each strip of eight columns of
    ``a``, a table holds every XOR of the matching rows of ``b``, and each
    row of ``a`` whose strip code is nonzero takes its table row.
    """
    signed = a.view(np.int64)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint64)
    for c0 in range(0, inner, STRIP):
        w, shift = divmod(c0, WORD)
        k = min(STRIP, inner - c0)
        codes = (signed[:, w] >> shift) & ((1 << k) - 1)
        live = codes.nonzero()[0]
        if not live.size:
            continue
        flips, place = _gray(k)
        table = np.bitwise_xor.accumulate(b[c0 + flips], axis=0)
        out[live] ^= table[place[codes[live]]]
    return out


def compose(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product ``a @ b`` over GF(2) (apply ``b`` first, then ``a``)."""
    if a.cols != b.rows:
        raise ShapeError(f"compose: a is {a.rows}x{a.cols}, b is {b.rows}x{b.cols}")
    return BitMatrix(a.rows, b.cols, _product(a._bits, a.cols, b._bits))


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
    # entry (i*b.rows + k, j*b.cols + l) is a[i, j] & b[k, l]
    da, db = a.to_dense(), b.to_dense()
    dense = da[:, None, :, None] & db[None, :, None, :]
    return BitMatrix.from_dense(dense.reshape(a.rows * b.rows, a.cols * b.cols))


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
    below = np.tri(n, k=-1, dtype=np.uint8)
    lo = rng.integers(0, 2, size=(n, n), dtype=np.uint8) * below
    up = rng.integers(0, 2, size=(n, n), dtype=np.uint8) * below.T
    lo.flat[:: n + 1] = up.flat[:: n + 1] = 1
    perm = rng.permutation(n)
    return BitMatrix(n, n, _product(_pack(lo), n, _pack(up))[perm])

