"""Linear algebra over GF(2): dense bit-packed matrices, and the rank of a
matrix with at most two 1s per row counted as a graph.

Matrices store each row as a strip of uint64 words, so row updates during
Gaussian elimination are whole-word XORs.  Column j is bit j % 64 of word
j // 64, packed and unpacked a whole array at a time by ``np.packbits``
with little-endian bit and byte order, so the layout is the same on every
platform.  All operations are pure: a ``BitMatrix`` is never mutated after
construction, and every routine that "modifies" a matrix returns a fresh
one.

Elimination has two engines.  A matrix of at most ``INT_RANK_BITS``
(2^20) bits, and every matrix :func:`inverse` takes, is eliminated on
its rows read as Python ints, bit-reversed so that a row's highest set
bit, its ``bit_length`` and pivot, is its leftmost column.  A larger
matrix is ranked by :func:`_strip_rank`, eight columns at a time (the
Four-Russians method) in a few numpy calls per strip: that per-call cost
outweighs the XORs on small matrices, and whole-word XORs beat int
arithmetic on large dense ones.  Both take the leftmost pivots the row
space allows, and the rank is the row space's dimension, the same
integer whichever engine runs.

A split diagram's blocks are maps tensored with identities, which
:func:`kron_assemble` packs into one matrix, a block at a time.

A matrix whose every row has at most two 1s never needs elimination: it
is the edge-vertex incidence matrix of a graph, and :func:`edge_rank`
counts its connected components instead (:func:`edge_roots` labels them;
:func:`compact_labels` renumbers the vertices a graph's edges touch).
"""

from __future__ import annotations

import functools
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError

WORD = 64
STRIP = 8  # columns per elimination step: one byte of a word
INT_RANK_BITS = 1 << 20  # largest matrix rank() eliminates as int rows

# byte b with its bits in reverse order, so column 0 is a byte's top bit
_REVERSED = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1), axis=1, bitorder="little"
).ravel()

__all__ = [
    "BitMatrix",
    "rank",
    "edge_rank",
    "edge_roots",
    "compact_labels",
    "compose",
    "gather_rows",
    "block_assemble",
    "kron",
    "kron_assemble",
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


def _strip_basis(codes: np.ndarray, live: np.ndarray, k: int) -> tuple[list[int], int]:
    """A strip's basis rows, from :func:`_candidates`, while their codes
    add to the span and up to ``k`` of them; and ``piv``, the union of
    their pivot bits (each the lowest set bit of a reduced basis code)."""
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
    return basis, piv


def _strip_codes(signed: np.ndarray, r: int, c0: int, cols: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The codes of the strip of columns c0.. (eight, or fewer at the end) in
    the rows from r on that have a bit there, those rows, counted from r,
    and the strip's width."""
    w, shift = divmod(c0, WORD)
    k = min(STRIP, cols - c0)
    codes = (signed[r:, w] >> shift) & ((1 << k) - 1)
    live = codes.nonzero()[0]
    return codes[live], live, k


def _table(active: np.ndarray, basis: list[int], shift: int, piv: int) -> tuple[np.ndarray, np.ndarray]:
    """Every nonzero combination of the basis rows of ``active``, and ``at``:
    its row ``at[p]`` is the one with the bits ``p`` at the pivots ``piv``
    of the strip that starts at bit ``shift`` of the first word."""
    flips, _ = _gray(len(basis))
    table = np.bitwise_xor.accumulate(active[np.array(basis)[flips]], axis=0)
    at = np.empty(1 << STRIP, dtype=np.intp)
    at[(table[:, 0].view(np.int64) >> shift) & piv] = np.arange(len(table))
    return table, at


def _retire(active: np.ndarray, basis: list[int]) -> None:
    """Make the first len(basis) slots of ``active`` the basis rows' own:
    each other row there moves to the slot of a basis row below them, so
    the rows still to eliminate follow the slots."""
    m = len(basis)
    below = [i for i in basis if i >= m]
    if below:
        for i, j in zip(below, [i for i in range(m) if i not in basis]):
            active[i] = active[j]


def _strip_rank(m: BitMatrix) -> int:
    """Rank over GF(2) by strips of eight columns, on a copy.

    This is the Four-Russians method (M4RI: Albrecht, Bard and Hart, ACM
    TOMS 2010).  A strip of eight columns is one byte of a word, so each
    row's bits there read as a code below 256.  The rows below the basis
    rows retired so far (the active rows) are zero left of the strip.  One
    active row per distinct code, in order until the codes' span is full,
    gives a basis of k rows (:func:`_strip_basis`).  Where other rows have
    a bit in the strip, a table of all 2^k combinations of the basis rows
    clears it from them in one gather and XOR, on the words from the strip
    onward.  The basis rows are then retired as they stand, and counted.
    """
    bits = m._bits.copy()
    signed = bits.view(np.int64)  # arithmetic shifts give index-typed codes
    r = 0
    for c0 in range(0, m.cols, STRIP):
        if r == m.rows:
            break
        codes, live, k = _strip_codes(signed, r, c0, m.cols)
        if not live.size:
            continue
        basis, piv = _strip_basis(codes, live, k)
        w, shift = divmod(c0, WORD)
        active = bits[r:, w:]
        if live.size > len(basis):
            table, at = _table(active, basis, shift, piv)
            active[live] ^= table[at[codes & piv]]
        _retire(active, basis)
        r += len(basis)
    return r


def _int_rows(m: BitMatrix) -> list[int]:
    """Each row of ``m`` as an int of 64 bits per word, column j at bit
    64 * words - 1 - j: its highest set bit is its leftmost column."""
    octets = _REVERSED[np.ascontiguousarray(m._bits, dtype="<u8").view(np.uint8)]
    data, n = octets.tobytes(), octets.shape[1]
    return [int.from_bytes(data[i : i + n], "big") for i in range(0, len(data), n)]


def _from_int_rows(rows: list[int], cols: int) -> BitMatrix:
    """Inverse of :func:`_int_rows`: the matrix with these rows."""
    data = b"".join(x.to_bytes(_words(cols) * (WORD // 8), "big") for x in rows)
    octets = _REVERSED[np.frombuffer(data, dtype=np.uint8)]
    return BitMatrix(len(rows), cols, octets.view("<u8").reshape(len(rows), _words(cols)))


def rank(m: BitMatrix) -> int:
    """Rank over GF(2): up to ``INT_RANK_BITS`` bits, each int row
    (:func:`_int_rows`) is reduced by the basis row of its highest set bit
    until it is zero or joins the basis there; larger matrices go to
    :func:`_strip_rank`."""
    if m.rows * m.cols > INT_RANK_BITS:
        return _strip_rank(m)
    basis = [0] * (_words(m.cols) * WORD + 1)
    r = 0
    for x in _int_rows(m):
        while x:
            b = x.bit_length()
            p = basis[b]
            if not p:
                basis[b] = x
                r += 1
                break
            x ^= p
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


def gather_rows(m: BitMatrix, index: np.ndarray) -> BitMatrix:
    """The matrix whose row i is row ``index[i]`` of ``m``, zero where it is -1:
    the product with ``m`` of the coordinate map that sends row i to index[i]."""
    index = np.asarray(index)
    live = index >= 0
    bits = np.zeros((index.size, m._bits.shape[1]), dtype=np.uint64)
    bits[live] = m._bits[index[live]]
    return BitMatrix(index.size, m.cols, bits)


def _grid(shapes, row_dims: Sequence[int], col_dims: Sequence[int]) -> tuple[list[int], list[int]]:
    """Row and column offsets of a block grid, and each (i, j) of ``shapes``,
    a dict of block shapes, checked to lie in the grid and fit its slot."""
    for (bi, bj), (rows, cols) in shapes.items():
        if not (0 <= bi < len(row_dims) and 0 <= bj < len(col_dims)):
            raise ShapeError(f"block ({bi}, {bj}) outside the {len(row_dims)}x{len(col_dims)} grid")
        if (rows, cols) != (row_dims[bi], col_dims[bj]):
            raise ShapeError(
                f"block ({bi}, {bj}) is {rows}x{cols}, "
                f"slot wants {row_dims[bi]}x{col_dims[bj]}"
            )
    return [0, *accumulate(row_dims)], [0, *accumulate(col_dims)]


def _or_block(out: np.ndarray, rows: slice, col: int, bits: np.ndarray) -> None:
    """OR packed rows into ``out[rows]`` from column ``col`` on.

    A shift that is not a multiple of the word size spills each word's
    top bits into the next word.  The rows' padding bits are zero, so the
    spill past their last column never reaches a word outside ``out``.
    """
    w0, shift = divmod(col, WORD)
    n = bits.shape[1]
    out[rows, w0 : w0 + n] |= bits << np.uint64(shift)
    if shift:
        end = min(w0 + 1 + n, out.shape[1])
        out[rows, w0 + 1 : end] |= bits[:, : end - w0 - 1] >> np.uint64(WORD - shift)


def block_assemble(
    blocks: dict[tuple[int, int], BitMatrix],
    row_dims: Sequence[int],
    col_dims: Sequence[int],
) -> BitMatrix:
    """Assemble a sparse dict of blocks into one matrix.

    ``blocks[(i, j)]`` is placed at block row ``i``, block column ``j``;
    missing blocks are zero.  Each block must match the declared dims.
    """
    row_off, col_off = _grid({ij: (b.rows, b.cols) for ij, b in blocks.items()}, row_dims, col_dims)
    out = np.zeros((row_off[-1], _words(col_off[-1])), dtype=np.uint64)
    for (bi, bj), blk in blocks.items():
        if blk.rows and blk.cols:
            _or_block(out, slice(row_off[bi], row_off[bi + 1]), col_off[bj], blk._bits)
    return BitMatrix(row_off[-1], col_off[-1], out)


def kron(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Kronecker product of two whole matrices, by way of dense arrays.

    A split diagram's blocks are packed by :func:`kron_assemble` instead,
    without staging a product per arrow; this is the general form.
    """
    # entry (i*b.rows + k, j*b.cols + l) is a[i, j] & b[k, l]
    da, db = a.to_dense(), b.to_dense()
    dense = da[:, None, :, None] & db[None, :, None, :]
    return BitMatrix.from_dense(dense.reshape(a.rows * b.rows, a.cols * b.cols))


def kron_assemble(
    blocks: dict[tuple[int, int], tuple[BitMatrix, int, bool]],
    row_dims: Sequence[int],
    col_dims: Sequence[int],
) -> BitMatrix:
    """Assemble blocks given as a map tensored with an identity, packed in one pass.

    ``blocks[(i, j)]`` is (m, f, left), the block kron(m, I_f) when
    ``left`` and kron(I_f, m) otherwise, placed as by
    :func:`block_assemble`.  With f = 1 the block is m, and its words OR
    in as they are.  Otherwise entry (i, j) of m sits at (i*f + t, j*f + t)
    of kron(m, I_f) and at (t*m.rows + i, t*m.cols + j) of kron(I_f, m),
    for each t < f, so one strided write puts m at every t.  Such a block
    is staged densely, alone, already shifted to its column's bit in the
    word, so its packed words OR straight into the output's.
    """
    shapes = {ij: (m.rows * f, m.cols * f) for ij, (m, f, _) in blocks.items()}
    row_off, col_off = _grid(shapes, row_dims, col_dims)
    out = np.zeros((row_off[-1], _words(col_off[-1])), dtype=np.uint64)
    for (bi, bj), (m, f, left) in blocks.items():
        (d, c), (rows, cols) = (m.rows, m.cols), shapes[bi, bj]
        if not rows or not cols:
            continue
        if f == 1:
            _or_block(out, slice(row_off[bi], row_off[bi + 1]), col_off[bj], m._bits)
            continue
        w0, shift = divmod(col_off[bj], WORD)
        n = _words(shift + cols)
        staged = np.zeros((rows, n * WORD), dtype=np.uint8)
        t, dense = np.arange(f), _unpack(m._bits, c)
        if left:
            staged.reshape(d, f, n * WORD)[:, :, shift : shift + cols].reshape(d, f, c, f)[:, t, :, t] = dense
        else:
            staged.reshape(f, d, n * WORD)[:, :, shift : shift + cols].reshape(f, d, f, c)[t, :, t, :] = dense
        out[row_off[bi] : row_off[bi + 1], w0 : w0 + n] |= np.packbits(
            staged, axis=1, bitorder="little"
        ).view("<u8")
    return BitMatrix(row_off[-1], col_off[-1], out)


def inverse(m: BitMatrix) -> BitMatrix:
    """Inverse of a square invertible matrix (Gauss-Jordan on [m | I]).

    Row i of [m | I] is m's int row (:func:`_int_rows`) over the n bits
    of I's, each reduced as in :func:`rank`; one that falls into I's bits
    is a dependent row of m.  Otherwise every column of m is a pivot, and
    each pivot row is cleared of the lower pivots' bits, lowest first.
    """
    if m.rows != m.cols:
        raise ShapeError(f"inverse of non-square {m.rows}x{m.cols}")
    n = m.rows
    pad = _words(n) * WORD - n
    basis = [0] * (2 * n + 1)
    for i, x in enumerate(_int_rows(m)):
        x = (x >> pad) << n | 1 << (n - 1 - i)
        b = x.bit_length()
        while b > n and basis[b]:
            x ^= basis[b]
            b = x.bit_length()
        if b <= n:
            raise ShapeError("matrix is singular")
        basis[b] = x
    for b in range(n + 2, 2 * n + 1):
        x, t = basis[b], (basis[b] >> n) ^ (1 << (b - n - 1))
        while t:
            c = t.bit_length()
            x ^= basis[n + c]
            t ^= 1 << (c - 1)
        basis[b] = x
    # row j of m^-1 is the identity half of the row whose pivot is column j
    low = (1 << n) - 1
    return _from_int_rows([(basis[2 * n - j] & low) << pad for j in range(n)], n)


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

