"""Gluing diagrams for split surfaces and what they force.

A genus a+g surface splits along a circle into pieces of genus a and g.
The comparison map lambda_r for the split is a two-row diagram: domain
summands indexed by how a homology class distributes over the pieces and
a 2-sphere factor, codomain summands of two colours ("red" collects the
half-space of the first piece against the second, "blue" the reverse),
and every arrow a boundary map of one piece tensored with an identity.
Kernels and cokernels of lambda glue into the Betti numbers of the
joined surface:

    h_r(joined) = |cok lambda_r| + |ker lambda_{r-1}|

Ranks of the arrows come from recorded :class:`~f2moduli.moduli.GenusData`;
matrices realising them come from :mod:`f2moduli._witness`.  The module
also carries the closed-form kernel/cokernel expressions for 1+g splits
at the degrees where the profiles force them, two rank engines for
lambda (a component count for the seed-0 witnesses, which make lambda
the incidence matrix of a graph, and dense elimination for any other
seed), a block Gaussian elimination for realised diagrams, one report
that turns any split into rows (:func:`split_report`), and one rank
inference for unrecorded arrows (:func:`infer_nu_ranks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import reference
from .betti import BettiTable, m_coeff, mod2_table
from .errors import ShapeError, ValidationError
from ._witness import WitnessSet, synthesize_witnesses
from .f2la import (
    BitMatrix,
    add,
    block_assemble,
    compose,
    edge_rank,
    inverse,
    kron,
    rank,
)
from .moduli import (
    GenusData,
    MapRef,
    assemble_genus_data,
    genus1_data,
    genus2_data,
    nplus_betti,
)

__all__ = [
    "EdgeSpec",
    "Diagram",
    "RealizedDiagram",
    "build_split",
    "realize",
    "describe",
    "ker_coker",
    "lambda_edges",
    "graph_ker_coker",
    "eliminate",
    "glue_from_rows",
    "is_forced_degree",
    "closed_form_ker_coker",
    "canonical_data",
    "hypothesis_data",
    "SplitRow",
    "SplitReport",
    "split_report",
    "infer_nu_ranks",
    "joint_scan22",
    "InferenceScan",
    "InferenceResult",
    "CandidateVerdict",
]

Label = tuple


@dataclass(frozen=True)
class EdgeSpec:
    """One arrow of a split diagram, before matrices are chosen.

    ``side`` says which piece's witness set supplies the map ("A" or
    "B"), ``family``/``degree`` pick the map, ``position`` says whether
    it acts on the left or right tensor factor, and ``factor`` is the
    dimension of the identity on the other factor.
    """

    side: str
    family: str
    degree: int
    position: str
    factor: int


@dataclass(frozen=True)
class Diagram:
    """Symbolic split diagram: summand dims plus profile-level edges."""

    genus_pair: tuple[int, int]
    degree: int
    summands: dict[Label, int]
    edges: dict[tuple[Label, Label], EdgeSpec]

    def domain_dim(self) -> int:
        return sum(d for l, d in self.summands.items() if l[0] == "dom")

    def codomain_dim(self) -> int:
        return sum(d for l, d in self.summands.items() if l[0] != "dom")


@dataclass(frozen=True)
class RealizedDiagram:
    """The same shape with explicit matrices on every edge."""

    summands: dict[Label, int]
    edges: dict[tuple[Label, Label], BitMatrix]


# the largest lambda a split or an inference may hold, in the form the engine
# that ranks it takes.  Packed for the dense engine, it admits every degree
# of 3+4, 2+5 and 1+6 (36 MiB at most) and refuses the middle degrees of 4+4,
# 2+6 and 1+7 (85 to 676 MiB).  As the edge list of the graph engine (two
# int64 ends per row; ranking holds a few times that besides) it admits 4+4,
# 2+6, 1+7, 4+5 and 5+5 (19.3 MiB at most) and refuses 5+6.  The same bound
# holds each piece's witnesses, packed: genus 7 (mu at most 15.3 MiB) passes,
# genus 8 and up do not.
MAX_LAMBDA_BYTES = 64 * 2**20


def build_split(r: int, a: int, g: int) -> Diagram:
    """The comparison diagram at degree r for the a+g split.

    Its shape reads only the Betti tables of the two pieces, so it does
    not depend on their ranks.  Zero-dimensional summands are dropped; a
    domain summand whose every potential target is zero stays, edge-free,
    and counts fully toward the kernel.
    """
    ha, hg, na, ng = mod2_table(a), mod2_table(g), nplus_betti(a), nplus_betti(g)
    top_a = 6 * a - 2  # framed degrees of the first piece
    summands: dict[Label, int] = {}
    for i in (0, 2):
        for j in range(top_a):
            dim = ha[j] * hg[r - i - j]
            if dim:
                summands[("dom", i, j)] = dim
    for k in range(6 * a + 1):
        dim = na[k] * hg[r - k]
        if dim:
            summands[("red", k)] = dim
    for j in range(top_a):
        dim = ha[j] * ng[r - j]
        if dim:
            summands[("blue", j)] = dim

    edges: dict[tuple[Label, Label], EdgeSpec] = {}
    for label in list(summands):
        if label[0] != "dom":
            continue
        _, i, j = label
        if i == 0:
            if ("red", j) in summands:
                edges[(label, ("red", j))] = EdgeSpec("A", "nu", j, "left", hg[r - j])
            if ("blue", j) in summands:
                edges[(label, ("blue", j))] = EdgeSpec("B", "nu", r - j, "right", ha[j])
        else:
            if ("red", j + 2) in summands:
                edges[(label, ("red", j + 2))] = EdgeSpec(
                    "A", "rho", j + 2, "left", hg[r - 2 - j]
                )
            if ("blue", j) in summands:
                edges[(label, ("blue", j))] = EdgeSpec(
                    "B", "rho", r - j, "right", ha[j]
                )
    return Diagram((a, g), r, summands, edges)


def _refuse_over_limit(what: str, rows: int, cols: int, size: int, form: str) -> None:
    if size > MAX_LAMBDA_BYTES:
        raise ValidationError(
            f"{what} is {rows} x {cols}, {size / 2**20:.1f} MiB {form}, "
            f"over the {MAX_LAMBDA_BYTES // 2**20} MiB limit"
        )


def _check_size(diag: Diagram, graph: bool) -> None:
    """Refuse a lambda over MAX_LAMBDA_BYTES in the form its engine takes."""
    rows, cols = diag.domain_dim(), diag.codomain_dim()
    size, form = (rows * 16, "as edges") if graph else (rows * -(-cols // 64) * 8, "packed")
    a, g = diag.genus_pair
    _refuse_over_limit(f"split {a}+{g} degree {diag.degree}: lambda", rows, cols, size, form)


def _check_witness_size(data: GenusData) -> None:
    """Refuse a genus whose witnesses hold a matrix over MAX_LAMBDA_BYTES packed.

    mu_r stacks nu_r over rho_r, so it is the largest matrix a synthesis
    builds and its self-check ranks, at every seed.
    """
    for r in range(6 * data.genus + 1):
        rows, cols = data.h[r] + data.h[r - 2], data.nplus[r]
        size = rows * -(-cols // 64) * 8
        _refuse_over_limit(f"genus {data.genus} witnesses: mu_{r}", rows, cols, size, "packed")


def realize(diag: Diagram, wa: WitnessSet, wb: WitnessSet) -> RealizedDiagram:
    """Substitute witness matrices for every edge profile."""
    mats: dict[tuple[Label, Label], BitMatrix] = {}
    for (src, dst), spec in diag.edges.items():
        w = wa if spec.side == "A" else wb
        m = w.nu[spec.degree] if spec.family == "nu" else w.rho[spec.degree]
        eye = BitMatrix.identity(spec.factor)
        mat = kron(m, eye) if spec.position == "left" else kron(eye, m)
        if (mat.rows, mat.cols) != (diag.summands[src], diag.summands[dst]):
            raise ShapeError(f"edge {src}->{dst} realised with the wrong shape")
        mats[(src, dst)] = mat
    return RealizedDiagram(dict(diag.summands), mats)


def _label_text(label: Label) -> str:
    return f"{label[0]}[{','.join(str(p) for p in label[1:])}]"


def describe(d: Diagram) -> list[str]:
    """Structured text dump of a diagram: summand dims, and for each edge
    the witness map it pulls in and the identity factor."""
    a, g = d.genus_pair
    out = [f"split {a}+{g} degree {d.degree}", "summands:"]
    for label in sorted(d.summands):
        out.append(f"  {_label_text(label)}: dim {d.summands[label]}")
    out.append("edges:")
    for (src, dst), e in sorted(d.edges.items()):
        out.append(
            f"  {_label_text(src)} -> {_label_text(dst)}: {e.family}_{e.degree} of side "
            f"{e.side}, {e.position} factor, x I_{e.factor}"
        )
    return out


def ker_coker(d: RealizedDiagram) -> tuple[int, int]:
    """Kernel and cokernel dimensions of the assembled block matrix."""
    doms = [l for l in d.summands if l[0] == "dom"]
    cods = [l for l in d.summands if l[0] != "dom"]
    row_of = {l: i for i, l in enumerate(doms)}
    col_of = {l: i for i, l in enumerate(cods)}
    blocks = {
        (row_of[s], col_of[t]): m for (s, t), m in d.edges.items()
    }
    total = block_assemble(
        blocks, [d.summands[l] for l in doms], [d.summands[l] for l in cods]
    )
    rk = rank(total)
    return total.rows - rk, total.cols - rk


def lambda_edges(diag: Diagram, wa: WitnessSet, wb: WitnessSet) -> tuple[np.ndarray, int]:
    """Lambda realised with seed-0 witnesses, as the two ends of each row.

    Seed-0 witnesses are partial injections of coordinates, so an arrow
    m x I_f or I_f x m sends each row to at most one column, and a domain
    summand has at most one red and one blue arrow: every row of lambda
    has at most two 1s.  Row i*f + t of kron(m, I_f) hits column
    c_i*f + t, and row t*m.rows + i of kron(I_f, m) hits t*m.cols + c_i,
    where c_i is the column row i of m hits.  Returns the ends, in the
    form :func:`~f2moduli.f2la.edge_rank` takes, and the number of
    columns; the ground vertex ``cols`` stands in for a missing end.
    Raises ShapeError where a row would get a third end, a witness row
    is not one column, or an arrow has the wrong shape.
    """
    offsets, rows, cols = {}, 0, 0
    for label, dim in diag.summands.items():
        if label[0] == "dom":
            offsets[label], rows = rows, rows + dim
        else:
            offsets[label], cols = cols, cols + dim
    # an end still at ``cols`` is an empty slot: every real end is below it
    ends = np.full((rows, 2), cols, dtype=np.int64)
    for (src, dst), spec in diag.edges.items():
        edge = f"edge {src}->{dst}"
        w = wa if spec.side == "A" else wb
        maps, hits = (w.nu, w.nu_hits) if spec.family == "nu" else (w.rho, w.rho_hits)
        if hits is None:
            raise ShapeError(f"{edge}: the witness is not a coordinate map")
        m, c, f = maps[spec.degree], hits[spec.degree], spec.factor
        if c.shape != (m.rows,):
            raise ShapeError(f"{edge}: a row of {spec.family}_{spec.degree} is not one column")
        if spec.position == "left":
            cell = (c[:, None] * f + np.arange(f)).ravel()
            live = np.repeat(c >= 0, f)
        else:
            cell = (np.arange(f)[:, None] * m.cols + c).ravel()
            live = np.tile(c >= 0, f)
        if (cell.size, m.cols * f) != (diag.summands[src], diag.summands[dst]):
            raise ShapeError(f"{edge} realised with the wrong shape")
        hit = np.flatnonzero(live)
        slot = (ends[offsets[src] + hit] != cols).sum(axis=1)
        if hit.size and slot.max() > 1:
            raise ShapeError(f"{edge} gives a row of lambda a third 1")
        ends[offsets[src] + hit, slot] = offsets[dst] + cell[hit]
    return ends, cols


def graph_ker_coker(diag: Diagram, wa: WitnessSet, wb: WitnessSet) -> tuple[int, int]:
    """Kernel and cokernel dimensions of lambda with seed-0 witnesses,
    from a component count of its graph; no matrix is built."""
    ends, cols = lambda_edges(diag, wa, wb)
    rk = edge_rank(ends, cols)
    return len(ends) - rk, cols - rk


def eliminate(d: RealizedDiagram) -> RealizedDiagram:
    """Cancel invertible edges until none remain.

    Pivoting on an invertible edge A: D -> C deletes D and C and adds the
    correction F A^-1 E to every edge D' -> C' with F: D' -> C and
    E: D -> C'.  This is block Gaussian elimination, so kernel and
    cokernel dimensions are preserved; the fixpoint is the reduced
    diagram.  Pivot choice is by sorted edge key, so the result is
    deterministic.
    """
    summands = dict(d.summands)
    edges = dict(d.edges)
    while True:
        pivot = None
        for key in sorted(edges):
            m = edges[key]
            if m.rows == m.cols > 0 and rank(m) == m.rows:
                pivot = key
                break
        if pivot is None:
            return RealizedDiagram(summands, edges)
        src, dst = pivot
        a_inv = inverse(edges.pop(pivot))
        into = [(s, edges.pop((s, t))) for (s, t) in sorted(edges) if t == dst]
        outof = [(t, edges.pop((s, t))) for (s, t) in sorted(edges) if s == src]
        for s2, f in into:
            for t2, e in outof:
                fill = compose(compose(f, a_inv), e)
                key = (s2, t2)
                edges[key] = add(edges[key], fill) if key in edges else fill
        del summands[src], summands[dst]


# ---------------------------------------------------------------------------
# rows and gluing
# ---------------------------------------------------------------------------


def glue_from_rows(rows: dict[int, tuple[int, int]], genus: int) -> BettiTable:
    """Assemble the joined-surface table from per-degree (ker, cok)."""
    n = 6 * genus - 2
    missing = [r for r in range(n) if r not in rows]
    if missing:
        raise ValidationError(f"gluing needs degrees 0..{n - 1}; missing {missing[0]}")
    values = tuple(
        rows[r][1] + (rows[r - 1][0] if r else 0) for r in range(n)
    )
    return BettiTable(genus, "F2", values, space="framed")


# ---------------------------------------------------------------------------
# closed forms for the 1+g split
# ---------------------------------------------------------------------------


def is_forced_degree(g: int, r: int) -> bool:
    """Degrees where the recorded profiles force rank lambda_r outright."""
    if r < 0:
        return False
    if r < 3 * g + 1:
        return r % 3 in (1, 2)
    if r == 3 * g + 1:
        return True
    return r >= 3 * g + 4 and r % 3 in (0, 1)


def closed_form_ker_coker(g: int, r: int) -> tuple[int, int] | None:
    """(|ker|, |cok|) of lambda_r for the 1+g split, where forced.

    Three bands: below the middle the kernel is h_{r-1} - m_{r-1} and the
    cokernel 2 h_{r-3} + h_{r-4} + m_{r-2}; at r = 3g+1 the kernel is
    h_{3g} with cokernel 2 h_{3g-2} + h_{3g-3} + m_{3g}; above, kernel
    h_{r-1} + m_r and cokernel 2 h_{r-3} + h_{r-4} - m_{r-1}.  Here h is
    the genus-g table and m the two-sided binomial weight.  Returns None
    at degrees the profiles leave open.
    """
    if not is_forced_degree(g, r):
        return None
    h = mod2_table(g)
    m = lambda k: m_coeff(g, k)  # noqa: E731
    if r == 3 * g + 1:
        out = (h[3 * g], 2 * h[3 * g - 2] + h[3 * g - 3] + m(3 * g))
    elif r < 3 * g + 1:
        out = (h[r - 1] - m(r - 1), 2 * h[r - 3] + h[r - 4] + m(r - 2))
    else:
        out = (h[r - 1] + m(r), 2 * h[r - 3] + h[r - 4] - m(r - 1))
    if min(out) < 0:
        raise ValidationError(f"closed form went negative at degree {r}")
    return out


# ---------------------------------------------------------------------------
# genus bundles for splitting
# ---------------------------------------------------------------------------


def hypothesis_data(g: int) -> GenusData:
    """A conjectural bundle for genera with no recorded ranks.

    It posits the maximum, rank nu_r = min(h_r, n_r), at every degree.
    The recorded genus-1 and genus-2 ranks all satisfy this, and it is
    surjective through the first half of the degrees, since n_r <= h_r
    for r < 3g - 3 at every genus from 1 to 15.  For g >= 3 this is a
    working hypothesis, not a theorem; treat anything derived from it
    accordingly.
    """
    h = mod2_table(g)
    np_table = nplus_betti(g)
    ranks = {r: min(h[r], np_table[r]) for r in range(6 * g + 1)}
    return assemble_genus_data(g, ranks)


# the genera with recorded ranks; every other genus rests on the hypothesis
_RECORDED = {1: genus1_data, 2: genus2_data}


def canonical_data(g: int) -> GenusData:
    """Recorded bundles for genus 1 and 2, max-rank hypothesis beyond."""
    return _RECORDED[g]() if g in _RECORDED else hypothesis_data(g)


# ---------------------------------------------------------------------------
# the split report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitRow:
    """One degree of a split: integers plus the symbolic diagram (no matrices).

    ``chain`` is the (ker, cok) the glue equation forces degree by degree
    from the joined table, known when every degree is covered.  The
    verdict is "forced" for a closed form or a one-point window,
    "consistent" when every realisation equals the chain and the recorded
    row, and "open" otherwise.
    """

    degree: int
    diagram: Diagram
    dom: int
    cod: int
    ker_interval: tuple[int, int]
    cok_interval: tuple[int, int]
    realized: dict[int, tuple[int, int]]  # witness seed -> (ker, cok)
    closed_form: tuple[int, int] | None
    chain: tuple[int, int] | None
    recorded: tuple[int, int] | None  # the published row, where one exists
    verdict: str


@dataclass(frozen=True)
class SplitReport:
    """A split's rows and what they show together; None where they cannot tell."""

    split: tuple[int, int]
    seeds: tuple[int, ...]
    rows: tuple[SplitRow, ...]
    stable: bool  # every seed realises the same rows
    glue_matches: bool | None  # the first seed's rows glue to the joined table
    chain_matches_recorded: bool | None
    realized_off_chain: tuple[int, ...]  # degrees where a realisation leaves the chain
    hypothesis_genera: tuple[int, ...]  # pieces whose bundle is hypothesis_data

    @property
    def ok(self) -> bool:
        """Seed-independent, and no divergence from the joined table or the records."""
        return (
            self.stable
            and self.glue_matches is not False
            and self.chain_matches_recorded is not False
        )

    @property
    def closed_forms_hold(self) -> bool:
        return all(
            row.closed_form is None or set(row.realized.values()) == {row.closed_form}
            for row in self.rows
        )


def _rank_bounds(diag: Diagram, da: GenusData, dg: GenusData) -> tuple[int, int]:
    """Exact submatrix bounds: every realisation has its rank in range.

    Restricting to the red columns makes the diagram block diagonal, one
    block per red summand, with block rank = rank mu_k * h_{r-k}; same
    for blue.  So both colour sums are exact submatrix ranks and honest
    lower bounds, while their sum, the domain and the codomain bound the
    rank above.
    """
    r = diag.degree
    red = sum(
        da.mu[k].rank * dg.h[r - k] for k in range(6 * da.genus + 1)
    )
    blue = sum(
        da.h[j] * dg.mu[r - j].rank
        for j in range(6 * da.genus - 2)
        if 0 <= r - j <= 6 * dg.genus
    )
    lo = max(red, blue)
    hi = min(diag.domain_dim(), diag.codomain_dim(), red + blue)
    if lo > hi:
        raise ValidationError(f"rank window empty at degree {r}")
    return lo, hi


def _glue_pairs(diagrams: dict[int, Diagram], da: GenusData, dg: GenusData, seed: int):
    """(ker, cok) by degree of ``diagrams`` realised with witness seed ``seed``.

    Seed 0 ranks lambda as a graph (:func:`graph_ker_coker`), since its
    witnesses are coordinate maps; any other seed by dense elimination of
    the realised diagram.  Every lambda over MAX_LAMBDA_BYTES in the form
    that engine takes, and every piece whose witnesses would hold a
    matrix over it, is refused here, before any witness is synthesised.
    Each piece's witnesses are synthesised once, on first use, and each
    degree is ranked on first use.
    """
    graph = seed == 0
    for diag in diagrams.values():
        _check_size(diag, graph)
    _check_witness_size(da)
    _check_witness_size(dg)

    @lru_cache(maxsize=None)
    def witnesses() -> tuple[WitnessSet, WitnessSet]:
        wa = synthesize_witnesses(da, seed)
        return wa, wa if dg is da else synthesize_witnesses(dg, seed)

    @lru_cache(maxsize=None)
    def pair(r: int) -> tuple[int, int]:
        if graph:
            return graph_ker_coker(diagrams[r], *witnesses())
        return ker_coker(realize(diagrams[r], *witnesses()))

    return pair


def split_report(a: int, g: int, seeds=(0,), degrees=None) -> SplitReport:
    """Everything the a+g split of the canonical bundles determines.

    For each degree (all of 0..6(a+g)-3 by default): the rank window, the
    (ker, cok) realised with each witness seed, the 1+g closed form, the
    chain, the recorded row and the verdict.
    """
    da = canonical_data(a)
    dg = da if a == g else canonical_data(g)
    n = 6 * (a + g) - 2
    degrees = list(range(n)) if degrees is None else list(degrees)
    for r in degrees:
        if not 0 <= r < n:
            raise ValidationError(f"degree {r} outside 0..{n - 1} for this split")
    target = mod2_table(a + g)
    covered = degrees == list(range(n))
    records = {}
    if (a, g) == (2, 2):
        records = dict(enumerate(zip(reference.SPLIT22_KER, reference.SPLIT22_COKER)))
    diagrams = {r: build_split(r, a, g) for r in degrees}
    pairs = {s: _glue_pairs(diagrams, da, dg, s) for s in seeds}
    rows = []
    for r in degrees:
        diag = diagrams[r]
        dom, cod = diag.domain_dim(), diag.codomain_dim()
        lo, hi = _rank_bounds(diag, da, dg)
        realized = {s: pair(r) for s, pair in pairs.items()}
        closed = closed_form_ker_coker(g, r) if a == 1 else None
        chain = None
        if covered:
            cok = target[r] - (rows[-1].chain[0] if rows else 0)
            chain = (dom - cod + cok, cok)
        if closed is not None or lo == hi:
            verdict = "forced"
        elif all(v == chain == records.get(r) for v in realized.values()):
            verdict = "consistent"
        else:
            verdict = "open"
        rows.append(SplitRow(r, diag, dom, cod, (dom - hi, dom - lo), (cod - hi, cod - lo),
                             realized, closed, chain, records.get(r), verdict))
    first = {row.degree: row.realized[seeds[0]] for row in rows}
    return SplitReport(
        (a, g),
        tuple(seeds),
        tuple(rows),
        stable=all(len(set(row.realized.values())) == 1 for row in rows),
        glue_matches=glue_from_rows(first, a + g).values == target.values if covered else None,
        chain_matches_recorded=(
            all(row.chain == row.recorded for row in rows) if covered and records else None
        ),
        realized_off_chain=tuple(
            row.degree for row in rows if covered and set(row.realized.values()) != {row.chain}
        ),
        hypothesis_genera=tuple(sorted({a, g} - _RECORDED.keys())),
    )


# ---------------------------------------------------------------------------
# rank inference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateVerdict:
    rank: int | tuple[int, ...]  # a tuple, one rank per unknown, when several are open
    status: str  # "consistent" | "inconsistent" | "infeasible"
    glue_value: int | None


@dataclass(frozen=True)
class InferenceResult:
    """Every candidate tested against the glue equation at one degree."""

    split: tuple[int, int]
    unknowns: tuple[MapRef, ...]
    at_degree: int
    target_value: int
    candidates: tuple[CandidateVerdict, ...]

    @property
    def deduced(self) -> int | tuple[int, ...] | None:
        """The rank of the only consistent candidate, else None."""
        hits = [c.rank for c in self.candidates if c.status == "consistent"]
        return hits[0] if len(hits) == 1 else None

    def lines(self) -> list[str]:
        u = ", ".join(m.notation() for m in self.unknowns)
        out = [
            f"infer rank {u} from the {self.split[0]}+{self.split[1]} split "
            f"at degree {self.at_degree} (target {self.target_value})"
        ]
        for c in self.candidates:
            shown = "-" if c.glue_value is None else str(c.glue_value)
            out.append(f"  rank {c.rank}: glue {shown} -> {c.status}")
        if self.deduced is None:
            out.append("  no unique rank deduced")
        else:
            out.append(f"  deduced rank {u} = {self.deduced}")
        return out


@dataclass(frozen=True)
class InferenceScan:
    """Glue checks in degree order, up to the first that pins one candidate."""

    checks: tuple[InferenceResult, ...]

    @property
    def passing(self) -> tuple[tuple[int | tuple[int, ...], bool], ...]:
        """Each candidate's rank, and whether every check found it consistent."""
        return tuple(
            (c.rank, all(check.candidates[i].status == "consistent" for check in self.checks))
            for i, c in enumerate(self.checks[0].candidates)
        )


def _with_nu_ranks(g: int, replacements: dict[int, int]) -> GenusData:
    """Canonical bundle with some nu ranks replaced."""
    base = canonical_data(g)
    ranks = {r: base.nu[r].rank for r in range(6 * g + 1)}
    ranks.update(replacements)
    return assemble_genus_data(g, ranks, base.constraints)


def infer_nu_ranks(
    a: int, g: int, unknowns: dict[MapRef, tuple[int, ...] | None], degrees=None
) -> InferenceScan:
    """Deduce unrecorded nu ranks from the glue equations of the a+g split.

    ``unknowns`` maps each open nu map to its candidate ranks, or to None
    for 0..min(h_s, n_s).  Each combination of candidates goes into the
    canonical bundles (infeasible if the mu and rho profiles rule it out),
    is realised once, and is tested against h_r = |cok lambda_r| +
    |ker lambda_{r-1}| at the glue degrees (by default all, 1..6(a+g)-3)
    in order, stopping at the first where exactly one combination passes.
    """
    top = 6 * (a + g) - 3
    degrees = range(1, top + 1) if degrees is None else list(degrees)
    for r in degrees:
        if not 1 <= r <= top:
            raise ValidationError(f"glue degree {r} outside 1..{top} for the {a}+{g} split")
    choices = []
    for ref, ranks in unknowns.items():
        if ref.family != "nu":
            raise ValidationError("only nu ranks are open for inference")
        if ref.genus not in (a, g):
            raise ValidationError(f"unknown map lives at genus {ref.genus}, split is {a}+{g}")
        if not 0 <= ref.degree <= 6 * ref.genus:
            raise ValidationError(f"no map {ref.notation()}: degrees run 0..{6 * ref.genus}")
        probe = canonical_data(ref.genus)
        top_rank = min(probe.h[ref.degree], probe.nplus[ref.degree])
        choices.append(range(top_rank + 1) if ranks is None else ranks)
    diagrams = {r: build_split(r, a, g) for r in sorted({*degrees, *(r - 1 for r in degrees)})}

    bundles = []
    for ranks in product(*choices):
        rank = ranks[0] if len(ranks) == 1 else ranks
        try:
            data = {
                k: _with_nu_ranks(k, {u.degree: v for u, v in zip(unknowns, ranks) if u.genus == k})
                for k in {a, g}
            }
        except ValidationError:
            bundles.append((rank, None))
            continue
        bundles.append((rank, _glue_pairs(diagrams, data[a], data[g], 0)))

    target = mod2_table(a + g)
    checks = []
    for r in degrees:
        verdicts = []
        for rank, pair in bundles:
            if pair is None:
                verdicts.append(CandidateVerdict(rank, "infeasible", None))
                continue
            value = pair(r)[1] + pair(r - 1)[0]
            status = "consistent" if value == target[r] else "inconsistent"
            verdicts.append(CandidateVerdict(rank, status, value))
        checks.append(InferenceResult((a, g), tuple(unknowns), r, target[r], tuple(verdicts)))
        if checks[-1].deduced is not None:
            break
    return InferenceScan(tuple(checks))


def joint_scan22() -> InferenceScan:
    """The joint scan of (nu_5, nu_6) at genus 2, the arrows the 2+2 rows pin down."""
    unknowns = {MapRef("nu", 5, 2): (4, 5), MapRef("nu", 6, 2): (4, 5)}
    return infer_nu_ranks(2, 2, unknowns, (8, 9, 10, 12))
