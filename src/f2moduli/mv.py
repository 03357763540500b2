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
seed), one report that turns any split into rows (:func:`split_report`),
and one rank inference for unrecorded arrows (:func:`infer_nu_ranks`).
Its candidates share lambda's rank per set of maps, and pay only for the
maps they change: each degree's rows that read none are contracted once
per scan, and a candidate synthesises, and ranks, only its changed maps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np

from . import reference
from .betti import BettiTable, m_coeff, mod2_table
from .errors import ShapeError, ValidationError
from ._witness import WitnessSet, synthesize_witnesses
from .f2la import (
    BitMatrix,
    block_assemble,
    compact_labels,
    edge_rank,
    edge_roots,
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
    nu_profile,
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


# the largest lambda, or witness set, a split or an inference may hold, in
# the form the engine of its seed keeps it (:func:`_check_sizes`); README's
# limits paragraph gives the splits and genera it admits and refuses.
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


def _check_sizes(diagrams: dict[int, Diagram], a: int, g: int, seeds) -> None:
    """Refuse, before any synthesis, an a+g split whose witnesses or lambdas
    would hold over MAX_LAMBDA_BYTES in the form the engine of a seed keeps.

    Seed 0 keeps each piece's witnesses as hit maps, one int64 per
    coordinate of every nu_r and rho_r (mu_r's domain), and lambda as the
    graph engine's two int64 ends per row.  Other seeds pack both; mu_r
    stacks nu_r over rho_r, so it is the largest witness matrix such a
    synthesis builds and its self-check ranks.  Shapes come from the
    canonical ladders, which every inference candidate shares.
    """
    packed = lambda rows, cols: rows * -(-cols // 64) * 8  # noqa: E731
    for seed in seeds:
        sizes = []  # (what, bytes, form), in the order they are refused
        for k in (a, g):
            mu = canonical_data(k).mu
            if seed == 0:
                coords = sum(p.dom for p in mu)
                sizes.append((f"genus {k} witnesses: {coords} coordinates", coords * 8, "as hits"))
                continue
            for r, p in enumerate(mu):
                what = f"genus {k} witnesses: mu_{r} is {p.dom} x {p.cod}"
                sizes.append((what, packed(p.dom, p.cod), "packed"))
        for d in diagrams.values():
            rows, cols = d.domain_dim(), d.codomain_dim()
            size, form = (rows * 16, "as edges") if seed == 0 else (packed(rows, cols), "packed")
            sizes.append((f"split {a}+{g} degree {d.degree}: lambda is {rows} x {cols}", size, form))
        for what, size, form in sizes:
            if size > MAX_LAMBDA_BYTES:
                raise ValidationError(
                    f"{what}, {size / 2**20:.1f} MiB {form}, "
                    f"over the {MAX_LAMBDA_BYTES // 2**20} MiB limit"
                )


def realize(diag: Diagram, wa: WitnessSet, wb: WitnessSet) -> RealizedDiagram:
    """Substitute witness matrices for every edge profile."""
    mats: dict[tuple[Label, Label], BitMatrix] = {}
    for (src, dst), spec in diag.edges.items():
        w = wa if spec.side == "A" else wb
        m = w.matrix(spec.family, spec.degree)
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


def _offsets(diag: Diagram, summands=None) -> tuple[dict, dict, int, int]:
    """Row offset of each domain summand (of ``summands``, if given) and column
    offset of each codomain summand of lambda, in the order of ``diag.summands``,
    and the numbers of rows and columns."""
    rows_at, cols_at, rows, cols = {}, {}, 0, 0
    for label, dim in diag.summands.items():
        if label[0] != "dom":
            cols_at[label], cols = cols, cols + dim
        elif summands is None or label in summands:
            rows_at[label], rows = rows, rows + dim
    return rows_at, cols_at, rows, cols


def _arrow_hits(diag: Diagram, src: Label, dst: Label, spec: EdgeSpec,
                w: WitnessSet) -> tuple[np.ndarray, np.ndarray]:
    """The rows of summand ``src`` that the arrow to ``dst`` sends to a column,
    and those columns of ``dst``, with seed-0 witnesses ``w`` on its side.

    Seed-0 witnesses are partial injections of coordinates, so m x I_f and
    I_f x m send each row to at most one column: row i*f + t of kron(m, I_f)
    hits column c_i*f + t, and row t*m.rows + i of kron(I_f, m) hits
    t*m.cols + c_i, where c_i (-1 for none) is the column row i of m hits.
    Raises ShapeError where a witness row is not one column, or the arrow
    has the wrong shape.
    """
    hits = w.nu_hits if spec.family == "nu" else w.rho_hits
    if hits is None:
        raise ShapeError(f"edge {src}->{dst}: the witness is not a coordinate map")
    m = getattr(w.data, spec.family)[spec.degree]  # its profile gives the shape
    c, f = hits[spec.degree], spec.factor
    if c.shape != (m.dom,):
        raise ShapeError(f"edge {src}->{dst}: a row of {spec.family}_{spec.degree} is not one column")
    if (m.dom * f, m.cod * f) != (diag.summands[src], diag.summands[dst]):
        raise ShapeError(f"edge {src}->{dst} realised with the wrong shape")
    live, t = (c >= 0).nonzero()[0], np.arange(f)
    if spec.position == "left":
        return (live[:, None] * f + t).ravel(), (c[live][:, None] * f + t).ravel()
    return (t[:, None] * m.dom + live).ravel(), (t[:, None] * m.cod + c[live]).ravel()


def lambda_edges(diag: Diagram, wa: WitnessSet, wb: WitnessSet,
                 summands=None, skip=()) -> tuple[np.ndarray, int]:
    """Lambda with seed-0 witnesses as the two ends of each row (of ``summands``, if given).

    A domain summand has at most one red and one blue arrow, and each
    sends a row to at most one column (:func:`_arrow_hits`), so every row
    of lambda has at most two 1s.  Returns the ends, in the form
    :func:`~f2moduli.f2la.edge_rank` takes, and the number of columns; the
    ground vertex ``cols`` stands in for a missing end, and an arrow
    (src, dst) in ``skip`` is left out.  Each arrow has one slot for all
    the rows of its summand: the summand's first arrow in the order of
    ``diag.edges`` slot 0, its second slot 1; a row the first misses
    keeps the ground in slot 0, which the rank does not see.  Raises
    ShapeError where a summand has a third arrow, a witness row is not
    one column, or an arrow has the wrong shape.
    """
    rows_at, cols_at, rows, cols = _offsets(diag, summands)
    # an end still at ``cols`` is an empty slot: every real end is below it
    ends = np.full((rows, 2), cols, dtype=np.int64)
    placed = dict.fromkeys(rows_at, 0)  # arrows written so far, per domain summand
    for (src, dst), spec in diag.edges.items():
        if src not in rows_at or (src, dst) in skip:
            continue
        hit, cell = _arrow_hits(diag, src, dst, spec, wa if spec.side == "A" else wb)
        slot = placed[src]
        if slot > 1:
            raise ShapeError(f"edge {src}->{dst} gives a row of lambda a third 1")
        placed[src] = slot + 1
        ends[rows_at[src] + hit, slot] = cols_at[dst] + cell
    return ends, cols


def graph_ker_coker(diag: Diagram, wa: WitnessSet, wb: WitnessSet) -> tuple[int, int]:
    """Kernel and cokernel dimensions of lambda with seed-0 witnesses,
    from a component count of its graph; no matrix is built."""
    ends, cols = lambda_edges(diag, wa, wb)
    rk = edge_rank(ends, cols)
    return diag.domain_dim() - rk, cols - rk


class _Contraction:
    """Lambda_r of an inference scan, split where the candidates differ.

    The base F is the rows of the domain summands none of whose arrows
    reads a map the scan changes; its rank ``base`` is the same for every
    candidate.  The moving rows V are the rest, ranked on the graph of F
    contracted: each end goes to the root of its component of F
    (:func:`~f2moduli.f2la.edge_roots`), and rank lambda = rank F + rank V
    there (Oxley, *Matroid Theory*, 3.1).  Its vertices are only the
    ``vertices`` roots an end of V can reach, compacted to 0..vertices-1
    (:func:`~f2moduli.f2la.compact_labels`).  ``ends`` holds V's ends from
    the arrows that read no changed map; an end that is missing or read
    from a changed map is the ground's.  ``arrows`` lists the arrows that
    read a changed map, as (src, dst, spec, first row of src in V, slot,
    the vertex of each column of dst).  A candidate fills in only those
    ends, from its own hits.
    """

    def __init__(self, arrows: tuple, base: int, ends: np.ndarray, vertices: int, dom: int, cols: int):
        self.arrows, self.base, self.ends, self.vertices, self.dom, self.cols = (
            arrows, base, ends, vertices, dom, cols
        )

    @classmethod
    def of(cls, diag: Diagram, wa: WitnessSet, wb: WitnessSet, changed) -> _Contraction | None:
        """The split of lambda_r for the maps ``changed`` (genus, family,
        degree), from witnesses with the scan's other maps; None where
        lambda_r reads none of them."""
        w = (wa, wb)
        moves = [(src, dst, e) for (src, dst), e in diag.edges.items()
                 if (w[e.side == "B"].data.genus, e.family, e.degree) in changed]
        if not moves:
            return None
        moving = {src for src, _, _ in moves}
        roots = edge_roots(*lambda_edges(diag, wa, wb, set(diag.summands) - moving))
        skip = {(src, dst) for src, dst, _ in moves}
        ends, cols = lambda_edges(diag, wa, wb, moving, skip)
        # a moving summand's unchanged arrow, if any, has slot 0, as
        # lambda_edges numbers the arrows it writes per summand; the changed
        # arrows, whose ends each candidate makes itself, take the slots after it
        used = {src: 0 for src in moving}
        for src, _ in diag.edges.keys() - skip:
            if src in moving:
                used[src] += 1
        slots = []
        for src, dst, _ in moves:
            slots.append(used[src])
            used[src] += 1
            if slots[-1] > 1:
                raise ShapeError(f"edge {src}->{dst} gives a row of lambda a third 1")
        rows_at, cols_at, _, _ = _offsets(diag, moving)
        reach = [roots[ends].ravel(), *(roots[cols_at[dst]:cols_at[dst] + diag.summands[dst]]
                                        for _, dst, _ in moves)]
        labels, vertices = compact_labels(np.concatenate(reach))
        labels = np.split(labels, np.cumsum([r.size for r in reach])[:-1])
        arrows = tuple((src, dst, e, rows_at[src], slot, to)
                       for (src, dst, e), slot, to in zip(moves, slots, labels[1:]))
        base = int(np.count_nonzero(roots != np.arange(cols + 1)))
        return cls(arrows, base, labels[0].reshape(-1, 2), vertices, diag.domain_dim(), cols)

    def plans(self, wa: WitnessSet, wb: WitnessSet) -> tuple:
        """The plans of the changed maps, which with the base fix lambda_r."""
        w = (wa, wb)
        return tuple(w[e.side == "B"].plans[e.family == "rho"][e.degree] for _, _, e, *_ in self.arrows)

    def ker_coker(self, diag: Diagram, wa: WitnessSet, wb: WitnessSet) -> tuple[int, int]:
        """(ker, cok) of lambda_r with these witnesses; only V's changed ends are made."""
        ends = self.ends.copy()
        for src, dst, e, row, slot, to in self.arrows:
            hit, cell = _arrow_hits(diag, src, dst, e, wb if e.side == "B" else wa)
            ends[row + hit, slot] = to[cell]
        rk = self.base + edge_rank(ends, self.vertices - 1)
        return self.dom - rk, self.cols - rk


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
    return assemble_genus_data(g, {r: _max_nu_rank(g, r) for r in range(6 * g + 1)})


def _max_nu_rank(g: int, s: int) -> int:
    """The largest rank nu_s can have, min(h_s, n_s)."""
    return min(mod2_table(g)[s], nplus_betti(g)[s])


# the genera with recorded ranks; every other genus rests on the hypothesis
_RECORDED = {1: genus1_data, 2: genus2_data}


@lru_cache(maxsize=None)
def canonical_data(g: int) -> GenusData:
    """Recorded bundles for genus 1 and 2, max-rank hypothesis beyond; built once."""
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


class _Shared:
    """What the candidates of a seed-0 inference scan share (:func:`_glue_pairs`)."""

    def __init__(self):
        self.syntheses = {}  # genus -> nu ranks -> WitnessSet
        self.built = {}  # plan -> hit map
        self.counted = {}  # (nu_r, rho_r) plans -> self-check counts
        self.signatures = {}  # (genus, plans of the unchanged maps) -> id
        self.bases = {}  # (r, signatures) -> _Contraction, or None
        self.ranks = {}  # (r, signatures[, plans of the changed maps]) -> (ker, cok)


def _glue_pairs(diagrams: dict[int, Diagram], da: GenusData, dg: GenusData, seed: int,
                shared: _Shared | None = None, changed=()):
    """(ker, cok) by degree of ``diagrams`` realised with witness seed ``seed``.

    Seed 0 ranks lambda as a graph, since its witnesses are coordinate
    maps; any other seed by dense elimination of the realised diagram.
    The caller has refused what is over MAX_LAMBDA_BYTES
    (:func:`_check_sizes`).  Each piece's witnesses are synthesised once,
    on first use, and each degree is ranked on first use.

    ``shared`` is fresh unless a seed-0 inference scan passes the same one
    to all its candidates, so that they share work:

    * witness sets by genus and nu ranks: a piece no candidate changes is
      synthesised once, and every other synthesis of a genus is made
      ``like`` the first (every bundle :func:`canonical_data` and
      :func:`_with_nu_ranks` make has the mu, rho, h and n of its genus),
      so it makes only the plans of the maps its nu ranks change, their
      hit maps only where no earlier candidate had the plan, and its
      self-check counts only new (nu_r, rho_r) pairs of plans;
    * a signature of each piece's witnesses: its genus and the plans of
      every map not in ``changed`` (genus, family, degree);
    * by degree and signatures, the :class:`_Contraction` of lambda_r, made
      once per scan and degree, or None where lambda_r reads no changed map;
    * (ker, cok) by degree, signatures and the plans of the changed maps
      lambda_r reads, which fix lambda_r at seed 0.

    So a candidate's ranking reads only the maps it changes: a degree that
    reads none is ranked whole, once per scan, and keeps no roots, as does
    every degree of a split report.  A changed map left out of ``changed``
    lies in the signature, so it costs sharing, never a wrong rank.
    """
    shared = _Shared() if shared is None else shared

    @lru_cache(maxsize=None)
    def witnesses() -> tuple[WitnessSet, WitnessSet]:
        out = []
        for data in (da, dg):
            made = shared.syntheses.setdefault(data.genus, {})
            key = tuple(p.rank for p in data.nu)
            if key not in made:
                made[key] = synthesize_witnesses(
                    data, seed, built=shared.built, counted=shared.counted,
                    like=next(iter(made.values()), None),
                )
            out.append(made[key])
        return tuple(out)

    @lru_cache(maxsize=None)
    def signatures() -> tuple[int, int]:
        out = []
        for w in witnesses():
            k = w.data.genus
            fixed = tuple(None if (k, family, d) in changed else plan
                          for family, plans in zip(("nu", "rho"), w.plans)
                          for d, plan in enumerate(plans))
            out.append(shared.signatures.setdefault((k, fixed), len(shared.signatures)))
        return tuple(out)

    @lru_cache(maxsize=None)
    def pair(r: int) -> tuple[int, int]:
        if seed != 0:
            return ker_coker(realize(diagrams[r], *witnesses()))
        diag, w = diagrams[r], witnesses()
        fixed = (r, *signatures())
        if fixed not in shared.bases:
            shared.bases[fixed] = _Contraction.of(diag, *w, changed)
        base = shared.bases[fixed]
        key = fixed if base is None else (fixed, *base.plans(*w))
        if key not in shared.ranks:
            shared.ranks[key] = graph_ker_coker(diag, *w) if base is None else base.ker_coker(diag, *w)
        return shared.ranks[key]

    return pair


def split_report(a: int, g: int, seeds=(0,), degrees=None) -> SplitReport:
    """Everything the a+g split of the canonical bundles determines.

    For each degree (all of 0..6(a+g)-3 by default): the rank window, the
    (ker, cok) realised with each witness seed, the 1+g closed form, the
    chain, the recorded row and the verdict.
    """
    da = canonical_data(a)
    dg = canonical_data(g)
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
    _check_sizes(diagrams, a, g, seeds)
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
    """Canonical bundle with some nu ranks replaced; the bundle itself when none are.
    Only those nu profiles are new: no nu rank changes mu or rho."""
    base = canonical_data(g)
    if not replacements:
        return base
    nu = list(base.nu)
    for r in sorted(replacements):
        nu[r] = nu_profile(r, replacements[r], base.mu[r], base.rho[r])
    return replace(base, nu=tuple(nu))


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
    Candidates share ranks: lambda_r is ranked once for each distinct set
    of witness maps it reads, its rows that read no map an unknown changes
    (nu_s and rho_{s+2}) are contracted once per scan, and a candidate
    plans and ranks only the maps it changes (see :func:`_glue_pairs`).
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
        top_rank = _max_nu_rank(ref.genus, ref.degree)
        choices.append(range(top_rank + 1) if ranks is None else ranks)
    diagrams = {r: build_split(r, a, g) for r in sorted({*degrees, *(r - 1 for r in degrees)})}
    _check_sizes(diagrams, a, g, (0,))

    bundles, shared = [], _Shared()
    changed = {(u.genus, *m) for u in unknowns for m in (("nu", u.degree), ("rho", u.degree + 2))}
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
        bundles.append((rank, _glue_pairs(diagrams, data[a], data[g], 0, shared, changed=changed)))

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
