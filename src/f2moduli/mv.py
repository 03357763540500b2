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
and one rank inference for unrecorded arrows (:func:`infer_nu_ranks`),
whose candidates share lambda's rank per set of maps, contracting once the rows none changes.
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


def lambda_edges(diag: Diagram, wa: WitnessSet, wb: WitnessSet,
                 summands=None) -> tuple[np.ndarray, int]:
    """Lambda with seed-0 witnesses as the two ends of each row (of ``summands``, if given).

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
        if label[0] != "dom":
            offsets[label], cols = cols, cols + dim
        elif summands is None or label in summands:
            offsets[label], rows = rows, rows + dim
    # an end still at ``cols`` is an empty slot: every real end is below it
    ends = np.full((rows, 2), cols, dtype=np.int64)
    for (src, dst), spec in diag.edges.items():
        if src not in offsets:
            continue
        edge = f"edge {src}->{dst}"
        w = wa if spec.side == "A" else wb
        hits = w.nu_hits if spec.family == "nu" else w.rho_hits
        if hits is None:
            raise ShapeError(f"{edge}: the witness is not a coordinate map")
        m = getattr(w.data, spec.family)[spec.degree]  # its profile gives the shape
        c, f = hits[spec.degree], spec.factor
        if c.shape != (m.dom,):
            raise ShapeError(f"{edge}: a row of {spec.family}_{spec.degree} is not one column")
        if spec.position == "left":
            cell = (c[:, None] * f + np.arange(f)).ravel()
            live = np.repeat(c >= 0, f)
        else:
            cell = (np.arange(f)[:, None] * m.cod + c).ravel()
            live = np.tile(c >= 0, f)
        if (cell.size, m.cod * f) != (diag.summands[src], diag.summands[dst]):
            raise ShapeError(f"{edge} realised with the wrong shape")
        hit = np.flatnonzero(live)
        slot = (ends[offsets[src] + hit] != cols).sum(axis=1)
        if hit.size and slot.max() > 1:
            raise ShapeError(f"{edge} gives a row of lambda a third 1")
        ends[offsets[src] + hit, slot] = offsets[dst] + cell[hit]
    return ends, cols


def graph_ker_coker(diag: Diagram, wa: WitnessSet, wb: WitnessSet,
                    moving=None, roots=None) -> tuple[int, int]:
    """Kernel and cokernel dimensions of lambda with seed-0 witnesses,
    from a component count of its graph; no matrix is built.

    Given the ``roots`` (:func:`~f2moduli.f2la.edge_roots`) of the graph F of
    the rows outside the domain summands ``moving``, it builds only those rows
    V: rank lambda = rank F + rank V on F contracted (Oxley, *Matroid Theory*, 3.1).
    """
    ends, cols = lambda_edges(diag, wa, wb, moving)
    base = 0 if roots is None else int(np.count_nonzero(roots != np.arange(cols + 1)))
    rk = base + edge_rank(ends if roots is None else roots[ends], cols)
    return diag.domain_dim() - rk, cols - rk


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


def _glue_pairs(diagrams: dict[int, Diagram], da: GenusData, dg: GenusData, seed: int,
                shared=None, changed=()):
    """(ker, cok) by degree of ``diagrams`` realised with witness seed ``seed``.

    Seed 0 ranks lambda as a graph (:func:`graph_ker_coker`), since its
    witnesses are coordinate maps, in two parts: the base, the rows of the
    domain summands whose arrows read no map in ``changed`` (genus, family,
    degree), and the moving rows, ranked on the base contracted to its
    components (a split report changes no map: its base is all of lambda).
    Any other seed ranks by dense elimination of the realised diagram.  The
    caller has refused what is over MAX_LAMBDA_BYTES (:func:`_check_sizes`).
    Each piece's witnesses are synthesised once, on first use, and each
    degree is ranked on first use.

    ``shared`` holds five dicts, fresh unless a seed-0 inference scan
    passes the same ones to all its candidates so that they share work:
    witness sets by genus and nu ranks, so a piece no candidate changes is
    synthesised once (every bundle :func:`canonical_data` and
    :func:`_with_nu_ranks` make has the mu, rho, h and n of its genus, so
    these fix its synthesis, and the key hashes no profile); the hit map
    of each plan, so a candidate makes only the maps whose plans no
    earlier one had; the self-check's counts by plans; (ker, cok) by degree
    and the plans of the maps lambda_r reads, which with ``diagrams[r]`` fix
    it at seed 0; and the roots of each base by degree and the plans of the
    maps it reads (None for a moving arrow).  So each degree is ranked once
    per distinct set of maps, its base once per scan if ``changed`` names
    every map a candidate changes (one left out costs only sharing).
    """
    syntheses, built, counted, ranks, bases = shared or ({}, {}, {}, {}, {})

    @lru_cache(maxsize=None)
    def witnesses() -> tuple[WitnessSet, WitnessSet]:
        out = []
        for data in (da, dg):
            key = (data.genus, tuple(p.rank for p in data.nu))
            if key not in syntheses:
                syntheses[key] = synthesize_witnesses(data, seed, built=built, counted=counted)
            out.append(syntheses[key])
        return tuple(out)

    @lru_cache(maxsize=None)
    def pair(r: int) -> tuple[int, int]:
        if seed != 0:
            return ker_coker(realize(diagrams[r], *witnesses()))
        diag, w = diagrams[r], witnesses()
        arrows = [(src, w[e.side == "B"].plans[e.family == "rho"][e.degree],
                   (w[e.side == "B"].data.genus, e.family, e.degree) in changed)
                  for (src, _), e in diag.edges.items()]
        key = (r, *(plan for _, plan, _ in arrows))
        if key not in ranks:
            moving = {src for src, _, moves in arrows if moves}
            fixed = (r, *(None if src in moving else plan for src, plan, _ in arrows))
            if fixed not in bases:
                bases[fixed] = edge_roots(*lambda_edges(diag, *w, set(diag.summands) - moving))
            ranks[key] = graph_ker_coker(diag, *w, moving, bases[fixed])
        return ranks[key]

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
    of witness maps it reads, and its rows that read no map an unknown
    changes (nu_s and rho_{s+2}) once per scan (see :func:`_glue_pairs`).
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

    bundles, shared = [], ({}, {}, {}, {}, {})
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
