from copy import copy
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
import pytest

from f2moduli import reference
from f2moduli._witness import _hits, _plan, synthesize_witnesses
from f2moduli.betti import m_coeff, mod2_table
from f2moduli.cli import _split22_document
from f2moduli.errors import ShapeError, ValidationError
from f2moduli.f2la import BitMatrix, block_assemble, compose, inverse, rank
from f2moduli.moduli import MapRef, assemble_genus_data, genus1_data, genus2_data, nplus_betti
from f2moduli.mv import (
    Diagram,
    CandidateVerdict,
    EdgeSpec,
    InferenceResult,
    InferenceScan,
    build_split,
    canonical_data,
    closed_form_ker_coker,
    describe,
    glue_from_rows,
    graph_ker_coker,
    hypothesis_data,
    infer_nu_ranks,
    is_forced_degree,
    joint_scan22,
    ker_coker,
    lambda_edges,
    realize,
    split_report,
)
from f2moduli.verify import check_side_constraints, constraint_readings

LAMBDA11_KER = (0, 0, 1, 0, 1, 0, 1, 0, 1, 0)
LAMBDA11_COK = (1, 0, 1, 4, 5, 4, 5, 0, 0, 0)


@pytest.fixture(scope="module")
def d1():
    return genus1_data()


@pytest.fixture(scope="module")
def d2():
    return genus2_data()


def _rows(a, g, seed=0):
    """(ker, cok) of the realised a+g split per degree, for one witness seed."""
    return {row.degree: row.realized[seed] for row in split_report(a, g, (seed,)).rows}


@pytest.fixture(scope="module")
def rows11():
    return _rows(1, 1)


@pytest.fixture(scope="module")
def rows12():
    return _rows(1, 2)


# ---------------------------------------------------------------------------
# the 1+1 split, fully known
# ---------------------------------------------------------------------------


def test_lambda11_rows_exact(rows11):
    assert tuple(rows11[r][0] for r in range(10)) == LAMBDA11_KER
    assert tuple(rows11[r][1] for r in range(10)) == LAMBDA11_COK


def test_lambda11_glue_gives_genus2(rows11):
    assert glue_from_rows(rows11, 2).values == mod2_table(2).values


@pytest.mark.parametrize("seed", range(1, 21))
def test_rows_independent_of_witness_seed(seed, rows11):
    assert _rows(1, 1, seed) == rows11


def test_rows12_independent_of_witness_seed(rows12):
    for seed in (1, 7, 40):
        assert _rows(1, 2, seed) == rows12


def test_lone_lower_dot(d1):
    # at degree 2 the (0,1) summand has no surviving target on either
    # side; it must stay in the diagram and feed the kernel
    diag = build_split(2, 1, 1)
    assert ("dom", 0, 1) in diag.summands
    assert not any(src == ("dom", 0, 1) for src, _ in diag.edges)
    assert ker_coker(realize(diag, *_wits(d1, d1)))[0] == 1


def test_lone_upper_dot(d1):
    # degree 8 keeps a single domain summand and no codomain at all
    diag = build_split(8, 1, 1)
    assert set(diag.summands) == {("dom", 2, 3)}
    assert ker_coker(realize(diag, *_wits(d1, d1))) == (1, 0)


def test_empty_diagram(d1):
    empty = Diagram((1, 1), 0, {}, {})
    assert ker_coker(realize(empty, *_wits(d1, d1))) == (0, 0)


def _wits(da, dg, seed=0):
    wa = synthesize_witnesses(da, seed)
    wb = wa if dg is da else synthesize_witnesses(dg, seed)
    return wa, wb


def test_build_dims_sample():
    diag = build_split(5, 1, 2)
    dims = {l: d for l, d in diag.summands.items()}
    assert dims[("dom", 0, 0)] == 5 and dims[("dom", 0, 3)] == 1
    assert dims[("red", 0)] == 5 and dims[("red", 3)] == 3
    assert dims[("blue", 2)] == 4
    assert diag.domain_dim() == 23 and diag.codomain_dim() == 24


def test_describe_symbolic_and_realized(d1):
    diag = build_split(3, 1, 1)
    sym = describe(diag)
    assert sym[0] == "split 1+1 degree 3"
    assert any(l.startswith("  dom[0,0]: dim") for l in sym)
    assert any("nu_3 of side A" in l for l in sym)
    real = realize(diag, *_wits(d1, d1))
    # one line per summand and per edge, the same edges realize fills in
    assert len(sym) == 3 + len(diag.summands) + len(diag.edges)
    edges = sym[sym.index("edges:") + 1 :]
    assert len(edges) == len(diag.edges) and all(" -> " in l for l in edges)
    assert (real.rows, real.cols) == (diag.domain_dim(), diag.codomain_dim())


def test_realize_checks_shapes(d1):
    diag = build_split(3, 1, 1)
    key, spec = next(iter(diag.edges.items()))
    broken = dict(diag.edges)
    broken[key] = EdgeSpec(spec.side, spec.family, spec.degree, spec.position, spec.factor + 1)
    bad = Diagram(diag.genus_pair, diag.degree, diag.summands, broken)
    with pytest.raises(ShapeError):
        realize(bad, *_wits(d1, d1))


# ---------------------------------------------------------------------------
# the graph engine
# ---------------------------------------------------------------------------

SPLITS_UP_TO_6 = [(a, g) for g in range(1, 6) for a in range(1, g + 1) if a + g <= 6]


@pytest.mark.parametrize("a, g", SPLITS_UP_TO_6, ids=[f"{a}+{g}" for a, g in SPLITS_UP_TO_6])
def test_graph_engine_matches_dense_elimination(a, g):
    da = canonical_data(a)
    wa, wb = _wits(da, da if a == g else canonical_data(g))
    for r in range(6 * (a + g) - 2):
        diag = build_split(r, a, g)
        assert graph_ker_coker(diag, wa, wb) == ker_coker(realize(diag, wa, wb)), r


def test_graph_engine_needs_seed_0_witnesses(d1):
    with pytest.raises(ShapeError, match="not a coordinate map"):
        graph_ker_coker(build_split(3, 1, 1), *_wits(d1, d1, seed=1))


def _three_arrow_diagram(arrows: int) -> Diagram:
    """One domain coordinate with ``arrows`` of its three 1 x 1 arrows (nu_0, nu_2, nu_0)."""
    dom = ("dom", 0, 0)
    edges = {
        (dom, ("red", 0)): EdgeSpec("A", "nu", 0, "left", 1),
        (dom, ("blue", 0)): EdgeSpec("B", "nu", 0, "right", 1),
        (dom, ("red", 2)): EdgeSpec("A", "nu", 2, "left", 1),
    }
    summands = {dom: 1, ("red", 0): 1, ("blue", 0): 1, ("red", 2): 1}
    return Diagram((1, 1), 0, summands, dict(list(edges.items())[:arrows]))


def test_edge_builder_refuses_a_third_end(d1):
    w = synthesize_witnesses(d1)
    two, three = _three_arrow_diagram(2), _three_arrow_diagram(3)
    assert graph_ker_coker(two, w, w) == ker_coker(realize(two, w, w)) == (0, 2)
    # dense elimination ranks the row with three 1s; the graph has no edge for it
    assert ker_coker(realize(three, w, w)) == (0, 2)
    with pytest.raises(ShapeError, match="third 1"):
        lambda_edges(three, w, w)


def test_edge_builder_refuses_a_witness_row_with_two_columns(d1):
    w = synthesize_witnesses(d1)
    wide = replace(w, nu_hits=(np.array([[0, 0]]), *w.nu_hits[1:]))
    with pytest.raises(ShapeError, match="nu_0 is not one column"):
        lambda_edges(_three_arrow_diagram(2), wide, wide)


def test_edge_builder_checks_shapes(d1):
    diag = build_split(3, 1, 1)
    key, spec = next(iter(diag.edges.items()))
    broken = dict(diag.edges)
    broken[key] = EdgeSpec(spec.side, spec.family, spec.degree, spec.position, spec.factor + 1)
    bad = Diagram(diag.genus_pair, diag.degree, diag.summands, broken)
    with pytest.raises(ShapeError, match="wrong shape"):
        lambda_edges(bad, *_wits(d1, d1))


def test_build_split_computes_each_halfspace_table_once():
    nplus_betti.cache_clear()
    for r in range(22):
        build_split(r, 2, 2)
    assert nplus_betti.cache_info().misses == 1


# ---------------------------------------------------------------------------
# gluing helpers
# ---------------------------------------------------------------------------


def test_glue_missing_degree_raises(rows11):
    partial = {r: rows11[r] for r in range(9)}
    with pytest.raises(ValidationError, match="missing 9"):
        glue_from_rows(partial, 2)


def test_glue12_gives_genus3(rows12):
    assert glue_from_rows(rows12, 3).values == mod2_table(3).values


def test_glue13_gives_genus4():
    rows = _rows(1, 3)
    assert glue_from_rows(rows, 4).values == mod2_table(4).values


# ---------------------------------------------------------------------------
# lambda as blocks: a dense reference for realize, and block elimination,
# an independent check of ker_coker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Blocks:
    """Lambda as summand dims and one packed matrix per edge."""

    summands: dict
    edges: dict


def dense_blocks(diag: Diagram, wa, wb) -> Blocks:
    """Each edge's block m x I_f or I_f x m by np.kron on dense arrays."""
    edges = {}
    for (src, dst), e in diag.edges.items():
        m = (wa if e.side == "A" else wb).matrix(e.family, e.degree).to_dense()
        eye = np.eye(e.factor, dtype=np.uint8)
        edges[(src, dst)] = BitMatrix.from_dense(np.kron(m, eye) if e.position == "left" else np.kron(eye, m))
    return Blocks(dict(diag.summands), edges)


def assemble(d: Blocks) -> BitMatrix:
    """The blocks laid out as realize lays out lambda: domain summands down,
    codomain summands across, each in the order of ``summands``."""
    doms = [l for l in d.summands if l[0] == "dom"]
    cods = [l for l in d.summands if l[0] != "dom"]
    blocks = {(doms.index(s), cods.index(t)): m for (s, t), m in d.edges.items()}
    return block_assemble(blocks, [d.summands[l] for l in doms], [d.summands[l] for l in cods])


@pytest.mark.parametrize("a, g", [(1, 4), (2, 2)])
@pytest.mark.parametrize("seed", [1, 2])
def test_realize_matches_dense_kron_reference(a, g, seed):
    # every degree of the benchmark's seeded splits: their arrows take both
    # positions (side A left, side B right), with identity factors 1 and
    # more, except that 1+4's right arrows are all tensored with I_1
    wa, wb = _wits(canonical_data(a), canonical_data(g), seed)
    kinds = set()
    for r in range(6 * (a + g) - 2):
        diag = build_split(r, a, g)
        assert realize(diag, wa, wb) == assemble(dense_blocks(diag, wa, wb)), r
        kinds |= {(e.position, e.factor > 1) for e in diag.edges.values()}
    wide_right = a > 1
    assert kinds == {("left", False), ("left", True), ("right", False), ("right", wide_right)}


def eliminate(d: Blocks) -> Blocks:
    """Cancel invertible edges until none remain.

    Pivoting on an invertible edge A: D -> C deletes D and C and adds the
    correction F A^-1 E to every edge D' -> C' with F: D' -> C and
    E: D -> C'.  This is block Gaussian elimination, so kernel and
    cokernel dimensions are preserved, and ker_coker of the fixpoint must
    equal ker_coker of the input.
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
            return Blocks(summands, edges)
        src, dst = pivot
        a_inv = inverse(edges.pop(pivot))
        into = [(s, edges.pop((s, t))) for (s, t) in sorted(edges) if t == dst]
        outof = [(t, edges.pop((s, t))) for (s, t) in sorted(edges) if s == src]
        for s2, f in into:
            for t2, e in outof:
                fill = compose(compose(f, a_inv), e)
                if (s2, t2) in edges:
                    fill = BitMatrix.from_dense(edges[(s2, t2)].to_dense() ^ fill.to_dense())
                edges[(s2, t2)] = fill
        del summands[src], summands[dst]


def test_eliminate_single_iso_empties():
    two = BitMatrix.from_dense(np.eye(2, dtype=np.uint8))
    diag = Blocks({("dom", 0, 0): 2, ("red", 0): 2}, {(("dom", 0, 0), ("red", 0)): two})
    out = eliminate(diag)
    assert out.summands == {} and out.edges == {}


def _no_invertible_edges(d):
    return all(
        not (m.rows == m.cols > 0 and rank(m) == m.rows) for m in d.edges.values()
    )


@pytest.mark.parametrize("r", range(10))
def test_eliminate_preserves_lambda11(r, d1):
    diag = build_split(r, 1, 1)
    real = dense_blocks(diag, *_wits(d1, d1))
    red = eliminate(real)
    assert ker_coker(assemble(red)) == ker_coker(realize(diag, *_wits(d1, d1)))
    assert _no_invertible_edges(red)
    assert len(red.summands) <= len(real.summands)


@pytest.mark.parametrize("r", [3, 4, 5, 7, 11])
def test_eliminate_preserves_lambda12(r, d1, d2):
    diag = build_split(r, 1, 2)
    red = eliminate(dense_blocks(diag, *_wits(d1, d2)))
    assert ker_coker(assemble(red)) == ker_coker(realize(diag, *_wits(d1, d2)))
    assert _no_invertible_edges(red)


def _random_diagram(rng):
    summands = {}
    for i in range(rng.integers(1, 4)):
        summands[("dom", 0, i)] = int(rng.integers(1, 5))
    for i in range(rng.integers(1, 4)):
        summands[("red", i)] = int(rng.integers(1, 5))
    edges = {}
    for s in [l for l in summands if l[0] == "dom"]:
        for t in [l for l in summands if l[0] != "dom"]:
            if rng.random() < 0.6:
                dense = rng.integers(0, 2, size=(summands[s], summands[t]))
                edges[(s, t)] = BitMatrix.from_dense(dense.astype(np.uint8))
    return Blocks(summands, edges)


@pytest.mark.parametrize("seed", range(100))
def test_eliminate_preserves_random_diagrams(seed):
    rng = np.random.default_rng(seed)
    d = _random_diagram(rng)
    red = eliminate(d)
    assert ker_coker(assemble(red)) == ker_coker(assemble(d))
    assert _no_invertible_edges(red)


def test_reduction_complement_is_degree_shifted(d1, d2):
    # the reduced degree-4 diagram of the 1+2 split has cokernel
    # 2 h_1 + h_0 + m_2 = 1 over the genus-2 table; the same expression
    # shifted to degree r-1 would predict 11, which the realisation
    # rules out
    real = realize(build_split(4, 1, 2), *_wits(d1, d2))
    h = mod2_table(2)
    assert ker_coker(real) == (1, 1)
    assert closed_form_ker_coker(2, 4) == (1, 1)
    assert 2 * h[3] + h[2] + m_coeff(2, 2) == 11  # the rejected variant


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_forced_degree_pattern_genus2():
    forced = [r for r in range(16) if is_forced_degree(2, r)]
    assert forced == [1, 2, 4, 5, 7, 10, 12, 13, 15]


def test_closed_form_examples():
    assert closed_form_ker_coker(2, 7) == (5, 21)
    assert closed_form_ker_coker(2, 5) == (5, 6)
    assert closed_form_ker_coker(1, 4)[0] == 1
    assert closed_form_ker_coker(2, 3) is None
    assert closed_form_ker_coker(2, 0) is None


def test_closed_forms_match_realized_genus2(rows12):
    for r in range(16):
        cf = closed_form_ker_coker(2, r)
        if cf is not None:
            assert cf == rows12[r], f"degree {r}"


def test_closed_forms_match_realized_genus3():
    rows = _rows(1, 3)
    for r in range(22):
        cf = closed_form_ker_coker(3, r)
        if cf is not None:
            assert cf == rows[r], f"degree {r}"


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------


def test_hypothesis_ranks_are_max(d2):
    d3 = hypothesis_data(3)
    for r in range(19):
        assert d3.nu[r].rank == min(d3.h[r], d3.nplus[r])
    # the recorded low-genus ranks already sit at the ceiling
    for d in (genus1_data(), d2):
        for r in range(6 * d.genus + 1):
            assert d.nu[r].rank == min(d.h[r], d.nplus[r])


def test_canonical_data_dispatch():
    assert canonical_data(1).constraints != ()
    assert canonical_data(2).constraints != ()
    assert canonical_data(3).constraints == ()


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def _infer(a, g, unknown, at):
    """The glue check of one unknown nu rank at one degree."""
    return infer_nu_ranks(a, g, {unknown: None}, [at]).checks[0]


@pytest.mark.parametrize(
    "a,g,degree,at",
    [(1, 1, 2, 3), (1, 1, 3, 4), (1, 2, 2, 3), (1, 2, 9, 11)],
)
def test_unique_rank_deductions(a, g, degree, at):
    unknown = MapRef("nu", degree, g)
    res = _infer(a, g, unknown, at)
    assert res.deduced == 1
    statuses = {c.rank: c.status for c in res.candidates}
    assert statuses[0] == "inconsistent"
    assert statuses[1] == "consistent"


def test_deduced_degrees_are_the_recorded_boxes():
    assert 2 in reference.GENUS1_BOXED_NU and 3 in reference.GENUS1_BOXED_NU
    assert 2 in reference.GENUS2_BOXED_NU and 9 in reference.GENUS2_BOXED_NU


def test_inference_lines_render():
    res = _infer(1, 1, MapRef("nu", 2, 1), 3)
    text = "\n".join(res.lines())
    assert "deduced rank nu_2^1 = 1" in text
    assert "rank 0: glue 7 -> inconsistent" in text


def test_inference_validates_unknown():
    with pytest.raises(ValidationError, match="only nu"):
        _infer(1, 1, MapRef("mu", 2, 1), 3)
    with pytest.raises(ValidationError, match="genus"):
        _infer(1, 2, MapRef("nu", 2, 3), 3)
    with pytest.raises(ValidationError, match="no map nu_99"):
        _infer(1, 1, MapRef("nu", 99, 1), 3)
    with pytest.raises(ValidationError, match="outside 1..15"):
        _infer(1, 2, MapRef("nu", 5, 2), 400)


def _fresh_scan(a, g, unknowns, degrees=None) -> InferenceScan:
    """infer_nu_ranks by the letter of its docstring: every candidate bundle
    assembled, synthesised and ranked at every degree on its own, sharing
    nothing with any other candidate."""
    top = 6 * (a + g) - 3
    degrees = list(range(1, top + 1) if degrees is None else degrees)
    choices = []
    for ref, ranks in unknowns.items():
        data = canonical_data(ref.genus)
        top_rank = min(data.h[ref.degree], data.nplus[ref.degree])
        choices.append(range(top_rank + 1) if ranks is None else ranks)
    candidates = []
    for ranks in product(*choices):
        rank = ranks[0] if len(ranks) == 1 else ranks
        bundle = {}
        try:
            for k in (a, g):
                base = canonical_data(k)
                nu = {r: p.rank for r, p in enumerate(base.nu)}
                nu.update({u.degree: v for u, v in zip(unknowns, ranks) if u.genus == k})
                bundle[k] = assemble_genus_data(k, nu, base.constraints)
        except ValidationError:
            candidates.append((rank, None))
            continue
        wa, wb = synthesize_witnesses(bundle[a], 0), synthesize_witnesses(bundle[g], 0)
        pairs = {r: graph_ker_coker(build_split(r, a, g), wa, wb) for r in range(top + 1)}
        candidates.append((rank, pairs))
    target = mod2_table(a + g)
    checks = []
    for r in degrees:
        verdicts = []
        for rank, pairs in candidates:
            if pairs is None:
                verdicts.append(CandidateVerdict(rank, "infeasible", None))
                continue
            value = pairs[r][1] + pairs[r - 1][0]
            status = "consistent" if value == target[r] else "inconsistent"
            verdicts.append(CandidateVerdict(rank, status, value))
        checks.append(InferenceResult((a, g), tuple(unknowns), r, target[r], tuple(verdicts)))
        if checks[-1].deduced is not None:
            break
    return InferenceScan(tuple(checks))


@pytest.mark.parametrize(
    "a, g, unknowns, degrees",
    [
        (2, 2, {MapRef("nu", 5, 2): None}, None),
        (2, 2, {MapRef("nu", 6, 2): None}, None),
        # no degree pins nu_9^3: the whole 21-degree scan
        (1, 3, {MapRef("nu", 9, 3): None}, None),
        # the joint scan of joint_scan22
        (2, 2, {MapRef("nu", 5, 2): (4, 5), MapRef("nu", 6, 2): (4, 5)}, (8, 9, 10, 12)),
        # one unknown on each piece
        (2, 3, {MapRef("nu", 6, 2): (4, 5), MapRef("nu", 8, 3): None}, None),
        # two unknowns on the same genus of a symmetric split
        (3, 3, {MapRef("nu", 7, 3): None, MapRef("nu", 10, 3): (5, 6, 7)}, None),
    ],
)
def test_shared_ranks_give_the_scan_of_fresh_bundles(a, g, unknowns, degrees):
    scan = infer_nu_ranks(a, g, unknowns, degrees)
    assert scan == _fresh_scan(a, g, unknowns, degrees)
    # the scans are not trivial: several candidates are tested
    assert sum(c.status != "infeasible" for c in scan.checks[0].candidates) > 1


def test_joint_scan22_is_the_scan_of_fresh_bundles(scan22):
    unknowns = {MapRef("nu", 5, 2): (4, 5), MapRef("nu", 6, 2): (4, 5)}
    assert scan22 == _fresh_scan(2, 2, unknowns, (8, 9, 10, 12))


@pytest.mark.parametrize("a, g", [(1, 2), (2, 1)])
@pytest.mark.parametrize("family", ["nu", "rho"])
def test_shared_ranks_tell_every_map_apart(a, g, family):
    """Two bundles whose witnesses differ in one map, on either side, share
    no rank at a degree whose lambda reads that map: neither when the map
    is named as changed, so that they share each base without it, nor
    when it is not, so that it lies in the base."""
    import f2moduli.mv as mv

    data = {1: canonical_data(1), 2: canonical_data(2)}
    wits = {k: synthesize_witnesses(d, 0) for k, d in data.items()}
    diagrams = {r: build_split(r, a, g) for r in range(6 * (a + g) - 2)}
    moved = 0
    side = family == "rho"
    for k, hits in enumerate(getattr(wits[2], f"{family}_hits")):
        if not (hits >= 0).any():
            continue
        cut = hits.copy()
        last = np.flatnonzero(cut >= 0)[-1]
        cut[last] = -1  # the map loses its last live row, and its plan says so
        dom, cod, zeros, first = wits[2].plans[side][k]
        plan = _plan(dom, cod, (*zeros, (last, last + 1)), range(first, cut.max() + 1))
        assert np.array_equal(_hits(plan), cut)
        maps = list(getattr(wits[2], f"{family}_hits"))
        maps[k] = cut
        plans = [list(p) for p in wits[2].plans]
        plans[side][k] = plan
        tampered = {**wits, 2: replace(
            wits[2], plans=tuple(map(tuple, plans)), **{f"{family}_hits": tuple(maps)}
        )}
        # the two share hits, counts, signatures, bases and ranks; the
        # tampered one finds its genus-2 witnesses where _glue_pairs keys a
        # synthesis, by genus and nu ranks
        ranks = tuple(p.rank for p in data[2].nu)
        for changed in ((), {(2, family, k)}):
            shared = mv._Shared()
            pairs = mv._glue_pairs(diagrams, data[a], data[g], 0, shared, changed=changed)
            tampered_shared = copy(shared)
            tampered_shared.syntheses = {2: {ranks: tampered[2]}}
            tampered_pairs = mv._glue_pairs(
                diagrams, data[a], data[g], 0, tampered_shared, changed=changed
            )
            for r, diag in diagrams.items():
                assert pairs(r) == graph_ker_coker(diag, wits[a], wits[g])
                want = graph_ker_coker(diag, tampered[a], tampered[g])
                assert tampered_pairs(r) == want, f"{family}_{k} at degree {r}, changed {changed}"
                moved += want != pairs(r)
    assert moved  # the lost rows change some lambda


@pytest.mark.parametrize(
    "named",
    [set(), {(3, "nu", 9)}, {(3, "rho", 11)}, {(1, "nu", 2)}],
    ids=["none", "nu_9-only", "rho_11-only", "another-map"],
)
def test_too_few_changed_maps_still_give_the_scan_of_fresh_bundles(monkeypatch, named):
    """A scan that names too few of the maps its candidates change (nu_9^3
    and rho_11^3) shares fewer bases, and gives the same scan."""
    import f2moduli.mv as mv

    glue_pairs, calls = mv._glue_pairs, []

    def renamed(*args, changed=()):
        calls.append(changed)
        return glue_pairs(*args, changed=named)

    monkeypatch.setattr(mv, "_glue_pairs", renamed)
    unknowns = {MapRef("nu", 9, 3): None}
    assert infer_nu_ranks(1, 3, unknowns) == _fresh_scan(1, 3, unknowns)
    assert calls and all(c == {(3, "nu", 9), (3, "rho", 11)} for c in calls)


EVERY_DEGREE = {
    "2+2 nu_5^2": (2, 2, {MapRef("nu", 5, 2): None}),
    "1+3 nu_9^3": (1, 3, {MapRef("nu", 9, 3): None}),
    # one unknown on each piece
    "2+3 nu_6^2 nu_8^3": (2, 3, {MapRef("nu", 6, 2): (4, 5), MapRef("nu", 8, 3): None}),
    # two unknowns on the same genus of a symmetric split
    "3+3 nu_7^3 nu_10^3": (3, 3, {MapRef("nu", 7, 3): None, MapRef("nu", 10, 3): (5, 6, 7)}),
}


@pytest.mark.parametrize("scan", sorted(EVERY_DEGREE))
def test_every_candidate_ranks_every_degree_as_a_fresh_synthesis(monkeypatch, scan):
    """After a scan, each candidate's (ker, cok) at every degree 0..top, not
    only up to the degree where the scan stops, is that of the whole lambda
    of a fresh synthesis of its bundle."""
    import f2moduli.mv as mv

    glue_pairs, made = mv._glue_pairs, []

    def kept(diagrams, da, dg, seed, *args, **kwargs):
        made.append((da, dg, glue_pairs(diagrams, da, dg, seed, *args, **kwargs)))
        return made[-1][2]

    monkeypatch.setattr(mv, "_glue_pairs", kept)
    a, g, unknowns = EVERY_DEGREE[scan]
    infer_nu_ranks(a, g, unknowns)
    assert len(made) > 1
    diagrams = [build_split(r, a, g) for r in range(6 * (a + g) - 2)]
    for da, dg, pair in made:
        wa, wb = synthesize_witnesses(da, 0), synthesize_witnesses(dg, 0)
        for diag in diagrams:
            want = graph_ker_coker(diag, wa, wb)
            assert pair(diag.degree) == want, ([p.rank for p in da.nu], [p.rank for p in dg.nu], diag.degree)


SCANS = {
    "2+2 nu_5^2": (2, 2, {MapRef("nu", 5, 2): None}, None),
    "2+2 nu_6^2": (2, 2, {MapRef("nu", 6, 2): None}, None),
    "1+3 nu_9^3": (1, 3, {MapRef("nu", 9, 3): None}, None),
    "joint_scan22": (2, 2, {MapRef("nu", 5, 2): (4, 5), MapRef("nu", 6, 2): (4, 5)}, (8, 9, 10, 12)),
}


@pytest.mark.parametrize("scan", sorted(SCANS))
def test_plan_shared_hits_are_a_fresh_synthesis(monkeypatch, scan):
    """Every candidate's witnesses, made from the hits the scan shares by
    plan, equal a synthesis of its bundle that shares nothing."""
    import f2moduli.mv as mv

    made = []

    def kept(data, seed, **kwargs):
        made.append(synthesize_witnesses(data, seed, **kwargs))
        return made[-1]

    monkeypatch.setattr(mv, "synthesize_witnesses", kept)
    a, g, unknowns, degrees = SCANS[scan]
    infer_nu_ranks(a, g, unknowns, degrees)
    assert len(made) > 2
    by_plan = {}
    for ws in made:
        fresh = synthesize_witnesses(ws.data, 0)
        assert ws == fresh  # equal data and plans
        for family in ("nu", "rho"):
            plans = ws.plans[family == "rho"]
            for plan, got, want in zip(plans, getattr(ws, f"{family}_hits"), getattr(fresh, f"{family}_hits")):
                assert np.array_equal(got, want)
                # one array per plan in the whole scan
                assert by_plan.setdefault(plan, got) is got


@pytest.mark.parametrize("run", ["split_report(1, 5)", "1+3 nu_9^3"])
def test_seed_0_builds_no_packed_matrix(monkeypatch, run):
    made = []
    init = BitMatrix.__init__
    monkeypatch.setattr(BitMatrix, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    BitMatrix.from_dense(np.eye(2, dtype=np.uint8))
    assert len(made) == 1  # the counter sees a construction
    made.clear()
    if run == "split_report(1, 5)":
        assert split_report(1, 5).glue_matches
    else:
        a, g, unknowns, degrees = SCANS[run]
        assert len(infer_nu_ranks(a, g, unknowns, degrees).checks) == 21
    assert made == []


def _outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_nu_swap_is_the_assembled_bundle(g):
    """_with_nu_ranks keeps the canonical mu and rho and swaps in the nu
    profiles; every candidate, feasible or not, comes out as
    assemble_genus_data makes it, error text included."""
    import f2moduli.mv as mv

    base = canonical_data(g)
    canonical = {r: p.rank for r, p in enumerate(base.nu)}

    def assembled(replacements):
        return assemble_genus_data(g, {**canonical, **replacements}, base.constraints)

    candidates = [{r: k} for r in range(6 * g + 1) for k in range(-1, min(base.h[r], base.nplus[r]) + 2)]
    if g == 2:  # two open ranks at once: the lower degree's error comes first
        candidates += [{6: k6, 5: k5} for k5, k6 in product(range(7), repeat=2)]
    outcomes = []
    for c in candidates:
        outcomes.append(_outcome(lambda: mv._with_nu_ranks(g, c)))
        assert outcomes[-1] == _outcome(lambda: assembled(c)), c
    assert any("not jointly feasible" in str(o) for o in outcomes)


@pytest.mark.parametrize("g", [8, 9])
def test_seed_0_splits_reach_genus_10(g):
    # no parent run pins these rows: the cross-check is the recursion's
    # genus-9 and genus-10 tables and the 1+g closed forms
    report = split_report(1, g)
    assert report.glue_matches and report.closed_forms_hold
    assert len(report.rows) == 6 * (1 + g) - 2


def test_canonical_bundle_is_built_once_per_genus():
    import f2moduli.mv as mv

    for g in (1, 2, 3):
        assert canonical_data(g) is canonical_data(g)
        assert mv._with_nu_ranks(g, {}) is canonical_data(g)
        same = mv._with_nu_ranks(g, {0: canonical_data(g).nu[0].rank})
        assert same == canonical_data(g) and same is not canonical_data(g)


# ---------------------------------------------------------------------------
# the 2+2 report
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def report22():
    return split_report(2, 2, seeds=(0, 1))


@pytest.fixture(scope="module")
def scan22():
    return joint_scan22()


def test_chain_reproduces_recorded_rows(report22):
    assert report22.chain_matches_recorded
    for row in report22.rows:
        assert row.recorded == row.chain


def test_recorded_rows_inside_structural_windows(report22):
    for row in report22.rows:
        klo, khi = row.ker_interval
        clo, chi = row.cok_interval
        assert klo <= row.recorded[0] <= khi, f"degree {row.degree}"
        assert clo <= row.recorded[1] <= chi, f"degree {row.degree}"


def test_realized_rows_inside_windows_and_on_chain(report22):
    assert report22.realized_off_chain == ()
    for row in report22.rows:
        for ker, cok in row.realized.values():
            assert row.ker_interval[0] <= ker <= row.ker_interval[1]
            assert row.cok_interval[0] <= cok <= row.cok_interval[1]
            assert (ker, cok) == row.chain


def test_glue_of_chain_recovers_genus4(report22):
    rows = {row.degree: row.chain for row in report22.rows}
    assert glue_from_rows(rows, 4).values == mod2_table(4).values
    assert reference.SPLIT22_H4 == mod2_table(4).values


def test_joint_scan_selects_recorded_ranks(scan22):
    outcome = {(a, b): ok for (a, b), ok in scan22.passing}
    assert outcome == {(4, 4): False, (4, 5): False, (5, 4): False, (5, 5): True}


def test_report_verdicts(report22):
    for row in report22.rows:
        assert row.verdict in ("forced", "consistent")
        if row.ker_interval[0] == row.ker_interval[1]:
            assert row.verdict == "forced"
            assert row.ker_interval[0] == row.chain[0]


def test_report_lines_render(report22, scan22):
    text = "\n".join(_split22_document(report22, scan22, []).text_lines)
    assert "chain matches the recorded rows" in text
    assert "(nu_5, nu_6) = (5, 5): passes" in text
    assert text.count("\n") > 24


# ---------------------------------------------------------------------------
# constraint readings
# ---------------------------------------------------------------------------


def test_genus2_constraint_readings(d2):
    readings = {(label, reading): (got, want) for label, reading, got, want in constraint_readings(d2)}

    # mu_5^2 has a larger domain than nu_3^2: no literal reading is built
    assert ("genus2-step3", "literal") not in readings

    got, want = readings[("genus2-step3", "shared-domain")]
    assert got == 0 and got != want

    got, want = readings[("genus2-step3", "composite-route")]
    assert got == 1 and got == want

    got, want = readings[("genus2-step3-composite", "literal")]
    assert got == 1 and got == want

    # rho_8^1 is recorded at genus 1: no domain shared with nu_6^2
    assert ("genus2-step4", "literal") not in readings

    got, want = readings[("genus2-step4", "shared-domain")]
    assert got == 0 and got == want


def test_genus1_constraint_readings(d1):
    readings = constraint_readings(d1)
    assert len(readings) == 1
    label, reading, got, want = readings[0]
    assert reading == "literal" and got == want


def test_side_constraint_check_names_a_broken_record(d1, d2):
    check, notes = check_side_constraints((d1, d2))
    assert check == (
        "recorded-side-constraints", True, "each recorded genus-1/2 constraint holds in some reading"
    )
    assert notes == [
        "genus2-step3: shared-domain reading gives 0 on the witnesses, recorded value is 1"
    ]

    step4 = [replace(c, value=1) if c.label == "genus2-step4" else c for c in d2.constraints]
    name, ok, detail = check_side_constraints((d1, replace(d2, constraints=tuple(step4))))[0]
    assert name == "recorded-side-constraints" and not ok
    assert "genus2-step4" in detail and "genus2-step3" not in detail


def test_size_limit_refuses_before_synthesis(monkeypatch):
    import f2moduli.mv as mv

    monkeypatch.setattr(mv, "synthesize_witnesses", lambda *_, **__: pytest.fail("synthesised"))
    with pytest.raises(ValidationError, match=r"split 2\+6 degree 18: lambda is 28391 x 35651"):
        split_report(2, 6, (1,))
    with pytest.raises(ValidationError, match=r"split 1\+7 degree 19: .* 89.5 MiB packed"):
        split_report(1, 7, (1,))
    # seed 0 first: no seed's witnesses are built before every seed's check
    with pytest.raises(ValidationError, match=r"split 4\+4 degree 17: .* 84.9 MiB packed"):
        split_report(4, 4, (0, 1))
    # the graph engine holds two int64 ends per row of lambda
    with pytest.raises(ValidationError, match=r"split 5\+6 degree 29: .* 70.9 MiB as edges"):
        split_report(5, 6)
    with pytest.raises(ValidationError, match=r"split 5\+6 degree 29: .* 70.9 MiB as edges"):
        infer_nu_ranks(5, 6, {MapRef("nu", 2, 5): None})
    # packed, one genus-8 witness is over the limit
    with pytest.raises(ValidationError, match=r"genus 8 witnesses: mu_21 .* 72.7 MiB packed"):
        split_report(1, 8, (1,))
    # as hits, the genus-11 witness set is
    with pytest.raises(ValidationError, match=r"genus 11 witnesses: .* 236.8 MiB as hits"):
        split_report(1, 11)
    with pytest.raises(ValidationError, match=r"genus 11 witnesses: 31039008 coordinates"):
        infer_nu_ranks(1, 11, {MapRef("nu", 2, 1): None})


def test_witness_limit_admits_genus_7():
    import f2moduli.mv as mv

    # with no lambda to size, the gate sizes only the pieces' packed witnesses
    for g in range(1, 8):
        mv._check_sizes({}, g, g, (1,))
    with pytest.raises(ValidationError, match=r"genus 8 witnesses: mu_21 .* packed"):
        mv._check_sizes({}, 8, 8, (1,))


def test_hits_limit_admits_genus_10_at_seed_0(monkeypatch):
    import f2moduli.mv as mv

    for g in range(1, 11):
        mv._check_sizes({}, g, g, (0,))
    with pytest.raises(ValidationError, match=r"genus 11 witnesses: .* 236.8 MiB as hits"):
        mv._check_sizes({}, 11, 11, (0,))
    # 8 bytes a coordinate: genus 9 is 13.4 MiB of hits
    monkeypatch.setattr(mv, "MAX_LAMBDA_BYTES", 13 * 2**20)
    with pytest.raises(ValidationError, match=r"genus 9 witnesses: 1750320 coordinates, 13.4 MiB"):
        mv._check_sizes({}, 9, 9, (0,))


def _count_syntheses(monkeypatch) -> list:
    """Record (genus, seed) of every witness synthesis the split engine asks for."""
    import f2moduli.mv as mv

    calls = []

    def counted(data, seed, **kwargs):
        calls.append((data.genus, seed))
        return synthesize_witnesses(data, seed, **kwargs)

    monkeypatch.setattr(mv, "synthesize_witnesses", counted)
    return calls


@pytest.mark.parametrize(
    "a, g, seeds, want", [(2, 2, (0, 1), [(2, 0), (2, 1)]), (1, 2, (0,), [(1, 0), (2, 0)])]
)
def test_split_report_synthesises_once_per_piece_and_seed(monkeypatch, a, g, seeds, want):
    calls = _count_syntheses(monkeypatch)
    split_report(a, g, seeds)
    assert sorted(calls) == want


# nu_3^2 has five candidate ranks of which four are infeasible; nu_4^2 has two, both feasible
@pytest.mark.parametrize(
    "a, g, unknown, feasible", [(1, 2, MapRef("nu", 3, 2), 1), (2, 2, MapRef("nu", 4, 2), 2)]
)
def test_inference_synthesises_once_per_feasible_candidate_and_genus(
    monkeypatch, a, g, unknown, feasible
):
    calls = _count_syntheses(monkeypatch)
    scan = infer_nu_ranks(a, g, {unknown: None})
    assert sum(c.status != "infeasible" for c in scan.checks[0].candidates) == feasible
    assert len(calls) == feasible * len({a, g})
    assert {seed for _, seed in calls} == {0}


def _count_builds(monkeypatch) -> list:
    """Record the degree of every split diagram the split engine builds."""
    import f2moduli.mv as mv

    calls = []

    def counted(r, a, g):
        calls.append(r)
        return build_split(r, a, g)

    monkeypatch.setattr(mv, "build_split", counted)
    return calls


def test_split_report_builds_each_degree_once(monkeypatch):
    calls = _count_builds(monkeypatch)
    split_report(2, 2, (0, 1))
    assert sorted(calls) == list(range(22))


def test_inference_builds_each_degree_once_for_all_candidates(monkeypatch):
    calls = _count_builds(monkeypatch)
    scan = infer_nu_ranks(1, 3, {MapRef("nu", 9, 3): None})
    assert len(scan.checks[0].candidates) > 1
    assert sorted(calls) == list(range(22))


def _count_rankings(monkeypatch) -> dict:
    """Record the degree of every lambda the graph engine ranks whole
    ("graph") or on a contracted base ("contracted"), of every base it
    contracts ("base"), of every walk over lambda's arrows ("walks"), and
    of every lambda the dense engine ranks ("dense"); and the rows of
    lambda built ("rows") against the rows a ranking of each whole lambda
    would build ("whole")."""
    import f2moduli.mv as mv

    calls = {"graph": [], "contracted": [], "base": [], "walks": [], "dense": [], "rows": 0, "whole": 0}
    contract, contracted_rank = mv._Contraction.of, mv._Contraction.ker_coker

    def graph(diag, wa, wb):
        calls["graph"].append(diag.degree)
        calls["whole"] += diag.domain_dim()
        return graph_ker_coker(diag, wa, wb)

    def of(diag, *args):
        out = contract(diag, *args)
        if out is not None:
            calls["base"].append(diag.degree)
        return out

    def contracted(self, diag, wa, wb):
        calls["contracted"].append(diag.degree)
        calls["whole"] += diag.domain_dim()
        calls["rows"] += len(self.ends)  # the moving rows, of which it makes the changed ends
        return contracted_rank(self, diag, wa, wb)

    def edges(diag, wa, wb, *args, **kwargs):
        ends, cols = lambda_edges(diag, wa, wb, *args, **kwargs)
        calls["walks"].append(diag.degree)
        calls["rows"] += len(ends)
        return ends, cols

    def dense(diag, wa, wb):
        calls["dense"].append(diag.degree)
        return realize(diag, wa, wb)

    monkeypatch.setattr(mv, "graph_ker_coker", graph)
    monkeypatch.setattr(mv._Contraction, "of", staticmethod(of))
    monkeypatch.setattr(mv._Contraction, "ker_coker", contracted)
    monkeypatch.setattr(mv, "lambda_edges", edges)
    monkeypatch.setattr(mv, "realize", dense)
    return calls


def test_inference_ranks_each_degree_once_per_set_of_maps(monkeypatch):
    calls = _count_rankings(monkeypatch)
    syntheses = _count_syntheses(monkeypatch)
    scan = infer_nu_ranks(1, 3, {MapRef("nu", 9, 3): None})
    feasible = sum(c.status != "infeasible" for c in scan.checks[0].candidates)
    # 23 candidates, all feasible, at 22 degrees: 506 rankings without sharing
    assert (feasible, len(scan.checks)) == (23, 21)
    rankings = calls["graph"] + calls["contracted"]
    assert len(rankings) <= 152
    assert set(rankings) == set(range(22))
    # one base per degree and scan: a degree whose lambda reads neither
    # nu_9^3 nor rho_11^3 is ranked whole, once; the others are contracted
    # once, on the rows that read neither
    reads = {r for r in range(22) for e in build_split(r, 1, 3).edges.values()
             if (e.side, e.family, e.degree) in {("B", "nu", 9), ("B", "rho", 11)}}
    assert sorted(calls["graph"] + calls["base"]) == list(range(22))
    assert sorted(calls["base"]) == sorted(reads) == sorted(set(calls["contracted"]))
    # only those walk lambda's arrows: twice to contract (the base, then the
    # moving rows' unchanged ends), once to rank whole; a candidate walks none
    assert sorted(calls["walks"]) == sorted(calls["graph"] + 2 * calls["base"])
    # ranking each whole lambda, as the engine once did, builds 15,061 rows
    # over 152 rankings; 4,788 were built when each ranking built its moving rows
    assert calls["rows"] < calls["whole"] <= 15061
    assert calls["dense"] == []
    # the genus-1 piece is the same bundle for every candidate
    assert sorted(syntheses) == [(1, 0)] + [(3, 0)] * 23


def test_split_report_ranks_each_degree_once_per_seed(monkeypatch):
    calls = _count_rankings(monkeypatch)
    syntheses = _count_syntheses(monkeypatch)
    split_report(2, 2, (0, 1))
    assert sorted(calls["graph"]) == list(range(22))
    # no map moves: no base, and each lambda is ranked whole in one walk
    assert calls["base"] == calls["contracted"] == []
    assert sorted(calls["walks"]) == list(range(22))
    assert calls["rows"] == calls["whole"]
    assert sorted(calls["dense"]) == list(range(22))
    # both pieces are the one cached genus-2 bundle: one synthesis per seed
    assert sorted(syntheses) == [(2, 0), (2, 1)]


def test_a_candidate_plans_only_the_maps_it_changes(monkeypatch):
    """The first synthesis of each genus plans every nu_r and rho_r; every
    later candidate plans only nu_9^3 and rho_11^3, and its self-check
    still compares every degree."""
    import f2moduli._witness as witness

    plans, checked = [], []
    for family in ("nu", "rho"):
        made = getattr(witness, f"_{family}_plan")

        def counted(data, r, made=made, family=family):
            plans.append((data.genus, family, r))
            return made(data, r)

        monkeypatch.setattr(witness, f"_{family}_plan", counted)
    check = witness.WitnessSet.check
    monkeypatch.setattr(witness.WitnessSet, "check", lambda ws, counted=None: (
        checked.append(len(ws.plans[0])) or check(ws, counted)))
    scan = infer_nu_ranks(1, 3, {MapRef("nu", 9, 3): None})
    assert len(scan.checks[0].candidates) == 23
    every = lambda g: [(g, f, r) for r in range(6 * g + 1) for f in ("nu", "rho")]  # noqa: E731
    assert sorted(plans) == sorted(every(1) + every(3) + [(3, "nu", 9), (3, "rho", 11)] * 22)
    assert checked == [7] + [19] * 23


def test_size_limit_admits_3_plus_4(monkeypatch):
    import f2moduli.mv as mv

    diagrams = {r: build_split(r, 3, 4) for r in range(40)}
    # seed 0 sizes hits and edges, seed 1 packed words
    mv._check_sizes(diagrams, 3, 4, (0, 1))
    # and not by a wide margin: the dense engine's largest lambda is over 32 MiB
    monkeypatch.setattr(mv, "MAX_LAMBDA_BYTES", 32 * 2**20)
    with pytest.raises(ValidationError, match=r"split 3\+4 degree \d+: .* MiB packed"):
        mv._check_sizes(diagrams, 3, 4, (1,))
