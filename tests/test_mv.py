from dataclasses import replace

import numpy as np
import pytest

from f2moduli import reference
from f2moduli._witness import synthesize_witnesses
from f2moduli.betti import m_coeff, mod2_table
from f2moduli.cli import _split22_document
from f2moduli.errors import ShapeError, ValidationError
from f2moduli.f2la import BitMatrix, rank
from f2moduli.moduli import MapRef, genus1_data, genus2_data, nplus_betti
from f2moduli.mv import (
    Diagram,
    EdgeSpec,
    RealizedDiagram,
    build_split,
    canonical_data,
    closed_form_ker_coker,
    describe,
    eliminate,
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


def test_empty_diagram():
    assert ker_coker(RealizedDiagram({}, {})) == (0, 0)


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
    assert len(sym) == 3 + len(real.summands) + len(real.edges)
    edges = sym[sym.index("edges:") + 1 :]
    assert len(edges) == len(real.edges) and all(" -> " in l for l in edges)


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
# elimination
# ---------------------------------------------------------------------------


def test_eliminate_single_iso_empties():
    two = BitMatrix.identity(2)
    diag = RealizedDiagram({("dom", 0, 0): 2, ("red", 0): 2}, {(("dom", 0, 0), ("red", 0)): two})
    out = eliminate(diag)
    assert out.summands == {} and out.edges == {}


def _no_invertible_edges(d):
    return all(
        not (m.rows == m.cols > 0 and rank(m) == m.rows) for m in d.edges.values()
    )


@pytest.mark.parametrize("r", range(10))
def test_eliminate_preserves_lambda11(r, d1):
    real = realize(build_split(r, 1, 1), *_wits(d1, d1))
    red = eliminate(real)
    assert ker_coker(red) == ker_coker(real)
    assert _no_invertible_edges(red)
    assert len(red.summands) <= len(real.summands)


@pytest.mark.parametrize("r", [3, 4, 5, 7, 11])
def test_eliminate_preserves_lambda12(r, d1, d2):
    real = realize(build_split(r, 1, 2), *_wits(d1, d2))
    red = eliminate(real)
    assert ker_coker(red) == ker_coker(real)
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
    return RealizedDiagram(summands, edges)


@pytest.mark.parametrize("seed", range(100))
def test_eliminate_preserves_random_diagrams(seed):
    rng = np.random.default_rng(seed)
    d = _random_diagram(rng)
    red = eliminate(d)
    assert ker_coker(red) == ker_coker(d)
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

    monkeypatch.setattr(mv, "synthesize_witnesses", lambda *_: pytest.fail("synthesised"))
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
    # a 1+8 lambda is 2.9 MiB as edges, but one genus-8 witness is not
    with pytest.raises(ValidationError, match=r"genus 8 witnesses: mu_21 .* 72.7 MiB packed"):
        split_report(1, 8)
    with pytest.raises(ValidationError, match=r"genus 8 witnesses: mu_21"):
        infer_nu_ranks(1, 8, {MapRef("nu", 2, 1): None})


def test_witness_limit_admits_genus_7():
    import f2moduli.mv as mv

    for g in range(1, 8):
        mv._check_witness_size(canonical_data(g))


def _count_syntheses(monkeypatch) -> list:
    """Record (genus, seed) of every witness synthesis the split engine asks for."""
    import f2moduli.mv as mv

    calls = []

    def counted(data, seed):
        calls.append((data.genus, seed))
        return synthesize_witnesses(data, seed)

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


def test_size_limit_admits_3_plus_4(monkeypatch):
    import f2moduli.mv as mv

    diagrams = [build_split(r, 3, 4) for r in range(40)]
    for diag in diagrams:
        mv._check_size(diag, False)
        mv._check_size(diag, True)
    # and not by a wide margin: the dense engine's largest lambda is over 32 MiB
    monkeypatch.setattr(mv, "MAX_LAMBDA_BYTES", 32 * 2**20)
    with pytest.raises(ValidationError, match=r"split 3\+4 degree \d+: .* MiB packed"):
        for diag in diagrams:
            mv._check_size(diag, False)
