"""The cross-check suite behind ``f2moduli verify``.

Each check compares independently computed results: the published half
tables against the recursion, the recursion against its closed forms and
its own step checker, the half-space bookkeeping against the boundary-map
profiles, the ring evaluation against the tables, and the split diagrams
against the joined tables and the recorded 2+2 rows.  The recorded
genus-1/2 side constraints are evaluated on the witness matrices.
"""

from __future__ import annotations

from . import reference
from .betti import (
    BettiTable,
    m_row,
    middle_closed_form,
    mod2_table,
    rational_table,
    total_rank_identity,
    verify_theorem,
)
from .errors import ValidationError
from ._witness import WitnessSet, synthesize_witnesses
from .f2la import compose, inverse, rank
from .moduli import (
    GenusData,
    boundary_ladder,
    genus1_data,
    genus2_data,
    nhat_betti,
    reference_diagnostics,
)
from .mv import split_report
from .ringdata import alpha_ranks_from_tables
from .serre import genus2_ring, serre_betti

__all__ = ["run_checks", "check_side_constraints", "constraint_readings"]


def _composite_kernel(ws: WitnessSet, s: int) -> int | None:
    """ker of nu_{s+2} then rho_{s+2}^-1 then nu_s, when rho_{s+2} is invertible."""
    r_mat = ws.matrix("rho", s + 2)
    if r_mat.rows != r_mat.cols or rank(r_mat) != r_mat.rows:
        return None
    route = compose(compose(ws.matrix("nu", s + 2), inverse(r_mat)), ws.matrix("nu", s))
    return route.rows - rank(route)


def constraint_readings(data: GenusData) -> list[tuple[str, str, int, int]]:
    """(label, reading, value on the seed-0 witnesses, recorded value) per reading.

    The records are kept as written, and some do not type-check as
    stated.  An image containment or a composite kernel is read
    literally.  A kernel intersection of nu_s with a degree-(s+2) map is
    read on the domain nu_s shares with rho_{s+2} ("shared-domain"), and
    as the kernel of the route through their shared codomain
    ("composite-route") where rho_{s+2} is invertible.  A reading whose
    operands share no space is not built.
    """
    ws = synthesize_witnesses(data)
    out = []
    for c in data.constraints:
        s = c.operands[0].degree
        if c.kind == "image-containment":
            readings = {"literal": int(rank(ws.mu(s)) == rank(ws.matrix("rho", s)))}
        elif c.kind == "composite-kernel":
            readings = {"literal": _composite_kernel(ws, s)}
        elif c.operands[1].degree == s + 2:
            readings = {
                "shared-domain": ws.kernel_intersection(s),
                "composite-route": _composite_kernel(ws, s),
            }
        else:
            readings = {}
        out += [(c.label, name, got, c.value) for name, got in readings.items() if got is not None]
    return out


def check_side_constraints(bundles) -> tuple[tuple[str, bool, str], list[str]]:
    """The recorded-side-constraints check over ``bundles``, and its notes.

    It passes when every recorded constraint holds in at least one of its
    readings; each reading that does not hold becomes a note.
    """
    readings = [item for data in bundles for item in constraint_readings(data)]
    held = {label for label, _, got, want in readings if got == want}
    missed = [c.label for data in bundles for c in data.constraints if c.label not in held]
    notes = [
        f"{label}: {reading} reading gives {got} on the witnesses, recorded value is {want}"
        for label, reading, got, want in readings
        if got != want
    ]
    detail = (
        "each recorded genus-1/2 constraint holds in some reading"
        if not missed
        else f"no reading holds for {missed}"
    )
    return ("recorded-side-constraints", not missed, detail), notes


def run_checks(max_genus: int) -> tuple[list[tuple[str, bool, str]], list[str]]:
    """The (name, ok, detail) of every check, in order, and the informational notes."""
    if max_genus < 2:
        raise ValidationError(
            f"genus bound {max_genus} leaves middle-closed-form, recursion-steps and "
            "field-comparison with nothing to compare; use at least 2"
        )
    checks: list[tuple[str, bool, str]] = []
    notes: list[str] = []
    top = max_genus

    halves = (("F2", mod2_table, reference.F2_HALF), ("Q", rational_table, reference.Q_HALF))
    half_tables = (
        (f"{field} g={g}", table(g).half(), golden[g])
        for g in range(1, min(top, 6) + 1)
        for field, table, golden in halves
    )
    bad = next((f"{where}: {got} != {want}" for where, got, want in half_tables if got != want), "")
    checks.append(("golden-half-tables", not bad, bad or f"g=1..{min(top, 6)} both fields"))

    ok = all(
        (lambda t: t[0] == t[1] == t[2])(total_rank_identity(g)) for g in range(1, top + 1)
    )
    checks.append(("total-rank-identity", ok, f"g=1..{top}"))

    ok = all(
        set(mod2_table(g).values[3 * g - 3: 3 * g + 1]) == {middle_closed_form(g)}
        for g in range(2, top + 1)
    )
    checks.append(("middle-closed-form", ok, f"four middle degrees, g=2..{top}"))

    ok = all(verify_theorem(g, mod2_table(g + 1)).all_pass for g in range(1, top))
    checks.append(("recursion-steps", ok, f"g -> g+1 for g=1..{top - 1}"))

    tweaked = list(mod2_table(3).values)
    tweaked[5] += 1
    rep = verify_theorem(2, BettiTable(3, "F2", tuple(tweaked), space="framed"))
    checks.append(
        ("perturbation-flagged", not rep.all_pass, "one-off candidate is rejected")
    )

    ok = True
    for g in range(2, top + 1):
        f2, q = mod2_table(g).values, rational_table(g).values
        if f2[: 2 * g - 1] != q[: 2 * g - 1] or f2[2 * g - 1] != q[2 * g - 1] + 1:
            ok = False
            break
    checks.append(("field-comparison", ok, f"agree below 2g-1, +1 at 2g-1, g=2..{top}"))

    ok = True
    for g in range(1, top + 1):
        # coker mu_r + ker mu_{r-1} = nhat_r and coker rho_r + ker rho_{r-1} = m_r
        ker = rker = 0
        for a, d, b, e, n, rel, m in zip(*boundary_ladder(g), nhat_betti(g).values, m_row(g)):
            if n - a + ker != rel or n - b + rker != m:
                ok = False
            ker, rker = d - a, e - b
    checks.append(("halfspace-bookkeeping", ok, f"mu and rho ladders, g=1..{top}"))

    diags = reference_diagnostics()
    errors = [d for d in diags if d.level == "error"]
    for d in diags:
        if d.level == "info":
            notes.append(f"{d.name}: {d.message}")
    checks.append(
        (
            "recorded-profile-rows",
            not errors,
            "formulas reproduce the recorded genus-1/2 rows"
            if not errors
            else f"unexplained divergences: {[d.name for d in errors]}",
        )
    )

    check, side_notes = check_side_constraints((genus1_data(), genus2_data()))
    checks.append(check)
    notes += side_notes

    ok = serre_betti(genus2_ring()).values == mod2_table(2).values
    checks.append(("ring-evaluation", ok, "genus-2 ring reproduces the table"))

    ok = all(
        serre_betti(alpha_ranks_from_tables(g)).values == mod2_table(g).values
        for g in range(1, min(top, 6) + 1)
    )
    checks.append(("derived-ring-profiles", ok, f"round-trip g=1..{min(top, 6)}"))

    split11, split12 = split_report(1, 1), split_report(1, 2)
    ok = split11.glue_matches and split12.glue_matches
    checks.append(("split-gluing", ok, "1+1 and 1+2 rows glue to the next table"))
    checks.append(
        ("split-closed-forms", split12.closed_forms_hold, "forced 1+2 degrees match realisations")
    )

    report = split_report(2, 2)
    ok = report.chain_matches_recorded and not report.realized_off_chain
    checks.append(
        ("recorded-splitting-rows", ok, "2+2 chain and realisation agree with records")
    )

    return checks, notes
