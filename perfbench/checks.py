"""Checks on the JSON output of the benchmarked commands.

Nothing here imports ``f2moduli``.  Every expected value comes either
from the paper's published data in ``reference.json`` or from a closed
form computed below:

* the framed table of genus g has 6g-2 entries and Poincare duality
  h_r = h_(6g-3-r);
* the mod-2 total rank is 2g*C(2g, g), and twice the rational total is
  the same number;
* the four middle mod-2 values (degrees 3g-3..3g) are
  2^(2g-1) - C(2g-1, g) for g >= 2;
* the half-space numbers are n_r = h_(r-2) + m_r up to degree 3g+1 and
  h_(r-2) - m_(r+1) above, with m_r = C(2g, r/3) when 3 divides r;
* a split diagram of genus a+g at degree r has domain
  sum_(i in {0,2}) sum_j h^a_j h^g_(r-i-j) and codomain
  sum_k n^a_k h^g_(r-k) + sum_j h^a_j n^g_(r-j);
* its rows glue to the joined table by h_r = cok_r + ker_(r-1).

Each check takes the parsed payload of one command and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

_DATA = json.loads(Path(__file__).with_name("reference.json").read_text())


def _full(half: list[int], g: int) -> tuple[int, ...]:
    """Framed table of genus g from its half table, by duality."""
    n = 6 * g - 3
    values = list(half) + [0] * (n + 1 - len(half))
    for r in range(len(half), n + 1):
        values[r] = values[n - r]
    return tuple(values)


F2 = {int(g): _full(v, int(g)) for g, v in _DATA["f2_half"].items()}
Q = {int(g): _full(v, int(g)) for g, v in _DATA["q_half"].items()}
GENUS1_RECORDED_HALFSPACE = tuple(_DATA["genus1_recorded_halfspace"])
GENUS2_NU = tuple(_DATA["genus2_nu_ranks"])
SPLIT22 = {k: tuple(v) for k, v in _DATA["split22"].items()}


def m_coeff(g: int, r: int) -> int:
    """Coefficient of t^r in (1 + t^3)^(2g)."""
    return comb(2 * g, r // 3) if 0 <= r <= 6 * g and r % 3 == 0 else 0


def _at(values, r: int) -> int:
    return values[r] if 0 <= r < len(values) else 0


def closed_form_problems(values, g: int, field: str = "F2") -> list[str]:
    """Length, duality, total rank and (mod 2) middle value of a table."""
    if len(values) != 6 * g - 2:
        return [f"genus-{g} table has {len(values)} entries, not {6 * g - 2}"]
    out = []
    n = len(values) - 1
    bad = [r for r in range(n + 1) if values[r] != values[n - r]]
    if bad:
        out.append(f"genus-{g} {field} table breaks duality at degree {bad[0]}")
    total = sum(values) * (1 if field == "F2" else 2)
    if total != 2 * g * comb(2 * g, g):
        out.append(f"genus-{g} {field} total rank {total} != {2 * g * comb(2 * g, g)}")
    if field == "F2" and g >= 2:
        middle = 2 ** (2 * g - 1) - comb(2 * g - 1, g)
        bad = [r for r in range(3 * g - 3, 3 * g + 1) if values[r] != middle]
        if bad:
            out.append(f"genus-{g} middle value at degree {bad[0]} != {middle}")
    return out


def table_problems(values, g: int) -> list[str]:
    """A mod-2 genus-g table against the published one and the closed forms."""
    values = tuple(values)
    if g in F2 and values != F2[g]:
        r = next((i for i, (x, y) in enumerate(zip(values, F2[g])) if x != y), None)
        where = f"at degree {r}" if r is not None else f"in length ({len(values)})"
        return [f"genus-{g} table differs from the published one {where}"]
    return closed_form_problems(values, g)


for _g in F2:
    _bad = closed_form_problems(F2[_g], _g) + closed_form_problems(Q[_g], _g, "Q")
    if _bad:
        raise ValueError(f"reference.json fails its own closed forms: {_bad}")
if SPLIT22["h"] != F2[4]:
    raise ValueError("reference.json: the 2+2 target row is not the genus-4 table")


def halfspace(g: int) -> tuple[int, ...]:
    """Half-space Betti numbers of genus g, degrees 0..6g."""
    h = F2[g]
    return tuple(
        _at(h, r - 2) + m_coeff(g, r) if r <= 3 * g + 1 else _at(h, r - 2) - m_coeff(g, r + 1)
        for r in range(6 * g + 1)
    )


def split_dims(a: int, g: int, r: int) -> tuple[int, int]:
    """(domain, codomain) dimension of lambda_r for the a+g split."""
    ha, hg, na, ng = F2[a], F2[g], halfspace(a), halfspace(g)
    dom = sum(ha[j] * _at(hg, r - i - j) for i in (0, 2) for j in range(len(ha)))
    cod = sum(na[k] * _at(hg, r - k) for k in range(len(na)))
    cod += sum(ha[j] * _at(ng, r - j) for j in range(len(ha)))
    return dom, cod


def glue(pairs) -> list[int]:
    """Joined table from per-degree (ker, cok): h_r = cok_r + ker_(r-1)."""
    return [cok + (pairs[r - 1][0] if r else 0) for r, (_, cok) in enumerate(pairs)]


def _row_problems(a, g, r, dom, cod, ker, cok, ker_window, cok_window) -> list[str]:
    out = []
    if (dom, cod) != split_dims(a, g, r):
        out.append(f"degree {r}: shape {dom}x{cod}, expected {split_dims(a, g, r)}")
    if min(ker, cok) < 0 or dom - ker != cod - cok:
        out.append(f"degree {r}: dom-ker {dom - ker} != cod-cok {cod - cok}")
    (klo, khi), (clo, chi) = ker_window, cok_window
    if not (klo <= ker <= khi and clo <= cok <= chi):
        out.append(f"degree {r}: ({ker}, {cok}) outside [{klo},{khi}] x [{clo},{chi}]")
    if (dom - khi, dom - klo) != (cod - chi, cod - clo):
        out.append(f"degree {r}: ker and cok windows give different rank ranges")
    return out


def _header_problems(payload: dict, command: str, **fields) -> list[str]:
    if payload.get("command") != command:
        return [f"command is {payload.get('command')!r}, not {command!r}"]
    return [f"{k} is {payload.get(k)!r}, not {v!r}" for k, v in fields.items() if payload.get(k) != v]


def split_rows(payload: dict, split: tuple[int, int], seed: int, samples: int) -> list[str]:
    """`mv --split a+g` rows: shapes, rank, windows, closed forms, gluing."""
    a, g = split
    out = _header_problems(payload, "mv", split=[a, g], seed=seed, samples=samples)
    if out:
        return out
    rows = payload["rows"]
    if [row["degree"] for row in rows] != list(range(6 * (a + g) - 2)):
        return ["rows do not cover every degree of the joined table"]
    for row in rows:
        pair = [row["ker"], row["cok"]]
        out += _row_problems(
            a, g, row["degree"], row["dom"], row["cod"], *pair,
            row["ker_window"], row["cok_window"],
        )
        if row["closed_form"] is not None and row["closed_form"] != pair:
            out.append(f"degree {row['degree']}: {pair} != closed form {row['closed_form']}")
    out += table_problems(glue([(row["ker"], row["cok"]) for row in rows]), a + g)
    if payload["stable"] is not True:
        out.append("rows differ across witness seeds")
    if payload["glue_matches"] is not True:
        out.append("the program reports that the glued table diverges")
    return out


def split22_report(payload: dict, seeds: tuple[int, ...]) -> list[str]:
    """The 2+2 report: recorded rows, chain, every seed's realisation, scan."""
    out = _header_problems(payload, "mv", split=[2, 2], seeds=list(seeds))
    if out:
        return out
    rows = payload["rows"]
    if [row["degree"] for row in rows] != list(range(22)):
        return ["rows do not cover degrees 0..21"]
    for row in rows:
        r = row["degree"]
        recorded = [SPLIT22["ker"][r], SPLIT22["cok"][r]]
        if row["recorded"] != recorded or row["chain"] != recorded:
            out.append(f"degree {r}: recorded {row['recorded']}, chain {row['chain']}, paper {recorded}")
        out += _row_problems(
            2, 2, r, row["dom"], row["cod"], *recorded, row["ker_window"], row["cok_window"]
        )
        if [s for s, _, _ in row["realized"]] != list(seeds):
            out.append(f"degree {r}: realised seeds {[s for s, _, _ in row['realized']]}")
        out += [
            f"degree {r}: seed {s} realises ({k}, {c}), paper {recorded}"
            for s, k, c in row["realized"]
            if [k, c] != recorded
        ]
    out += table_problems(glue([row["chain"] for row in rows]), 4)
    if payload["chain_matches_recorded"] is not True:
        out.append("the program reports that the chain diverges")
    recorded_pair = [GENUS2_NU[5], GENUS2_NU[6]]
    passing = [[x, y] for x, y, ok in payload["enumeration"] if ok]
    if passing != [recorded_pair]:
        out.append(f"joint scan passes {passing}, the recorded ranks are {recorded_pair}")
    return out


def infer_result(payload: dict, split: tuple[int, int], unknown: tuple[int, int]) -> list[str]:
    """`infer` for nu_s^genus: target, candidate range, verdicts, deduction."""
    a, g = split
    genus, s = unknown
    out = _header_problems(payload, "infer", split=[a, g], unknown=f"nu_{s}^{genus}")
    if out:
        return out
    top = 6 * (a + g) - 3
    if payload["deduced"] is None and payload["at_degree"] is None:
        if payload["tried_degrees"] != list(range(1, top + 1)):
            out.append(f"scan stopped early: tried {payload['tried_degrees']}")
        return out
    r = payload["at_degree"]
    if not 1 <= r <= top:
        return [f"glue degree {r} outside 1..{top}"]
    target = F2[a + g][r]
    if payload["target"] != target:
        out.append(f"target {payload['target']} != published h_{r} = {target}")
    cands = payload["candidates"]
    cmax = min(F2[genus][s], halfspace(genus)[s])
    if [c["rank"] for c in cands] != list(range(cmax + 1)):
        out.append(f"candidates {[c['rank'] for c in cands]} are not 0..{cmax}")
    for c in cands:
        want = "infeasible" if c["glue"] is None else (
            "consistent" if c["glue"] == target else "inconsistent"
        )
        if c["status"] != want:
            out.append(f"rank {c['rank']}: glue {c['glue']} marked {c['status']}, not {want}")
    consistent = [c["rank"] for c in cands if c["glue"] == target]
    if len(consistent) != 1 or payload["deduced"] != consistent[0]:
        out.append(f"deduced {payload['deduced']} from consistent ranks {consistent}")
    if genus == 2 and payload["deduced"] != GENUS2_NU[s]:
        out.append(f"deduced {payload['deduced']}, the recorded rank is {GENUS2_NU[s]}")
    return out


def verify_report(payload: dict, max_genus: int) -> list[str]:
    """`verify`: every check passes and the known divergence is named."""
    out = _header_problems(payload, "verify", max_genus=max_genus)
    if out:
        return out
    failed = [c["name"] for c in payload["checks"] if c["ok"] is not True]
    if not payload["checks"] or failed or payload["ok"] is not True:
        out.append(f"verification failed: {failed or 'no checks ran'}")
    formula = halfspace(1)
    for r, recorded in enumerate(GENUS1_RECORDED_HALFSPACE):
        name = f"recorded-genus1-halfspace@{r}"
        named = any(n.startswith(name + ":") for n in payload["notes"])
        if named != (recorded != formula[r]):
            out.append(f"note {name} is {'present' if named else 'missing'}")
    return out
