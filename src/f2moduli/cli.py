"""Command line front end.

Subcommands: ``betti`` (one table), ``tables`` (side-by-side half columns
for a genus range), ``nplus`` (half-space boundary numbers), ``profiles``
(recorded boundary-map data), ``serre`` (evaluate a ring profile),
``mv`` (split diagrams), ``infer`` (rank inference) and ``verify`` (the
full cross-check suite).  Output formats: markdown (default), csv for
degree-per-row tables, json (canonical: sorted keys, two-space indent).

Exit codes: 0 success, 1 usage or validation problem, 2 a computation
completed and revealed an inconsistency between independent results.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass

from . import reference
from .betti import BettiTable, mod2_table, rational_table
from .moduli import MapRef, nhat_betti, nplus_betti, reference_diagnostics
from .mv import canonical_data, describe, infer_nu_ranks, joint_scan22, split_report
from .serre import genus2_ring, load_alpha_profile, serre_betti
from .verify import run_checks

__all__ = ["main", "OutputDocument"]


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutputDocument:
    """One command's result in all three renderings.

    ``payload`` must be json-clean (str keys, no tuples needed back);
    ``csv_rows`` is None for report-style commands that have no
    degree-per-row layout.
    """

    payload: dict
    csv_rows: list[list] | None
    text_lines: list[str]

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"
        if fmt == "csv":
            if self.csv_rows is None:
                raise ValueError("csv output is not available for this subcommand")
            return "\n".join(",".join(str(c) for c in row) for row in self.csv_rows) + "\n"
        return "\n".join(self.text_lines) + "\n"


def _md_table(header: list[str], rows: list[list]) -> list[str]:
    out = ["| " + " | ".join(header) + " |"]
    out.append("|" + "|".join(" ---:" for _ in header) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return out


_FIELD = {"f2": "F2", "q": "Q"}


def _table_for(field: str, g: int) -> BettiTable:
    return mod2_table(g) if field == "F2" else rational_table(g)


_DUALITY_NOTE = "remaining degrees follow from the duality h_r = h_(6g-3-r)"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_betti(args) -> tuple[OutputDocument, int]:
    field = _FIELD[args.field]
    table = _table_for(field, args.genus)
    values = list(table.values)
    payload = {
        "command": "betti",
        "genus": args.genus,
        "field": field,
        "space": "framed",
        "values": values,
    }
    csv_rows = [["degree", "value"]] + [[r, v] for r, v in enumerate(values)]
    text = [f"framed {field} Betti numbers, genus {args.genus}", ""]
    text += _md_table(["degree", "value"], [[r, v] for r, v in enumerate(values)])
    return OutputDocument(payload, csv_rows, text), 0


def cmd_tables(args) -> tuple[OutputDocument, int]:
    genera = list(range(1, args.max_genus + 1))
    fields = ["F2", "Q"]
    cols: dict[str, dict[int, list[int]]] = {}
    for f in fields:
        cols[f] = {}
        for g in genera:
            table = _table_for(f, g)
            cols[f][g] = list(table.values if args.full else table.half())
    depth = max(len(v) for f in fields for v in cols[f].values())

    payload = {
        "command": "tables",
        "max_genus": args.max_genus,
        "half": not args.full,
        "tables": [
            {"field": f, "columns": [{"genus": g, "values": cols[f][g]} for g in genera]}
            for f in fields
        ],
    }

    header = ["degree"] + [f"{f.lower()}_g{g}" for f in fields for g in genera]
    csv_rows: list[list] = [header]
    for r in range(depth):
        row: list = [r]
        for f in fields:
            for g in genera:
                v = cols[f][g]
                row.append(v[r] if r < len(v) else "")
        csv_rows.append(row)

    text: list[str] = []
    for f in fields:
        label = "mod-2" if f == "F2" else "rational"
        text.append(f"framed {label} Betti numbers, genus 1..{args.max_genus}")
        text.append("")
        fdepth = max(len(v) for v in cols[f].values())
        rows = []
        for r in range(fdepth):
            rows.append(
                [r] + [cols[f][g][r] if r < len(cols[f][g]) else "" for g in genera]
            )
        text += _md_table(["degree"] + [f"g={g}" for g in genera], rows)
        text.append("")
    if not args.full:
        text.append(f"listed: degrees 0..3g-2 per column; {_DUALITY_NOTE}")
    return OutputDocument(payload, csv_rows, text), 0


def cmd_nplus(args) -> tuple[OutputDocument, int]:
    g = args.genus
    plus = nplus_betti(g)
    rel = nhat_betti(g)
    rows = [[r, plus[r], rel[r]] for r in range(6 * g + 1)]
    payload = {
        "command": "nplus",
        "genus": g,
        "halfspace": list(plus.values),
        "relative": list(rel.values),
    }
    csv_rows = [["degree", "halfspace", "relative"]] + rows
    text = [f"half-space boundary Betti numbers, genus {g}", ""]
    text += _md_table(["degree", "halfspace", "relative"], rows)
    return OutputDocument(payload, csv_rows, text), 0


def cmd_profiles(args) -> tuple[OutputDocument, int]:
    g = args.genus
    data = canonical_data(g)
    boxed = reference.GENUS1_BOXED_NU if g == 1 else reference.GENUS2_BOXED_NU
    rows = []
    jrows = []
    for r in range(6 * g + 1):
        nu = data.nu[r].notation() + ("*" if r in boxed else "")
        rows.append(
            [r, data.h[r], data.nplus[r], data.mu[r].notation(), data.rho[r].notation(), nu]
        )
        jrows.append(
            {
                "degree": r,
                "h": data.h[r],
                "n": data.nplus[r],
                "mu": data.mu[r].notation(),
                "rho": data.rho[r].notation(),
                "nu": data.nu[r].notation(),
                "nu_deduced": r in boxed,
            }
        )
    notes = [
        f"{d.level}: {d.name}: {d.message}"
        for d in reference_diagnostics()
        if d.name.startswith(f"recorded-genus{g}")
    ]
    payload = {"command": "profiles", "genus": g, "rows": jrows, "notes": notes}
    csv_rows = [["degree", "h", "n", "mu", "rho", "nu"]] + [row[:5] + [row[5].rstrip("*")] for row in rows]
    text = [f"boundary-map profiles, genus {g} (rank_dom^cod; * = deduced rank)", ""]
    text += _md_table(["r", "h", "n", "mu", "rho", "nu"], rows)
    for n in notes:
        text.append(f"note {n}")
    return OutputDocument(payload, csv_rows, text), 0


def cmd_serre(args) -> tuple[OutputDocument, int]:
    if args.ring_file is not None:
        action = load_alpha_profile(args.ring_file)
        source = str(args.ring_file)
    else:
        action = genus2_ring()
        source = "builtin genus-2 ring"
    table = serre_betti(action)
    expected = mod2_table(action.genus)
    matches = table.values == expected.values
    rows = [[r, v] for r, v in enumerate(table.values)]
    payload = {
        "command": "serre",
        "genus": action.genus,
        "source": source,
        "dims": list(action.dims),
        "alpha_ranks": list(action.ranks),
        "values": list(table.values),
        "matches_recursion": matches,
    }
    csv_rows = [["degree", "value"]] + rows
    text = [f"spectral-sequence evaluation of {source} (genus {action.genus})", ""]
    text += _md_table(["degree", "value"], rows)
    text.append("")
    text.append(
        "table matches the recursion values"
        if matches
        else "table DIVERGES from the recursion values"
    )
    return OutputDocument(payload, csv_rows, text), 0 if matches else 2


def _parse_split(tok: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)\+(\d+)", tok)
    if not m or min(int(m.group(1)), int(m.group(2))) < 1:
        raise argparse.ArgumentTypeError(f"invalid split {tok!r}; expected e.g. 1+2")
    return int(m.group(1)), int(m.group(2))


def _window(interval: tuple[int, int]) -> str:
    return f"[{interval[0]},{interval[1]}]"


def _row_fields(row) -> dict:
    return {
        "degree": row.degree,
        "dom": row.dom,
        "cod": row.cod,
        "ker_window": list(row.ker_interval),
        "cok_window": list(row.cok_interval),
        "verdict": row.verdict,
    }


def _split_csv_rows(report) -> list[list]:
    """Any split's degree-per-row csv, with the first seed's (ker, cok)."""
    seed = report.seeds[0]
    return [["degree", "dom", "cod", "ker", "cok", "ker_lo", "ker_hi", "cok_lo", "cok_hi"]] + [
        [row.degree, row.dom, row.cod, *row.realized[seed], *row.ker_interval, *row.cok_interval]
        for row in report.rows
    ]


def _split_report_document(report, dumps: list[list[str]]) -> OutputDocument:
    a, g = report.split
    seed = report.seeds[0]
    rows, jrows = [], []
    for row in report.rows:
        ker, cok = row.realized[seed]
        rows.append(
            [row.degree, row.dom, row.cod, ker, cok,
             _window(row.ker_interval), _window(row.cok_interval), row.verdict]
        )
        jrows.append(
            {
                **_row_fields(row),
                "ker": ker,
                "cok": cok,
                "closed_form": list(row.closed_form) if row.closed_form is not None else None,
            }
        )
    payload = {
        "command": "mv",
        "split": [a, g],
        "seed": seed,
        "samples": len(report.seeds),
        "stable": report.stable,
        "rows": jrows,
        "glue_matches": report.glue_matches,
        "describe": dumps or None,
    }
    text = [f"{a}+{g} split diagrams (seed {seed})", ""]
    text += _md_table(
        ["r", "dom", "cod", "ker", "cok", "ker range", "cok range", "verdict"], rows
    )
    for dump in dumps:
        text.append("")
        text.extend(dump)
    if len(report.seeds) > 1:
        text.append("")
        text.append(
            f"rows stable across seeds {seed}..{report.seeds[-1]}"
            if report.stable
            else "rows VARY across seeds"
        )
    if report.glue_matches is not None:
        text.append("")
        text.append(
            f"glued table matches the genus-{a + g} recursion values"
            if report.glue_matches
            else f"glued table DIVERGES from the genus-{a + g} recursion values"
        )
    if report.hypothesis_genera:
        payload["hypothesis_genera"] = list(report.hypothesis_genera)
        genera = ", ".join(str(k) for k in report.hypothesis_genera)
        text.append("")
        text.append(f"genus {genera}: max-rank hypothesis bundle (hypothesis_data), not recorded ranks")
    return OutputDocument(payload, _split_csv_rows(report), text)


def _split22_document(report, scan, dumps: list[list[str]]) -> OutputDocument:
    """The 2+2 bookkeeping: windows, chain, records, realisations, joint scan."""
    payload = {
        "command": "mv",
        "split": [2, 2],
        "seeds": list(report.seeds),
        "rows": [
            {
                **_row_fields(row),
                "chain": list(row.chain),
                "recorded": list(row.recorded),
                "realized": [[s, k, c] for s, (k, c) in sorted(row.realized.items())],
            }
            for row in report.rows
        ],
        "chain_matches_recorded": report.chain_matches_recorded,
        "enumeration": [[*ranks, ok] for ranks, ok in scan.passing],
    }
    text = [
        "2+2 split bookkeeping (ker, cok per degree)",
        f"{'r':>3} {'dom':>5} {'cod':>5} {'ker range':>11} {'cok range':>11}"
        f" {'chain':>9} {'recorded':>9} verdict",
    ]
    for row in report.rows:
        rec = f"({row.recorded[0]},{row.recorded[1]})"
        text.append(
            f"{row.degree:>3} {row.dom:>5} {row.cod:>5} {_window(row.ker_interval):>11}"
            f" {_window(row.cok_interval):>11} ({row.chain[0]},{row.chain[1]})".ljust(62)
            + f" {rec:>9} {row.verdict}"
        )
    text.append(
        "chain matches the recorded rows"
        if report.chain_matches_recorded
        else "chain DIVERGES from the recorded rows"
    )
    if report.realized_off_chain:
        degs = ", ".join(str(d) for d in report.realized_off_chain)
        text.append(f"canonical realisation differs from the chain at degrees {degs}")
    else:
        text.append("canonical realisation reproduces the chain at every degree")
    text.append("joint rank scan for the two open arrows (degrees 5 and 6):")
    for (a, b), ok in scan.passing:
        text.append(f"  (nu_5, nu_6) = ({a}, {b}): {'passes' if ok else 'fails'}")
    if dumps:
        payload["describe"] = dumps
        for dump in dumps:
            text.append("")
            text.extend(dump)
    return OutputDocument(payload, _split_csv_rows(report), text)


def cmd_mv(args) -> tuple[OutputDocument, int]:
    if args.describe and args.format == "csv":
        raise ValueError("csv has no room for the --describe summand and edge dump; use markdown or json")
    a, g = args.split
    seeds = range(args.seed, args.seed + args.samples)
    report = split_report(a, g, seeds, None if args.degree is None else [args.degree])
    dumps = [describe(row.diagram) for row in report.rows] if args.describe else []
    if report.chain_matches_recorded is None:
        doc = _split_report_document(report, dumps)
    else:
        # recorded rows (the 2+2 split) come with the joint scan of their open arrows
        doc = _split22_document(report, joint_scan22(), dumps)
    return doc, 0 if report.ok else 2


def _parse_map(tok: str) -> MapRef:
    m = re.fullmatch(r"(mu|nu|rho)_(\d+)\^(\d+)", tok)
    if not m:
        raise argparse.ArgumentTypeError(
            f"cannot parse map reference {tok!r}; expected e.g. nu_2^1"
        )
    return MapRef(m.group(1), int(m.group(2)), int(m.group(3)))


def cmd_infer(args) -> tuple[OutputDocument, int]:
    a, g = args.split
    degrees = None if args.at_degree is None else [args.at_degree]
    scan = infer_nu_ranks(a, g, {args.unknown: None}, degrees)
    res = scan.checks[-1]
    unknown = args.unknown.notation()
    payload = {"command": "infer", "split": [a, g], "unknown": unknown, "deduced": res.deduced}
    if args.at_degree is None and res.deduced is None:
        tried = [check.at_degree for check in scan.checks]
        payload.update(at_degree=None, tried_degrees=tried)
        text = [f"no glue degree in 1..{tried[-1]} pins rank {unknown} on its own"]
    else:
        payload.update(
            at_degree=res.at_degree,
            target=res.target_value,
            candidates=[
                {"rank": c.rank, "glue": c.glue_value, "status": c.status}
                for c in res.candidates
            ],
        )
        text = res.lines()
    return OutputDocument(payload, None, text), 0


def cmd_verify(args) -> tuple[OutputDocument, int]:
    checks, notes = run_checks(args.max_genus)
    failed = [name for name, ok, _ in checks if not ok]
    payload = {
        "command": "verify",
        "max_genus": args.max_genus,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "notes": notes,
        "ok": not failed,
    }
    text = [f"verification suite, genus bound {args.max_genus}", ""]
    for name, ok, detail in checks:
        text.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for n in notes:
        text.append(f"note {n}")
    text.append("")
    text.append(
        f"all {len(checks)} checks passed"
        if not failed
        else f"{len(failed)} of {len(checks)} checks FAILED: {', '.join(failed)}"
    )
    return OutputDocument(payload, None, text), 0 if not failed else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse reserves exit status 2 for usage errors; here status 2
    # means a verified inconsistency, so usage problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least_one(name: str):
    def parse(tok: str) -> int:
        try:
            v = int(tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {name} {tok!r}")
        if v < 1:
            raise argparse.ArgumentTypeError(f"{name} must be at least 1, got {tok}")
        return v

    return parse


_genus = _at_least_one("genus")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, and every default is immutable, so one serves every call."""
    parser = _Parser(prog="f2moduli", description=__doc__.splitlines()[0])
    fmt = _Parser(add_help=False)
    fmt.add_argument(
        "--format", choices=("markdown", "csv", "json"), default="markdown"
    )
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = sub.add_parser("betti", parents=[fmt], help="one framed Betti table")
    p.add_argument("--genus", type=_genus, required=True)
    p.add_argument("--field", choices=("f2", "q"), default="f2")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("tables", parents=[fmt], help="half columns for a genus range")
    p.add_argument("--max-genus", type=_genus, required=True)
    p.add_argument("--full", action="store_true", help="all degrees, not just the half columns")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("nplus", parents=[fmt], help="half-space boundary numbers")
    p.add_argument("--genus", type=_genus, required=True)
    p.set_defaults(func=cmd_nplus)

    p = sub.add_parser("profiles", parents=[fmt], help="recorded boundary-map data")
    p.add_argument("--genus", type=int, choices=(1, 2), required=True)
    p.set_defaults(func=cmd_profiles)

    p = sub.add_parser("serre", parents=[fmt], help="evaluate a ring profile")
    p.add_argument(
        "--ring-file", metavar="PATH", default=None,
        help="alpha profile JSON, which sets the genus (default: the built-in genus-2 ring)",
    )
    p.set_defaults(func=cmd_serre)

    p = sub.add_parser("mv", parents=[fmt], help="split diagram rows")
    p.add_argument("--split", type=_parse_split, required=True, metavar="A+G")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_at_least_one("samples"), default=1)
    p.add_argument("--describe", action="store_true", help="dump summands and edges per degree")
    p.set_defaults(func=cmd_mv)

    p = sub.add_parser("infer", parents=[fmt], help="deduce an open nu rank")
    p.add_argument("--split", type=_parse_split, required=True, metavar="A+G")
    p.add_argument("--unknown", type=_parse_map, required=True, metavar="MAP")
    p.add_argument("--at-degree", type=int, default=None)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("verify", parents=[fmt], help="full cross-check suite")
    p.add_argument("--max-genus", type=_genus, default=6)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        doc, code = args.func(args)
        sys.stdout.write(doc.render(args.format))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
