import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from f2moduli.cli import build_parser, main
from f2moduli.errors import ValidationError
from f2moduli.ringdata import write_profile
from f2moduli.verify import run_checks

ROOT = Path(__file__).resolve().parents[1]

GENUS2_CSV = "degree,value\n0,1\n1,0\n2,1\n3,5\n4,5\n5,5\n6,5\n7,1\n8,0\n9,1\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert run(capsys, ["betti", "--genus", "0"])[0] == 1
    assert run(capsys, ["betti"])[0] == 1  # --genus required
    assert run(capsys, ["no-such-command"])[0] == 1
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["mv", "--split", "banana"])[0] == 1
    assert run(capsys, ["infer", "--split", "1+1", "--unknown", "nu2"])[0] == 1


def test_help_exits_0(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["betti", "--help"])[0] == 0


def test_missing_ring_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, ["serre", "--ring-file", str(tmp_path / "nope.json")])
    assert code == 1
    assert "nope.json" in err


def test_csv_unavailable_for_reports(capsys):
    code, _, err = run(capsys, ["verify", "--max-genus", "2", "--format", "csv"])
    assert code == 1
    assert "csv" in err
    code, _, err = run(capsys, ["infer", "--split", "1+1", "--unknown", "nu_2^1", "--format", "csv"])
    assert code == 1
    assert "csv" in err


# ---------------------------------------------------------------------------
# betti
# ---------------------------------------------------------------------------


def test_betti_csv_golden(capsys):
    code, out, _ = run(capsys, ["betti", "--genus", "2", "--field", "f2", "--format", "csv"])
    assert code == 0
    assert out == GENUS2_CSV


def test_betti_json_is_canonical(capsys):
    code, out, _ = run(capsys, ["betti", "--genus", "3", "--field", "q", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [1, 0, 1, 6, 1, 6, 15, 0, 0, 15, 6, 1, 6, 1, 0, 1]
    # canonical emission: parse -> dump -> identical bytes
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_betti_markdown(capsys):
    code, out, _ = run(capsys, ["betti", "--genus", "1"])
    assert code == 0
    assert "| 0 | 1 |" in out and "genus 1" in out


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_tables_half_columns_and_footnote(capsys):
    code, out, _ = run(capsys, ["tables", "--max-genus", "6"])
    assert code == 0
    assert "duality" in out
    # the F2 table comes first; its degree-16 row ends the g=6 column
    deg16 = [l for l in out.splitlines() if l.startswith("| 16 ")]
    assert deg16[0].endswith("| 1586 |")
    # half columns stop at degree 3g-2
    assert "| 17 |" not in out
    _, jout, _ = run(capsys, ["tables", "--max-genus", "6", "--format", "json"])
    payload = json.loads(jout)
    by_field = {t["field"]: t["columns"] for t in payload["tables"]}
    f2g6 = next(c for c in by_field["F2"] if c["genus"] == 6)["values"]
    qg6 = next(c for c in by_field["Q"] if c["genus"] == 6)["values"]
    assert len(f2g6) == 17 and f2g6[-3:] == [794, 1586, 1586]
    assert len(qg6) == 17 and qg6[-3:] == [495, 792, 0]


def test_tables_full_reaches_top_degree(capsys):
    code, out, _ = run(capsys, ["tables", "--max-genus", "2", "--full"])
    assert code == 0
    payload_code, jout, _ = run(
        capsys, ["tables", "--max-genus", "2", "--full", "--format", "json"]
    )
    payload = json.loads(jout)
    f2 = next(t for t in payload["tables"] if t["field"] == "F2")
    g2 = next(c for c in f2["columns"] if c["genus"] == 2)
    assert g2["values"] == [1, 0, 1, 5, 5, 5, 5, 1, 0, 1]


def test_tables_csv_json_same_numbers(capsys):
    _, jout, _ = run(capsys, ["tables", "--max-genus", "3", "--format", "json"])
    _, cout, _ = run(capsys, ["tables", "--max-genus", "3", "--format", "csv"])
    payload = json.loads(jout)
    lines = [l.split(",") for l in cout.strip().splitlines()]
    header, rows = lines[0], lines[1:]
    col = header.index("f2_g3")
    csv_vals = [int(r[col]) for r in rows if r[col] != ""]
    f2 = next(t for t in payload["tables"] if t["field"] == "F2")
    assert csv_vals == next(c for c in f2["columns"] if c["genus"] == 3)["values"]


# ---------------------------------------------------------------------------
# nplus / profiles
# ---------------------------------------------------------------------------


def test_nplus_row(capsys):
    code, out, _ = run(capsys, ["nplus", "--genus", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["halfspace"] == [1, 0, 1, 3, 1, 0, 0]
    assert payload["relative"] == [0, 0, 1, 3, 1, 0, 1]


def test_profiles_notation_and_note(capsys):
    code, out, _ = run(capsys, ["profiles", "--genus", "1"])
    assert code == 0
    assert "| 3 | 1 | 3 | 1_2^3 | 1_1^3 | 1_1^3* |" in out
    assert "recorded-genus1-halfspace@5" in out


def test_profiles_genus2_json(capsys):
    code, out, _ = run(capsys, ["profiles", "--genus", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    row6 = next(r for r in payload["rows"] if r["degree"] == 6)
    assert row6["mu"] == "5_10^11" and row6["nu"] == "5_5^11"
    assert row6["nu_deduced"] is True
    assert payload["notes"] == []


def test_profiles_rejects_genus3(capsys):
    assert run(capsys, ["profiles", "--genus", "3"])[0] == 1


# ---------------------------------------------------------------------------
# serre
# ---------------------------------------------------------------------------


def test_serre_builtin_matches(capsys):
    code, out, _ = run(capsys, ["serre", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [1, 0, 1, 5, 5, 5, 5, 1, 0, 1]
    assert payload["matches_recursion"] is True


def test_serre_ring_file_round_trip(capsys, tmp_path):
    from f2moduli.ringdata import write_profile

    path = tmp_path / "g3.json"
    write_profile(path, 3)
    code, out, _ = run(capsys, ["serre", "--ring-file", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 3 and payload["matches_recursion"] is True


def test_serre_wrong_ranks_exit_2(capsys, tmp_path):
    # structurally valid profile whose numbers do not reproduce the table:
    # a verified inconsistency, not a usage error
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"genus": 2, "dims": [1, 0, 1, 4, 1, 0, 1], "alpha_ranks": [0, 0, 0, 0, 0]})
    )
    code, out, _ = run(capsys, ["serre", "--ring-file", str(path)])
    assert code == 2
    assert "DIVERGES" in out


def test_serre_genus3_without_file_exits_1(capsys):
    assert run(capsys, ["serre", "--genus", "3"])[0] == 1


def test_serre_has_no_genus_flag(capsys, tmp_path):
    # the genus comes from the ring file, or is 2 for the built-in ring
    from f2moduli.ringdata import write_profile

    path = tmp_path / "g2.json"
    write_profile(path, 2)
    assert run(capsys, ["serre", "--genus", "2"])[0] == 1
    assert run(capsys, ["serre", "--ring-file", str(path), "--genus", "7"])[0] == 1


_G2_PROFILE = {"genus": 2, "dims": [1, 0, 1, 4, 1, 0, 1], "alpha_ranks": [1, 0, 0, 0, 1]}


@pytest.mark.parametrize(
    "change",
    [
        {"dims": 5},
        {"alpha_ranks": 5},
        {"alpha_ranks": None},
        # alpha matrices, malformed or well-formed: the profile holds ranks only
        {"alpha_matrices": 5},
        {"alpha_matrices": [5, 5, 5, 5, 5]},
        {"alpha_matrices": [[300], [], [0], [], [1]]},
        {"alpha_matrices": [[1], [], [0], [], [1]]},
        # a well-formed genus-1 profile, but for the genus
        {"genus": True, "dims": [1], "alpha_ranks": []},
    ],
    ids=["dims-int", "ranks-int", "ranks-null", "matrices-int", "matrices-of-ints",
         "matrix-entry-300", "alpha-matrices-key", "genus-bool"],
)
def test_serre_malformed_ring_file_exits_1(capsys, tmp_path, change):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_G2_PROFILE, **change}))
    code, out, err = run(capsys, ["serre", "--ring-file", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for key in set(change) - set(_G2_PROFILE):  # an unknown key is named
        assert key in err


# ---------------------------------------------------------------------------
# mv
# ---------------------------------------------------------------------------


def test_mv_11_glues(capsys):
    code, out, _ = run(capsys, ["mv", "--split", "1+1"])
    assert code == 0
    assert "glued table matches the genus-2 recursion values" in out


def test_mv_single_degree_json(capsys):
    code, out, _ = run(capsys, ["mv", "--split", "1+2", "--degree", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    (row,) = payload["rows"]
    assert (row["ker"], row["cok"]) == (1, 1)
    assert row["closed_form"] == [1, 1]
    assert payload["glue_matches"] is None


def test_mv_names_hypothesis_genera(capsys):
    code, out, _ = run(capsys, ["mv", "--split", "2+3"])
    assert code == 2
    assert out.splitlines()[-1].startswith("genus 3: max-rank hypothesis")
    code, out, _ = run(capsys, ["mv", "--split", "1+4", "--degree", "3", "--format", "json"])
    assert json.loads(out)["hypothesis_genera"] == [4]
    for split in ("1+2", "2+2"):
        code, out, _ = run(capsys, ["mv", "--split", split, "--degree", "3", "--format", "json"])
        assert "hypothesis_genera" not in json.loads(out)


def test_mv_degree_out_of_range(capsys):
    assert run(capsys, ["mv", "--split", "1+1", "--degree", "40"])[0] == 1


# the dense engine (any witness seed but 0) holds lambda packed; at seed 0,
# where mv and infer run the graph engine, 4+4 and 2+6 run.  A 1+g lambda
# is a few MiB of edges at seed 0, but from genus 8 on the witnesses
# themselves are over the limit
OVERSIZED = {
    "4+4": "error: split 4+4 degree 17: lambda is 25070 x 28374, "
    "84.9 MiB packed, over the 64 MiB limit\n",
    "2+6": "error: split 2+6 degree 18: lambda is 28391 x 35651, "
    "120.9 MiB packed, over the 64 MiB limit\n",
    "1+8": "error: genus 8 witnesses: mu_21 is 33218 x 18325, "
    "72.7 MiB packed, over the 64 MiB limit\n",
    "1+9": "error: genus 9 witnesses: mu_18 is 25010 x 21778, "
    "65.1 MiB packed, over the 64 MiB limit\n",
    # seed 0 keeps hits, 8 bytes per coordinate: genus 10 fits, genus 11 does not
    "1+11": "error: genus 11 witnesses: 31039008 coordinates, "
    "236.8 MiB as hits, over the 64 MiB limit\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["mv", "--split", "4+4", "--seed", "1"],
        ["mv", "--split", "2+6", "--seed", "1"],
        ["mv", "--split", "1+8", "--seed", "1"],
        ["mv", "--split", "1+9", "--seed", "1"],
        ["mv", "--split", "1+9", "--degree", "0", "--seed", "1"],
        ["infer", "--split", "1+11", "--unknown", "nu_2^1"],
    ],
)
def test_oversized_split_exits_1_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == OVERSIZED[argv[2]]


def test_oversized_split_runs_a_small_degree(capsys):
    argv = ["mv", "--split", "4+4", "--seed", "1", "--degree", "0", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert [row["degree"] for row in json.loads(out)["rows"]] == [0]


def test_mv_describe_dumps_edges(capsys):
    code, out, _ = run(capsys, ["mv", "--split", "1+1", "--degree", "3", "--describe"])
    assert code == 0
    assert "split 1+1 degree 3" in out
    assert "dom[0,0]: dim" in out and "-> red[" in out


def test_mv_describe_has_no_csv(capsys):
    code, out, err = run(capsys, ["mv", "--split", "1+2", "--degree", "4", "--describe", "--format", "csv"])
    assert (code, out) == (1, "")
    assert err == (
        "error: csv has no room for the --describe summand and edge dump; use markdown or json\n"
    )


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_mv_rejects_samples_below_one(capsys, samples):
    code, out, err = run(capsys, ["mv", "--split", "1+1", "--samples", samples])
    assert (code, out) == (1, "")
    assert "samples must be at least 1" in err


def test_mv_samples_stable(capsys):
    code, out, _ = run(capsys, ["mv", "--split", "1+1", "--samples", "3"])
    assert code == 0
    assert "rows stable across seeds 0..2" in out


def test_mv_22_report(capsys):
    code, out, _ = run(capsys, ["mv", "--split", "2+2"])
    assert code == 0
    assert "chain matches the recorded rows" in out
    assert "(nu_5, nu_6) = (5, 5): passes" in out


def test_mv_22_describe(capsys):
    plain = run(capsys, ["mv", "--split", "2+2"])[1]
    code, out, _ = run(capsys, ["mv", "--split", "2+2", "--describe"])
    assert code == 0
    assert out.startswith(plain)
    assert "split 2+2 degree 0" in out and "split 2+2 degree 21" in out
    code, out, _ = run(capsys, ["mv", "--split", "2+2", "--describe", "--format", "json"])
    dumps = json.loads(out)["describe"]
    assert len(dumps) == 22 and dumps[9][0] == "split 2+2 degree 9"


def test_mv_22_json(capsys):
    code, out, _ = run(capsys, ["mv", "--split", "2+2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["chain_matches_recorded"] is True
    row10 = next(r for r in payload["rows"] if r["degree"] == 10)
    assert row10["chain"] == [25, 85] and row10["recorded"] == [25, 85]
    assert [5, 5, True] in payload["enumeration"]


def test_mv_22_csv_rows_are_the_single_degree_rows(capsys):
    code, out, _ = run(capsys, ["mv", "--split", "2+2", "--format", "csv"])
    assert code == 0
    header, *rows = out.splitlines()
    assert len(rows) == 22
    for r, line in enumerate(rows):
        single = run(capsys, ["mv", "--split", "2+2", "--degree", str(r), "--format", "csv"])
        assert single == (0, f"{header}\n{line}\n", "")
    # several seeds give the first seed's rows, as every other split does
    seeded = run(capsys, ["mv", "--split", "2+2", "--seed", "1", "--samples", "2", "--format", "csv"])
    assert seeded == (0, out, "")


# ---------------------------------------------------------------------------
# infer / verify
# ---------------------------------------------------------------------------


def test_infer_scan_finds_degree(capsys):
    code, out, _ = run(capsys, ["infer", "--split", "1+2", "--unknown", "nu_9^2"])
    assert code == 0
    assert "at degree 11" in out
    assert "deduced rank nu_9^2 = 1" in out


@pytest.mark.parametrize(
    "split,unknown,degree,message",
    [
        ("1+1", "nu_99^1", "3", "no map nu_99^1"),
        ("1+1", "nu_7^1", "3", "no map nu_7^1"),
        ("1+2", "nu_5^2", "400", "glue degree 400 outside 1..15"),
        ("1+2", "nu_5^2", "0", "glue degree 0 outside 1..15"),
        ("1+2", "nu_5^2", "16", "glue degree 16 outside 1..15"),
    ],
)
def test_infer_rejects_what_does_not_exist(capsys, split, unknown, degree, message):
    argv = ["infer", "--split", split, "--unknown", unknown, "--at-degree", degree]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert message in err


def test_infer_fixed_degree_json(capsys):
    code, out, _ = run(
        capsys,
        ["infer", "--split", "1+1", "--unknown", "nu_2^1", "--at-degree", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["deduced"] == 1
    assert {"rank": 0, "glue": 7, "status": "inconsistent"} in payload["candidates"]


def test_verify_passes_with_note(capsys):
    code, out, _ = run(capsys, ["verify", "--max-genus", "4"])
    assert code == 0
    assert "note recorded-genus1-halfspace@5" in out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, ["verify", "--max-genus", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])
    assert any("recorded-genus1-halfspace@5" in n for n in payload["notes"])


def test_verify_refuses_a_bound_below_2(capsys):
    code, out, err = run(capsys, ["verify", "--max-genus", "1"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    for name in ("middle-closed-form", "recursion-steps", "field-comparison"):
        assert name in err
    with pytest.raises(ValidationError, match="genus bound 1"):
        run_checks(1)


def test_profile_script_output_loads_in_serre(capsys, tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_alpha_profiles.py"),
         "--out-dir", str(tmp_path), "--genera", "3", "4"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
        capture_output=True,
        timeout=120,
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "alpha_profile_g3.json", "alpha_profile_g4.json"
    ]
    code, out, _ = run(capsys, ["serre", "--ring-file", str(tmp_path / "alpha_profile_g4.json")])
    assert code == 0
    assert "genus 4" in out


def test_deterministic_output(capsys):
    first = run(capsys, ["mv", "--split", "1+2", "--seed", "5"])
    second = run(capsys, ["mv", "--split", "1+2", "--seed", "5"])
    assert first == second


# ---------------------------------------------------------------------------
# the README's command-line block
# ---------------------------------------------------------------------------


def _readme_commands() -> list[list[str]]:
    """argv of each example in the README's command-line block, after ``f2moduli``."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert lines and all(line[0] == "f2moduli" for line in lines)
    return [line[1:] for line in lines]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_profile(tmp_path / "profile.json", 4)  # the file the serre --ring-file line reads
    for argv in _readme_commands():
        assert run(capsys, argv)[0] == 0, argv


def test_every_option_has_a_readme_example():
    # --format is shared by every subcommand, so one example of it anywhere covers it
    examples = _readme_commands()
    anywhere = {tok for argv in examples for tok in argv}
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    missing = []
    for name, sub in subparsers.choices.items():
        shown = {tok for argv in examples if argv[0] == name for tok in argv}
        for action in sub._actions:
            options = set(action.option_strings) - {"-h", "--help"}
            if options and not options & (anywhere if "--format" in options else shown):
                missing.append(f"{name} {action.option_strings[0]}")
    assert missing == [], f"options with no README example: {missing}"


def test_one_parser_serves_every_call():
    # the parser is built once per process; a parse leaves nothing behind
    # for the next, so each call still gets every default
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["mv", "--split", "2+2", "--seed", "3", "--samples", "2"])
    again = build_parser().parse_args(["mv", "--split", "2+2"])
    assert (first.seed, first.samples, first.format) == (3, 2, "markdown")
    assert (again.seed, again.samples, again.degree) == (0, 1, None)
