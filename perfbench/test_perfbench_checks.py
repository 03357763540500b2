"""The benchmark's output checks accept real output and reject perturbed output.

Run with the package on the path, as the repository's suite does:
``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest

import checks
from tracer import Tracer
from workloads import infer, mv, verify

f2cli = pytest.importorskip("f2moduli.cli")


def _run(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = f2cli.main(list(op.argv))
    return rc, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def outputs():
    ops = {
        "rows": mv(1, 2),
        "report": mv(2, 2),
        "infer": infer(2, 2, 5, 2),
        "verify": verify(6),
    }
    return {k: (op, *_run(op)) for k, op in ops.items()}


def _fails(op, payload) -> bool:
    return bool(op.problems(0, json.dumps(payload)))


@pytest.mark.parametrize("kind", ["rows", "report", "infer", "verify"])
def test_real_output_passes(outputs, kind):
    op, rc, payload = outputs[kind]
    assert rc == 0
    assert op.problems(rc, json.dumps(payload)) == []


def test_reference_data_tables():
    assert checks.F2[4] == checks.SPLIT22["h"]
    assert checks.halfspace(1) == (1, 0, 1, 3, 1, 0, 0)
    assert checks.glue([(0, 1), (2, 3), (4, 5)]) == [1, 3, 7]


def test_betti_number_plus_one_fails(outputs):
    op, _, payload = outputs["rows"]
    bad = copy.deepcopy(payload)
    bad["rows"][5]["cok"] += 1
    assert _fails(op, bad)
    bad = copy.deepcopy(payload)
    bad["rows"][5]["dom"] += 1
    assert _fails(op, bad)


def test_ker_and_cok_swapped_fails(outputs):
    op, _, payload = outputs["rows"]
    bad = copy.deepcopy(payload)
    row = next(r for r in bad["rows"] if r["ker"] != r["cok"])
    row["ker"], row["cok"] = row["cok"], row["ker"]
    assert _fails(op, bad)


def test_report_perturbations_fail(outputs):
    op, _, payload = outputs["report"]
    bad = copy.deepcopy(payload)
    row = bad["rows"][9]
    row["chain"] = row["chain"][::-1]
    assert _fails(op, bad)
    bad = copy.deepcopy(payload)
    bad["rows"][9]["realized"][0][2] += 1
    assert _fails(op, bad)
    bad = copy.deepcopy(payload)
    bad["enumeration"] = [[x, y, True] for x, y, _ in bad["enumeration"]]
    assert _fails(op, bad)


def test_wrong_deduced_rank_fails(outputs):
    op, _, payload = outputs["infer"]
    bad = copy.deepcopy(payload)
    bad["deduced"] -= 1
    assert _fails(op, bad)
    bad = copy.deepcopy(payload)
    bad["target"] += 1
    assert _fails(op, bad)
    bad = copy.deepcopy(payload)
    bad["candidates"][0]["status"] = "consistent"
    assert _fails(op, bad)


def test_unpinned_scan_must_try_every_degree():
    op = infer(1, 3, 9, 3)
    payload = {"command": "infer", "split": [1, 3], "unknown": "nu_9^3",
               "at_degree": None, "deduced": None, "tried_degrees": list(range(1, 22))}
    assert not _fails(op, payload)
    payload["tried_degrees"] = list(range(1, 21))
    assert _fails(op, payload)


def test_verify_perturbations_fail(outputs):
    op, _, payload = outputs["verify"]
    bad = copy.deepcopy(payload)
    bad["checks"][3]["ok"] = False
    assert _fails(op, bad)
    bad = copy.deepcopy(payload)
    bad["notes"] = []
    assert _fails(op, bad)


def test_error_exits_and_bad_output_fail(outputs):
    op, _, payload = outputs["rows"]
    assert op.problems(2, json.dumps(payload))
    assert op.problems(0, "not json")
    assert op.problems(0, json.dumps({"command": "mv", "split": [1, 2]}))


def test_tracer_counts_and_restores():
    from f2moduli import f2la, mv as mvmod

    original = mvmod.rank
    tracer = Tracer()
    tracer.install()
    try:
        assert mvmod.rank is f2la.rank is not original
        m = f2la.BitMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
        assert mvmod.rank(m) == 2
    finally:
        tracer.uninstall()
    assert mvmod.rank is f2la.rank is original
    assert tracer.stats["f2la.rank"].calls == 1
    assert tracer.stats["f2la.rank"].bits == 6
    assert tracer.stats["f2la.pack"].calls == 1


def test_tracer_skips_a_missing_function(monkeypatch, capsys):
    import tracer

    monkeypatch.setattr(tracer, "LAYERS", {"mv.gone": [("f2moduli.mv", "no_such_function")]})
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.stats["mv.gone"].calls == 0
    assert "not traced" in capsys.readouterr().err
