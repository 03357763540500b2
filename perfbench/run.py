"""Benchmark for f2moduli: end-to-end and per-layer figures of one workload.

    python3 perfbench/run.py --workload split-canonical --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src`` directory, nothing is installed.  One run is
one fresh interpreter and one process; the program runs in it with no
extra threads.

A round runs every command of the workload once, in an order shuffled
by ``--seed``, after clearing the package's table caches, so each round
costs what a fresh command-line run costs.  Rounds repeat while another
one still fits in ``--seconds``; at least one always runs.  Every
command's output is checked (see checks.py) and counted in ``attempted``
and, if wrong or not produced, in ``failed``.

``--trace 0`` reports the end-to-end metrics: the commands' wall time and
process CPU time in the run's slowest round, the peak resident set of
this process, and ``setup_s``, the median over fresh interpreters of the time
from spawning one to ``import f2moduli.cli`` returning in it (three such
interpreters before each round, up to twelve, so that they sample the
same stretch of time as the rounds).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of tracer.py, medians over the traced rounds.

The last line of standard output is one JSON object; details of every
round go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CLI, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 12  # in threes, before each of the first rounds
_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import f2moduli.cli; "
    "sys.stdout.write(str(time.monotonic()))"
)


def setup_seconds() -> float:
    """Time from spawning an interpreter to `import f2moduli.cli` returning."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout) - t0


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_round(ops, entry, caches) -> dict:
    """Run every operation once; time only the calls of the entry point."""
    for cached in caches:
        cached.cache_clear()
    gc.collect()
    wall = cpu = 0.0
    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                rc = entry(list(op.argv))
            except Exception as exc:  # a crash fails the operation, not the run
                rc = f"uncaught {type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), cpu_seconds()
        wall += t1 - t0
        cpu += c1 - c0
        results.append({"argv": list(op.argv), "rc": rc, "wall_s": t1 - t0,
                        "stdout": out.getvalue()})
    return {"wall_s": wall, "cpu_s": cpu, "ops": results}


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Every per-layer figure of one traced round, by metric name."""
    out = {
        "cli.self_s": tracer.stats[CLI].self_s,
        "cli.render_s": tracer.stats["cli.render"].self_s,
        "trace.uncovered_s": wall - sum(st.self_s for st in tracer.stats.values()),
    }
    for layer, st in tracer.stats.items():
        out[f"{layer}.self_s"] = st.self_s
        out[f"{layer}.calls"] = st.calls
        out[f"{layer}.mbits"] = st.bits / 1e6
        out[f"{layer}.max_mbits"] = st.max_bits / 1e6
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not (SRC / "f2moduli" / "cli.py").is_file():
        print(f"error: no f2moduli sources under {SRC}", file=sys.stderr)
        return 2

    # one process and no extra threads: numpy's BLAS would start a pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import f2moduli.cli

    caches = [
        value
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "f2moduli"
        for value in vars(mod).values()
        if callable(getattr(value, "cache_clear", None))
    ]
    ops = WORKLOADS[args.workload]()
    random.Random(args.seed).shuffle(ops)
    tracer = Tracer() if args.trace else None

    plain, traced, layers, setup = [], [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if not args.trace and len(setup) < SETUP_PROBES:
            setup += [setup_seconds() for _ in range(3)]
        plain.append(run_round(ops, f2moduli.cli.main, caches))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_round(ops, tracer.wrap(CLI, f2moduli.cli.main), caches))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer, traced[-1]["wall_s"]))
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > args.seconds:
            break

    attempted = failed = 0
    correct = True
    first = plain[0]["ops"]
    for rnd in plain + traced:
        for op, res, ref in zip(ops, rnd["ops"], first):
            attempted += 1
            problems = op.problems(res["rc"], res["stdout"])
            if res["stdout"] != ref["stdout"]:
                problems.append("output differs from the first round's")
            if problems:
                failed += 1
                correct = correct and res["rc"] != 0
                print(f"FAILED {' '.join(op.argv)}: {'; '.join(problems[:5])}", file=sys.stderr)
            res["problems"] = problems

    med = statistics.median
    if args.trace:
        # counts repeat from round to round; times are medians
        values = {
            name: (statistics.median_low if name.endswith(".calls") else med)(
                m[name] for m in layers
            )
            for name in layers[0]
        }
        values["trace.overhead_s"] = med(r["wall_s"] for r in traced) - med(
            r["wall_s"] for r in plain
        )
        if any(len({m[n] for m in layers}) > 1 for n in layers[0] if n.endswith("calls")):
            print("warning: call counts differ between traced rounds", file=sys.stderr)
    else:
        values = {
            # the slowest round: a shared host can switch between a slow and
            # a fast state every few seconds, and the slow one repeats best
            # from run to run (README.md has the figures)
            "wall_s": max(r["wall_s"] for r in plain),
            "cpu_s": max(r["cpu_s"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": med(setup),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for rnd in plain + traced:
        for res in rnd["ops"]:
            del res["stdout"]
    detail = {"args": vars(args), "setup_s": setup, "rounds": plain,
              "traced_rounds": traced, "layers": layers}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
