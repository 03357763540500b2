"""The benchmark's workloads: fixed `f2moduli` command lists with checks.

Each operation is one call of ``f2moduli.cli.main`` with JSON output.
The seeds of the program's witnesses are part of each workload's
definition; see README.md for why each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Operation:
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]

    def problems(self, rc, stdout: str) -> list[str]:
        """Why this output is wrong; empty when it is right."""
        if rc != 0:
            return [f"exited with {rc}"]
        try:
            payload = json.loads(stdout)
        except ValueError:
            return ["output is not JSON"]
        try:
            return self.check(payload)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]


def mv(a: int, g: int, seed: int = 0, samples: int = 1) -> Operation:
    argv = ("mv", "--split", f"{a}+{g}", "--seed", str(seed), "--samples", str(samples))
    if (a, g) == (2, 2):
        check = partial(checks.split22_report, seeds=tuple(range(seed, seed + samples)))
    else:
        check = partial(checks.split_rows, split=(a, g), seed=seed, samples=samples)
    return Operation(argv + ("--format", "json"), check)


def infer(a: int, g: int, degree: int, genus: int) -> Operation:
    argv = ("infer", "--split", f"{a}+{g}", "--unknown", f"nu_{degree}^{genus}")
    check = partial(checks.infer_result, split=(a, g), unknown=(genus, degree))
    return Operation(argv + ("--format", "json"), check)


def verify(max_genus: int) -> Operation:
    argv = ("verify", "--max-genus", str(max_genus), "--format", "json")
    return Operation(argv, partial(checks.verify_report, max_genus=max_genus))


WORKLOADS: dict[str, Callable[[], list[Operation]]] = {
    "split-canonical": lambda: [mv(1, 5), mv(2, 2)],
    "split-seeded": lambda: [mv(1, 4, seed=1, samples=2), mv(2, 2, seed=1, samples=2)],
    "infer-scan": lambda: [infer(2, 2, r, 2) for r in (2, 4, 5, 6, 7, 9)] + [infer(1, 3, 9, 3)],
    "verify-deep": lambda: [verify(40)],
}
