"""Generate base-ring profiles for any genus.

Two independent facts pin the data down.  The Poincare polynomial of the
base (the degree-1 part of the unframed moduli space, which has no
2-torsion, so mod-2 and rational Betti numbers coincide) is the classical
quotient

    [ (1 + t^3)^{2g} - t^{2g} (1 + t)^{2g} ] / [ (1 - t^2)(1 - t^4) ]

and the division is exact.  Given those dims and a target framed table,
the Gysin bookkeeping of :func:`f2moduli.serre.serre_betti` becomes a
sliding-window linear system in the alpha ranks with a unique solution,
recovered here degree by degree and then checked against the trailing
equations, the rank bounds and palindromic symmetry.  This turns the
framed tables for higher genus into full alpha profiles without any new
input.
"""

from __future__ import annotations

import json
from itertools import accumulate
from math import comb
from pathlib import Path

from .betti import mod2_table
from .errors import ValidationError
from .serre import AlphaAction, serre_betti

__all__ = [
    "base_dims",
    "alpha_ranks_from_tables",
    "write_profile",
]


def base_dims(g: int) -> tuple[int, ...]:
    """Betti numbers of the genus-g base, degrees 0 .. 6g-6."""
    if g < 1:
        raise ValidationError("genus must be at least 1")
    # the numerator, then dividing by 1 - t^2 and by 1 - t^4 as running sums
    series = [
        (comb(2 * g, k // 3) if k % 3 == 0 else 0) - (comb(2 * g, k - 2 * g) if k >= 2 * g else 0)
        for k in range(6 * g + 1)
    ]
    for step in (2, 4):
        for i in range(step):
            series[i::step] = accumulate(series[i::step])
    dims = series[: 6 * g - 5]
    if any(series[6 * g - 5 :]):
        raise ValidationError(f"division left a remainder for genus {g}")
    if dims[-1] == 0 or any(d < 0 for d in dims):
        raise ValidationError(f"base dims came out malformed for genus {g}")
    return tuple(dims)


def alpha_ranks_from_tables(g: int) -> AlphaAction:
    """Solve for the alpha ranks that reproduce the framed table.

    The Gysin formula says, for every degree r,

        ranks[r-1] + ranks[r-2] + ranks[r-3] + ranks[r-4]
            = dims[r] + dims[r-1] + dims[r-2] + dims[r-3] - h_r

    (out-of-range terms zero).  Solving forward gives each rank from the
    three before it; the rank bounds, palindromic symmetry and the round
    trip through :func:`serre_betti`, which covers every equation, check it.
    """
    dims = base_dims(g)
    h = mod2_table(g)

    def d(s: int) -> int:
        return dims[s] if 0 <= s < len(dims) else 0

    n = max(0, 6 * g - 7)
    ranks = [0] * n

    def rk(s: int) -> int:
        return ranks[s] if 0 <= s < n else 0

    def target(r: int) -> int:
        return d(r) + d(r - 1) + d(r - 2) + d(r - 3) - h[r]

    for s in range(n):
        ranks[s] = target(s + 1) - rk(s - 1) - rk(s - 2) - rk(s - 3)
    action = AlphaAction(genus=g, dims=dims, ranks=tuple(ranks))
    got = serre_betti(action)
    if got.values != h.values:
        raise ValidationError(f"recovered alpha profile fails round-trip at genus {g}")
    return action


def write_profile(path: str | Path, g: int) -> AlphaAction:
    """Derive the genus-g alpha profile and write it as strict JSON."""
    action = alpha_ranks_from_tables(g)
    payload = {
        "genus": action.genus,
        "dims": list(action.dims),
        "alpha_ranks": list(action.ranks),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return action
