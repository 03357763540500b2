"""Concrete matrices realising a bundle of boundary-map profiles.

A :class:`~f2moduli.moduli.GenusData` fixes, for every degree, the rank
of nu and rho and of the stacked map mu.  Beyond ranks, only two kinds of
interaction matter to any diagram built from these maps:

* on a shared domain V_s, the pair (nu_s, rho_{s+2}) has a kernel
  intersection k_s, bounded by max(0, kn + kr - dim) <= k_s <= min(kn, kr);
* on a shared codomain W_r, the images of nu_r and rho_r overlap in
  exactly t_r = rank nu + rank rho - rank mu dimensions, which the mu
  rank forces outright.

The synthesiser picks coordinate subspaces realising those numbers (seed
0, the canonical witness) and then conjugates by seeded random invertible
transforms, D_s on each domain and C_r on each codomain.  Every seed
therefore gives nu_seed = D nu_0 C and rho_seed = D rho_0 C, and the same
conjugation carries over to mu, the kernel intersections, composite
routes and every split diagram built from them.  Their ranks cannot
depend on the seed: agreement across seeds checks the dense linear
algebra, not whether the records determine a number.  The choices the
records leave open (the k_s inside their windows) are made the same way
at every seed, through ``kernel_overrides``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError
from .f2la import (
    WORD,
    BitMatrix,
    block_assemble,
    compose,
    random_invertible,
    rank,
    rng_for,
)
from .moduli import GenusData

__all__ = ["WitnessSet", "synthesize_witnesses"]


def _coordinate_map(
    dom: int, cod: int, zero_rows: set[int], image_cols: list[int]
) -> tuple[BitMatrix, np.ndarray]:
    """Matrix sending the i-th surviving coordinate to image_cols[i], and the
    column each row hits (-1 for a zero row)."""
    alive = [i for i in range(dom) if i not in zero_rows]
    if len(alive) != len(image_cols):
        raise InfeasibleError("kernel and image selections disagree on the rank")
    hits = np.full(dom, -1, dtype=np.int64)
    hits[alive] = image_cols
    # set one bit per surviving row straight into the packed words, so no
    # dom x cod byte array is ever held
    cols = hits[alive]
    bits = np.zeros((dom, max(1, -(-cod // WORD))), dtype=np.uint64)
    bits[alive, cols // WORD] = np.uint64(1) << (cols % WORD).astype(np.uint64)
    return BitMatrix(dom, cod, bits), hits


@dataclass(frozen=True)
class WitnessSet:
    """Matrices for every nu_r and rho_r of one genus bundle.

    At seed 0 every map is a partial injection of coordinates, and
    ``nu_hits[r]``/``rho_hits[r]`` give the column each of its rows hits,
    -1 for a zero row.  Other seeds conjugate the maps densely, and both
    are None.  The hits follow from the matrices, so they take no part in
    comparisons.
    """

    data: GenusData
    nu: tuple[BitMatrix, ...]
    rho: tuple[BitMatrix, ...]
    nu_hits: tuple[np.ndarray, ...] | None = field(compare=False, repr=False)
    rho_hits: tuple[np.ndarray, ...] | None = field(compare=False, repr=False)

    def mu(self, r: int) -> BitMatrix:
        """The stacked map on H_r + H_{r-2}, rows of nu_r over rows of rho_r."""
        n, p = self.nu[r], self.rho[r]
        return block_assemble(
            {(0, 0): n, (1, 0): p}, [n.rows, p.rows], [n.cols]
        )

    def kernel_intersection(self, s: int) -> int:
        """dim(ker nu_s intersect ker rho_{s+2}) on the shared domain.

        A vector is in both kernels exactly when the side-by-side matrix
        [nu_s | rho_{s+2}] kills it, so this is rows minus rank there.
        """
        n, p = self.nu[s], self.rho[s + 2]
        side = block_assemble(
            {(0, 0): n, (0, 1): p}, [n.rows], [n.cols, p.cols]
        )
        return side.rows - rank(side)

    def check(self) -> list[str]:
        """Recompute every profiled rank; returns the list of failures."""
        bad = []
        d = self.data
        for r in range(6 * d.genus + 1):
            if rank(self.nu[r]) != d.nu[r].rank:
                bad.append(f"nu rank at degree {r}")
            if rank(self.rho[r]) != d.rho[r].rank:
                bad.append(f"rho rank at degree {r}")
            if rank(self.mu(r)) != d.mu[r].rank:
                bad.append(f"mu rank at degree {r}")
        return bad


def synthesize_witnesses(
    data: GenusData,
    seed: int = 0,
    kernel_overrides: dict[int, int] | None = None,
) -> WitnessSet:
    """Build witness matrices for a genus bundle.

    ``kernel_overrides`` maps a domain degree s to a requested value of
    k_s = dim(ker nu_s intersect ker rho_{s+2}); degrees not listed take
    the smallest feasible value.  An override outside the feasible window
    raises :class:`InfeasibleError`.
    """
    g = data.genus
    top = 6 * g
    overrides = kernel_overrides or {}

    # domain plans: which coordinates of V_s the two kernels occupy
    nu_zero_rows: list[set[int]] = [set() for _ in range(top + 1)]
    rho_zero_rows: list[set[int]] = [set() for _ in range(top + 1)]
    for s in range(top + 1):
        d = data.h[s]
        kn = data.nu[s].kernel
        nu_zero_rows[s] = set(range(d - kn, d))
        if s + 2 > top:
            if s in overrides:
                raise InfeasibleError(f"degree {s} has no rho partner to intersect")
            continue
        kr = data.rho[s + 2].kernel
        lo, hi = max(0, kn + kr - d), min(kn, kr)
        k = overrides.get(s, lo)
        if not lo <= k <= hi:
            raise InfeasibleError(
                f"kernel intersection {k} at degree {s} outside [{lo}, {hi}]"
            )
        shared = set(range(d - k, d))
        fresh = set(range(d - kn - (kr - k), d - kn))
        rho_zero_rows[s + 2] = shared | fresh

    # codomain plans: which coordinates of W_r the two images occupy
    nu_cols: list[list[int]] = [[] for _ in range(top + 1)]
    rho_cols: list[list[int]] = [[] for _ in range(top + 1)]
    for r in range(top + 1):
        rn, rr, rm = data.nu[r].rank, data.rho[r].rank, data.mu[r].rank
        t = rn + rr - rm
        if not 0 <= t <= min(rn, rr):
            raise InfeasibleError(f"image overlap infeasible at degree {r}")
        rho_cols[r] = list(range(rr))
        nu_cols[r] = list(range(rr - t, rr - t + rn))

    nu_mats, nu_hits = zip(*(
        _coordinate_map(data.h[r], data.nplus[r], nu_zero_rows[r], nu_cols[r])
        for r in range(top + 1)
    ))
    rho_mats, rho_hits = zip(*(
        _coordinate_map(data.h[r - 2], data.nplus[r], rho_zero_rows[r], rho_cols[r])
        for r in range(top + 1)
    ))

    if seed != 0:
        nu_hits = rho_hits = None
        doms = [
            random_invertible(data.h[s], rng_for(seed, f"w{g}:dom:{s}"))
            for s in range(top + 1)
        ]
        cods = [
            random_invertible(data.nplus[r], rng_for(seed, f"w{g}:cod:{r}"))
            for r in range(top + 1)
        ]
        nu_mats = [
            compose(doms[r], compose(nu_mats[r], cods[r])) for r in range(top + 1)
        ]
        rho_mats = [
            compose(doms[r - 2], compose(rho_mats[r], cods[r])) if r >= 2 else rho_mats[r]
            for r in range(top + 1)
        ]

    ws = WitnessSet(data, tuple(nu_mats), tuple(rho_mats), nu_hits, rho_hits)
    bad = ws.check()
    if bad:
        raise InfeasibleError("synthesis failed self-check: " + ", ".join(bad))
    return ws
