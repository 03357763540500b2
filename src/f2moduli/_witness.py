"""Concrete matrices realising a bundle of boundary-map profiles.

A :class:`~f2moduli.moduli.GenusData` fixes, for every degree, the rank
of nu and rho and of the stacked map mu.  The synthesiser also realises
two local numbers the records fix or bound:

* on a shared domain V_s, the pair (nu_s, rho_{s+2}) has a kernel
  intersection k_s, bounded by max(0, kn + kr - dim) <= k_s <= min(kn, kr);
* on a shared codomain W_r, the images of nu_r and rho_r overlap in
  exactly t_r = rank nu + rank rho - rank mu dimensions.

These do not fix a split's rows at genus 3 and up.  The maps of one
parity form a zigzag N+_p <- H_p -> N+_{p+2} <- ..., a sum of intervals
that ranks, k_s and t_r only count node by node.  At genus 3, swapping
the targets of two crossing intervals at nu_6 (spans N+_0..N+_10 and
N+_6..N+_12 become N+_0..N+_12 and N+_6..N+_10) keeps every count and
passes :meth:`WitnessSet.check`, yet with it 1+3, 2+3 and 3+3 glue at
every degree, where the maps built here leave 2+3 and 3+3 off (pinned by
``test_genus3_nu6_crossing_exchange_glues_every_split`` in
``tests/test_witness.py``).  So a split's rows are those of one
configuration: the canonical one, seed 0.

At seed 0 each map sends its surviving coordinates, in order, to a run
of consecutive codomain coordinates, so its plan (shape, zero-row
ranges, first image column) fixes it; it is kept as a hit map, the
column each row hits or -1.  Other seeds pack the maps and conjugate by
seeded random invertible transforms, D_s on each domain and C_r on each
codomain: nu_seed = D nu_0 C and rho_seed = D rho_0 C, and the same
conjugation carries over to mu, kernel intersections, composite routes
and every split diagram.  So agreement across seeds checks the dense
linear algebra, not the configuration.  The one choice the records leave
open, k_s inside its window, is made the same way at every seed: k_s
takes the low end.  The recorded genus-2 windows are single points.
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
    gather_rows,
    random_invertible,
    rank,
    rng_for,
)
from .moduli import GenusData

__all__ = ["WitnessSet", "synthesize_witnesses"]

def _plan(dom: int, cod: int, zeros, image: range) -> tuple:
    """(dom, cod, zero-row ranges, first image column) of the map sending its
    surviving rows, in order, to the columns of ``image``; canonical: the
    ranges are nonempty, sorted and merged, and an empty image starts at 0."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(z for z in zeros if z[0] < z[1]):
        if merged and merged[-1][1] == lo:
            lo = merged.pop()[0]
        merged.append((lo, hi))
    if dom - sum(hi - lo for lo, hi in merged) != len(image):
        raise InfeasibleError("kernel and image selections disagree on the rank")
    return dom, cod, tuple(merged), image.start if image else 0


def _hits(plan: tuple) -> np.ndarray:
    """The column each row of a plan's map hits, -1 for a zero row."""
    dom, _, zeros, first = plan
    alive = np.ones(dom, dtype=bool)
    for lo, hi in zeros:
        alive[lo:hi] = False
    hits = np.full(dom, -1, dtype=np.int64)
    hits[alive] = np.arange(first, first + np.count_nonzero(alive))
    hits.setflags(write=False)  # one array serves every witness set with this plan
    return hits


def _coordinate_map(hits: np.ndarray, cod: int) -> BitMatrix:
    """The packed matrix whose row i is the unit vector at hits[i], zero at -1."""
    # set one bit per live row straight into the packed words, so no
    # dom x cod byte array is ever held
    alive = np.flatnonzero(hits >= 0)
    cols = hits[alive]
    bits = np.zeros((hits.size, max(1, -(-cod // WORD))), dtype=np.uint64)
    bits[alive, cols // WORD] = np.uint64(1) << (cols % WORD).astype(np.uint64)
    return BitMatrix(hits.size, cod, bits)


def _columns_hit(width: int, *hits: np.ndarray) -> int:
    """Rank of the matrix whose rows hit the given columns (-1 for a zero
    row): the number of distinct columns hit, out of ``width``.

    Counted on a mask rather than with ``np.unique``, which imports
    ``numpy.ma`` and with it over a MiB of resident memory.
    """
    seen = np.zeros(width, dtype=bool)
    for h in hits:
        seen[h[h >= 0]] = True
    return int(np.count_nonzero(seen))


@dataclass(frozen=True)
class WitnessSet:
    """Maps for every nu_r and rho_r of one genus bundle.

    ``plans`` holds the seed-0 plans of the nu_r and of the rho_r, which
    fix the maps up to the seed's conjugation.  Seed 0 keeps the hits
    (``nu``/``rho`` are None), other seeds the packed matrices (the hits
    are None); :meth:`matrix` gives a packed map at any seed.
    """

    data: GenusData
    plans: tuple[tuple[tuple, ...], tuple[tuple, ...]] = field(repr=False)
    nu: tuple[BitMatrix, ...] | None
    rho: tuple[BitMatrix, ...] | None
    nu_hits: tuple[np.ndarray, ...] | None = field(compare=False, repr=False)
    rho_hits: tuple[np.ndarray, ...] | None = field(compare=False, repr=False)

    def matrix(self, family: str, r: int) -> BitMatrix:
        """nu_r or rho_r packed; at seed 0 packed from its hits on each call."""
        hits = self.nu_hits if family == "nu" else self.rho_hits
        if hits is None:
            return (self.nu if family == "nu" else self.rho)[r]
        return _coordinate_map(hits[r], self.data.nplus[r])

    def mu(self, r: int) -> BitMatrix:
        """The stacked map on H_r + H_{r-2}, rows of nu_r over rows of rho_r."""
        n, p = self.matrix("nu", r), self.matrix("rho", r)
        return block_assemble(
            {(0, 0): n, (1, 0): p}, [n.rows, p.rows], [n.cols]
        )

    def kernel_intersection(self, s: int) -> int:
        """dim(ker nu_s intersect ker rho_{s+2}) on the shared domain.

        A vector is in both kernels exactly when the side-by-side matrix
        [nu_s | rho_{s+2}] kills it, so this is rows minus rank there.
        """
        n, p = self.matrix("nu", s), self.matrix("rho", s + 2)
        side = block_assemble(
            {(0, 0): n, (0, 1): p}, [n.rows], [n.cols, p.cols]
        )
        return side.rows - rank(side)

    def check(self, counted: dict | None = None) -> list[str]:
        """Recompute every profiled rank; returns the list of failures.

        At seed 0 every row of nu_r, rho_r and mu_r is a unit vector or
        zero, so each rank is the number of distinct columns the rows hit
        and is counted from the hits; other seeds eliminate densely.
        ``counted`` keeps the counts by the (nu_r, rho_r) plans, which fix
        the hits: checks that share it count each pair once.
        """
        bad = []
        d = self.data
        counted = {} if counted is None else counted
        for r, key in enumerate(zip(*self.plans)):
            if self.nu_hits is None:
                ranks = rank(self.nu[r]), rank(self.rho[r]), rank(self.mu(r))
            else:
                if key not in counted:
                    n, p, w = self.nu_hits[r], self.rho_hits[r], d.nplus[r]
                    counted[key] = _columns_hit(w, n), _columns_hit(w, p), _columns_hit(w, n, p)
                ranks = counted[key]
            for name, got, want in zip(("nu", "rho", "mu"), ranks, (d.nu[r], d.rho[r], d.mu[r])):
                if got != want.rank:
                    bad.append(f"{name} rank at degree {r}")
        return bad


def _nu_plan(data: GenusData, r: int) -> tuple:
    """The plan of nu_r: its kernel is the last coordinates of V_r, and its
    image starts where it overlaps rho_r's in t_r = rank nu + rank rho - rank mu."""
    rn, rr, rm = data.nu[r].rank, data.rho[r].rank, data.mu[r].rank
    t = rn + rr - rm
    if not 0 <= t <= min(rn, rr):
        raise InfeasibleError(f"image overlap infeasible at degree {r}")
    d = data.h[r]
    return _plan(d, data.nplus[r], ((d - data.nu[r].kernel, d),), range(rr - t, rr - t + rn))


def _rho_plan(data: GenusData, r: int) -> tuple:
    """The plan of rho_r on V_{r-2}: its kernel meets nu_{r-2}'s in the
    smallest feasible k_{r-2}, and its image is the first rank rho_r columns."""
    d, zeros = data.h[r - 2], ()
    if r >= 2:
        kn, kr = data.nu[r - 2].kernel, data.rho[r].kernel
        k = max(0, kn + kr - d)  # never above min(kn, kr), as both kernels lie in V_{r-2}
        zeros = ((d - k, d), (d - kn - (kr - k), d - kn))
    return _plan(d, data.nplus[r], zeros, range(data.rho[r].rank))


def synthesize_witnesses(
    data: GenusData,
    seed: int = 0,
    built: dict[tuple, np.ndarray] | None = None,
    counted: dict | None = None,
    like: WitnessSet | None = None,
) -> WitnessSet:
    """Build witness maps for a genus bundle.

    Each k_s = dim(ker nu_s intersect ker rho_{s+2}) takes the smallest
    feasible value.  ``built`` holds the hit map of each plan made so
    far, and gains the ones this synthesis makes: syntheses that share it
    make each plan's hits once, and share the array; ``counted`` does the
    same for the self-check's counts (:meth:`WitnessSet.check`), which
    still compares every degree.  ``like`` is an earlier seed-0 synthesis:
    where its bundle has the same h, n, mu and rho, only the nu profiles
    can differ, and a nu_s that does changes only the plans of nu_s and
    rho_{s+2}, so those are the only plans made and every other plan and
    hit map is ``like``'s.
    """
    g = data.genus
    top = 6 * g
    built = {} if built is None else built
    same = lambda d: (d.h, d.nplus, d.mu, d.rho)  # noqa: E731
    if like is None or same(like.data) != same(data):
        like, todo = None, [(r, f) for r in range(top + 1) for f in (0, 1)]
    else:  # (degree, 0 for nu or 1 for rho) of each plan a changed nu_s moves
        moved = [s for s, (p, q) in enumerate(zip(data.nu, like.data.nu)) if p != q]
        todo = sorted((s + 2 * f, f) for s in moved for f in (0, 1) if s + 2 * f <= top)
    plans = [list(like.plans[f]) if like else [None] * (top + 1) for f in (0, 1)]
    hits = [list(like.rho_hits if f else like.nu_hits) if like else [None] * (top + 1) for f in (0, 1)]
    for r, f in todo:
        plan = plans[f][r] = (_rho_plan if f else _nu_plan)(data, r)
        if plan not in built:
            built[plan] = _hits(plan)
        hits[f][r] = built[plan]
    (nu_plans, rho_plans), (nu_hits, rho_hits) = map(tuple, plans), map(tuple, hits)

    nu_mats = rho_mats = None
    if seed != 0:
        doms = [random_invertible(data.h[s], rng_for(seed, f"w{g}:dom:{s}")) for s in range(top + 1)]
        cods = [random_invertible(data.nplus[r], rng_for(seed, f"w{g}:cod:{r}")) for r in range(top + 1)]
        # a coordinate map times C_r is a row gather of C_r
        nu_mats = tuple(compose(doms[r], gather_rows(cods[r], h)) for r, h in enumerate(nu_hits))
        rho_mats = tuple(
            compose(doms[r - 2], gather_rows(cods[r], h)) if r >= 2 else gather_rows(cods[r], h)
            for r, h in enumerate(rho_hits)
        )
        nu_hits = rho_hits = None

    ws = WitnessSet(data, (nu_plans, rho_plans), nu_mats, rho_mats, nu_hits, rho_hits)
    bad = ws.check(counted)
    if bad:
        raise InfeasibleError("synthesis failed self-check: " + ", ".join(bad))
    return ws
