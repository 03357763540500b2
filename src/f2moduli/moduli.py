"""Betti numbers and boundary-inclusion data for the framed half-spaces.

The framed space sits inside a 6g-dimensional manifold-with-boundary whose
boundary is a product of a 2-sphere with the framed space.  Three families
of maps on mod-2 homology organise everything:

* ``mu``  boundary inclusion, degree r: domain H_r(boundary), which splits
  as H_r(framed) + H_{r-2}(framed) by the Kunneth formula;
* ``nu``  the restriction of ``mu`` to the H_r(framed) summand;
* ``rho`` the restriction to the H_{r-2}(framed) summand.

Closed formulas determine the half-space Betti numbers n_r, computed once
per genus by :func:`nplus_betti`, and the full profile (rank, domain,
codomain) of ``mu`` and ``rho`` at every degree, built as one ladder per
genus by :func:`boundary_profiles`.  The rank of ``nu`` is genuinely
extra information; for genus 1 and 2 it is recorded data (see
:mod:`f2moduli.reference`), and the functions here expose it as
:class:`GenusData` bundles for the diagram calculus.

A map profile ``a_b^c`` means a linear map from a b-dimensional space to a
c-dimensional space of rank a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import reference
from .betti import BettiTable, m_row, mod2_table
from .errors import ValidationError

__all__ = [
    "MapProfile",
    "MapRef",
    "SideConstraint",
    "GenusData",
    "nplus_betti",
    "nhat_betti",
    "boundary_profiles",
    "nu_profile",
    "assemble_genus_data",
    "genus1_data",
    "genus2_data",
    "Diagnostic",
    "reference_diagnostics",
]


@dataclass(frozen=True, slots=True)
class MapProfile:
    """Shape and rank of a linear map: rank ``rank`` from F^dom to F^cod."""

    rank: int
    dom: int
    cod: int

    def __post_init__(self):
        if self.rank < 0 or self.dom < 0 or self.cod < 0:
            raise ValidationError(f"negative entry in profile {self}")
        if self.rank > self.dom or self.rank > self.cod:
            raise ValidationError(
                f"rank {self.rank} exceeds min({self.dom}, {self.cod})"
            )

    @property
    def kernel(self) -> int:
        return self.dom - self.rank

    @property
    def cokernel(self) -> int:
        return self.cod - self.rank

    def notation(self) -> str:
        return f"{self.rank}_{self.dom}^{self.cod}"


class MapRef(NamedTuple):
    """Symbolic reference to one of the boundary maps, as recorded."""

    family: str  # "mu", "nu" or "rho"
    degree: int
    genus: int

    def notation(self) -> str:
        return f"{self.family}_{self.degree}^{self.genus}"


@dataclass(frozen=True)
class SideConstraint:
    """A recorded relation between boundary maps, kept verbatim.

    ``kind`` is one of ``image-containment`` (image of the first operand
    lies in the image of the second), ``kernel-intersection`` (the stated
    dimension of the intersection of the operand kernels) and
    ``composite-kernel`` (kernel dimension of the left-to-right composite
    of the operands, inverting where needed).  Operands keep the exact
    degree and genus superscripts they were recorded with, even where
    those do not type-check; :mod:`f2moduli.verify` evaluates the
    plausible readings and reports them.
    """

    kind: str
    operands: tuple[MapRef, ...]
    value: int
    label: str

    def __post_init__(self):
        kinds = ("image-containment", "kernel-intersection", "composite-kernel")
        if self.kind not in kinds:
            raise ValidationError(f"unknown constraint kind {self.kind!r}")


# ---------------------------------------------------------------------------
# closed formulas
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def nplus_betti(g: int) -> BettiTable:
    """Betti numbers n_r of the half-space, degrees 0..6g.

    Below the middle (r <= 3g+1) the value is h[r-2] + m_r; above it the
    value is h[r-2] - m_{r+1}.  The two branches agree at r = 3g+1.
    """
    h2 = (0, 0, *mod2_table(g).values, 0)  # h2[r] = h[r-2], r = 0..6g
    m = m_row(g)
    values = [v + a for v, a in zip(h2[: 3 * g + 2], m)]
    values += [v - a for v, a in zip(h2[3 * g + 2:], m[3 * g + 3:] + [0])]
    if min(values) < 0:
        raise ValidationError(f"half-space formula went negative for genus {g}")
    return BettiTable(g, "F2", tuple(values), space="plus")


def nhat_betti(g: int) -> BettiTable:
    """Betti numbers of the pair (half-space, boundary), degrees 0..6g.

    h[r-1] - m_{r-1} for r <= 3g-1 and h[r-1] + m_r above; equivalently
    the reverse of :func:`nplus_betti` by Lefschetz duality.
    """
    h1 = (0, *mod2_table(g).values, 0, 0)  # h1[r] = h[r-1], r = 0..6g
    m = m_row(g)
    values = [v - a for v, a in zip(h1[: 3 * g], [0] + m)]
    values += [v + a for v, a in zip(h1[3 * g:], m[3 * g:])]
    if min(values) < 0:
        raise ValidationError(f"relative formula went negative for genus {g}")
    return BettiTable(g, "F2", tuple(values), space="relative")


def boundary_profiles(g: int) -> tuple[tuple[MapProfile, ...], tuple[MapProfile, ...]]:
    """The profiles of mu_r and rho_r for r = 0..6g, built in one pass.

    Both maps land in the half-space, codomain n_r (:func:`nplus_betti`).
    mu_r has domain h[r] + h[r-2] and kernel h[r] - m_r below degree 3g,
    h[r] + m_{r+1} from 3g on.  rho_r has domain h[r-2] and is injective
    up to degree 3g+1, surjective from 3g+1 on (an isomorphism exactly
    where both hold).
    """
    values, nplus = mod2_table(g).values, nplus_betti(g).values
    h = (*values, 0, 0, 0)  # h[r], r = 0..6g
    h2 = (0, 0, *values, 0)  # h[r-2]
    m = m_row(g)
    kernels = [v - a for v, a in zip(h[: 3 * g], m)]
    kernels += [v + a for v, a in zip(h[3 * g:], m[3 * g + 1:] + [0])]
    if min(kernels) < 0:
        r = next(r for r, k in enumerate(kernels) if k < 0)
        raise ValidationError(f"mu kernel formula went negative at degree {r}")
    mu = tuple(
        MapProfile(a + b - k, a + b, n) for a, b, k, n in zip(h, h2, kernels, nplus)
    )
    rho = (*(MapProfile(b, b, n) for b, n in zip(h2[: 3 * g + 2], nplus)),
           *(MapProfile(n, b, n) for b, n in zip(h2[3 * g + 2:], nplus[3 * g + 2:])))
    return mu, rho


# ---------------------------------------------------------------------------
# assembled per-genus bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenusData:
    """Everything the diagram calculus needs about one genus.

    ``mu``, ``rho`` and ``nu`` are indexed by degree 0..6g.  Degrees where
    a space is zero-dimensional still carry explicit profiles with zero
    domain or codomain.
    """

    genus: int
    h: BettiTable
    nplus: BettiTable
    mu: tuple[MapProfile, ...]
    rho: tuple[MapProfile, ...]
    nu: tuple[MapProfile, ...]
    constraints: tuple[SideConstraint, ...] = ()

    def __post_init__(self):
        n = 6 * self.genus + 1
        for name, fam in (("mu", self.mu), ("rho", self.rho), ("nu", self.nu)):
            if len(fam) != n:
                raise ValidationError(f"{name} needs {n} profiles, got {len(fam)}")


def nu_profile(r: int, rank: int, mu_r: MapProfile, rho_r: MapProfile) -> MapProfile:
    """Profile of nu at degree r (mu_r's domain less rho_r's, into mu_r's
    codomain), checked jointly feasible: max(nu, rho) <= mu <= nu + rho in rank."""
    nu_r = MapProfile(rank=rank, dom=mu_r.dom - rho_r.dom, cod=mu_r.cod)
    if not (max(nu_r.rank, rho_r.rank) <= mu_r.rank <= nu_r.rank + rho_r.rank):
        raise ValidationError(
            f"nu rank {nu_r.rank} at degree {r} is not jointly feasible with "
            f"rho {rho_r.notation()} against mu {mu_r.notation()}"
        )
    return nu_r


def assemble_genus_data(
    g: int,
    nu_ranks: dict[int, int],
    constraints: tuple[SideConstraint, ...] = (),
) -> GenusData:
    """Build a :class:`GenusData` from explicit nu ranks.

    ``nu_ranks`` maps degree to the rank of nu there; degrees where the
    rank is forced (zero domain or zero codomain) may be omitted.  The
    assembled bundle is validated: every nu rank must fit its profile and
    must be jointly feasible with rho against the rank of mu, that is
    max(rank nu, rank rho) <= rank mu <= rank nu + rank rho.
    """
    h = mod2_table(g)
    nplus = nplus_betti(g)
    mu, rho = boundary_profiles(g)
    nu = []
    for r in range(6 * g + 1):
        if r in nu_ranks:
            nu_rank = nu_ranks[r]
        elif h[r] == 0 or nplus[r] == 0:
            nu_rank = 0
        else:
            raise ValidationError(f"nu rank at degree {r} is not forced and not supplied")
        nu.append(nu_profile(r, nu_rank, mu[r], rho[r]))
    return GenusData(
        genus=g,
        h=h,
        nplus=nplus,
        mu=mu,
        rho=rho,
        nu=tuple(nu),
        constraints=constraints,
    )


def genus1_data() -> GenusData:
    """Genus-1 bundle with the recorded nu ranks.

    The one side constraint: the image of nu at degree 3 is contained in
    the image of rho at degree 3, forced by mu there having rank 1.
    """
    nu_ranks = {r: row[4][0] for r, row in reference.GENUS1_ROWS.items()}
    constraints = (
        SideConstraint(
            kind="image-containment",
            operands=(MapRef("nu", 3, 1), MapRef("rho", 3, 1)),
            value=1,
            label="genus1-degree3-image",
        ),
    )
    return assemble_genus_data(1, nu_ranks, constraints)


def genus2_data() -> GenusData:
    """Genus-2 bundle with the recorded nu ranks and side constraints.

    The constraints are stored exactly as recorded.  The two
    kernel-intersection records carry superscripts that do not obviously
    type-check (one names mu at degree 5, the other names rho at degree 8
    with genus superscript 1); :mod:`f2moduli.verify` reports the
    plausible readings rather than silently correcting them.
    """
    nu_ranks = {r: row[4][0] for r, row in reference.GENUS2_ROWS.items()}
    constraints = (
        SideConstraint(
            kind="kernel-intersection",
            operands=(MapRef("nu", 3, 2), MapRef("mu", 5, 2)),
            value=1,
            label="genus2-step3",
        ),
        SideConstraint(
            kind="composite-kernel",
            operands=(MapRef("nu", 3, 2), MapRef("rho", 5, 2), MapRef("nu", 5, 2)),
            value=1,
            label="genus2-step3-composite",
        ),
        SideConstraint(
            kind="kernel-intersection",
            operands=(MapRef("nu", 6, 2), MapRef("rho", 8, 1)),
            value=0,
            label="genus2-step4",
        ),
    )
    return assemble_genus_data(2, nu_ranks, constraints)


# ---------------------------------------------------------------------------
# diagnostics against the recorded tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    name: str
    level: str  # "info" for known benign divergences, "error" otherwise
    message: str


# The one known divergence: the recorded genus-1 half-space value at
# degree 5 is 1 while the closed formula gives h[3] - m_6 = 0.  The
# recorded profiles in the same row (codomains of mu and rho at degree 5)
# agree with the formula, so the recorded 1 looks like a transcription
# slip and is reported informationally.
KNOWN_INFO = {"recorded-genus1-halfspace@5"}


def reference_diagnostics() -> list[Diagnostic]:
    """Compare formula output against the recorded genus-1/2 rows.

    Returns one diagnostic per divergence; a divergence listed in
    ``KNOWN_INFO`` comes back at level "info", anything else at "error".
    """
    out: list[Diagnostic] = []

    def note(name: str, got, want):
        if got == want:
            return
        level = "info" if name in KNOWN_INFO else "error"
        out.append(
            Diagnostic(name, level, f"formula gives {got}, recorded value is {want}")
        )

    for g, rows in ((1, reference.GENUS1_ROWS), (2, reference.GENUS2_ROWS)):
        h = mod2_table(g)
        nplus = nplus_betti(g)
        mu, rho = boundary_profiles(g)
        for r, (h_rec, n_rec, mu_rec, rho_rec, nu_rec) in rows.items():
            note(f"recorded-genus{g}-framed@{r}", h[r], h_rec)
            note(f"recorded-genus{g}-halfspace@{r}", nplus[r], n_rec)
            note(f"recorded-genus{g}-mu@{r}", (mu[r].rank, mu[r].dom, mu[r].cod), mu_rec)
            note(f"recorded-genus{g}-rho@{r}", (rho[r].rank, rho[r].dom, rho[r].cod), rho_rec)
            # nu rank is recorded data; only its shape is formula-checked
            note(f"recorded-genus{g}-nu-shape@{r}", (h[r], nplus[r]), nu_rec[1:])
    return out
