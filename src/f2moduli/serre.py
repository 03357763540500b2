"""Framed Betti numbers from base-space ring data.

The framed space is the total space of two stacked circle bundles over
the degree-1 part of the unframed moduli space, both with Euler class
the degree-2 generator ``alpha``.  Running the two Gysin sequences and
keeping track of kernels and cokernels of cup product by alpha gives

    h_r = |cok a_{r-2}| + |ker a_{r-1}| + |cok a_{r-4}| + |ker a_{r-3}|

where ``a_s`` is cup product H^s(base) -> H^{s+2}(base).  Everything the
formula needs is the list of base Betti numbers and the rank of ``a_s``
for each s.

The base of genus g has dimension 6g-6, so dims has length 6g-5 and the
rank list length 6g-7 (empty at genus 1, where the base is a point).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .betti import BettiTable
from .errors import ValidationError

__all__ = ["AlphaAction", "serre_betti", "genus2_ring", "load_alpha_profile"]


@dataclass(frozen=True)
class AlphaAction:
    """Cup product by the degree-2 class on the base cohomology.

    ``dims[s]`` is dim H^s(base) for s = 0..6g-6 and ``ranks[s]`` the rank
    of a_s: H^s -> H^{s+2} for s = 0..6g-8.  Validated on construction:
    dims must be nonnegative, start at 1 and be palindromic; ranks must
    fit min(dims[s], dims[s+2]) and be palindromic too, since cup product
    on a closed oriented base pairs a_s with a_{6g-8-s}.
    """

    genus: int
    dims: tuple[int, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        g = self.genus
        if g < 1:
            raise ValidationError("genus must be at least 1")
        nd, nr = 6 * g - 5, max(0, 6 * g - 7)
        if len(self.dims) != nd:
            raise ValidationError(f"need {nd} base dims for genus {g}, got {len(self.dims)}")
        if len(self.ranks) != nr:
            raise ValidationError(f"need {nr} alpha ranks for genus {g}, got {len(self.ranks)}")
        if any(d < 0 for d in self.dims):
            raise ValidationError("negative base dimension")
        if self.dims[0] != 1:
            raise ValidationError("base must be connected: dims[0] == 1")
        if self.dims != self.dims[::-1]:
            raise ValidationError("base dims must be palindromic")
        for s, r in enumerate(self.ranks):
            if not 0 <= r <= min(self.dims[s], self.dims[s + 2]):
                raise ValidationError(f"alpha rank at degree {s} out of range")
        if self.ranks != self.ranks[::-1]:
            raise ValidationError("alpha ranks must be palindromic")

    def dim(self, s: int) -> int:
        return self.dims[s] if 0 <= s < len(self.dims) else 0

    def rank(self, s: int) -> int:
        return self.ranks[s] if 0 <= s < len(self.ranks) else 0

    def kernel(self, s: int) -> int:
        """dim ker a_s, with out-of-range maps read as zero maps."""
        return self.dim(s) - self.rank(s)

    def cokernel(self, s: int) -> int:
        """dim cok a_s, with out-of-range maps read as zero maps."""
        return self.dim(s + 2) - self.rank(s)


def serre_betti(action: AlphaAction) -> BettiTable:
    """Framed Betti numbers from the base ring data, degrees 0..6g-3."""
    g = action.genus
    values = tuple(
        action.cokernel(r - 2)
        + action.kernel(r - 1)
        + action.cokernel(r - 4)
        + action.kernel(r - 3)
        for r in range(6 * g - 2)
    )
    return BettiTable(g, "F2", values, space="framed")


def genus2_ring() -> AlphaAction:
    """The genus-2 base ring.

    H^*(base) has dims (1, 0, 1, 4, 1, 0, 1): generators alpha in degree
    2, four degree-3 classes, one degree-4 class.  alpha^2 = 0, and alpha
    times the degree-4 class spans the top.  So the alpha ranks are
    (1, 0, 0, 0, 1).
    """
    return AlphaAction(genus=2, dims=(1, 0, 1, 4, 1, 0, 1), ranks=(1, 0, 0, 0, 1))


_PROFILE_KEYS = {"genus", "dims", "alpha_ranks"}


def _is_int(v) -> bool:
    # JSON true/false parse to bool, which Python counts as int
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) for x in v)


def load_alpha_profile(source: str | Path) -> AlphaAction:
    """Read an alpha profile from a JSON file.

    The profile has exactly the keys genus, dims and alpha_ranks.  Unknown
    keys are rejected so silent typos cannot slip through.
    """
    with open(source) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValidationError("alpha profile must be a JSON object")
    extra = set(data) - _PROFILE_KEYS
    if extra:
        raise ValidationError(f"unknown keys in alpha profile: {sorted(extra)}")
    missing = _PROFILE_KEYS - set(data)
    if missing:
        raise ValidationError(f"alpha profile missing keys: {sorted(missing)}")
    g = data["genus"]
    if not _is_int(g):
        raise ValidationError("genus must be an integer")
    if not (_is_int_list(data["dims"]) and _is_int_list(data["alpha_ranks"])):
        raise ValidationError("dims and alpha_ranks must be integer lists")
    return AlphaAction(genus=g, dims=tuple(data["dims"]), ranks=tuple(data["alpha_ranks"]))
