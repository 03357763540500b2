"""Per-layer self time and counts, from wrappers the benchmark installs.

The package is not edited.  ``Tracer.install`` replaces each traced
public function at every module attribute that binds it (``mv``,
``_witness`` and ``cli`` import names directly), and on the class for
methods; ``uninstall`` puts the originals back.  A wrapper times its
call with ``perf_counter``; its self time is that duration minus the
time of the traced calls made inside it.  Totals stay in memory.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# layer name -> (module, attribute) of each function it covers; a dotted
# attribute names a method
LAYERS = {
    "f2la.pack": [
        ("f2moduli.f2la", "BitMatrix.from_rows"),
        ("f2moduli.f2la", "BitMatrix.from_dense"),
        ("f2moduli.f2la", "BitMatrix.to_dense"),
    ],
    "f2la.kron": [("f2moduli.f2la", "kron")],
    "f2la.block_assemble": [("f2moduli.f2la", "block_assemble")],
    "f2la.rank": [("f2moduli.f2la", "rank")],
    "f2la.compose": [("f2moduli.f2la", "compose")],
    "f2la.inverse": [("f2moduli.f2la", "inverse")],
    "f2la.random_invertible": [("f2moduli.f2la", "random_invertible")],
    "witness.synthesize": [("f2moduli._witness", "synthesize_witnesses")],
    "mv.build_split": [("f2moduli.mv", "build_split")],
    "mv.realize": [("f2moduli.mv", "realize")],
    "mv.ker_coker": [("f2moduli.mv", "ker_coker")],
    "mv.infer_nu_rank": [("f2moduli.mv", "infer_nu_rank")],
    "mv.canonical_data": [("f2moduli.mv", "canonical_data")],
    "moduli.nplus_betti": [("f2moduli.moduli", "nplus_betti")],
    "moduli.profile": [("f2moduli.moduli", "mu_profile"), ("f2moduli.moduli", "rho_profile")],
    "moduli.assemble_genus_data": [("f2moduli.moduli", "assemble_genus_data")],
    "betti.tables": [("f2moduli.betti", "mod2_table"), ("f2moduli.betti", "rational_table")],
    "betti.verify_theorem": [("f2moduli.betti", "verify_theorem")],
    "serre.serre_betti": [("f2moduli.serre", "serre_betti")],
    "ringdata.alpha_ranks": [("f2moduli.ringdata", "alpha_ranks_from_tables")],
    "cli.render": [("f2moduli.cli", "OutputDocument.render")],
}

# the outermost call of a sized layer adds the size of the matrix it
# packs, unpacks, ranks or assembles, in bits
_SIZE = {
    "f2la.pack": lambda args, out: out.size if hasattr(out, "size") else out.rows * out.cols,
    "f2la.rank": lambda args, out: args[0].rows * args[0].cols,
    "f2la.block_assemble": lambda args, out: out.rows * out.cols,
}

CLI = "cli"  # the span around each call of cli.main


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0
    bits: int = 0
    max_bits: int = 0
    depth: int = 0


class Tracer:
    """Per-layer totals of one traced round; ``reset`` starts the next."""

    def __init__(self):
        self.stats = {name: LayerStats() for name in [CLI, *LAYERS]}
        self._stack: list[float] = []  # time of traced children, per open span
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for name in self.stats:
            self.stats[name] = LayerStats()

    def wrap(self, layer: str, fn):
        stats, stack, clock = self.stats, self._stack, time.perf_counter
        size = _SIZE.get(layer)

        def traced(*args, **kwargs):
            st = stats[layer]
            stack.append(0.0)
            st.depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.depth -= 1
                st.self_s += dt - stack.pop()
                st.calls += 1
                if stack:
                    stack[-1] += dt
            if size is not None and st.depth == 0:
                bits = size(args, out)
                st.bits += bits
                st.max_bits = max(st.max_bits, bits)
            return out

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function.

        A function the package no longer has is skipped with a warning;
        its layer then reads 0.
        """
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "f2moduli"]
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                owner = sys.modules.get(modname)
                *classes, name = attr.split(".")
                for cls_name in classes:
                    owner = getattr(owner, cls_name, None)
                raw = vars(owner).get(name) if owner is not None else None
                if raw is None:
                    print(f"warning: {modname}.{attr} not found, not traced", file=sys.stderr)
                elif isinstance(owner, type):
                    # a method: patch the class itself
                    if isinstance(raw, classmethod):
                        self._patch(owner, name, raw, classmethod(self.wrap(layer, raw.__func__)))
                    else:
                        self._patch(owner, name, raw, self.wrap(layer, raw))
                else:
                    new = self.wrap(layer, raw)
                    for mod in modules:
                        for bound, value in list(vars(mod).items()):
                            if value is raw:
                                self._patch(mod, bound, raw, new)

    def _patch(self, owner, name, old, new) -> None:
        self._patches.append((owner, name, old))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)
