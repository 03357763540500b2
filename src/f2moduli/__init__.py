"""Exact mod-2 Betti number computations for framed SU(2) moduli spaces.

Subpackages:

* :mod:`f2moduli.f2la` dense bit-packed linear algebra over the two-element field
* :mod:`f2moduli.betti` Betti-number tables and the genus recursions
* :mod:`f2moduli.moduli` boundary-inclusion map profiles for the framed spaces
* :mod:`f2moduli.serre` spectral-sequence evaluation of framed Betti numbers
* :mod:`f2moduli.mv` Mayer-Vietoris diagram calculus
* :mod:`f2moduli.verify` the cross-check suite, including the recorded side constraints
* :mod:`f2moduli.cli` command line front end
"""

__version__ = "0.1.0"
