"""Hyperbolic structured regularization toolkit.

Embeds weighted label hierarchies into learned feature spaces via CPCC-style
losses on the Poincare ball, with diagnostics (delta-hyperbolicity, test
CPCC, kNN accuracy, Mahalanobis OOD scoring) and a block-correlation
eigenspectrum toolkit whose closed forms the tests check against LAPACK and an
independent Jacobi solver.

The public surface is the ``hypstruct`` command line (``python -m
hypstruct.cli``; see :mod:`hypstruct.cli`).  The modules it drives are
importable by path, e.g. ``from hypstruct import objective``; this package
re-exports nothing.
"""

__version__ = "0.1.0"
