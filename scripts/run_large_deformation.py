#!/usr/bin/env python3
"""Finite-deformation runs: dead pressure 0.1 and prescribed push 0.4.

Both use the Neo-Hookean law with incremental loading; the mesh band is
widened because the contact zone spans a large part of the arc.
"""
import os
import sys

# One BLAS thread unless the caller sets one: every Newton solve factors and
# solves a banded system of at most 9,800 dofs, too small for threads to pay.
# On a 2-core machine (nproc 2, OpenBLAS 0.3.31) the pressure half took
# 16.4-16.5 s with two OpenBLAS threads, the default there, and 9.3-10.4 s
# with one, before the active set was settled on each Newton factor.  With one
# thread, since the Neo-Hookean residual and tangent make fewer passes over
# the quadrature data, the pressure half takes 3.0-3.2 s (4.1-4.3 s before,
# three alternating runs) and the Dirichlet half 3.1-3.8 s (3.9-4.3 s
# before), with the 102 and 95 factorizations of before.  Since each finer
# level starts from the coarser level's converged state and takes the whole
# load in one step, the halves take 1.2-1.6 s (3.9-4.8 s before) and 1.3-1.8 s
# (4.8-5.6 s before), with 34 and 30 factorizations, so the whole script takes
# about 3 s (three alternating runs of each half as its own process,
# interpreter start included).  Since the coarsest level takes the whole load
# in one step too, the halves make 16 and 13 factorizations; the Dirichlet
# half's solves take 0.56-0.60 s (0.65-0.76 s before) and the pressure half's,
# mostly its finest level, about 0.8 s either way (three alternating runs,
# interpreter start excluded).  Set before numpy is imported, which reads them.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from igacontact.cli import main  # noqa: E402

if __name__ == "__main__":
    rc = main(
        [
            "hertz2d-large",
            "--pressure", "0.1",
            "--levels", "4",
            "--base-spans", "3,6",
            "--grading", "0.7,0.45",
            "--out", "out/large_pressure",
        ]
    )
    rc |= main(
        [
            "hertz2d-large-dirichlet",
            "--displacement", "0.4",
            "--levels", "4",
            "--base-spans", "3,6",
            "--grading", "0.65,0.6",
            "--out", "out/large_dirichlet",
        ]
    )
    sys.exit(rc)
