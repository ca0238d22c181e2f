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
# thread, since a Newton correction predicted to converge keeps the last
# factor, the pressure half takes 3.9-4.1 s (102 factorizations; 125 and
# 4.5-4.7 s before, three alternating runs) and the Dirichlet half 3.8-4.3 s
# (95 factorizations; 124 and 4.0-4.5 s before), so the whole script takes
# about 8 s.  Set before numpy is imported, which reads them.
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
