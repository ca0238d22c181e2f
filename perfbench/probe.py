"""Machine-speed probe: a fixed kernel that uses no igacontact code.

On a shared machine the speed of the cores changes by up to 1.7x, in
bursts of seconds and in periods of many minutes, so the time of a call
says as much about the machine's load as about the program.  The probe
is timed just before and just after every benchmark call.  Its kernel is
made of the same kinds of work as the workloads (a C ``einsum`` with the
stiffness signature, a SuperLU factorization and a Python loop) on fixed
inputs, so no change to the package can alter its time.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.grads = rng.random((16, 9, 9, 2))
        self.tensor = rng.random((2, 2, 2, 2))
        self.weights = rng.random((16, 9))
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(60, 60))
        eye = sp.eye(60)
        self.laplacian = (sp.kron(line, eye) + sp.kron(eye, line)).tocsc()

    def sample(self) -> float:
        """Time one kernel, in seconds."""
        start = time.perf_counter()
        np.einsum("eqaj,ijkl,eqbl,eq->eaibk", self.grads, self.tensor, self.grads, self.weights)
        spla.splu(self.laplacian)
        total = 0
        for i in range(40000):
            total += i
        return time.perf_counter() - start

    def run(self, seconds: float) -> list[float]:
        """Samples taken for about ``seconds``, at least one."""
        end = time.perf_counter() + seconds
        samples = [self.sample()]
        while time.perf_counter() < end:
            samples.append(self.sample())
        return samples
