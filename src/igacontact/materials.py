"""Constitutive laws: linear elasticity and compressible Neo-Hookean.

2D problems are treated as plane strain, so both laws share the 3D Lame
parameters.  The Neo-Hookean stored energy is the standard compressible
form ``W = mu/2 (I1 - d) - mu ln J + lam/2 (ln J)^2``, which linearizes
to the elastic tensor at the identity deformation gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MaterialError(ValueError):
    """Invalid material parameters or inadmissible deformation state."""


class ElementInversionError(MaterialError):
    """Deformation gradient with nonpositive determinant."""


@dataclass(frozen=True)
class LinearMaterial:
    young: float
    poisson: float

    def __post_init__(self):
        if self.young <= 0:
            raise MaterialError("Young's modulus must be positive")
        if not (0 <= self.poisson < 0.5):
            raise MaterialError("Poisson's ratio must lie in [0, 0.5)")

    def lame(self) -> tuple[float, float]:
        mu = self.young / (2.0 * (1.0 + self.poisson))
        lam = self.young * self.poisson / ((1.0 + self.poisson) * (1.0 - 2.0 * self.poisson))
        return mu, lam


@dataclass(frozen=True)
class NeoHookeanMaterial(LinearMaterial):
    """The Neo-Hookean law of the same Lame parameters, which linearizes to :class:`LinearMaterial` at F = I."""

    def pk1(self, F, J=None, F_inv=None, out=None) -> np.ndarray:
        """First Piola-Kirchhoff stress, batched over leading axes.

        ``J`` and ``F_inv`` are det F and F^-1 when the caller already has
        them from :func:`det_and_inverse`; ``out``, which may be F itself,
        receives P.  The law commutes with transposition: given F^T, det F
        and F^-T it returns P^T.
        """
        F = np.asarray(F, dtype=float)
        if J is None or F_inv is None:
            J, F_inv = det_and_inverse(F)
        mu, lam = self.lame()
        P = np.multiply(F, mu, out=out)
        P += (lam * np.log(J) - mu)[..., None, None] * np.swapaxes(F_inv, -1, -2)
        return P


def det_and_inverse(F, J=None, F_inv=None) -> tuple[np.ndarray, np.ndarray]:
    """det F and F^-1 of 2x2 or 3x3 deformation gradients, batched over leading axes.

    Closed forms, entry by entry: batched LAPACK on matrices this small
    costs more than the arithmetic.  F may be any strided view (a
    transpose included); ``J`` and ``F_inv``, when given, receive the
    results.  Raises :class:`ElementInversionError` where det F <= 0.
    """
    F = np.asarray(F, dtype=float)
    nd = F.shape[-1]
    if J is None:
        J = np.empty(F.shape[:-2])
    if F_inv is None:
        F_inv = np.empty(F.shape)
    if nd == 2:
        np.multiply(F[..., 0, 0], F[..., 1, 1], out=J)
        J -= F[..., 0, 1] * F[..., 1, 0]
        adj = {(0, 0): F[..., 1, 1], (0, 1): -F[..., 0, 1], (1, 0): -F[..., 1, 0], (1, 1): F[..., 0, 0]}
    else:
        # (F^-1)_ji = cof_ij / J, cof_i the cross product of rows i + 1 and i + 2
        adj = {}
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                adj[j, i] = F[..., i1, j1] * F[..., i2, j2] - F[..., i1, j2] * F[..., i2, j1]
        np.multiply(F[..., 0, 0], adj[0, 0], out=J)
        J += F[..., 0, 1] * adj[1, 0]
        J += F[..., 0, 2] * adj[2, 0]
    if np.any(J <= 0):
        raise ElementInversionError("element inversion: det F <= 0")
    for (j, i), a in adj.items():
        np.divide(a, J, out=F_inv[..., j, i])
    return J, F_inv
