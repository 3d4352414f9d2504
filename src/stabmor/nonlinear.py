"""Galerkin reduction of nonlinear systems with a stable equilibrium.

For E x'(t) = f(x(t)) with equilibrium f(x*) = 0, asymptotic stability of
x* is decided by the Jacobian A' = E^{-1} df/dx(x*). The reduced model

    W^T E V xbar'(t) = W^T f(V xbar(t))

inherits the equilibrium xbar* = 0 (after shifting x* to the origin), and
choosing W = M~ E V with the transformation built from the linearization
makes the reduced equilibrium asymptotically stable for every orthonormal
V, exactly as in the linear case.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .config import DEFAULT, Tolerances
from .dynsys import (DescriptorModel, LinearSystem, StabilityReport,
                     stability_report)
from .errors import EquilibriumResidualTooLarge
from .linalg import as_dense
from .projection import _reduced_mass
from .stabilize import StabilizerFactor

__all__ = [
    "NonlinearSystem",
    "NonlinearROM",
    "shift_to_origin",
    "linearize",
    "equilibrium_stability",
    "nonlinear_reduce",
    "finite_difference_jacobian",
]


class NonlinearSystem(DescriptorModel):
    """Autonomous nonlinear descriptor system E x' = f(x) (+ B u).

    ``f`` and ``jac`` are callbacks; ``jac`` must return the n-by-n
    Jacobian (sparse or dense) of f as a matrix the caller owns: each call
    returns a new object, which callers may keep or modify without
    affecting ``f`` or later calls. The designated equilibrium ``x_star``
    is verified at construction. Constant inputs can be folded into f;
    B and C are optional for forced simulation and output extraction.
    """

    def __init__(self, e, f: Callable, jac: Callable,
                 x_star: np.ndarray | None = None,
                 b=None, c=None, config: Tolerances = DEFAULT):
        super().__init__(e, b, c)
        n = self.n
        self.f = f
        self.jac = jac
        self.x_star = (np.zeros(n) if x_star is None
                       else np.asarray(x_star, dtype=float))
        if self.x_star.shape != (n,):
            raise ValueError(f"equilibrium must be a vector of length {n}")
        residual = float(np.linalg.norm(np.asarray(f(self.x_star), dtype=float)))
        scale = max(1.0, float(np.linalg.norm(
            as_dense(jac(self.x_star) @ np.atleast_2d(self.x_star).T))))
        if residual > config.equilibrium_residual * scale:
            raise EquilibriumResidualTooLarge(
                f"||f(x*)|| = {residual:.3e} exceeds "
                f"{config.equilibrium_residual:.1e} * scale ({scale:.3e})")


def shift_to_origin(sys: NonlinearSystem,
                    config: Tolerances = DEFAULT) -> NonlinearSystem:
    """Move the designated equilibrium to the origin: g(x) = f(x + x*)."""
    if not np.any(sys.x_star):
        return sys
    x_star = sys.x_star.copy()
    return NonlinearSystem(
        sys.e,
        lambda x: sys.f(x + x_star),
        lambda x: sys.jac(x + x_star),
        x_star=None, b=sys.b, c=sys.c, config=config)


def linearize(sys: NonlinearSystem) -> LinearSystem:
    """Linear system (E, jac(x*), B, C) describing the equilibrium dynamics."""
    return LinearSystem(sys.e, sys.jac(sys.x_star), sys.b, sys.c)


def equilibrium_stability(sys: NonlinearSystem, ell: int | None = None,
                          config: Tolerances = DEFAULT) -> StabilityReport:
    """Stability report of the Jacobian pencil at the equilibrium."""
    return stability_report(linearize(sys), ell, config)


class NonlinearROM(DescriptorModel):
    """Reduced nonlinear model Ebar xbar' = fbar(xbar) (+ Bbar u).

    ``f`` and ``jac`` are the projected callbacks W^T f(V .) and
    W^T jac(V .) V; ``f(0) = 0`` holds because reduction happens in
    shifted coordinates, so construction evaluates neither. ``x_star`` is
    the full-order equilibrium. ``ebar``, ``bbar``, ``cbar`` and ``r`` are
    the reduced names of E, B, C and n.
    """

    def __init__(self, ebar, f: Callable, jac: Callable, bbar, cbar,
                 v: np.ndarray, w: np.ndarray, stabilized: bool,
                 x_star: np.ndarray):
        super().__init__(ebar, bbar, cbar)
        self.f = f
        self.jac = jac
        self.v = v
        self.w = w
        self.stabilized = stabilized
        self.x_star = x_star

    ebar = property(lambda self: self.e)
    bbar = property(lambda self: self.b)
    cbar = property(lambda self: self.c)
    r = property(lambda self: self.n)

    def jacobian_system(self) -> LinearSystem:
        """Reduced linearization at the equilibrium, for stability checks."""
        return LinearSystem(self.e, self.jac(np.zeros(self.n)), self.b, self.c)


def nonlinear_reduce(sys: NonlinearSystem, basis,
                     stab: StabilizerFactor | None = None,
                     config: Tolerances = DEFAULT) -> NonlinearROM:
    """Project a nonlinear system onto ``basis``.

    With ``stab`` (assembled from the linearization at the equilibrium)
    the test basis W = M~ E V and the symmetric positive definite reduced
    mass matrix come from :meth:`StabilizerFactor.test_basis`; without it
    the conventional W = V is used, and a singular V^T E V raises
    :class:`~stabmor.errors.SingularReducedMass` as in
    :func:`~stabmor.projection.galerkin_reduce`. The system is shifted so
    the reduced equilibrium sits at the origin.
    """
    shifted = shift_to_origin(sys, config)
    v = basis.v if hasattr(basis, "v") else np.asarray(basis, dtype=float)
    if v.shape[0] != sys.n:
        raise ValueError(f"basis has {v.shape[0]} rows, system has n = {sys.n}")
    if stab is None:
        w = v
        ebar = _reduced_mass(shifted.e, v, w)
    else:
        w, ebar = stab.test_basis(v)

    def fbar(xbar, w=w, v=v, shifted=shifted):
        return w.T @ np.asarray(shifted.f(v @ xbar), dtype=float)

    def jbar(xbar, w=w, v=v, shifted=shifted):
        return np.asarray(w.T @ as_dense(shifted.jac(v @ xbar) @ v))

    return NonlinearROM(ebar, fbar, jbar, w.T @ shifted.b, shifted.c @ v,
                        v=v, w=w, stabilized=stab is not None,
                        x_star=sys.x_star.copy())


def finite_difference_jacobian(f: Callable, x: np.ndarray,
                               h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian, for validating callbacks in tests only.

    Accuracy is O(h^2) with cancellation around 1e-8 relative at best;
    production code must supply an analytic Jacobian callback.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if h is None:
        h = 1e-6 * max(1.0, float(np.linalg.norm(x, np.inf)))
    cols = []
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        cols.append((np.asarray(f(x + step), dtype=float)
                     - np.asarray(f(x - step), dtype=float)) / (2.0 * h))
    return np.column_stack(cols)
