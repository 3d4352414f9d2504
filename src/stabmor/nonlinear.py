"""Galerkin reduction of nonlinear systems with a stable equilibrium.

For E x'(t) = f(x(t)) with equilibrium f(x*) = 0, asymptotic stability of
x* is decided by the Jacobian A' = E^{-1} df/dx(x*). The reduced model

    W^T E V xbar'(t) = W^T f(V xbar(t))

inherits the equilibrium xbar* = 0 (after shifting x* to the origin), and
choosing W = M~ E V with the transformation built from the linearization
makes the reduced equilibrium asymptotically stable for every orthonormal
V, exactly as in the linear case.

A system may carry the structure f(x) = A x + P g(Q^T x), with sparse A,
selectors P and Q and a componentwise g (:meth:`NonlinearSystem.structured`).
Its reduced model then precomputes W^T A V, W^T P and Q^T V once and
evaluates f and its Jacobian at O(r^2 + r m) and O(r^2 m) per call, with
m the number of nonlinear terms, without touching the full-order model.
Opaque callbacks are projected at full order at every call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .config import DEFAULT, Tolerances
from .dynsys import (DescriptorModel, LinearSystem, StabilityReport,
                     stability_report)
from .errors import EquilibriumResidualTooLarge
from .linalg import as_dense
from .projection import _reduced_mass
from .stabilize import StabilizerFactor

__all__ = [
    "Structure",
    "NonlinearSystem",
    "NonlinearROM",
    "shift_to_origin",
    "linearize",
    "equilibrium_stability",
    "nonlinear_reduce",
    "finite_difference_jacobian",
]


def _selector(idx: np.ndarray):
    """``idx`` as a slice when it is an ascending run of consecutive
    indices, so that ``x[idx]`` is a view; else ``idx`` itself."""
    if idx.size and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class Structure:
    """f(x) = A x + P g(Q^T x), with P = I[:, rows] and Q = I[:, cols].

    A is kept as canonical float CSR, not copied (as E is not); ``rows``
    must be distinct, and ``g`` and its derivative ``dg`` act
    componentwise on Q^T x. The Jacobian A + P diag(g'(Q^T x)) Q^T differs
    from A only in the slots (rows[i], cols[i]), located once here; each
    must be stored in A (an explicit zero will do), else ``ValueError``.
    """

    def __init__(self, a, rows, cols, g: Callable, dg: Callable):
        a = (a.tocsr() if sp.issparse(a) else sp.csr_matrix(a)).astype(
            float, copy=False)
        a.sum_duplicates()  # canonical CSR: sorted indices, one slot per entry
        n = a.shape[0]
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if a.shape != (n, n):
            raise ValueError(f"A must be square, got shape {a.shape}")
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("rows and cols must be index vectors of one length")
        if rows.size and (min(rows.min(), cols.min()) < 0
                          or max(rows.max(), cols.max()) >= n):
            raise ValueError(f"rows and cols must lie in [0, {n})")
        if np.unique(rows).size != rows.size:
            raise ValueError("rows must be distinct")
        # stored entries in storage order have increasing keys row * n + col,
        # then a sentinel -1 for slots past the last entry
        keys = np.append(np.repeat(np.arange(n), np.diff(a.indptr)) * n
                         + a.indices, -1)
        want = rows * n + cols
        slots = np.searchsorted(keys[:-1], want)
        missing = np.flatnonzero(keys[slots] != want)
        if missing.size:
            raise ValueError(f"A stores {want.size - missing.size} of the "
                             f"{want.size} entries the Jacobian updates; "
                             f"none at ({rows[missing[0]]}, "
                             f"{cols[missing[0]]})")
        self.a, self.rows, self.cols, self.g, self.dg = a, rows, cols, g, dg
        self.slots = slots
        self._rows, self._cols = _selector(rows), _selector(cols)

    def f(self, x):
        out = self.a @ x
        out[self._rows] += self.g(x[self._cols])
        return out

    def jac(self, x):
        out = self.a.copy()
        out.data[self.slots] += self.dg(x[self._cols])
        return out


# largest accepted ||f(x*)|| at an equilibrium, relative to max(1, ||J x*||)
EQUILIBRIUM_RESIDUAL = 1e-10


class NonlinearSystem(DescriptorModel):
    """Autonomous nonlinear descriptor system E x' = f(x) (+ B u).

    ``f`` and ``jac`` are callbacks; ``jac`` must return the n-by-n
    Jacobian (sparse or dense) of f as a matrix the caller owns: each call
    returns a new object, which callers may keep or modify without
    affecting ``f`` or later calls. Both are plain instance attributes, so
    a caller may wrap them. The designated equilibrium ``x_star`` is
    verified at construction. Constant inputs can be folded into f;
    B and C are optional for forced simulation and output extraction.

    ``structure`` is the :class:`Structure` of a system built by
    :meth:`structured`, whose ``f`` and ``jac`` are then the structure's;
    it is None for opaque callbacks.
    """

    def __init__(self, e, f: Callable, jac: Callable,
                 x_star: np.ndarray | None = None,
                 b=None, c=None):
        super().__init__(e, b, c)
        n = self.n
        self.f = f
        self.jac = jac
        self.structure: Structure | None = None
        self.x_star = (np.zeros(n) if x_star is None
                       else np.asarray(x_star, dtype=float))
        if self.x_star.shape != (n,):
            raise ValueError(f"equilibrium must be a vector of length {n}")
        residual = float(np.linalg.norm(np.asarray(f(self.x_star), dtype=float)))
        scale = max(1.0, float(np.linalg.norm(
            as_dense(jac(self.x_star) @ np.atleast_2d(self.x_star).T))))
        if residual > EQUILIBRIUM_RESIDUAL * scale:
            raise EquilibriumResidualTooLarge(
                f"||f(x*)|| = {residual:.3e} exceeds "
                f"{EQUILIBRIUM_RESIDUAL:.1e} * scale ({scale:.3e})")

    @classmethod
    def structured(cls, e, a, rows, cols, g: Callable, dg: Callable,
                   x_star: np.ndarray | None = None, b=None,
                   c=None) -> "NonlinearSystem":
        """System with f(x) = A x + P g(Q^T x); see :class:`Structure`.

        ``f(x)`` is ``A x`` with ``g(x[cols])`` added at ``rows``;
        ``jac(x)`` is a new CSR copy of A with ``dg(x[cols])`` added in its
        stored slots. :func:`nonlinear_reduce` projects the structure
        itself, so the reduced model never calls ``f`` or ``jac``.
        """
        structure = Structure(a, rows, cols, g, dg)
        sys = cls(e, structure.f, structure.jac, x_star, b, c)
        sys.structure = structure
        return sys


def shift_to_origin(sys: NonlinearSystem) -> NonlinearSystem:
    """Move the designated equilibrium to the origin: g(x) = f(x + x*).

    A system whose equilibrium is already 0 is returned as it is. Any
    other comes back with opaque callbacks, without its structure.
    """
    if not np.any(sys.x_star):
        return sys
    x_star = sys.x_star.copy()
    return NonlinearSystem(
        sys.e,
        lambda x: sys.f(x + x_star),
        lambda x: sys.jac(x + x_star),
        x_star=None, b=sys.b, c=sys.c)


def linearize(sys: NonlinearSystem) -> LinearSystem:
    """Linear system (E, jac(x*), B, C) describing the equilibrium dynamics."""
    return LinearSystem(sys.e, sys.jac(sys.x_star), sys.b, sys.c)


def equilibrium_stability(sys: NonlinearSystem, ell: int | None = None,
                          config: Tolerances = DEFAULT) -> StabilityReport:
    """Stability report of the Jacobian pencil at the equilibrium."""
    return stability_report(linearize(sys), ell, config)


class NonlinearROM(DescriptorModel):
    """Reduced nonlinear model Ebar xbar' = fbar(xbar) (+ Bbar u).

    ``f`` and ``jac`` evaluate W^T f(V .) and W^T jac(V .) V, each call
    returning a new array: from the precomputed reduced structure when the
    full-order system has one, else by projecting its callbacks. ``f(0) =
    0`` holds because reduction happens in shifted coordinates, so
    construction evaluates neither. ``x_star`` is
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
                     stab: StabilizerFactor | None = None) -> NonlinearROM:
    """Project a nonlinear system onto ``basis``.

    With ``stab`` (assembled from the linearization at the equilibrium)
    the test basis W = M~ E V and the symmetric positive definite reduced
    mass matrix come from :meth:`StabilizerFactor.test_basis`; without it
    the conventional W = V is used, and a singular V^T E V raises
    :class:`~stabmor.errors.SingularReducedMass` as in
    :func:`~stabmor.projection.galerkin_reduce`. The system is shifted so
    the reduced equilibrium sits at the origin.

    A structured system (:meth:`NonlinearSystem.structured`) with x* = 0
    is reduced through its structure: Abar = W^T (A V), Pbar = W[rows]^T
    and Qbar = V[cols] are formed here, and the model evaluates
    Abar xbar + Pbar g(Qbar xbar) and Abar + (Pbar diag(g'(Qbar xbar)))
    Qbar without calling the full-order ``f`` or ``jac``. Opaque
    callbacks, and any system with x* != 0, are projected at every call.
    """
    shifted = shift_to_origin(sys)
    v = basis.v if hasattr(basis, "v") else np.asarray(basis, dtype=float)
    if v.shape[0] != sys.n:
        raise ValueError(f"basis has {v.shape[0]} rows, system has n = {sys.n}")
    if stab is None:
        w = v
        ebar = _reduced_mass(shifted.e, v, w)
    else:
        w, ebar = stab.test_basis(v)

    s = shifted.structure
    if s is None:
        def fbar(xbar, w=w, v=v, shifted=shifted):
            return w.T @ np.asarray(shifted.f(v @ xbar), dtype=float)

        def jbar(xbar, w=w, v=v, shifted=shifted):
            return np.asarray(w.T @ as_dense(shifted.jac(v @ xbar) @ v))
    else:
        # W^T f(V xbar) = Abar xbar + Pbar g(Qbar xbar), exactly
        abar = np.asarray(w.T @ as_dense(s.a @ v))
        # views of W and V when rows and cols are ranges, as in the chain
        pbar, qbar, g, dg = w[s._rows].T, v[s._cols], s.g, s.dg

        def fbar(xbar):
            return abar @ xbar + pbar @ g(qbar @ xbar)

        def jbar(xbar):
            return abar + (pbar * dg(qbar @ xbar)) @ qbar

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
