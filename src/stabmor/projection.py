"""Galerkin projection: basis construction and the reduced system.

A reduced model is obtained from trial and test bases V and W as

    Ebar = W^T E V,  Abar = W^T A V,  Bbar = W^T B,  Cbar = C V,

with W = V in the conventional Galerkin scheme. Bases come from a one-sided
(block) Arnoldi process in the shifted-inverse operator or from the dominant
left singular vectors of a snapshot matrix (POD).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .dynsys import LinearSystem
from .errors import Breakdown, RankDeficient, SingularReducedMass
from .linalg import (Snapshots, as_dense, lu_factor, read_mtx, thin_svd,
                     write_mtx)

__all__ = [
    "ProjectionBasis",
    "ReducedSystem",
    "galerkin_reduce",
    "arnoldi_basis",
    "pod_basis",
    "external_basis",
    "residual",
    "save_basis",
    "load_basis",
]


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal trial basis V (n-by-r) with its construction record.

    ``method`` is one of ``"arnoldi"``, ``"pod"``, ``"external"``;
    ``details`` carries the expansion point or the singular values.
    ``deflated`` marks an Arnoldi run that stopped early because the Krylov
    vectors became dependent; ``r`` is then the achieved dimension.
    """

    v: np.ndarray
    method: str
    details: dict = field(default_factory=dict)
    deflated: bool = False

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 2:
            raise ValueError("basis must be a matrix")
        object.__setattr__(self, "v", v)
        gram_err = np.linalg.norm(v.T @ v - np.eye(v.shape[1]), 2)
        if gram_err > 1e-10:
            raise ValueError(
                f"basis columns are not orthonormal: ||V^T V - I|| = {gram_err:.3e}")

    @property
    def r(self) -> int:
        return self.v.shape[1]

    @property
    def n(self) -> int:
        return self.v.shape[0]


class ReducedSystem(LinearSystem):
    """Projected r-by-r system together with its provenance.

    ``stabilized`` records whether the test basis came from the
    Lyapunov-based transformation (in which case ``ebar`` is symmetric
    positive definite by construction). ``ebar``, ``abar``, ``bbar``,
    ``cbar`` and ``r`` are the reduced names of E, A, B, C and n.
    """

    def __init__(self, ebar, abar, bbar, cbar, method: str, stabilized: bool):
        super().__init__(ebar, abar, bbar, cbar)
        self.method = method
        self.stabilized = stabilized

    ebar = property(lambda self: self.e)
    abar = property(lambda self: self.a)
    bbar = property(lambda self: self.b)
    cbar = property(lambda self: self.c)
    r = property(lambda self: self.n)

    @property
    def w_source(self) -> str:
        return "lyapunov" if self.stabilized else "galerkin"

    def to_system(self) -> "ReducedSystem":
        """The reduced model itself, which is a LinearSystem."""
        return self


def _reduced_mass(e, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W^T E V, or :class:`SingularReducedMass` if it is singular.

    Singularity is judged on the scale of E V and W, not of W^T E V
    itself: an orthogonal-looking W, or an indefinite E, can make W^T E V
    uniformly tiny, which a pivot test relative to its own entries passes.
    """
    ev = as_dense(e @ v)
    ebar = np.asarray(w.T @ ev)
    scale = np.linalg.norm(ev, 2) * max(np.linalg.norm(w, 2), 1e-300)
    sigma_min = np.linalg.svd(ebar, compute_uv=False).min()
    if sigma_min <= 1e-13 * scale:
        raise SingularReducedMass(
            f"reduced mass matrix W^T E V is singular to working precision "
            f"(sigma_min = {sigma_min:.3e} at scale {scale:.3e}); the "
            "stabilized reduction (stabilize.stabilized_reduce) guarantees "
            "a positive definite one")
    return ebar


def galerkin_reduce(sys: LinearSystem, basis: ProjectionBasis,
                    w: np.ndarray | None = None) -> ReducedSystem:
    """Project a system onto ``basis``; ``w`` defaults to the trial basis."""
    v = basis.v
    if v.shape[0] != sys.n:
        raise ValueError(f"basis has {v.shape[0]} rows, system has n = {sys.n}")
    if w is None:
        w = v
    elif w.shape != v.shape:
        raise ValueError("test basis W must have the same shape as V")
    return ReducedSystem(_reduced_mass(sys.e, v, w),
                         np.asarray(w.T @ as_dense(sys.a @ v)),
                         np.asarray(w.T @ sys.b), np.asarray(sys.c @ v),
                         method=basis.method, stabilized=False)


def _orthonormalize_block(block: np.ndarray, v_cols: list[np.ndarray]):
    """MGS with one reorthogonalization pass; drops dependent columns."""
    kept = []
    for j in range(block.shape[1]):
        col = block[:, j].copy()
        scale = np.linalg.norm(col)
        if scale == 0.0:
            continue
        for _ in range(2):
            for q in v_cols:
                col -= q * (q @ col)
            for q in kept:
                col -= q * (q @ col)
        norm = np.linalg.norm(col)
        if norm <= 1e-10 * scale:
            continue  # dependent direction: deflate
        kept.append(col / norm)
    return kept


def arnoldi_basis(sys: LinearSystem, r: int,
                  s0: float = 1.0) -> ProjectionBasis:
    """Order-r basis of the block Krylov space of ((s0 E - A)^{-1} E, .).

    The start block is (s0 E - A)^{-1} B. Columns are orthonormalized by
    modified Gram-Schmidt with one reorthogonalization pass; dependent
    columns are deflated. If the space is exhausted before r columns the
    achieved basis is returned with ``deflated`` set.
    """
    if r < 1:
        raise ValueError("order r must be at least 1")
    lu = lu_factor(s0 * sys.e - sys.a, context=f"expansion point s0={s0}")
    v_cols: list[np.ndarray] = []
    block = np.atleast_2d(lu.solve(sys.b))
    if block.ndim == 1:
        block = block[:, None]
    while len(v_cols) < r:
        kept = _orthonormalize_block(block, v_cols)
        if not kept:
            if not v_cols:
                raise Breakdown("Krylov start block is zero (is B zero?)")
            return ProjectionBasis(v=np.column_stack(v_cols)[:, :r],
                                   method="arnoldi", details={"s0": s0},
                                   deflated=True)
        for col in kept:
            v_cols.append(col)
            if len(v_cols) == r:
                break
        block = lu.solve(as_dense(sys.e @ np.column_stack(kept)))
        if block.ndim == 1:
            block = block[:, None]
    return ProjectionBasis(v=np.column_stack(v_cols), method="arnoldi",
                           details={"s0": s0})


# sigma_r <= RANK_DEFICIENT * sigma_1 means the snapshots have rank < r
RANK_DEFICIENT = 1e-14


def pod_basis(snapshots: np.ndarray | Snapshots, r: int,
              config: Tolerances = DEFAULT) -> ProjectionBasis:
    """Dominant r left singular vectors of a snapshot matrix.

    ``snapshots`` is an n-by-count matrix, or the :class:`Snapshots` that
    ``integrate_adaptive`` harvests: up to ``config.svd_gram_max`` states
    that holds only the n-by-n Gram matrix, and above it the raw matrix.
    """
    if not isinstance(snapshots, Snapshots):
        snapshots = np.atleast_2d(np.asarray(snapshots, dtype=float))
        if snapshots.ndim != 2:
            raise ValueError("snapshots must form a matrix")
    u, sigma = thin_svd(snapshots, r, config)
    if sigma[r - 1] <= RANK_DEFICIENT * max(sigma[0], 1e-300):
        raise RankDeficient(
            f"snapshot matrix has numerical rank < {r} "
            f"(sigma_r = {sigma[r - 1]:.3e}, sigma_1 = {sigma[0]:.3e})")
    return ProjectionBasis(v=u, method="pod",
                           details={"singular_values": sigma.tolist()})


def external_basis(v: np.ndarray) -> ProjectionBasis:
    """Wrap a user-provided orthonormal matrix as a basis."""
    return ProjectionBasis(v=np.asarray(v, dtype=float), method="external")


def residual(sys: LinearSystem, basis: ProjectionBasis | np.ndarray,
             xbar: np.ndarray, xbar_dot: np.ndarray,
             u: np.ndarray | float = 0.0) -> np.ndarray:
    """Full-order residual E V x' - A V x - B u of a reduced trajectory point.

    For any Galerkin trajectory the residual is orthogonal to the test
    space, so W^T residual vanishes up to integration tolerance.
    """
    v = basis.v if isinstance(basis, ProjectionBasis) else np.asarray(basis)
    xbar = np.asarray(xbar, dtype=float)
    xbar_dot = np.asarray(xbar_dot, dtype=float)
    u_vec = np.atleast_1d(np.asarray(u, dtype=float))
    if u_vec.shape[0] != sys.n_in:
        u_vec = np.full(sys.n_in, float(u))
    return (as_dense(sys.e @ (v @ xbar_dot))
            - as_dense(sys.a @ (v @ xbar))
            - sys.b @ u_vec)


def save_basis(basis: ProjectionBasis, path) -> None:
    """Persist a basis as <path>.mtx with a JSON provenance sidecar."""
    path = pathlib.Path(path)
    write_mtx(path.with_suffix(".mtx"), basis.v)
    meta = {"method": basis.method, "r": basis.r,
            "deflated": basis.deflated, "details": basis.details}
    path.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")


def load_basis(path) -> ProjectionBasis:
    """Load a basis written by :func:`save_basis`."""
    path = pathlib.Path(path)
    v = as_dense(read_mtx(path.with_suffix(".mtx")))
    meta = json.loads(path.with_suffix(".json").read_text())
    return ProjectionBasis(v=v, method=meta["method"],
                           details=meta.get("details", {}),
                           deflated=meta.get("deflated", False))
