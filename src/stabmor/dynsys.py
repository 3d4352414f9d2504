"""Descriptor models, linear systems, transfer functions, stability checks.

A system is the quadruple (E, A, B, C) describing

    E x'(t) = A x(t) + B u(t),      y(t) = C x(t),

with E non-singular. Nonlinear models replace A x by f(x); every kind,
full-order or reduced, keeps E, B and C in :class:`DescriptorModel`.
Stability language used throughout the package:

* spectral abscissa: max Re(lambda) over det(lambda E - A) = 0,
* asymptotically stable: spectral abscissa < 0 (a zero abscissa counts as
  a loss of stability),
* dissipative: the symmetric part E^{-1}A + A^T E^{-T} is negative
  definite, which implies asymptotic stability.
"""

from __future__ import annotations

import functools
import json
import pathlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import DEFAULT, Tolerances
from .errors import (
    ConvergenceFailure,
    DenseCapExceeded,
    PoleHit,
    SingularE,
    SingularMatrix,
)
from .linalg import as_dense, dense_abscissa, lu_factor, read_mtx, write_mtx

__all__ = [
    "DescriptorModel",
    "LinearSystem",
    "TransferFunction",
    "StabilityReport",
    "SymmetricSpectrum",
    "spectral_abscissa",
    "dense_symmetric_part",
    "symmetric_part_spectrum",
    "stability_report",
    "is_asymptotically_stable",
    "is_dissipative",
    "save_system",
    "load_system",
]


def _looks_identity(e) -> bool:
    if sp.issparse(e):
        return (e - sp.identity(e.shape[0], format=e.format)).nnz == 0
    return bool(np.array_equal(as_dense(e), np.eye(e.shape[0])))


def _sparse_diagonal(e) -> np.ndarray | None:
    """The diagonal of a real sparse matrix with no entry stored off it.

    Read from the compressed structure (one stored entry per row, each in
    its own column), so the test costs O(n) and no arithmetic; any other
    matrix gives None.
    """
    if not sp.issparse(e) or np.iscomplexobj(e.data):
        return None
    if e.format not in ("csr", "csc"):
        e = e.tocsr()
    n = e.shape[0]
    if e.nnz != n or not (np.array_equal(e.indptr, np.arange(n + 1))
                          and np.array_equal(e.indices, np.arange(n))):
        return None
    return e.data


class DescriptorModel:
    """What every model E x' = (A x or f(x)) + B u, y = C x shares: E, B, C.

    B and C are held as dense arrays; None stands for no inputs (n-by-0)
    or no outputs (0-by-n). E is factorized at construction, so a
    structurally singular mass matrix is rejected immediately with
    :class:`SingularE`. Linear, nonlinear, full-order and reduced models
    all solve with E through this class.
    """

    def __init__(self, e, b=None, c=None):
        n = e.shape[0]
        if e.shape != (n, n):
            raise ValueError("E must be square")
        b = np.zeros((n, 0)) if b is None else np.atleast_2d(
            np.asarray(as_dense(b), dtype=float))
        c = np.zeros((0, n)) if c is None else np.atleast_2d(
            np.asarray(as_dense(c), dtype=float))
        if b.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {c.shape}")
        self.e = e
        self.b = b
        self.c = c
        self.n = n
        self.n_in = b.shape[1]
        self.n_out = c.shape[0]
        try:
            self.e_lu = lu_factor(e, context="mass matrix")
        except SingularMatrix as exc:
            raise SingularE(str(exc)) from exc

    @property
    def descriptor(self) -> bool:
        """True when the mass matrix differs from the identity."""
        return not _looks_identity(self.e)

    @functools.cached_property
    def _e_diagonal(self) -> np.ndarray | None:
        return _sparse_diagonal(self.e)

    def _solve(self, x, trans: bool):
        d = self._e_diagonal
        if d is not None:
            x = np.asarray(x)
            if x.shape[:1] == d.shape and not np.iscomplexobj(x):
                if x.ndim == 1:
                    return x / d
                if x.ndim == 2:
                    return x / d[:, None]
        return self.e_lu.solve(x, trans=trans)

    def solve_e(self, x):
        """E^{-1} x for a vector or a matrix of columns.

        A sparse diagonal E (recognised on the first solve, from its stored
        structure) is divided out row by row. That is the one operation
        SuperLU performs with a diagonal factor, so the result is bitwise
        the same, without SuperLU's cost per call. Other mass matrices and
        complex right-hand sides are solved with the LU factors of E.
        """
        return self._solve(x, trans=False)

    def solve_et(self, x):
        """E^{-T} x; see :meth:`solve_e`."""
        return self._solve(x, trans=True)


class LinearSystem(DescriptorModel):
    """Immutable descriptor system (E, A, B, C)."""

    def __init__(self, e, a, b, c):
        n = a.shape[0]
        if a.shape != (n, n) or e.shape != (n, n):
            raise ValueError("E and A must be square and of equal size")
        super().__init__(e, b, c)
        self.a = a
        # squared H2 norm and its error bound per configuration, filled by
        # analysis.h2_error
        self._h2_squared: dict = {}

    def apply_a(self, x):
        return self.a @ x

    def apply_at(self, x):
        return self.a.T @ x

    def sym_part_matvec(self, v):
        """Apply the symmetric part E^{-1}A + A^T E^{-T} to a vector."""
        return self.solve_e(self.apply_a(v)) + self.apply_at(self.solve_et(v))

    def transfer(self) -> "TransferFunction":
        return TransferFunction(self)

    def __repr__(self):
        kind = "descriptor" if self.descriptor else "standard"
        return (f"{type(self).__name__}(n={self.n}, n_in={self.n_in}, "
                f"n_out={self.n_out}, {kind})")


class TransferFunction:
    """Evaluator for H(s) = C (sE - A)^{-1} B.

    Each evaluation factorizes the pencil at its point; evaluations at
    distinct points are independent.
    """

    def __init__(self, sys: LinearSystem):
        self.sys = sys

    def eval(self, s: complex) -> np.ndarray:
        """H(s) as a dense n_out-by-n_in complex matrix."""
        s = complex(s)
        sys = self.sys
        if s.imag == 0.0:
            pencil = s.real * sys.e - sys.a
        else:
            pencil = s * (sys.e.astype(complex) if sp.issparse(sys.e)
                          else as_dense(sys.e).astype(complex)) - sys.a
        try:
            lu = lu_factor(pencil, context=f"pencil at s={s}")
        except SingularMatrix as exc:
            raise PoleHit(f"s = {s} is a pole of the transfer function: "
                          f"{exc}") from exc
        x = lu.solve(sys.b)
        return np.asarray(sys.c @ x, dtype=complex)

    __call__ = eval


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Leading eigenpairs of the symmetric part E^{-1}A + A^T E^{-T}.

    Computed by LAPACK at n <= ``dense_cap`` and by ARPACK above it (see
    :func:`symmetric_part_spectrum`). ``k`` counts the non-negative
    eigenvalues among the returned ones; when every returned eigenvalue is
    non-negative the count is only a lower bound and ``incomplete`` is set.
    """

    values: np.ndarray
    vectors: np.ndarray
    k: int
    mu_max: float
    incomplete: bool


@dataclass(frozen=True)
class StabilityReport:
    """Summary of the two stability notions for one system.

    ``alpha``, the spectral abscissa, is None above ``config.dense_cap``,
    where it is not computed.
    """

    alpha: float | None
    dissipative: bool
    k: int
    mu_max: float
    incomplete: bool = False


def spectral_abscissa(sys: LinearSystem, config: Tolerances = DEFAULT) -> float:
    """Largest real part over the eigenvalues of the pencil (E, A).

    Dense computation on E^{-1}A; systems above ``config.dense_cap`` raise
    :class:`DenseCapExceeded` and should be assessed through their reduced
    models instead.
    """
    if sys.n > config.dense_cap:
        raise DenseCapExceeded(
            f"spectral_abscissa: n = {sys.n} exceeds dense cap "
            f"{config.dense_cap}; compute abscissas of reduced models instead")
    return dense_abscissa(sys.solve_e(as_dense(sys.a)))


def dense_symmetric_part(sys: LinearSystem) -> np.ndarray:
    """E^{-1}A + A^T E^{-T} as a dense matrix (small systems only)."""
    e_inv_a = sys.solve_e(as_dense(sys.a))
    return e_inv_a + e_inv_a.T


# ARPACK restarts allowed above the dense cap. Spectra that converge need
# far fewer; convection-diffusion, whose pairs do not converge, then fails
# in well under a second at n = 2001 and n = 5000.
ARPACK_MAXITER = 100
# ARPACK's relative Ritz-pair tolerance (eigsh's tol) above the dense cap
LANCZOS_RESIDUAL = 1e-8
# an eigenvalue >= -NONNEG_MARGIN * |mu_1| counts as non-negative
NONNEG_MARGIN = 1e-12


def symmetric_part_spectrum(sys: LinearSystem, ell: int,
                            config: Tolerances = DEFAULT,
                            seed: int = 0) -> SymmetricSpectrum:
    """Top-``ell`` eigenpairs of the symmetric part of E^{-1}A.

    At n <= ``config.dense_cap`` the dense symmetric part is decomposed by
    LAPACK ``eigh``. Above the cap, ARPACK's implicitly restarted Lanczos
    (``eigsh``, largest algebraic) runs on the matvec from a start vector
    drawn from ``seed``, to the relative tolerance LANCZOS_RESIDUAL; it
    raises :class:`ConvergenceFailure` when the pairs do not converge
    within ARPACK_MAXITER restarts, and :class:`DenseCapExceeded` when all
    n pairs are requested.

    Eigenvalues within NONNEG_MARGIN * |mu_1| of zero count as
    non-negative; over-counting is safe for the stabilization downstream
    while under-counting is not.
    """
    n = sys.n
    if not 1 <= ell <= n:
        raise ValueError(f"need 1 <= ell <= n = {n}, got {ell}")
    if n <= config.dense_cap:
        w, u = np.linalg.eigh(dense_symmetric_part(sys))
        values, vectors = w[::-1][:ell].copy(), u[:, ::-1][:, :ell].copy()
    elif ell == n:
        raise DenseCapExceeded(
            f"symmetric_part_spectrum: all {n} eigenpairs requested above "
            f"the dense cap {config.dense_cap}")
    else:
        op = spla.LinearOperator((n, n), matvec=sys.sym_part_matvec,
                                 dtype=float)
        v0 = np.random.default_rng(seed).standard_normal(n)
        try:
            w, u = spla.eigsh(op, k=ell, which="LA", v0=v0,
                              tol=LANCZOS_RESIDUAL,
                              maxiter=ARPACK_MAXITER)
        except spla.ArpackError as exc:
            raise ConvergenceFailure(
                f"ARPACK did not converge {ell} symmetric-part eigenpairs at "
                f"n = {n}: {exc}") from exc
        values, vectors = w[::-1].copy(), u[:, ::-1].copy()
    tau = NONNEG_MARGIN * abs(values[0])
    nonneg = values >= -tau
    k = int(np.count_nonzero(nonneg))
    incomplete = bool(nonneg.all()) and ell < n
    return SymmetricSpectrum(values=values, vectors=vectors, k=k,
                             mu_max=float(values[0]), incomplete=incomplete)


def stability_report(sys: LinearSystem, ell: int | None = None,
                     config: Tolerances = DEFAULT) -> StabilityReport:
    """Combined spectral abscissa and symmetric-part summary."""
    if ell is None:
        ell = min(sys.n, 10)
    frag = symmetric_part_spectrum(sys, ell, config)
    alpha = (spectral_abscissa(sys, config) if sys.n <= config.dense_cap
             else None)
    return StabilityReport(alpha=alpha, dissipative=frag.mu_max < 0.0,
                           k=frag.k, mu_max=frag.mu_max,
                           incomplete=frag.incomplete)


def is_asymptotically_stable(sys: LinearSystem,
                             config: Tolerances = DEFAULT) -> bool:
    """True iff the spectral abscissa is strictly negative."""
    return spectral_abscissa(sys, config) < 0.0


def is_dissipative(sys: LinearSystem, config: Tolerances = DEFAULT) -> bool:
    """True iff the symmetric part of E^{-1}A is negative definite."""
    frag = symmetric_part_spectrum(sys, 1, config)
    return frag.mu_max < 0.0


def save_system(sys: LinearSystem, directory) -> None:
    """Persist a system as E.mtx, A.mtx, B.mtx, C.mtx plus manifest.json."""
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    write_mtx(path / "E.mtx", sys.e)
    write_mtx(path / "A.mtx", sys.a)
    write_mtx(path / "B.mtx", sys.b)
    write_mtx(path / "C.mtx", sys.c)
    manifest = {"n": sys.n, "n_in": sys.n_in, "n_out": sys.n_out,
                "descriptor": sys.descriptor}
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_system(directory) -> LinearSystem:
    """Load a system bundle written by :func:`save_system`."""
    path = pathlib.Path(directory)
    manifest = json.loads((path / "manifest.json").read_text())
    e = read_mtx(path / "E.mtx")
    a = read_mtx(path / "A.mtx")
    b = as_dense(read_mtx(path / "B.mtx"))
    c = as_dense(read_mtx(path / "C.mtx"))
    sys = LinearSystem(e, a, b, c)
    if sys.n != manifest["n"] or sys.n_in != manifest["n_in"] \
            or sys.n_out != manifest["n_out"]:
        raise ValueError(f"manifest {manifest} disagrees with matrix shapes "
                         f"({sys.n}, {sys.n_in}, {sys.n_out})")
    return sys
