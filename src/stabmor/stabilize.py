"""Stability-preserving transformation for Galerkin projection.

For an asymptotically stable but non-dissipative system the symmetric part
of E^{-1}A has k >= 1 non-negative eigenvalues mu_1 >= ... >= mu_k with
orthonormal eigenvectors U. Then

    F = -(E^{-1}A + A^T E^{-T}) + (mu_max + delta) U U^T,   delta > 0,

is symmetric positive definite, and the solution M of the Lyapunov equation
A^T M E + E^T M A + F = 0 is symmetric positive definite with E^T M A
dissipative. Galerkin projection with test basis W = M E V therefore yields
an asymptotically stable reduced model for every orthonormal V.

Writing M = E^{-T}E^{-1} + dM reduces the work to the correction dM, which
solves A^T dM E + E^T dM A + Ut Ut^T = 0 with the thin factor
Ut = sqrt(mu_max + delta) U. A low-rank factor Z Z^T ~ dM comes from the
LR-ADI iteration (or, below the dense cap, from an exact dense solve), and
the transformation is only ever applied factor-wise:

    M~ v = E^{-T}(E^{-1} v) + Z (Z^T v).
"""

from __future__ import annotations

import json
import pathlib
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .config import DEFAULT, Tolerances
from .dynsys import (
    LinearSystem,
    _looks_identity,
    spectral_abscissa,
    symmetric_part_spectrum,
)
from .errors import (
    AlreadyDissipative,
    DenseCapExceeded,
    NotIdentityMass,
    ShiftFailure,
    SingularMatrix,
    StabmorError,
    UnstablePencil,
)
from .linalg import (
    as_dense,
    dense_abscissa,
    lu_factor,
    read_mtx,
    spectral_norm,
    sym_eig_dense,
    write_mtx,
)
from .projection import ProjectionBasis, ReducedSystem

# shift added to the largest non-negative eigenvalue, and the LR-ADI step
# budget, unless a caller passes its own
DEFAULT_DELTA = 1.0
DEFAULT_ADI_STEPS = 10
# accepted normwise backward error of a dense Lyapunov solve: residual over
# 2 ||A||_F ||M||_F ||E||_F + ||F||_F. Correct solves measure 5e-18 to
# 5e-17; a symmetric error of relative size 1e-6 in M gives about 2.5e-9 at
# n = 300, so the check needs a bound well below that
LYAP_DENSE_RESIDUAL = 1e-12
# mode "auto" solves densely when k exceeds this fraction of n
LRADI_RANK_FRACTION = 0.05

__all__ = [
    "StabFactorRHS",
    "StabilizerFactor",
    "build_stab_factor_F",
    "solve_lyapunov_dense",
    "penzl_shifts",
    "solve_lyapunov_lradi",
    "assemble_stabilizer",
    "stabilized_reduce",
    "condition_bound_check",
    "MatrixSqrtOperator",
    "matrix_sqrt_factor",
    "save_stabilizer",
    "load_stabilizer",
]


@dataclass(frozen=True)
class StabFactorRHS:
    """Thin right-hand-side factor of the correction Lyapunov equation.

    ``u_tilde`` is sqrt(mu_max + delta) times the orthonormal eigenvectors
    of the k non-negative eigenvalues of the symmetric part. ``delta`` is
    the effective shift after the inexact-eigensolve safeguard, and
    ``mu_next`` the largest eigenvalue counted negative, mu_{k+1}.
    """

    u_tilde: np.ndarray
    k: int
    mu_max: float
    delta: float
    mu_next: float


def _nonnegative_eigenpairs(sys: LinearSystem, config: Tolerances, seed: int):
    """Symmetric-part spectrum with enough pairs to bound k from above.

    At n <= ``config.dense_cap`` one LAPACK ``eigh`` returns every pair at
    the cost of any leading few, so all n are requested at once. Above the
    cap the requested count grows geometrically until a negative eigenvalue
    shows up (or the full spectrum is computed). The symmetric part of a
    stable system has negative trace, so a negative eigenvalue exists and
    the loop terminates.
    """
    if sys.n <= config.dense_cap:
        return symmetric_part_spectrum(sys, sys.n, config, seed=seed)
    k_est = 1
    while True:
        ell = min(sys.n, max(2 * k_est, 16))
        frag = symmetric_part_spectrum(sys, ell, config, seed=seed)
        if not frag.incomplete or ell == sys.n:
            return frag
        k_est = max(frag.k, 2 * k_est)


def build_stab_factor_F(sys: LinearSystem, delta: float = DEFAULT_DELTA,
                        config: Tolerances = DEFAULT,
                        seed: int = 0) -> StabFactorRHS:
    """Eigenvector factor of the rank-k shift that makes -G_sym + shift SPD.

    Raises :class:`AlreadyDissipative` when the symmetric part is negative
    definite (k = 0), with that spectrum's ``mu_max``; projection needs no
    transformation then. The shift delta is inflated by the largest
    eigenpair residual so that positive definiteness survives an inexact
    iterative eigensolve.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    frag = _nonnegative_eigenpairs(sys, config, seed)
    if frag.k == 0:
        raise AlreadyDissipative(
            f"symmetric part is negative definite (mu_max = {frag.mu_max:.3e}); "
            "use the conventional Galerkin reduction", mu_max=frag.mu_max)
    u = frag.vectors[:, :frag.k]
    gu = sys.sym_part_matvec(u)
    rayleigh = np.einsum("ij,ij->j", u, gu)
    residuals = np.linalg.norm(gu - u * rayleigh, axis=0)
    mu_max = float(max(rayleigh.max(), frag.mu_max))
    delta_eff = float(delta + residuals.max())
    u_tilde = np.sqrt(mu_max + delta_eff) * u
    mu_next = (float(frag.values[frag.k]) if frag.k < frag.values.size
               else -np.inf)
    return StabFactorRHS(u_tilde=u_tilde, k=frag.k, mu_max=mu_max,
                         delta=delta_eff, mu_next=mu_next)


def solve_lyapunov_dense(a, e, f, config: Tolerances = DEFAULT) -> np.ndarray:
    """Solve A^T M E + E^T M A + F = 0 densely for symmetric M.

    Works through the standard-form equation for N = E^T M E via
    Bartels-Stewart; the pencil is verified stable beforehand and the
    residual is verified afterwards against the normwise backward-error
    scale 2 ||A|| ||M|| ||E|| + ||F|| (Frobenius norms, O(n^2)), so large
    but accurate solutions of ill-conditioned equations are accepted.
    """
    n = a.shape[0]
    if n > config.dense_cap:
        raise DenseCapExceeded(
            f"solve_lyapunov_dense: n = {n} exceeds dense cap {config.dense_cap}")
    f = as_dense(f)
    sym_err = np.linalg.norm(f - f.T)
    if sym_err > 1e-10 * max(np.linalg.norm(f), 1e-300):
        raise ValueError(f"right-hand side is not symmetric (error {sym_err:.3e})")
    e_lu = lu_factor(e, context="mass matrix")
    e_inv_a = e_lu.solve(as_dense(a))
    alpha = dense_abscissa(e_inv_a)
    if alpha >= 0.0:
        raise UnstablePencil(
            f"pencil has spectral abscissa {alpha:.3e} >= 0; the Lyapunov "
            "equation has no positive definite solution")
    nmat = sla.solve_continuous_lyapunov(e_inv_a.T, -f)
    nmat = 0.5 * (nmat + nmat.T)
    m = e_lu.solve(e_lu.solve(nmat, trans=True).T, trans=True).T
    m = 0.5 * (m + m.T)
    e_d = as_dense(e)
    a_d = as_dense(a)
    residual = np.linalg.norm(a_d.T @ m @ e_d + e_d.T @ m @ a_d + f)
    scale = max(2.0 * np.linalg.norm(a_d) * np.linalg.norm(m)
                * np.linalg.norm(e_d) + np.linalg.norm(f), 1e-300)
    if residual > LYAP_DENSE_RESIDUAL * scale:
        raise StabmorError(
            f"dense Lyapunov solve residual {residual:.3e} exceeds tolerance "
            f"(backward error {residual / scale:.3e}); "
            "the pencil is likely too close to the imaginary axis")
    return m


def _arnoldi_ritz_values(matvec, n: int, m: int, seed: int) -> np.ndarray:
    """Ritz values of an operator from an m-step Arnoldi run."""
    rng = np.random.default_rng(seed)
    q = np.zeros((n, m + 1))
    h = np.zeros((m + 1, m))
    v = rng.standard_normal(n)
    q[:, 0] = v / np.linalg.norm(v)
    j_done = 0
    for j in range(m):
        w = matvec(q[:, j])
        for _ in range(2):
            coeffs = q[:, :j + 1].T @ w
            w -= q[:, :j + 1] @ coeffs
            h[:j + 1, j] += coeffs
        beta = np.linalg.norm(w)
        j_done = j + 1
        if beta <= 1e-12 * max(np.abs(h).max(), 1e-300):
            break
        h[j + 1, j] = beta
        q[:, j + 1] = w / beta
    return np.linalg.eigvals(h[:j_done, :j_done])


def penzl_shifts(a, e, config: Tolerances = DEFAULT,
                 seed: int = 0) -> np.ndarray:
    """Heuristic ADI shift set from Ritz values of E^{-1}A.

    Runs a short Arnoldi iteration forward and on the inverse operator
    (approximating the smallest-magnitude eigenvalues), keeps the
    stable Ritz values, and greedily picks ``config.lradi_num_shifts`` of
    them minimizing the worst-case ADI damping factor over the candidate
    set. Complex shifts come in adjacent conjugate pairs.
    """
    count = config.lradi_num_shifts
    n = a.shape[0]
    e_lu = lu_factor(e, context="mass matrix")
    m_fwd = min(n, max(2 * count, 20))
    cand = list(_arnoldi_ritz_values(lambda v: e_lu.solve(a @ v), n, m_fwd, seed))
    try:
        a_lu = lu_factor(a, context="system matrix")
        m_inv = min(n, max(count, 10))
        nu = _arnoldi_ritz_values(lambda v: a_lu.solve(as_dense(e @ v)),
                                  n, m_inv, seed + 1)
        cand.extend(1.0 / z for z in nu if abs(z) > 1e-14)
    except SingularMatrix:
        pass
    cand = np.asarray([z for z in cand if z.real < 0.0])
    if cand.size == 0:
        return np.asarray([-1.0 + 0.0j])
    # deduplicate and keep one representative per conjugate pair
    uniq: list[complex] = []
    for z in sorted(cand, key=lambda z: (z.real, abs(z.imag))):
        z = complex(z.real, abs(z.imag))
        if not any(abs(z - w) <= 1e-8 * max(abs(w), 1.0) for w in uniq):
            uniq.append(z)
    cand = np.asarray(uniq)

    def damping(t, p):
        return abs(t - p) / max(abs(t + p), 1e-300)

    # first shift: minimize the worst damping factor over all candidates
    first = min(cand, key=lambda p: max(damping(t, p) for t in cand))
    chosen: list[complex] = []

    def push(p):
        chosen.append(p)
        if p.imag != 0.0:
            chosen.append(p.conjugate())

    push(first)
    while len(chosen) < count:
        # next shift: the candidate the current set damps worst
        worst = max(cand, key=lambda t: np.prod([damping(t, p) for p in chosen]))
        push(complex(worst))
    return np.asarray(chosen)


def _shifted_pencil(a, e, p: complex):
    if p.imag == 0.0:
        return a + p.real * e
    if sp.issparse(a) and sp.issparse(e):
        return (a + p * e).tocsc()
    return as_dense(a) + p * as_dense(e)


def solve_lyapunov_lradi(a, e, u_tilde: np.ndarray,
                         steps: int = DEFAULT_ADI_STEPS,
                         shifts: np.ndarray | None = None,
                         config: Tolerances = DEFAULT,
                         seed: int = 0):
    """LR-ADI iteration for A^T X E + E^T X A + Ut Ut^T = 0, X ~ Z Z^T.

    Each real shift appends k columns to Z, a complex conjugate pair
    appends 2k and counts as two steps. Stops at ``steps`` or when the
    relative residual drops below ``config.lradi_residual``, whichever
    happens first.

    Returns ``(z, residual_history)`` where the history starts with the
    initial relative residual 1.0.
    """
    if shifts is None:
        shifts = penzl_shifts(a, e, config=config, seed=seed)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=complex))
    if np.any(shifts.real >= 0.0):
        raise ValueError("ADI shifts must have negative real part")
    n = u_tilde.shape[0]
    w = np.array(as_dense(u_tilde), dtype=float, copy=True)
    if w.ndim == 1:
        w = w[:, None]
    z_blocks: list[np.ndarray] = []
    init_res = np.linalg.norm(w.T @ w, 2)
    if init_res == 0.0:
        return np.zeros((n, 0)), [0.0]
    history = [1.0]
    num = len(shifts)
    j = 0
    while j < steps and history[-1] > config.lradi_residual:
        p = shifts[j % num]

        def factor(shift):
            return lu_factor(_shifted_pencil(a, e, shift),
                             context=f"ADI shift {shift}")
        try:
            lu = factor(p)
        except SingularMatrix:
            p = complex(p.real * (1.0 + 1e-6), p.imag * (1.0 + 1e-6))
            try:
                lu = factor(p)
            except SingularMatrix as exc:
                raise ShiftFailure(
                    f"shift {p} hits the pencil spectrum even after "
                    f"perturbation") from exc
        if p.imag == 0.0:
            v = lu.solve(w, trans=True)
            w = w - (2.0 * p.real) * as_dense(e.T @ v)
            z_blocks.append(np.sqrt(-2.0 * p.real) * v)
            j += 1
        else:
            v = lu.solve(w.astype(complex), trans=True)
            g = 2.0 * np.sqrt(-p.real)
            d = p.real / p.imag
            vr = v.real + d * v.imag
            w = w + g * g * as_dense(e.T @ vr)
            z_blocks.append(g * vr)
            z_blocks.append(g * np.sqrt(d * d + 1.0) * v.imag)
            j += 2
        history.append(float(np.linalg.norm(w.T @ w, 2) / init_res))
    z = np.hstack(z_blocks) if z_blocks else np.zeros((n, 0))
    return z, history


def _factor_psd(m: np.ndarray) -> np.ndarray:
    """Thin factor Z with Z Z^T = m for symmetric positive semidefinite m."""
    w, u = sym_eig_dense(m)
    cutoff = max(w[0], 0.0) * 1e-14
    keep = w > cutoff
    return u[:, keep] * np.sqrt(w[keep])


@dataclass(frozen=True, eq=False)
class StabilizerFactor:
    """Low-rank representation of the transformation M~ = E^{-T}E^{-1} + ZZ^T.

    Applied factor-wise only; the n-by-n matrix is never formed. ``k = 0``
    (dissipative system) is represented by an empty Z, so the
    transformation degenerates to E^{-T}E^{-1}. :meth:`test_basis` is the
    one place where the test basis W = M~ E V and its reduced mass matrix
    are formed; the linear and nonlinear reductions and the condition
    check all take them from there.

    A truncated factor leaves the residual A^T Z Z^T E + E^T Z Z^T A +
    Ut Ut^T = W W^T. ``residual_norm`` is ||W||_2^2 (0 for an exact dense
    solve) and ``certificate_bound`` is min(delta, |mu_{k+1}|), a lower
    bound on the smallest eigenvalue of F. The factor is ``certified``
    when the first is below the second: every reduced model is then
    asymptotically stable.
    """

    sys: LinearSystem
    z: np.ndarray
    u_tilde: np.ndarray
    delta: float
    k: int
    mu_max: float
    mode: str
    residual_history: tuple
    residual_norm: float = 0.0
    certificate_bound: float = np.inf

    @property
    def q(self) -> int:
        return self.z.shape[1]

    @property
    def certified(self) -> bool:
        return bool(self.residual_norm < self.certificate_bound)

    def apply(self, v):
        """M~ v for a vector or a matrix of column vectors."""
        out = self.sys.solve_et(self.sys.solve_e(v))
        if self.q:
            out = out + self.z @ (self.z.T @ v)
        return out

    def test_basis(self, v):
        """Test basis W = M~ E V and reduced mass I_r + G^T G, G = Z^T E V.

        W is assembled as E^{-T} V + Z G, so E^{-1} is never applied. The
        reduced mass W^T E V is returned in this form, which is symmetric
        positive definite by construction, and made exactly symmetric.
        Returns ``(w, ebar)`` for an n-by-r basis ``v``.
        """
        w = self.sys.solve_et(v)
        ebar = np.eye(v.shape[1])
        if self.q:
            g = self.z.T @ as_dense(self.sys.e @ v)
            w = w + self.z @ g
            ebar = ebar + g.T @ g
        return w, 0.5 * (ebar + ebar.T)

    def sqrt_operator(self) -> "MatrixSqrtOperator":
        """Square-root factor; defined for identity mass matrix only."""
        return matrix_sqrt_factor(self.z, e=self.sys.e)


def assemble_stabilizer(sys: LinearSystem, delta: float = DEFAULT_DELTA,
                        mode: str = "auto", steps: int = DEFAULT_ADI_STEPS,
                        shifts: np.ndarray | None = None,
                        config: Tolerances = DEFAULT,
                        seed: int = 0) -> StabilizerFactor:
    """Build the low-rank transformation factor for one system.

    mode "auto" picks the dense correction solve when the detected k
    exceeds LRADI_RANK_FRACTION of n (low-rank ADI would not pay off)
    and LR-ADI otherwise; "dense" and "lradi" force the choice. A
    dissipative system yields an empty factor. An LR-ADI factor that
    stops short of its certificate (see :class:`StabilizerFactor`) is
    returned with a warning; the stability of each reduced model is then
    only checked a posteriori.
    """
    if mode not in ("auto", "dense", "lradi"):
        raise ValueError(f"unknown mode {mode!r}")
    try:
        rhs = build_stab_factor_F(sys, delta, config, seed)
    except AlreadyDissipative as exc:
        return StabilizerFactor(sys=sys, z=np.zeros((sys.n, 0)),
                                u_tilde=np.zeros((sys.n, 0)), delta=delta,
                                k=0, mu_max=exc.mu_max, mode="none",
                                residual_history=(0.0,),
                                certificate_bound=min(delta,
                                                      abs(exc.mu_max)))
    if mode == "auto":
        mode = "dense" if rhs.k > LRADI_RANK_FRACTION * sys.n else "lradi"
    if mode == "dense":
        dm = solve_lyapunov_dense(sys.a, sys.e,
                                  rhs.u_tilde @ rhs.u_tilde.T, config)
        z = _factor_psd(dm)
        history = (0.0,)
    else:
        z, hist = solve_lyapunov_lradi(sys.a, sys.e, rhs.u_tilde,
                                       steps=steps, shifts=shifts,
                                       config=config, seed=seed)
        history = tuple(hist)
    # the ADI history is relative to ||Ut^T Ut||_2 = ||Ut Ut^T||_2
    residual_norm = history[-1] * float(
        np.linalg.norm(rhs.u_tilde.T @ rhs.u_tilde, 2))
    stab = StabilizerFactor(sys=sys, z=z, u_tilde=rhs.u_tilde,
                            delta=rhs.delta, k=rhs.k, mu_max=rhs.mu_max,
                            mode=mode, residual_history=history,
                            residual_norm=residual_norm,
                            certificate_bound=min(rhs.delta,
                                                  abs(rhs.mu_next)))
    if not stab.certified:
        warnings.warn(
            f"LR-ADI factor is not certified after {len(history) - 1} "
            f"recorded iterations: "
            f"||W||_2^2 = {stab.residual_norm:.3e} >= min(delta, |mu_k+1|) "
            f"= {stab.certificate_bound:.3e}; reduced models are only "
            f"checked a posteriori, increase the ADI step count or shifts",
            stacklevel=2)
    return stab


def stabilized_reduce(sys: LinearSystem, basis: ProjectionBasis,
                      stab: StabilizerFactor | None = None,
                      config: Tolerances = DEFAULT) -> ReducedSystem:
    """Galerkin reduction with the transformed test basis W = M~ E V.

    ``stab`` defaults to :func:`assemble_stabilizer` with its defaults. The
    test basis and the symmetric positive definite reduced mass come from
    :meth:`StabilizerFactor.test_basis`. With the exact transformation
    every such reduced model is asymptotically stable; the spectral
    abscissa is checked a posteriori anyway, since a truncated low-rank
    factor may fall short, and a violation is reported as a warning, not
    an error.
    """
    if stab is None:
        stab = assemble_stabilizer(sys, config=config)
    v = basis.v
    w, ebar = stab.test_basis(v)
    red = ReducedSystem(ebar, w.T @ as_dense(sys.a @ v), w.T @ sys.b,
                        sys.c @ v, method=basis.method, stabilized=True)
    alpha = spectral_abscissa(red, config)
    if alpha >= 0.0:
        warnings.warn(
            f"stabilized reduced model has spectral abscissa "
            f"{alpha:.3e} >= 0; the low-rank Lyapunov factor is too "
            f"coarse, increase the ADI step count", stacklevel=2)
    return red


def condition_bound_check(stab: StabilizerFactor, sys: LinearSystem,
                          basis: ProjectionBasis):
    """Condition number of the reduced mass matrix and its a priori bound.

    Returns ``(cond, bound)`` with bound = 1 + ||E||^2 ||Z||^2 and raises
    when the bound is violated beyond round-off.
    """
    _, ebar = stab.test_basis(basis.v)
    z_norm = float(np.linalg.norm(stab.z, 2)) if stab.q else 0.0
    w, _ = sym_eig_dense(ebar)
    cond = float(w[0] / w[-1])
    bound = 1.0 + spectral_norm(sys.e) ** 2 * z_norm ** 2
    if cond > bound * (1.0 + 1e-10):
        raise StabmorError(
            f"condition bound violated: cond = {cond:.6e} > bound = {bound:.6e}")
    return cond, bound


# Rows per BLAS product in MatrixSqrtOperator. Products of one fixed shape
# keep the apply time linear in n: a single product over all n rows ran on
# one thread at n = 50k and on two from n = 100k (OpenBLAS, 2-core Xeon).
SQRT_ROW_BLOCK = 1 << 14


class MatrixSqrtOperator:
    """Square root (and inverse square root) of I + Z Z^T as an operator.

    With the thin singular value decomposition Z = U S V^T (one LAPACK
    call), I + Z Z^T = I + U S^2 U^T, so for any power p

        (I + Z Z^T)^p x = x + U (((1 + S^2)^p - 1) * (U^T x)).

    One application costs O(nq) for the two products with U, taken over
    blocks of SQRT_ROW_BLOCK rows; a wide factor (q > n) is reduced to its
    n singular directions.
    """

    def __init__(self, z: np.ndarray):
        z = as_dense(z)
        self.n = z.shape[0]
        self.q = z.shape[1]
        if self.q:
            u, sigma, _ = np.linalg.svd(z, full_matrices=False)
            self._ut = np.ascontiguousarray(u.T)
            self._d = 1.0 + sigma ** 2

    def _apply(self, v, power: float):
        v = np.asarray(v, dtype=float)
        if self.q == 0:
            return v.copy()
        blocks = [slice(i, i + SQRT_ROW_BLOCK)
                  for i in range(0, self.n, SQRT_ROW_BLOCK)]
        y = sum(self._ut[:, b] @ v[b] for b in blocks)
        y = (y.T * (self._d ** power - 1.0)).T
        out = np.empty_like(v)
        for b in blocks:
            out[b] = v[b] + self._ut[:, b].T @ y
        return out

    def apply_sqrt(self, v):
        """(I + ZZ^T)^{1/2} v."""
        return self._apply(v, 0.5)

    def apply_inv_sqrt(self, v):
        """(I + ZZ^T)^{-1/2} v."""
        return self._apply(v, -0.5)


def matrix_sqrt_factor(z: np.ndarray, e=None) -> MatrixSqrtOperator:
    """Square-root operator of M~ = I + ZZ^T; requires identity mass.

    Raises :class:`NotIdentityMass` when a non-identity mass matrix is
    passed, because the factored square root only exists in that form for
    E = I.
    """
    if e is not None and not _looks_identity(e):
        raise NotIdentityMass(
            "the factored square root is defined for identity mass only")
    return MatrixSqrtOperator(z)


def save_stabilizer(stab: StabilizerFactor, directory) -> None:
    """Persist Z, Ut and a manifest; the system itself is saved separately."""
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    write_mtx(path / "Z.mtx", stab.z if stab.q else np.zeros((stab.sys.n, 1)))
    write_mtx(path / "U_tilde.mtx",
              stab.u_tilde if stab.k else np.zeros((stab.sys.n, 1)))
    manifest = {"delta": stab.delta, "k": stab.k, "mu_max": stab.mu_max,
                "q": stab.q, "mode": stab.mode,
                "adi_steps": max(len(stab.residual_history) - 1, 0),
                "residual_history": list(stab.residual_history),
                "residual_norm": stab.residual_norm,
                "certificate_bound": stab.certificate_bound,
                "certified": stab.certified}
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_stabilizer(directory, sys: LinearSystem) -> StabilizerFactor:
    """Load a factor written by :func:`save_stabilizer` for ``sys``."""
    path = pathlib.Path(directory)
    manifest = json.loads((path / "manifest.json").read_text())
    z = as_dense(read_mtx(path / "Z.mtx"))
    u_tilde = as_dense(read_mtx(path / "U_tilde.mtx"))
    if manifest["q"] == 0:
        z = np.zeros((sys.n, 0))
    if manifest["k"] == 0:
        u_tilde = np.zeros((sys.n, 0))
    return StabilizerFactor(sys=sys, z=z, u_tilde=u_tilde,
                            delta=manifest["delta"], k=manifest["k"],
                            mu_max=manifest["mu_max"], mode=manifest["mode"],
                            residual_history=tuple(manifest["residual_history"]),
                            # a manifest without a certificate is uncertified
                            residual_norm=manifest.get("residual_norm", np.nan),
                            certificate_bound=manifest.get("certificate_bound",
                                                           np.nan))
