"""Deterministic benchmark generators at desk scale.

Three linear families cover the stability phenomenology the transformation
targets, plus one nonlinear family:

* mass-spring-damper chains (first-order form, provably stable),
* non-normal upper-triangular systems with a prescribed negative spectrum
  and tunable departure from normality (stable, usually non-dissipative),
* upwind finite-volume convection-diffusion on a graded mesh with a
  diagonal mass matrix (stable by an M-matrix argument; non-dissipative
  for strong convection and grading, which is verified, never assumed),
* the chain again with grounded cubic springs (nonlinear, equilibrium 0).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .dynsys import LinearSystem
from .errors import ResampleExhausted
from .nonlinear import NonlinearSystem

__all__ = [
    "gen_msd_chain",
    "gen_nonnormal_stable",
    "gen_convection_diffusion",
    "gen_cubic_msd",
]


def _msd_blocks(masses: int, mass: float, stiffness: float, damping: float):
    if masses < 1:
        raise ValueError("need at least one mass")
    if min(mass, stiffness, damping) <= 0.0:
        raise ValueError("mass, stiffness and damping must be positive")
    m = masses
    # chain anchored at the left wall; the last mass hangs free
    diag = np.full(m, 2.0)
    diag[-1] = 1.0
    off = -np.ones(m - 1)
    kmat = stiffness * sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    dmat = damping * sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    mmat = mass * sp.identity(m, format="csr")
    return kmat, dmat, mmat


def _msd_first_order(kmat, dmat, mmat, masses, input_node, output_node):
    m = masses
    if not 0 <= input_node < m or not 0 <= output_node < m:
        raise ValueError("input/output node out of range")
    eye = sp.identity(m, format="csr")
    e = sp.block_diag([eye, mmat], format="csr")
    a = sp.bmat([[None, eye], [-kmat, -dmat]], format="csr")
    b = np.zeros((2 * m, 1))
    b[m + input_node, 0] = 1.0
    c = np.zeros((1, 2 * m))
    c[0, output_node] = 1.0
    return e, a, b, c


def gen_msd_chain(masses: int = 4, mass: float = 1.0, stiffness: float = 1.0,
                  damping: float = 1.0, input_node: int = 0,
                  output_node: int | None = None) -> LinearSystem:
    """Anchored mass-spring-damper chain in first-order form (2m states).

    E = blockdiag(I, M), A = [[0, I], [-K, -D]]; the force input acts on
    ``input_node`` and the output is the position of ``output_node``
    (default: the free end). All-positive parameters make K and D positive
    definite, hence the system asymptotically stable.
    """
    if output_node is None:
        output_node = masses - 1
    kmat, dmat, mmat = _msd_blocks(masses, mass, stiffness, damping)
    return LinearSystem(*_msd_first_order(kmat, dmat, mmat, masses,
                                          input_node, output_node))


def _similarity_scale(s: np.ndarray, kappa: float) -> float:
    """Find c > 0 so that cond_2(I + c s) hits ``kappa`` (> 1).

    Brent's method on log cond_2(I + c s) - log kappa over log c, inside a
    closed-form bracket. s is nilpotent, so the inverse of T = I + c s has
    a unit diagonal and cond_2(T) >= ||T||_2 >= c ||s||_2 - 1: kappa is
    reached by c_hi = (kappa + 1) / ||s||_2. For x = c ||s||_2 < 1,
    cond_2(T) <= (1 + x) / (1 - x), so it is not reached before
    c_lo = (kappa - 1) / ((kappa + 1) ||s||_2), halved here as a margin
    against rounding. That costs one spectral norm and 11 to 14 condition
    numbers (each an SVD) for the draws the tests and the benchmark make.
    """
    from scipy.optimize import brentq

    eye = np.eye(s.shape[0])
    log_kappa = math.log(kappa)

    def excess(log_c: float) -> float:
        return math.log(np.linalg.cond(eye + math.exp(log_c) * s)) - log_kappa

    norm_s = float(np.linalg.norm(s, 2))
    lo = 0.5 * (kappa - 1.0) / ((kappa + 1.0) * norm_s)
    hi = (kappa + 1.0) / norm_s
    try:
        log_c = brentq(excess, math.log(lo), math.log(hi), xtol=1e-14,
                       rtol=4.0 * np.finfo(float).eps)
    except ValueError:
        # kappa within rounding of 1: cond_2 at c_lo already reads kappa
        return lo
    return math.exp(log_c)


def gen_nonnormal_stable(n: int = 200, lam_min: float = 0.1,
                         lam_max: float = 10.0, kappa: float = 50.0,
                         density: float = 0.1, seed: int = 0,
                         require_nonnormal: bool = True,
                         max_resample: int = 20) -> LinearSystem:
    """Upper-triangular A = T Lambda T^{-1} with exact negative spectrum.

    T = I + c S with S strictly upper triangular and sparse, and c chosen
    so that cond_2(T) = kappa: a bracketed root finder, about a dozen SVDs
    per draw at n = 300, whose c matches the 60-step bisection it replaced
    to about 1e-14 relative (so A moved only in its last bits). A stays
    upper triangular with the prescribed eigenvalues on its diagonal and
    ||A||_2 bounded by kappa * lam_max, so the departure from normality is
    tunable without blowing up the scale of the matrix. kappa = 1 gives
    T = I and a normal (dissipative) A; a non-finite kappa is rejected.
    With ``require_nonnormal`` the draw is resampled until the symmetric
    part has a non-negative eigenvalue (dense check), raising
    :class:`ResampleExhausted` if ``max_resample`` draws never achieve it.
    """
    if not 0.0 < lam_min <= lam_max:
        raise ValueError("need 0 < lam_min <= lam_max")
    if not (math.isfinite(kappa) and kappa >= 1.0):
        raise ValueError("kappa must be finite and at least 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    for _ in range(max_resample):
        lam = rng.uniform(lam_min, lam_max, n)
        eye = np.eye(n)
        t = eye
        if kappa > 1.0 and n > 1:
            s = rng.standard_normal((n, n))
            s *= rng.random((n, n)) < density
            s = np.triu(s, k=1)
            if s.any():
                t = eye + _similarity_scale(s, kappa) * s
        scaled = t * (-lam)[None, :]
        a = sla.solve_triangular(t.T, scaled.T, lower=True).T
        a = np.triu(a)
        np.fill_diagonal(a, -lam)
        if require_nonnormal:
            mu_max = float(np.linalg.eigvalsh(a + a.T).max())
            if mu_max < 0.0:
                continue
        b = rng.standard_normal((n, 1))
        c = rng.standard_normal((1, n))
        return LinearSystem(sp.identity(n, format="csr"), a, b, c)
    raise ResampleExhausted(
        f"no non-dissipative draw in {max_resample} attempts "
        f"(kappa = {kappa}, density = {density}); increase kappa or density")


def gen_convection_diffusion(n: int = 400, diffusion: float = 1e-3,
                             velocity=1.0, grade: float = 8.0) -> LinearSystem:
    """Upwind finite-volume convection-diffusion on a two-zone mesh.

    One-dimensional domain [0, 1], Dirichlet boundaries; the inflow value
    is the input, the last cell average the output. The mass matrix is the
    diagonal of cell widths. The mesh is uniform in each half but the
    downstream half is refined by the factor ``grade``; the abrupt
    coarse-to-fine transition under upwind convection is what makes the
    scaled system matrix non-dissipative (for grade above roughly 4 and
    convection dominating diffusion), while gradual grading would not.
    ``velocity`` may be a constant or a callable profile of x >= 0.
    The negative of the system matrix is an irreducibly diagonally
    dominant M-matrix for every parameter choice, so the system is always
    asymptotically stable; non-dissipativity is checked by callers that
    rely on it, never assumed.
    """
    if n < 3:
        raise ValueError("need at least three cells")
    if diffusion <= 0.0:
        raise ValueError("diffusion must be positive")
    if grade < 1.0:
        raise ValueError("mesh ratio must be at least 1")
    n_coarse = n // 2
    n_fine = n - n_coarse
    w_coarse = 1.0 / (n_coarse + n_fine / grade)
    widths = np.concatenate([np.full(n_coarse, w_coarse),
                             np.full(n_fine, w_coarse / grade)])
    faces = np.concatenate([[0.0], np.cumsum(widths)])
    if callable(velocity):
        v_face = np.asarray([float(velocity(x)) for x in faces])
    else:
        v_face = np.full(n + 1, float(velocity))
    if np.any(v_face < 0.0):
        raise ValueError("velocity must be non-negative (flow left to right)")
    # distances between neighboring cell centers, plus half cells at walls
    d_mid = 0.5 * (widths[:-1] + widths[1:])
    d_left = 0.5 * widths[0]
    d_right = 0.5 * widths[-1]

    main = np.zeros(n)
    # interior faces: diffusive coupling both ways, convective upwind inflow
    lower = diffusion / d_mid + v_face[1:n]
    upper = diffusion / d_mid
    main[:-1] -= diffusion / d_mid
    main[1:] -= diffusion / d_mid
    main -= v_face[1:]  # upwind outflow across the right face of every cell
    main[0] -= diffusion / d_left
    main[-1] -= diffusion / d_right
    amat = sp.diags([lower, main, upper], [-1, 0, 1], format="csr")
    e = sp.diags(widths, format="csr")
    b = np.zeros((n, 1))
    b[0, 0] = diffusion / d_left + v_face[0]  # inflow value enters cell 0
    c = np.zeros((1, n))
    c[0, n - 1] = 1.0
    return LinearSystem(e, amat, b, c)


def gen_cubic_msd(masses: int = 4, mass: float = 1.0, stiffness: float = 1.0,
                  damping: float = 1.0, gamma: float = 0.5,
                  input_node: int = 0,
                  output_node: int | None = None) -> NonlinearSystem:
    """MSD chain with grounded cubic springs: forces -gamma q_i^3.

    The equilibrium stays at zero and the Jacobian there equals the linear
    chain's system matrix exactly, so gamma = 0 recovers the linear model.
    The system is structured (:meth:`NonlinearSystem.structured`):
    f(x) = A x + P g(Q^T x) with A the linear chain's matrix, Q^T x = q
    the m positions, P placing g(q) = -gamma q^3 on the m velocity rows,
    and g'(q) = -3 gamma q^2 on the diagonal of A's -K block, whose
    entries are all stored (stiffness > 0). Each ``jac`` call returns a
    new CSR matrix, and reduced models never call the full-order model.
    """
    if output_node is None:
        output_node = masses - 1
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    kmat, dmat, mmat = _msd_blocks(masses, mass, stiffness, damping)
    e, a, b, c = _msd_first_order(kmat, dmat, mmat, masses,
                                  input_node, output_node)
    m = masses
    return NonlinearSystem.structured(
        e, a, rows=np.arange(m, 2 * m), cols=np.arange(m),
        g=lambda q: -gamma * q ** 3, dg=lambda q: -3.0 * gamma * q ** 2,
        b=b, c=c)
