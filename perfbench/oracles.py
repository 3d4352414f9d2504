"""Independent checks of stabmor's outputs.

Nothing here imports stabmor: every reference value is computed again from
the model matrices with numpy and scipy, so a fault in the program cannot
hide inside its own check. Each ``check_*`` function returns a list of
failure messages, empty when the output passes.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.integrate import solve_ivp

# Relative agreement required between the program's H2 quadrature and the
# Gramian value. On msd30 the 2000-point quadrature is within 4e-6.
H2_RTOL = 1e-4
# Relative residual accepted from the dense correction's Lyapunov solve; the
# program's own acceptance threshold is 1e-8.
LYAP_RTOL = 1e-8
# Round-off allowance on cond(Ebar) <= 1 + |E|^2 |Z|^2, as in the program.
COND_SLACK = 1e-10
# Full-order trajectories against the exact or Radau reference, relative to
# max |y|. Each is several times the second-order error measured on its
# workload and well below that of backward Euler on the same grid:
# msd30 trapezoid h = 0.01: 7e-4 measured, 0.24 for backward Euler;
# convdiff400 trapezoid h = 0.002: 2.9e-4 measured, 3.6e-2 for backward Euler;
# cubic msd30 Newton-trapezoid h = 0.025: 4.7e-3 measured.
MSD30_STEP_RTOL = 5e-3
CONVDIFF_STEP_RTOL = 3e-3
CUBIC_RADAU_RTOL = 2e-2


def dense(m) -> np.ndarray:
    return m.toarray() if sp.issparse(m) else np.asarray(m, dtype=float)


def read_mtx(path) -> np.ndarray:
    """One Matrix Market file as a dense array, read by scipy directly."""
    return dense(scipy.io.mmread(str(path)))


def read_bundle(directory):
    """(E, A, B, C) of a system bundle written by the program."""
    return tuple(read_mtx(f"{directory}/{name}.mtx") for name in "EABC")


def read_csv(path) -> list[dict]:
    """Rows of a program CSV keyed by column; NA and FAIL stay strings."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(dict(zip(columns, cells)))
    return rows


def standard_form(e, a, b, c):
    """(E^{-1}A, E^{-1}B, C) as dense arrays."""
    e = dense(e)
    return (np.linalg.solve(e, dense(a)), np.linalg.solve(e, dense(b)),
            np.atleast_2d(dense(c)))


def h2_norm(e, a, b, c) -> float:
    """H2 norm from the controllability Gramian: sqrt(tr(C P C^T))."""
    a_s, b_s, c_s = standard_form(e, a, b, c)
    p = sla.solve_continuous_lyapunov(a_s, -b_s @ b_s.T)
    return float(np.sqrt(max(np.trace(c_s @ p @ c_s.T), 0.0)))


def h2_error(full, rom) -> float:
    """||H - Hr||_H2 of two (E, A, B, C) tuples via the error system."""
    a1, b1, c1 = standard_form(*full)
    a2, b2, c2 = standard_form(*rom)
    return h2_norm(np.eye(a1.shape[0] + a2.shape[0]), sla.block_diag(a1, a2),
                   np.vstack([b1, b2]), np.hstack([c1, -c2]))


def step_response(e, a, b, c, horizon: float, steps: int) -> np.ndarray:
    """Exact unit-step output on the uniform grid, x(0) = 0.

    One matrix exponential of the augmented matrix [[A, B], [0, 0]] h gives
    the exact one-step propagator and forcing, so the samples carry no
    discretisation error.
    """
    a_s, b_s, c_s = standard_form(e, a, b, c)
    n = a_s.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = a_s
    aug[:n, n] = b_s[:, 0]
    prop = sla.expm(aug * (horizon / steps))
    phi, gamma = prop[:n, :n], prop[:n, n]
    x = np.zeros(n)
    ys = [c_s @ x]
    for _ in range(steps):
        x = phi @ x + gamma
        ys.append(c_s @ x)
    return np.asarray(ys)


def step_l2_norm(horizon: float) -> float:
    """||u||_L2 of the unit step on [0, horizon]."""
    return float(np.sqrt(horizon))


def check_trajectory(y, y_ref, rtol: float, label: str) -> list[str]:
    """max |y - y_ref| <= rtol * max |y_ref| over the shared grid."""
    y = np.asarray(y, float).reshape(-1)
    y_ref = np.asarray(y_ref, float).reshape(-1)
    if y.shape != y_ref.shape:
        return [f"{label}: {y.size} output samples, reference has {y_ref.size}"]
    err = float(np.abs(y - y_ref).max())
    scale = float(np.abs(y_ref).max())
    if not err <= rtol * scale:
        return [f"{label}: output error {err:.3e} exceeds "
                f"{rtol:.1e} * {scale:.3e}"]
    return []


def check_stabilized_rom(ebar, abar, e_norm: float, z_norm: float,
                         label: str) -> list[str]:
    """The paper's guarantees for one stabilized reduced model.

    Ebar symmetric positive definite, cond(Ebar) <= 1 + |E|^2 |Z|^2, and
    every eigenvalue of Ebar^{-1} Abar in the open left half-plane.
    """
    ebar, abar = np.asarray(ebar, float), np.asarray(abar, float)
    problems = []
    asym = np.linalg.norm(ebar - ebar.T)
    if asym > 1e-12 * np.linalg.norm(ebar):
        problems.append(f"{label}: reduced mass is not symmetric ({asym:.3e})")
    w = np.linalg.eigvalsh(0.5 * (ebar + ebar.T))
    if not w[0] > 0.0:
        problems.append(f"{label}: reduced mass is not positive definite "
                        f"(smallest eigenvalue {w[0]:.3e})")
    else:
        cond, bound = w[-1] / w[0], 1.0 + e_norm ** 2 * z_norm ** 2
        if cond > bound * (1.0 + COND_SLACK):
            problems.append(f"{label}: cond(Ebar) = {cond:.6e} exceeds "
                            f"the bound {bound:.6e}")
    alpha = float(np.linalg.eigvals(np.linalg.solve(ebar, abar)).real.max())
    if not alpha < 0.0:
        problems.append(f"{label}: spectral abscissa {alpha:.3e} >= 0")
    return problems


def check_h2(reported: float, exact: float, label: str) -> list[str]:
    if not abs(reported - exact) <= H2_RTOL * exact:
        return [f"{label}: H2 {reported!r} differs from the Gramian value "
                f"{exact!r} by more than {H2_RTOL:.0e} relative"]
    return []


def check_output_bound(max_error: float, h2: float, u_l2: float,
                       label: str) -> list[str]:
    """The paper's output bound sup|y - yr| <= ||H - Hr||_H2 ||u||_L2."""
    if not max_error <= h2 * u_l2:
        return [f"{label}: max output error {max_error:.3e} exceeds "
                f"H2 * ||u|| = {h2 * u_l2:.3e}"]
    return []


def correction_residual(a, e, z, u_tilde) -> np.ndarray:
    """A^T Z Z^T E + E^T Z Z^T A + Ut Ut^T as a dense symmetric matrix."""
    a, e = dense(a), dense(e)
    atz, etz = a.T @ z, e.T @ z
    r = atz @ etz.T
    return r + r.T + u_tilde @ u_tilde.T


def check_lyapunov_residual(a, e, z, u_tilde, label: str) -> list[str]:
    rhs = np.linalg.norm(u_tilde.T @ u_tilde, 2)
    res = np.linalg.norm(correction_residual(a, e, z, u_tilde), 2) / rhs
    if not res <= LYAP_RTOL:
        return [f"{label}: correction Lyapunov residual {res:.3e} "
                f"exceeds {LYAP_RTOL:.0e}"]
    return []


def symmetric_part_eigenvalues(e, a) -> np.ndarray:
    """Eigenvalues of E^{-1}A + A^T E^{-T}, ascending."""
    g = np.linalg.solve(dense(e), dense(a))
    return np.linalg.eigvalsh(g + g.T)


def certificate(a, e, z, u_tilde, delta: float, mu: np.ndarray):
    """(||R||_2, min(delta, |mu_{k+1}|)) for a low-rank correction factor.

    R is the correction residual and mu the symmetric-part spectrum; the
    factor proves every reduced model stable when the first is smaller.
    """
    lhs = float(np.abs(np.linalg.eigvalsh(
        correction_residual(a, e, z, u_tilde))).max())
    negative = mu[mu < 0.0]
    return lhs, float(min(delta, abs(negative.max())))


def check_certificate(a, e, z, u_tilde, delta: float, mu: np.ndarray,
                      label: str) -> list[str]:
    lhs, rhs = certificate(a, e, z, u_tilde, delta, mu)
    if not lhs < rhs:
        return [f"{label}: uncertified factor, ||R||_2 = {lhs:.3e} "
                f">= min(delta, |mu_k+1|) = {rhs:.3e}"]
    return []


def cubic_msd(masses: int, mass: float = 1.0, stiffness: float = 1.0,
              damping: float = 1.0, gamma: float = 0.5):
    """Chain with grounded cubic springs, built apart from the program.

    Anchored chain, force on the first mass, output the position of the
    last; returns (E, f, jac, b, c) for x = (q, p) with f(x) the
    right-hand side without input.
    """
    m = masses
    tri = (np.diag(np.r_[np.full(m - 1, 2.0), 1.0])
           - np.eye(m, k=1) - np.eye(m, k=-1))
    e = sla.block_diag(np.eye(m), mass * np.eye(m))
    a = np.block([[np.zeros((m, m)), np.eye(m)],
                  [-stiffness * tri, -damping * tri]])
    b = np.zeros(2 * m)
    b[m] = 1.0
    c = np.zeros(2 * m)
    c[m - 1] = 1.0

    def f(x):
        out = a @ x
        out[m:] -= gamma * x[:m] ** 3
        return out

    def jac(x):
        j = a.copy()
        j[m:, :m] -= np.diag(3.0 * gamma * x[:m] ** 2)
        return j

    return e, f, jac, b, c


def radau_output(e, f, jac, b, c, u, t_eval) -> np.ndarray:
    """Output of E x' = f(x) + b u(t), x(0) = 0, by Radau IIA."""
    e_inv = np.linalg.inv(e)
    sol = solve_ivp(lambda t, x: e_inv @ (f(x) + b * u(t)),
                    (t_eval[0], t_eval[-1]), np.zeros(e.shape[0]),
                    method="Radau", t_eval=t_eval, rtol=1e-10, atol=1e-12,
                    jac=lambda t, x: e_inv @ jac(x))
    if sol.status != 0:
        raise RuntimeError(f"Radau reference failed: {sol.message}")
    return c @ sol.y
