"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from stabmor import analysis, benchgen
from stabmor.analysis import _DP_A, _DP_B4, _DP_B5, _DP_C
from stabmor.config import DEFAULT
from stabmor.dynsys import LinearSystem
from stabmor.linalg import Snapshots, as_dense, lu_factor


def random_orthonormal(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def random_spd(rng: np.random.Generator, n: int,
               spread: float = 10.0) -> np.ndarray:
    q = random_orthonormal(rng, n, n)
    w = np.geomspace(1.0, spread, n)
    return (q * w) @ q.T


def random_stable_dense(rng: np.random.Generator, n: int,
                        margin: float = 0.1) -> np.ndarray:
    """Dense matrix shifted so that its spectral abscissa is <= -margin."""
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    alpha = np.linalg.eigvals(a).real.max()
    return a - (alpha + margin) * np.eye(n)


def random_stable_system(rng: np.random.Generator, n: int,
                         n_in: int = 1, n_out: int = 1,
                         identity_mass: bool = True,
                         margin: float = 0.1) -> LinearSystem:
    a = random_stable_dense(rng, n, margin)
    e = np.eye(n) if identity_mass else random_spd(rng, n, spread=4.0)
    if not identity_mass:
        # keep the pencil stable: E SPD, A shifted on E's scale
        alpha = np.linalg.eigvals(np.linalg.solve(e, a)).real.max()
        if alpha >= -1e-3:
            a = a - (alpha + margin) * e
    b = rng.standard_normal((n, n_in))
    c = rng.standard_normal((n_out, n))
    return LinearSystem(e, a, b, c)


def cubic_msd_block_jacobian(masses: int, gamma: float = 0.5):
    """Reference Jacobian of ``gen_cubic_msd`` assembled block by block.

    A + [[0, 0], [diag(-3 gamma q^2), 0]] with A the linear chain's matrix,
    the generator's default mass, stiffness and damping.
    """
    a = benchgen.gen_msd_chain(masses=masses).a
    m = masses

    def jac(x):
        cubic = sp.diags(-3.0 * gamma * x[:m] ** 2).tocsr()
        zero = sp.csr_matrix((m, m))
        return a + sp.bmat([[zero, zero], [cubic, zero]], format="csr")

    return jac


def cubic_msd_closures(masses: int, gamma: float = 0.5):
    """``(f, jac)`` of ``gen_cubic_msd`` as plain closures over A.

    The form the generator had before it declared its structure: f(x) =
    A x with gamma q^3 subtracted on the velocity rows, and jac(x) a copy
    of A with 3 gamma q^2 subtracted in the stored diagonal slots of its
    -K block, found by a search of A's CSR pattern.
    """
    a = benchgen.gen_msd_chain(masses=masses).a.tocsr(copy=True)
    a.sum_duplicates()
    m = masses
    rows = np.repeat(np.arange(2 * m), np.diff(a.indptr))
    slots = np.flatnonzero((rows >= m) & (a.indices == rows - m))
    assert slots.size == m

    def f(x):
        out = np.asarray(a @ x).copy()
        out[m:] -= gamma * x[:m] ** 3
        return out

    def jac(x):
        out = a.copy()
        out.data[slots] -= 3.0 * gamma * x[:m] ** 2
        return out

    return f, jac


def _block_outputs(states, c, rows: int) -> np.ndarray:
    """C x of every state, formed per block of ``rows`` states, as the
    integrators form them (a different split moves the last bits)."""
    return np.concatenate([np.asarray(states[i:i + rows]) @ c.T
                           for i in range(0, len(states), rows)])


def _reference_rhs(system, u):
    """f(t, x) = E^{-1}(A x or f(x) + B u(t)), a new array per call."""
    def rhs(t, x):
        r = (system.a @ x if isinstance(system, LinearSystem)
             else np.asarray(system.f(x), dtype=float))
        if u is not None and system.n_in:
            r = r + system.b @ np.atleast_1d(np.asarray(u(t), dtype=float))
        return system.solve_e(r)
    return rhs


def reference_dp5(system, u, x0, t_span, rtol=1e-6, atol=1e-9,
                  harvest=False, config=DEFAULT):
    """Textbook Dormand-Prince 5(4), every vector formed out of place.

    The tableau, initial step and PI control of
    ``analysis.integrate_adaptive``: x_i = x + h (a_i @ K) and
    k_i = f(t + c_i h, x_i), with k_0 = f(t, x) replaced by k_6 on
    acceptance only (first same as last). Returns ``(t, y, x_end, stats,
    snapshots)``; with ``harvest`` the snapshots are x0, then stages 1 to 5
    and the new state of every accepted step, else None.
    """
    rhs = _reference_rhs(system, u)
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = t1 - t0
    x = np.asarray(x0, dtype=float)
    n = x.size
    f0 = rhs(t0, x)
    sc = atol + rtol * np.abs(x)
    d0 = np.linalg.norm(x / sc) / np.sqrt(n)
    d1 = np.linalg.norm(f0 / sc) / np.sqrt(n)
    h0 = 1e-6 * span if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = rhs(t0 + h0, x + h0 * f0)
    d2 = np.linalg.norm((f1 - f0) / sc) / np.sqrt(n) / h0
    h1 = (max(1e-6 * span, h0 * 1e-3) if max(d1, d2) <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.2)
    h = min(100 * h0, h1, span)
    t, ts, states = t0, [t0], [x]
    snaps = Snapshots(n, config) if harvest else None
    if harvest:
        snaps.append(x)
    err_prev, steps, rejected = 1e-4, 0, 0
    while t < t1 - 1e-14 * span:
        h = min(h, t1 - t)
        k, xs = [f0], []
        for i in range(1, 7):
            xs.append(x + h * (_DP_A[i] @ np.array(k)))
            k.append(rhs(t + _DP_C[i] * h, xs[-1]))
        k = np.array(k)
        x5 = x + h * (_DP_B5 @ k)
        diff = h * ((_DP_B5 - _DP_B4) @ k)
        sc = atol + rtol * np.maximum(np.abs(x), np.abs(x5))
        err = float(np.linalg.norm(diff / sc) / np.sqrt(n))
        if err <= 1.0:
            t = t1 if t1 - (t + h) < 1e-14 * span else t + h
            x, f0 = x5, k[6]
            ts.append(t)
            states.append(x)
            if harvest:
                for xi in xs[:5]:
                    snaps.append(xi)
                snaps.append(x)
            steps += 1
            err = max(err, 1e-10)
            h *= min(5.0, max(0.2, 0.9 * err ** -0.14 * err_prev ** 0.08))
            err_prev = err
        else:
            rejected += 1
            h *= min(1.0, max(0.1, 0.9 * err ** -0.2))
    stats = {"steps": steps, "rejected_steps": rejected,
             "stage_count": 1 + 6 * (steps + rejected)}
    return (np.asarray(ts),
            _block_outputs(states, system.c, analysis._HISTORY_BLOCK), x,
            stats, snaps.close() if harvest else None)


def reference_trapezoid(system, u, x0, t_span, steps: int):
    """Textbook trapezoid rule of a linear system, out of place.

    x_i+1 solves (E - h/2 A) x_i+1 = (E + h/2 A) x_i + h/2 B (u_i + u_i+1),
    with E + h/2 A formed once when E and A are sparse, else applied as
    E x + h/2 (A x). Returns ``(y, x_end)``.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    h = (t1 - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    e, a = system.e, system.a
    if sp.issparse(e) and sp.issparse(a):
        fwd = (e + 0.5 * h * a).tocsr()
        def explicit(x):
            return fwd @ x
    else:
        e, a = as_dense(e), as_dense(a)
        def explicit(x):
            return e @ x + 0.5 * h * (a @ x)
    lhs = lu_factor(e - 0.5 * h * a)
    bu = None if u is None else [
        system.b @ np.atleast_1d(np.asarray(u(t), dtype=float))
        for t in times]
    x = np.asarray(x0, dtype=float)
    states = [x]
    for i in range(steps):
        r = explicit(x)
        if bu is not None:
            r = r + 0.5 * h * (bu[i] + bu[i + 1])
        x = lhs.solve(r)
        states.append(x)
    rows = min(steps + 1, analysis._HISTORY_BLOCK,
               max(1, analysis._TRAPEZOID_BLOCK_VALUES // x.size))
    return _block_outputs(states, system.c, rows), x


def reference_similarity_scale(s: np.ndarray, kappa: float) -> float:
    """Bisect c >= 0 so that cond_2(I + c s) hits ``kappa``.

    The 60-step bisection ``benchgen._similarity_scale`` used before its
    bracketed root finder: double c from 1 / ||s||_2 until cond_2 reaches
    kappa, then halve [0, c] 60 times. cond_2 grows monotonically in c for
    the nilpotent s drawn there.
    """
    eye = np.eye(s.shape[0])

    def cond(c: float) -> float:
        return float(np.linalg.cond(eye + c * s))

    hi = 1.0 / np.linalg.norm(s, 2)
    while cond(hi) < kappa:
        hi *= 2.0
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cond(mid) < kappa:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dense_transform(stab) -> np.ndarray:
    """Densify a stabilizer factor's action (small n only)."""
    return stab.apply(np.eye(stab.sys.n))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
