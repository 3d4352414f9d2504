"""Frequency-domain error measures and time-domain integration.

The output error of a stable reduction with zero initial conditions obeys

    sup_t ||y(t) - ybar(t)||_inf  <=  ||H - Hbar||_H2 * ||u||_L2,

so the H2 norm of the transfer-function difference is the quantity both
experiments report. It is computed exactly, up to rounding, from Gramians:
one observability Gramian per full-order model (dense below
``config.dense_cap``, LR-ADI above), a dense one per reduced model, and a
sparse-dense Sylvester solve for the cross term (see :func:`h2_error`).
No frequency is sampled; every value comes with a bound on the rounding
of the three-term sum it is taken from.

Time integration offers an embedded Dormand-Prince 5(4) pair with PI step
control and a fixed-step trapezoidal rule. Both cost what their arithmetic
costs on sparse models: a sparse diagonal mass matrix is divided out
(``LinearSystem.solve_e``), the trapezoid factorizes E - h/2 A in the
format of E and A, and each integrator holds its state history once, in
preallocated rows; the trapezoid can also keep only the current state and
return outputs alone (``states=False``). The Dormand-Prince integrator can
harvest every internal stage state as a POD snapshot. Up to
``config.svd_gram_max`` states the harvest keeps only the n-by-n Gram
matrix of the snapshots, accumulated block by block (O(n^2) memory); above
it, it keeps the raw n-by-count snapshot matrix (O(n count)), which the
ARPACK path of the thin SVD needs (see ``linalg.Snapshots``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .config import DEFAULT, Tolerances
from .dynsys import LinearSystem, TransferFunction, spectral_abscissa
from .errors import (
    ConvergenceFailure,
    DenseCapExceeded,
    FactorizationFailure,
    GridMismatch,
    PoleHit,
    SingularMatrix,
    StepSizeUnderflow,
    UnstableOperand,
)
from .linalg import Snapshots, as_dense, lu_factor
from .nonlinear import NonlinearROM, NonlinearSystem
from .projection import ReducedSystem
from .stabilize import (
    _shifted_pencil,
    solve_lyapunov_dense,
    solve_lyapunov_lradi,
)

__all__ = [
    "H2Result",
    "Trajectory",
    "h2_error",
    "bode_data",
    "integrate_adaptive",
    "integrate_trapezoidal",
    "output_error",
    "input_l2_norm",
    "make_input",
    "write_csv",
    "CSV_VERSION",
]

CSV_VERSION = "stabmor-v1"


@dataclass(frozen=True)
class H2Result:
    """An H2 error with the rounding bound of the sum it comes from.

    ``slack`` bounds |value - exact H2 error| from the error bounds of the
    terms, before any comparison; see :func:`h2_error`. ``points`` is 0,
    since no frequency is sampled; the field stays because
    perfbench/spans.py records it.
    """

    value: float
    slack: float
    points: int = 0

    def __float__(self):
        return self.value


def _as_system(system) -> LinearSystem:
    if isinstance(system, TransferFunction):
        return system.sys
    if isinstance(system, ReducedSystem):
        return system.to_system()
    return system


# Step budget of the LR-ADI observability Gramian above the dense cap. The
# iteration stops earlier at config.lradi_residual; running out of steps
# first is a ConvergenceFailure.
H2_ADI_STEPS = 500


def _squared_norm(sys: LinearSystem, config: Tolerances,
                  label: str) -> tuple[float, float]:
    """(||H||_H2^2, a bound on its relative error), once per system object.

    ||H||^2 = tr(B^T Q B) with A^T Q E + E^T Q A + C^T C = 0. At
    n <= ``config.dense_cap`` the operand's spectral abscissa must be
    negative (else :class:`UnstableOperand`; above the cap stability is the
    caller's assertion), and Q comes from the dense solve, accepted at
    backward error ``config.lyap_dense_residual``, which is the bound.
    Above the cap Q ~ Z Z^T is the LR-ADI factor run to the relative
    residual ``config.lradi_residual``. Z Z^T falls short of Q by a
    positive semidefinite remainder that the residual does not bound, so
    that term gets the looser bound sqrt(config.lradi_residual). The pair
    is kept on the system object, one entry per configuration.
    """
    cache = sys._h2_squared
    if config in cache:
        return cache[config]
    ct = sys.c.T
    if sys.n <= config.dense_cap:
        alpha = spectral_abscissa(sys, config)
        if alpha >= 0.0:
            raise UnstableOperand(
                f"{label} operand has spectral abscissa {alpha:.3e} >= 0; "
                "the H2 integral does not exist")
        q = solve_lyapunov_dense(sys.a, sys.e, ct @ ct.T, config)
        cache[config] = (float(np.trace(sys.b.T @ q @ sys.b)),
                         config.lyap_dense_residual)
    else:
        z, history = solve_lyapunov_lradi(sys.a, sys.e, ct,
                                          steps=H2_ADI_STEPS, config=config)
        if history[-1] > config.lradi_residual:
            raise ConvergenceFailure(
                f"LR-ADI observability Gramian at n = {sys.n} reached "
                f"relative residual {history[-1]:.3e} > "
                f"{config.lradi_residual:.1e} in {H2_ADI_STEPS} steps")
        zb = z.T @ sys.b
        cache[config] = (float(np.sum(zb * zb)),
                         float(np.sqrt(config.lradi_residual)))
    return cache[config]


def _inner_product(sys: LinearSystem, rom: LinearSystem) -> float:
    """<H, Hr>_H2 = tr(B^T Y Br) with A^T Y Er + E^T Y Ar + C^T Cr = 0.

    With the complex Schur form Er^{-1} Ar = U T U^H and X = Y Er U the
    equation reads A^T X + E^T X T + C^T Cr U = 0. T is upper triangular,
    so column j of X solves (A + T_jj E)^T x_j = -(C^T Cr U)_j -
    E^T X_{:, <j} T_{<j, j}: r shifted solves in the format A and E come
    in. Then tr(B^T Y Br) = tr((B^T X)(U^H Er^{-1} Br)).
    """
    t, u = sla.schur(rom.solve_e(as_dense(rom.a)), output="complex")
    rhs = -(sys.c.T @ (rom.c @ u))
    x = np.empty_like(rhs)
    for j in range(rom.n):
        col = rhs[:, j]
        if j:
            col = col - as_dense(sys.e.T @ (x[:, :j] @ t[:j, j]))
        shifted = lu_factor(_shifted_pencil(sys.a, sys.e, complex(t[j, j])),
                            context="H2 cross-Gramian shift")
        x[:, j] = shifted.solve(col, trans=True)
    g = u.conj().T @ rom.solve_e(rom.b)
    return float(np.trace((sys.b.T @ x) @ g).real)


def h2_error(system_a, system_b=None,
             config: Tolerances = DEFAULT) -> H2Result:
    """||H_a - H_b||_H2 from Gramians; ``system_b=None`` gives ||H_a||_H2.

    The squared error is the three-term sum

        ||H_a - H_b||^2 = ||H_a||^2 + ||H_b||^2 - 2 <H_a, H_b>

    (Gugercin, Antoulas and Beattie, SIMAX 2008). Each squared norm is
    tr(B^T Q B) with the observability Gramian Q, solved once per system
    object (:func:`_squared_norm`); the cross term solves a sparse-dense
    Sylvester equation by one shifted solve per state of the second
    operand (Sorensen and Antoulas, 2002), whose size must be at most
    ``config.dense_cap``.

    Rounding: each squared norm carries the relative error bound of
    :func:`_squared_norm`, and the cross term, from backward-stable LU
    solves, ``config.lyap_dense_residual``. The computed square s is then
    within its rounding floor, the sum of these bounds times the magnitudes
    of the three terms, of the exact square s*; cancellation can leave the
    square far below its terms. A square at or below its rounding floor is
    reported as 0, and ``slack`` = sqrt(2 floor) bounds |value - sqrt(s*)|
    in both cases, since |sqrt(s) - sqrt(s*)| <= sqrt(|s - s*|).
    """
    sys_a = _as_system(system_a)
    norm_a, eta_a = _squared_norm(sys_a, config, "first")
    if system_b is None:
        norm_b = cross = eta_b = 0.0
    else:
        sys_b = _as_system(system_b)
        norm_b, eta_b = _squared_norm(sys_b, config, "second")
        if sys_b.n > config.dense_cap:
            raise DenseCapExceeded(
                f"h2_error: second operand n = {sys_b.n} exceeds the dense "
                f"cap {config.dense_cap}")
        cross = _inner_product(sys_a, sys_b)
    square = norm_a + norm_b - 2.0 * cross
    floor = (eta_a * norm_a + eta_b * norm_b
             + 2.0 * config.lyap_dense_residual * abs(cross))
    value = float(np.sqrt(square)) if square > floor else 0.0
    return H2Result(value=value, slack=float(np.sqrt(2.0 * floor)))


def bode_data(system, omega_min: float, omega_max: float,
              points: int = 200) -> np.ndarray:
    """Magnitude (dB) and phase (deg) samples of H(i omega) on a log grid.

    Returns an array with rows (omega, mag_db, phase_deg) for SISO systems
    and per-entry column pairs otherwise; rows where the evaluation hits a
    pole carry NaN gap markers.
    """
    tf = _as_system(system).transfer()
    omegas = np.geomspace(omega_min, omega_max, points)
    m = tf.sys.n_out * tf.sys.n_in
    rows = np.empty((points, 1 + 2 * m))
    rows[:, 0] = omegas
    for i, omega in enumerate(omegas):
        try:
            h = tf.eval(1j * omega).ravel()
            mags = 20.0 * np.log10(np.maximum(np.abs(h), 1e-300))
            phases = np.degrees(np.angle(h))
            rows[i, 1::2] = mags
            rows[i, 2::2] = phases
        except PoleHit:
            rows[i, 1:] = np.nan
    return rows


class Trajectory:
    """Time grid, states, outputs, and integrator statistics of one run.

    ``x`` is given as an array, or as a list of row blocks (the adaptive
    integrator's form), which are joined into one array when ``x`` is
    first read; callers that never read ``x`` never pay for the copy.
    ``x=None`` marks an output-only run, whose ``x`` raises
    ``AttributeError``.
    """

    def __init__(self, t, x, y, stats: dict,
                 snapshots: Snapshots | None = None):
        rows = (t.size if x is None else x.shape[0]
                if isinstance(x, np.ndarray)
                else sum(block.shape[0] for block in x))
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("time points must be strictly increasing")
        if rows != t.size or y.shape[0] != t.size:
            raise ValueError("state/output sample counts must match the grid")
        self.t = t
        self._x = x
        self.y = y
        self.stats = stats
        self.snapshots = snapshots

    @property
    def x(self) -> np.ndarray:
        if self._x is None:
            raise AttributeError(
                "this trajectory kept no states; integrate with states=True "
                "to read Trajectory.x")
        if not isinstance(self._x, np.ndarray):
            self._x = np.concatenate(self._x)
        return self._x


def _normalize_input(u, n_in: int):
    if u is None or n_in == 0:
        return None
    def u_fun(t):
        val = np.atleast_1d(np.asarray(u(t), dtype=float))
        if val.size == 1 and n_in > 1:
            val = np.full(n_in, val[0])
        return val
    return u_fun


def _output_map(c):
    """Outputs of a block of state rows: rows @ C^T (none without C)."""
    if c is None:
        return lambda xs: np.zeros((xs.shape[0], 0))
    return lambda xs: xs @ c.T


def _prepare_system(system, u):
    """Uniform access: right-hand side f(t, x) and the output map of
    :func:`_output_map`."""
    if isinstance(system, ReducedSystem):
        system = system.to_system()
    if isinstance(system, LinearSystem):
        u_fun = _normalize_input(u, system.n_in)
        def rhs(t, x):
            r = as_dense(system.a @ x)
            if u_fun is not None:
                r = r + system.b @ u_fun(t)
            return system.solve_e(r)
        return system.n, rhs, _output_map(system.c)
    if isinstance(system, NonlinearSystem):
        u_fun = _normalize_input(u, system.n_in)
        def rhs(t, x):
            r = np.asarray(system.f(x), dtype=float)
            if u_fun is not None:
                r = r + system.b @ u_fun(t)
            return system.solve_e(r)
        return system.n, rhs, _output_map(system.c)
    if isinstance(system, NonlinearROM):
        e_lu = lu_factor(system.ebar, context="reduced mass matrix")
        n_in = 0 if system.bbar is None else system.bbar.shape[1]
        u_fun = _normalize_input(u, n_in)
        def rhs(t, x):
            r = system.f(x)
            if u_fun is not None:
                r = r + system.bbar @ u_fun(t)
            return e_lu.solve(r)
        return system.r, rhs, _output_map(system.cbar)
    raise TypeError(f"cannot integrate objects of type {type(system).__name__}")


# Dormand-Prince 5(4) tableau; the last row doubles as the 5th-order weights
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
# rows per block of a state history (adaptive integrator) and, at most, per
# output block of the trapezoid rule
_HISTORY_BLOCK = 1024


def _initial_step(rhs, t0, x0, f0, rtol, atol, span):
    sc = atol + rtol * np.abs(x0)
    d0 = np.linalg.norm(x0 / sc) / np.sqrt(x0.size)
    d1 = np.linalg.norm(f0 / sc) / np.sqrt(x0.size)
    h0 = 1e-6 * span if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    x1 = x0 + h0 * f0
    f1 = rhs(t0 + h0, x1)
    d2 = np.linalg.norm((f1 - f0) / sc) / np.sqrt(x0.size) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def integrate_adaptive(system, u, x0, t_span, rtol: float = 1e-6,
                       atol: float = 1e-9, max_steps: int = 100000,
                       harvest_snapshots: bool = False,
                       fixed_steps: int | None = None,
                       config: Tolerances = DEFAULT) -> Trajectory:
    """Dormand-Prince 5(4) with PI step-size control.

    ``fixed_steps`` disables error control and takes that many equal steps
    (used by order studies). With ``harvest_snapshots`` the initial state
    and every internal stage state of every accepted step form the snapshot
    set POD consumes, returned as ``Trajectory.snapshots``, a closed
    :class:`~stabmor.linalg.Snapshots` of shape ``(n, count)``. For
    n <= ``config.svd_gram_max`` it holds only their n-by-n Gram matrix,
    whatever the step count; above, it holds the raw n-by-count matrix.

    Accepted states are written into row blocks of fixed size, whose
    outputs are computed as each block fills, so the state history is held
    once. ``Trajectory.x`` joins the blocks on its first read; a caller
    that only harvests snapshots never pays for that copy.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    n, rhs, out = _prepare_system(system, u)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 must have length {n}")
    span = t1 - t0
    t = t0
    f_now = rhs(t, x)
    stages = 1
    h = span / fixed_steps if fixed_steps else _initial_step(
        rhs, t0, x, f_now, rtol, atol, span)
    ts, blocks, ys = [t0], [], []
    block = np.empty((_HISTORY_BLOCK, n))
    block[0] = x
    fill = 1
    snaps = Snapshots(n, config) if harvest_snapshots else None
    if harvest_snapshots:
        snaps.append(x)
    k = np.zeros((7, n))
    err_prev = 1e-4
    steps = rejected = 0
    while t < t1 - 1e-14 * span:
        if steps + rejected >= max_steps:
            raise ConvergenceFailure(
                f"integrator exceeded {max_steps} steps at t = {t:.6e}")
        h = min(h, t1 - t)
        if not fixed_steps and h < 1e-14 * span:
            raise StepSizeUnderflow(
                f"step size underflow at t = {t:.6e} (h = {h:.3e})")
        k[0] = f_now
        stage_states = []
        for i in range(1, 7):
            xi = x + h * (_DP_A[i] @ k[:i])
            k[i] = rhs(t + _DP_C[i] * h, xi)
            stages += 1
            stage_states.append(xi)
        x5 = x + h * (_DP_B5 @ k)
        if fixed_steps:
            accept = True
        else:
            diff = h * ((_DP_B5 - _DP_B4) @ k)
            sc = atol + rtol * np.maximum(np.abs(x), np.abs(x5))
            err = float(np.linalg.norm(diff / sc) / np.sqrt(n))
            accept = err <= 1.0
        if accept:
            t = t1 if t1 - (t + h) < 1e-14 * span else t + h
            x = x5
            f_now = k[6]  # FSAL: last stage sits at the new point
            ts.append(t)
            if fill == _HISTORY_BLOCK:
                blocks.append(block)
                ys.append(out(block))
                block = np.empty((_HISTORY_BLOCK, n))
                fill = 0
            block[fill] = x
            fill += 1
            if harvest_snapshots:
                for xi in stage_states[:-1]:  # the last stage equals x5
                    snaps.append(xi)
                snaps.append(x)
            steps += 1
            if not fixed_steps:
                err = max(err, 1e-10)
                fac = 0.9 * err ** -0.14 * err_prev ** 0.08
                h *= min(5.0, max(0.2, fac))
                err_prev = err
        else:
            rejected += 1
            h *= min(1.0, max(0.1, 0.9 * err ** -0.2))
    blocks.append(block[:fill])
    ys.append(out(block[:fill]))
    stats = {"steps": steps, "rejected_steps": rejected, "stage_count": stages}
    return Trajectory(t=np.asarray(ts), x=blocks, y=np.concatenate(ys),
                      stats=stats,
                      snapshots=snaps.close() if harvest_snapshots else None)


def _trapezoid_forcing(b, u_fun, times, h):
    """Input terms h/2 B (u(t_i) + u(t_i+1)) of the steps i0 <= i < i1.

    Returns a function of (i0, i1), called for consecutive ranges, which
    evaluates the input once per grid point; None without an input.
    """
    if u_fun is None:
        return None
    last = b @ u_fun(times[0])

    def terms(i0, i1):
        nonlocal last
        bu = np.asarray([last] + [b @ u_fun(t) for t in times[i0 + 1:i1 + 1]])
        last = bu[-1]
        return 0.5 * h * (bu[:-1] + bu[1:])
    return terms


# Values per output block of the trapezoid rule: blocks of _HISTORY_BLOCK
# rows up to n = 64, fewer rows above, so an output-only run holds O(n)
_TRAPEZOID_BLOCK_VALUES = 1 << 16


def _trapezoid_run(step, x0, steps: int, out, forcing, states: bool):
    """States x_i+1 = step(x_i, input term of step i) from x0, and outputs.

    States, input terms (from :func:`_trapezoid_forcing`, or None) and
    outputs are formed per block of rows. With ``states`` the blocks are
    row ranges of one (steps + 1)-by-n array, which is returned; without,
    they are one reused buffer and None is returned. The blocks have the
    same shapes either way, so the outputs are bitwise the same. Returns
    ``(states or None, outputs)``.
    """
    rows = min(steps + 1, _HISTORY_BLOCK,
               max(1, _TRAPEZOID_BLOCK_VALUES // x0.size))
    xs = np.empty((steps + 1, x0.size)) if states else None
    buffer = None if states else np.empty((rows, x0.size))
    ys = []
    x = x0
    for start in range(0, steps + 1, rows):
        stop = min(start + rows, steps + 1)
        block = xs[start:stop] if states else buffer[:stop - start]
        if start == 0:
            block[0] = x0
        first = max(start, 1)
        terms = (itertools.repeat(None) if forcing is None
                 else forcing(first - 1, stop - 1))
        for i, term in zip(range(first - start, stop - start), terms):
            x = step(x, term)
            block[i] = x
        ys.append(out(block))
    return xs, np.concatenate(ys)


def integrate_trapezoidal(system, u, x0, t_span, steps: int,
                          newton_tol: float = 1e-10,
                          max_newton: int = 25, *,
                          states: bool = True) -> Trajectory:
    """Fixed-step trapezoidal rule.

    The input is evaluated once per grid point. Linear systems factorize
    E - h/2 A once, in the format E and A come in. When both are sparse,
    every step multiplies by E + h/2 A (formed once) and solves with the
    SuperLU factors, so time and memory stay O(nnz) per step. Otherwise
    (every reduced model) they are densified, and each step solves with
    E x + h/2 (A x) plus the input term by LAPACK.

    Nonlinear systems take a Newton iteration per step with the Jacobian
    refreshed at every iterate. E is densified once per nonlinear
    integration, since the Newton matrix E - h/2 J is factorized densely
    anyway.

    With ``states`` (the default) every state is kept, in one
    (steps + 1)-by-n array. ``states=False`` keeps only the current state
    and one block of at most 2^16 values for the outputs, and the returned
    trajectory has no ``x``. The outputs come from blocks of the same rows
    in both cases and are bitwise equal.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    h = (t1 - t0) / steps
    times = t0 + h * np.arange(steps + 1)

    if isinstance(system, ReducedSystem):
        system = system.to_system()

    if isinstance(system, LinearSystem):
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (system.n,):
            raise ValueError(f"x0 must have length {system.n}")
        e, a = system.e, system.a
        if sp.issparse(e) and sp.issparse(a):
            fwd = (e + 0.5 * h * a).tocsr()
            def explicit_half(x):
                return fwd @ x
        else:
            e, a = as_dense(e), as_dense(a)
            def explicit_half(x):
                # E x + h/2 (A x), rounded as the dense step always was; the
                # in-place updates only save temporaries
                r = e @ x
                ax = a @ x
                ax *= 0.5 * h
                r += ax
                return r
        try:
            lhs = lu_factor(e - 0.5 * h * a, context="trapezoidal step matrix")
        except SingularMatrix as exc:
            raise FactorizationFailure(str(exc)) from exc
        forcing = _trapezoid_forcing(system.b, _normalize_input(u, system.n_in),
                                     times, h)

        def linear_step(x, term):
            r = explicit_half(x)
            if term is not None:
                r += term
            return lhs.solve(r)

        xs, ys = _trapezoid_run(linear_step, x0, steps,
                                _output_map(system.c), forcing, states)
        return Trajectory(t=times, x=xs, y=ys,
                          stats={"steps": steps, "rejected_steps": 0,
                                 "stage_count": steps})

    if isinstance(system, (NonlinearSystem, NonlinearROM)):
        rom = isinstance(system, NonlinearROM)
        e = as_dense(system.ebar if rom else system.e)
        f, jac = system.f, system.jac
        b = system.bbar if rom else system.b
        forcing = _trapezoid_forcing(
            b, _normalize_input(u, 0 if b is None else b.shape[1]), times, h)
        newton_total = taken = 0

        def newton_step(x, term):
            nonlocal newton_total, taken
            base = e @ x + 0.5 * h * np.asarray(f(x), dtype=float)
            if term is not None:
                base = base + term
            x_new = x.copy()
            for it in range(max_newton):
                res = e @ x_new - 0.5 * h * np.asarray(f(x_new), dtype=float) - base
                try:
                    step_lu = lu_factor(e - 0.5 * h * as_dense(jac(x_new)),
                                        context="Newton step matrix")
                except SingularMatrix as exc:
                    raise FactorizationFailure(str(exc)) from exc
                delta = step_lu.solve(res)
                x_new = x_new - delta
                newton_total += 1
                if np.linalg.norm(delta) <= newton_tol * (1.0 + np.linalg.norm(x_new)):
                    taken += 1
                    return x_new
            raise ConvergenceFailure(
                f"Newton iteration stalled at t = {times[taken + 1]:.6e}")

        xs, ys = _trapezoid_run(newton_step,
                                np.asarray(x0, dtype=float).copy(), steps,
                                _output_map(system.cbar if rom else system.c),
                                forcing, states)
        return Trajectory(t=times, x=xs, y=ys,
                          stats={"steps": steps, "rejected_steps": 0,
                                 "stage_count": newton_total})

    raise TypeError(f"cannot integrate objects of type {type(system).__name__}")


def output_error(traj_a: Trajectory, traj_b: Trajectory,
                 interpolate: bool = True):
    """Maximum-over-time infinity norm of the output difference.

    Trajectories on different grids are compared on the coarser grid by
    linear interpolation unless ``interpolate`` is off, in which case a
    :class:`GridMismatch` is raised. Returns ``(max_error, per_output)``.
    """
    if traj_a.y.shape[1] != traj_b.y.shape[1]:
        raise ValueError("trajectories have different output counts")
    same = (traj_a.t.size == traj_b.t.size
            and np.allclose(traj_a.t, traj_b.t, rtol=0.0, atol=1e-14))
    if same:
        diff = traj_a.y - traj_b.y
    elif not interpolate:
        raise GridMismatch("time grids differ and interpolation is disabled")
    else:
        coarse, fine = ((traj_a, traj_b) if traj_a.t.size <= traj_b.t.size
                        else (traj_b, traj_a))
        interp = np.column_stack([
            np.interp(coarse.t, fine.t, fine.y[:, j])
            for j in range(fine.y.shape[1])]) if fine.y.shape[1] else \
            np.zeros((coarse.t.size, 0))
        diff = coarse.y - interp
    if diff.shape[1] == 0:
        return 0.0, np.zeros(0)
    per_output = np.abs(diff).max(axis=0)
    return float(per_output.max()), per_output


def input_l2_norm(u, t1: float, t0: float = 0.0, points: int = 10001) -> float:
    """L2 norm of an input signal over [t0, t1] by trapezoidal quadrature.

    Periodic test inputs are truncated at t1; the finite window is part of
    the reported quantity, not an approximation of an infinite-horizon norm.
    """
    times = np.linspace(t0, t1, points)
    vals = np.asarray([np.atleast_1d(u(t)) for t in times], dtype=float)
    integrand = np.sum(vals ** 2, axis=1)
    return float(np.sqrt(np.trapezoid(integrand, times)))


def make_input(kind: str, period: float | None = None, amplitude: float = 1.0):
    """Built-in input library: sine(period), step, zero."""
    if kind == "zero":
        return lambda t: 0.0
    if kind == "step":
        return lambda t: amplitude
    if kind == "sine":
        if period is None or period <= 0.0:
            raise ValueError("sine input needs a positive period")
        return lambda t: amplitude * np.sin(2.0 * np.pi * t / period)
    raise ValueError(f"unknown input kind {kind!r}")


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not np.isfinite(value):
        return "NA"
    return repr(value)


def write_csv(path, columns, rows) -> None:
    """Versioned CSV writer; None/NaN cells become the NA marker."""
    lines = [f"# {CSV_VERSION}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
