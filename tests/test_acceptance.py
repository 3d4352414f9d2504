"""Acceptance gate: ten release criteria, one pass/fail line each.

Every test prints a single CRITERION verdict to the live terminal (capture
disabled) before asserting, so a full run always shows all ten outcomes.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from stabmor import analysis, benchgen, cli, stabilize
from stabmor.config import DEFAULT
from stabmor.dynsys import LinearSystem, spectral_abscissa
from stabmor.errors import AlreadyDissipative, SingularReducedMass
from stabmor.linalg import as_dense
from stabmor.nonlinear import NonlinearSystem, linearize, nonlinear_reduce
from stabmor.projection import ProjectionBasis, arnoldi_basis, galerkin_reduce

from conftest import random_stable_system


@pytest.fixture
def announce(capfd):
    def _announce(num: int, ok: bool, detail: str):
        with capfd.disabled():
            print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}",
                  flush=True)
        assert ok, f"criterion {num} failed: {detail}"
    return _announce


def random_basis(rng, n: int, r: int) -> ProjectionBasis:
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return ProjectionBasis(v=q, method="external", details={})


def crafted_shear() -> LinearSystem:
    # stable, heavily non-normal; projecting onto span((1,1)/sqrt 2) gives
    # the scalar model x' = x
    return LinearSystem(np.eye(2), np.array([[-1.0, 4.0], [0.0, -1.0]]),
                        np.array([[1.0], [1.0]]), np.array([[1.0, 0.0]]))


@pytest.fixture(scope="module")
def stabilized_sweep():
    """500 (system, V, r) triples over all three generator families.

    Shared by the stability criterion and the mass-condition criterion;
    every reduction uses the exact dense transformation.
    """
    rng = np.random.default_rng(42)
    systems = [benchgen.gen_msd_chain(masses=m) for m in (4, 10, 25, 50)]
    systems += [benchgen.gen_nonnormal_stable(n=n, kappa=kappa, seed=seed)
                for n, kappa, seed in ((60, 30.0, 1), (120, 20.0, 2),
                                       (200, 10.0, 3))]
    systems += [benchgen.gen_convection_diffusion(n=n) for n in (100, 200, 300)]
    start = time.perf_counter()
    worst_alpha = -np.inf
    worst_cond_ratio = 0.0
    count = 0
    for sys in systems:
        stab = stabilize.assemble_stabilizer(sys, mode="dense")
        for _ in range(50):
            r = int(rng.integers(1, min(20, sys.n) + 1))
            basis = random_basis(rng, sys.n, r)
            red = stabilize.stabilized_reduce(sys, basis, stab)
            worst_alpha = max(worst_alpha,
                              spectral_abscissa(red.to_system()))
            cond, bound = stabilize.condition_bound_check(stab, sys, basis)
            worst_cond_ratio = max(worst_cond_ratio, cond / bound)
            count += 1
    return {"count": count, "worst_alpha": worst_alpha,
            "worst_cond_ratio": worst_cond_ratio,
            "elapsed": time.perf_counter() - start}


def test_criterion_01_stabilized_reductions_always_stable(stabilized_sweep,
                                                          announce):
    res = stabilized_sweep
    ok = (res["count"] >= 500 and res["worst_alpha"] < -1e-12
          and res["elapsed"] <= 300.0)
    announce(1, ok, f"{res['count']} stabilized reductions, worst spectral "
                    f"abscissa {res['worst_alpha']:.3e}, "
                    f"{res['elapsed']:.1f}s")


def test_criterion_02_conventional_galerkin_can_destabilize(announce):
    crafted = galerkin_reduce(crafted_shear(),
                              ProjectionBasis(v=np.array([[1.0], [1.0]])
                                              / np.sqrt(2.0),
                                              method="external", details={}))
    crafted_alpha = spectral_abscissa(crafted.to_system())
    rng = np.random.default_rng(7)
    unstable = total = 0
    for seed in range(20):
        sys = benchgen.gen_nonnormal_stable(n=80, kappa=100.0, seed=seed)
        for _ in range(10):
            r = int(rng.integers(2, 9))
            try:
                red = galerkin_reduce(sys, random_basis(rng, 80, r))
                if spectral_abscissa(red.to_system()) >= 0.0:
                    unstable += 1
            except SingularReducedMass:
                pass
            total += 1
    ok = crafted_alpha >= 0.0 and unstable >= 0.01 * total
    announce(2, ok, f"crafted case abscissa {crafted_alpha:+.3f}, "
                    f"{unstable}/{total} random non-normal cases unstable")


def test_criterion_03_rank_update_eigenvalue_structure(announce):
    # eigenvalues of the shifted right-hand side must be
    # {mu_1 - mu_j + delta : j <= k} united with {-mu_j : j > k}
    rng = np.random.default_rng(5)
    tested = 0
    worst = 0.0
    attempts = 0
    while tested < 50 and attempts < 200:
        attempts += 1
        n = int(rng.integers(20, 101))
        sys = random_stable_system(rng, n, identity_mass=bool(attempts % 2))
        try:
            rhs = stabilize.build_stab_factor_F(sys)
        except AlreadyDissipative:
            continue
        g = sys.sym_part_matvec(np.eye(n))
        g = 0.5 * (g + g.T)
        mu = np.sort(np.linalg.eigvalsh(g))[::-1]
        f = -g + rhs.u_tilde @ rhs.u_tilde.T
        got = np.sort(np.linalg.eigvalsh(f))
        predicted = np.sort(np.concatenate([mu[0] - mu[:rhs.k] + rhs.delta,
                                            -mu[rhs.k:]]))
        scale = max(1.0, abs(mu[0]) + rhs.delta)
        worst = max(worst, np.abs(got - predicted).max() / scale)
        tested += 1
    ok = tested == 50 and worst <= 1e-8
    announce(3, ok, f"{tested} systems, worst scaled eigenvalue mismatch "
                    f"{worst:.3e}")


def test_criterion_04_reduced_mass_condition_bound(stabilized_sweep, announce):
    res = stabilized_sweep
    ok = res["worst_cond_ratio"] <= 1.0 + 1e-10
    announce(4, ok, f"cond(reduced mass) <= 1 + |E|^2 |Z|^2 on "
                    f"{res['count']} reductions, worst cond/bound "
                    f"{res['worst_cond_ratio']:.6f}")


def kron_lyapunov_solve(e, a, f) -> np.ndarray:
    """Brute-force oracle: vectorize A^T M E + E^T M A = -F and solve."""
    n = a.shape[0]
    op = np.kron(e.T, a.T) + np.kron(a.T, e.T)
    m = np.linalg.solve(op, -f.flatten(order="F")).reshape((n, n), order="F")
    return 0.5 * (m + m.T)


def test_criterion_05_lyapunov_solvers(announce):
    details = []
    ok = True

    # dense residual on all three generator families up to n = 300
    worst_res = 0.0
    for sys in (benchgen.gen_convection_diffusion(n=300),
                benchgen.gen_nonnormal_stable(n=200, kappa=10.0, seed=3),
                benchgen.gen_msd_chain(masses=50)):
        rhs = stabilize.build_stab_factor_F(sys)
        f = rhs.u_tilde @ rhs.u_tilde.T
        m = stabilize.solve_lyapunov_dense(sys.a, sys.e, f)
        a_d, e_d = as_dense(sys.a), as_dense(sys.e)
        res = np.linalg.norm(a_d.T @ m @ e_d + e_d.T @ m @ a_d + f)
        worst_res = max(worst_res, res / np.linalg.norm(f))
    ok &= worst_res <= 1e-8
    details.append(f"dense residual {worst_res:.1e}")

    # dense solution against the Kronecker oracle at small n
    rng = np.random.default_rng(17)
    worst_oracle = 0.0
    msd = benchgen.gen_msd_chain(masses=20)
    rhs = stabilize.build_stab_factor_F(msd)
    cases = [(msd, rhs.u_tilde @ rhs.u_tilde.T)]
    dense_sys = random_stable_system(rng, 50, identity_mass=False)
    q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    cases.append((dense_sys, (q * np.geomspace(1.0, 10.0, 50)) @ q.T))
    for sys, f in cases:
        m = stabilize.solve_lyapunov_dense(sys.a, sys.e, f)
        oracle = kron_lyapunov_solve(as_dense(sys.e), as_dense(sys.a), f)
        worst_oracle = max(worst_oracle, np.linalg.norm(m - oracle)
                           / np.linalg.norm(oracle))
    ok &= worst_oracle <= 1e-8
    details.append(f"oracle mismatch {worst_oracle:.1e}")

    # LR-ADI reaches the dense correction within 30 steps for small k
    tight = DEFAULT.with_(lradi_residual=1e-14)
    worst_adi = 0.0
    for sys in (benchgen.gen_msd_chain(masses=4),
                benchgen.gen_msd_chain(masses=5),
                benchgen.gen_convection_diffusion(n=200, diffusion=0.2,
                                                  grade=2.0)):
        rhs = stabilize.build_stab_factor_F(sys)
        assert rhs.k <= 5
        dm = stabilize.solve_lyapunov_dense(sys.a, sys.e,
                                            rhs.u_tilde @ rhs.u_tilde.T)
        z, _ = stabilize.solve_lyapunov_lradi(sys.a, sys.e, rhs.u_tilde,
                                              steps=30, config=tight)
        worst_adi = max(worst_adi, np.linalg.norm(z @ z.T - dm)
                        / np.linalg.norm(dm))
    ok &= worst_adi <= 1e-6
    details.append(f"lradi vs dense {worst_adi:.1e}")

    # rank accounting: every real shift appends exactly k columns
    never = DEFAULT.with_(lradi_residual=1e-300)
    shifts = np.array([-1.0, -3.0, -10.0])
    growth_ok = True
    for sys in (benchgen.gen_convection_diffusion(n=150),
                benchgen.gen_msd_chain(masses=4)):
        rhs = stabilize.build_stab_factor_F(sys)
        z, _ = stabilize.solve_lyapunov_lradi(sys.a, sys.e, rhs.u_tilde,
                                              steps=10, shifts=shifts,
                                              config=never)
        growth_ok &= z.shape[1] == 10 * rhs.k
    ok &= growth_ok
    details.append(f"rank growth 10 steps -> 10k columns: {growth_ok}")

    announce(5, ok, "; ".join(details))


def test_criterion_06_structured_square_root(announce):
    rng = np.random.default_rng(3)
    worst_id = 0.0
    for n, q in ((500, 20), (137, 7), (64, 1)):
        z = rng.standard_normal((n, q))
        op = stabilize.matrix_sqrt_factor(z)
        v = rng.standard_normal(n)
        mv = v + z @ (z.T @ v)
        twice = op.apply_sqrt(op.apply_sqrt(v))
        round_trip = op.apply_inv_sqrt(op.apply_sqrt(v))
        worst_id = max(worst_id,
                       np.linalg.norm(twice - mv) / np.linalg.norm(mv),
                       np.linalg.norm(round_trip - v) / np.linalg.norm(v))

    # cost scales linearly in n: doubling n doubles the apply time
    times = []
    for n in (50_000, 100_000, 200_000, 400_000):
        z = rng.standard_normal((n, 8))
        op = stabilize.matrix_sqrt_factor(z)
        v = rng.standard_normal(n)
        op.apply_sqrt(v)  # warm up
        best = np.inf
        for _ in range(30):
            t0 = time.perf_counter()
            op.apply_sqrt(v)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = float(np.median(np.log2(np.array(times[1:])
                                    / np.array(times[:-1]))))
    ok = worst_id <= 1e-10 and 0.8 <= slope <= 1.2
    announce(6, ok, f"worst identity error {worst_id:.1e}, "
                    f"timing slope {slope:.2f}")


def test_criterion_07_h2_norm_and_output_bound(announce):
    lag = LinearSystem(np.eye(1), -np.eye(1), np.ones((1, 1)), np.ones((1, 1)))
    h2 = analysis.h2_error(lag)
    norm_err = abs(h2.value - np.sqrt(0.5))

    sys = benchgen.gen_msd_chain(masses=6)
    u = analysis.make_input("sine", period=3.0)
    horizon = 20.0
    u_norm = analysis.input_l2_norm(u, horizon)
    t_fom = analysis.integrate_trapezoidal(sys, u, np.zeros(12),
                                           (0.0, horizon), steps=2000)
    checked = 0
    bound_ok = True
    for r in (2, 3, 4, 5):
        rom = galerkin_reduce(sys, arnoldi_basis(sys, r, s0=1.0))
        if spectral_abscissa(rom.to_system()) >= 0.0:
            continue
        res = analysis.h2_error(sys, rom)
        t_rom = analysis.integrate_trapezoidal(rom, u, np.zeros(r),
                                               (0.0, horizon), steps=2000)
        sup, _ = analysis.output_error(t_fom, t_rom)
        bound_ok &= sup <= res.value * u_norm + res.slack
        checked += 1
    ok = norm_err <= 1e-12 and checked >= 3 and bound_ok
    announce(7, ok, f"analytic norm error {norm_err:.1e}, output bound held "
                    f"on {checked} stable pairs: {bound_ok}")


def test_criterion_08_integrator_orders(announce):
    lag = LinearSystem(np.eye(1), -np.eye(1), np.ones((1, 1)), np.ones((1, 1)))
    zero = analysis.make_input("zero")
    exact = np.exp(-1.0)

    trap_errs = []
    for steps in (50, 100, 200, 400):
        traj = analysis.integrate_trapezoidal(lag, zero, np.array([1.0]),
                                              (0.0, 1.0), steps=steps)
        trap_errs.append(abs(traj.x[-1, 0] - exact))
    trap_slopes = np.log2(np.array(trap_errs[:-1]) / np.array(trap_errs[1:]))

    adapt_errs = []
    for steps in (20, 40, 80):
        traj = analysis.integrate_adaptive(lag, zero, np.array([1.0]),
                                           (0.0, 1.0), fixed_steps=steps)
        adapt_errs.append(abs(traj.x[-1, 0] - exact))
    adapt_slopes = np.log2(np.array(adapt_errs[:-1])
                           / np.array(adapt_errs[1:]))

    ok = (np.all(np.abs(trap_slopes - 2.0) <= 0.1)
          and np.all(adapt_slopes >= 3.8))
    announce(8, ok, f"trapezoid slopes {np.round(trap_slopes, 3).tolist()}, "
                    f"adaptive slopes {np.round(adapt_slopes, 2).tolist()}")


def test_criterion_09_nonlinear_equilibrium_stability(announce):
    rng = np.random.default_rng(11)
    nl = benchgen.gen_cubic_msd(masses=50, gamma=0.5)
    lin = linearize(nl)
    stab = stabilize.assemble_stabilizer(lin, mode="dense")
    worst = -np.inf
    for _ in range(100):
        r = int(rng.integers(1, 11))
        rom = nonlinear_reduce(nl, random_basis(rng, lin.n, r), stab=stab)
        worst = max(worst, spectral_abscissa(rom.jacobian_system()))

    a = np.array([[-1.0, 4.0], [0.0, -1.0]])
    gamma = 0.5
    cubic = NonlinearSystem(
        e=np.eye(2),
        f=lambda x: a @ x - gamma * x ** 3,
        jac=lambda x: a - np.diag(3.0 * gamma * x ** 2),
        b=np.ones((2, 1)), c=np.array([[1.0, 0.0]]))
    basis = ProjectionBasis(v=np.array([[1.0], [1.0]]) / np.sqrt(2.0),
                            method="external", details={})
    alpha_conv = spectral_abscissa(
        nonlinear_reduce(cubic, basis).jacobian_system())
    alpha_stab = spectral_abscissa(
        nonlinear_reduce(cubic, basis,
                         stab=stabilize.assemble_stabilizer(
                             linearize(cubic), mode="dense"))
        .jacobian_system())
    ok = worst < 0.0 and alpha_conv >= 0.0 and alpha_stab < 0.0
    announce(9, ok, f"100 stabilized Jacobians, worst abscissa {worst:.3e}; "
                    f"crafted cubic {alpha_conv:+.3f} -> {alpha_stab:+.3f}")


def test_criterion_10_reproducible_cli_sweeps(tmp_path, announce):
    def full_sweep(root):
        fom = root / "fom"
        assert cli.main(["generate", "msd", "--masses", "5",
                         "--out", str(fom)]) == 0
        assert cli.main(["reduce", "--bundle", str(fom), "--r", "1:4",
                         "--stabilize", "--out", str(root / "red")]) == 0
        assert cli.main(["simulate", "--bundle", str(fom), "--input", "sine:4",
                         "--horizon", "10", "--integrator", "trapezoid:500",
                         "--out", str(root / "sim")]) == 0
        assert cli.main(["analyze", "--bundle", str(fom), "--points", "100",
                         "--out", str(root / "ana")]) == 0
        return {"error_sweep.csv": (root / "red" / "error_sweep.csv"),
                "trajectory.csv": (root / "sim" / "trajectory.csv"),
                "bode.csv": (root / "ana" / "bode.csv")}

    first = full_sweep(tmp_path / "a")
    second = full_sweep(tmp_path / "b")
    mismatches = [name for name in first
                  if first[name].read_bytes() != second[name].read_bytes()]
    ok = not mismatches
    announce(10, ok, f"{len(first)} CSV artifacts byte-identical across two "
                     f"seeded sweeps" if ok else f"mismatch in {mismatches}")
