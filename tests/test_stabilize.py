"""Stability-preserving transformation: Lyapunov solvers, factors, reduction."""
from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from stabmor import benchgen, stabilize
from stabmor.config import DEFAULT
from stabmor.dynsys import (
    LinearSystem,
    dense_symmetric_part,
    spectral_abscissa,
    symmetric_part_spectrum,
)
from stabmor.errors import (
    AlreadyDissipative,
    NotIdentityMass,
    ShiftFailure,
    StabmorError,
    UnstablePencil,
)
from stabmor.projection import external_basis, galerkin_reduce
from stabmor.stabilize import (
    StabilizerFactor,
    assemble_stabilizer,
    build_stab_factor_F,
    condition_bound_check,
    load_stabilizer,
    matrix_sqrt_factor,
    penzl_shifts,
    save_stabilizer,
    solve_lyapunov_dense,
    solve_lyapunov_lradi,
    stabilized_reduce,
)
from tests.conftest import (
    dense_transform,
    random_orthonormal,
    random_spd,
    random_stable_system,
)


def nonnormal_two_by_two() -> LinearSystem:
    a = np.array([[-1.0, 3.0], [0.0, -1.0]])
    return LinearSystem(np.eye(2), a, np.ones((2, 1)), np.ones((1, 2)))


def crafted_case():
    a = np.array([[-1.0, 4.0], [0.0, -1.0]])
    sys = LinearSystem(np.eye(2), a, np.ones((2, 1)), np.ones((1, 2)))
    v = np.full((2, 1), 1.0 / np.sqrt(2.0))
    return sys, external_basis(v)


def densify(m) -> np.ndarray:
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def lyapunov_residual(a, e, m, f) -> float:
    a, e = densify(a), densify(e)
    return np.linalg.norm(a.T @ m @ e + e.T @ m @ a + f)


def dense_correction_oracle(a, e, u_tilde) -> np.ndarray:
    """Independent route for A^T X E + E^T X A + Ut Ut^T = 0.

    Substitutes L = A E^{-1} (the implementation substitutes E^{-1} A), so
    the two answers are computed through different similarity transforms.
    """
    a, e = densify(a), densify(e)
    l_mat = a @ np.linalg.inv(e)
    g = np.linalg.solve(e.T, u_tilde)
    return sla.solve_continuous_lyapunov(l_mat.T, -(g @ g.T))


class TestBuildStabFactor:
    def test_two_by_two_oracle(self):
        rhs = build_stab_factor_F(nonnormal_two_by_two(), delta=1.0)
        assert rhs.k == 1
        assert np.isclose(rhs.mu_max, 1.0, atol=1e-10)
        # Ut = sqrt(mu_max + delta) * u with u = (1,1)/sqrt(2)
        expected = np.ones(2)
        got = rhs.u_tilde[:, 0]
        assert (np.allclose(got, expected, atol=1e-8)
                or np.allclose(got, -expected, atol=1e-8))
        f = -dense_symmetric_part(nonnormal_two_by_two()) + rhs.u_tilde @ rhs.u_tilde.T
        assert np.allclose(f, [[3.0, -2.0], [-2.0, 3.0]], atol=1e-8)
        assert np.allclose(np.linalg.eigvalsh(f), [1.0, 5.0], atol=1e-8)

    def test_dissipative_raises(self):
        sys = LinearSystem(np.eye(3), -np.eye(3), np.ones((3, 1)),
                           np.ones((1, 3)))
        with pytest.raises(AlreadyDissipative):
            build_stab_factor_F(sys)

    def test_eigenvalue_structure_small_sweep(self):
        # eigenvalues of F are {mu_1 - mu_j + delta : j <= k} u {-mu_j : j > k}
        for seed in range(8):
            n = 20 + 3 * seed
            sys = benchgen.gen_nonnormal_stable(n=n, kappa=30.0, seed=seed)
            delta = 0.5 + 0.25 * seed
            rhs = build_stab_factor_F(sys, delta=delta)
            g = dense_symmetric_part(sys)
            mu = np.linalg.eigvalsh(g)[::-1]
            k = rhs.k
            expected = np.concatenate([mu[0] - mu[:k] + rhs.delta, -mu[k:]])
            f = -g + rhs.u_tilde @ rhs.u_tilde.T
            got = np.linalg.eigvalsh(f)
            scale = abs(mu[0]) + rhs.delta
            assert np.allclose(np.sort(got), np.sort(expected),
                               atol=1e-8 * scale)

    def test_one_eigensolve_below_the_cap(self, monkeypatch):
        sys = benchgen.gen_nonnormal_stable(n=300, kappa=50.0, seed=0)
        requested = []

        def counted(system, ell, config=DEFAULT, seed=0):
            requested.append(ell)
            return symmetric_part_spectrum(system, ell, config, seed=seed)

        monkeypatch.setattr(stabilize, "symmetric_part_spectrum", counted)
        rhs = build_stab_factor_F(sys)
        assert requested == [300]
        assert rhs.k == 54
        # above the cap the request still doubles until a negative
        # eigenvalue shows up, and finds the same k
        requested.clear()
        above = build_stab_factor_F(sys, config=DEFAULT.with_(dense_cap=299))
        assert requested == [16, 32, 64]
        assert above.k == rhs.k

    def test_dissipative_system_takes_one_eigensolve(self, monkeypatch):
        sys = benchgen.gen_nonnormal_stable(n=50, kappa=1.0,
                                            require_nonnormal=False)
        requested = []

        def counted(system, ell, config=DEFAULT, seed=0):
            requested.append(ell)
            return symmetric_part_spectrum(system, ell, config, seed=seed)

        monkeypatch.setattr(stabilize, "symmetric_part_spectrum", counted)
        stab = assemble_stabilizer(sys)
        assert requested == [50]
        mu_max = float(np.linalg.eigvalsh(dense_symmetric_part(sys)).max())
        assert stab.k == 0 and stab.mu_max < 0.0
        assert stab.mu_max == pytest.approx(mu_max, rel=1e-12)
        assert stab.certificate_bound == min(stab.delta, abs(stab.mu_max))

    def test_f_positive_definite_nonnormal_200(self):
        sys = benchgen.gen_nonnormal_stable(n=200, kappa=50.0, seed=3)
        rhs = build_stab_factor_F(sys, delta=1.0)
        f = -dense_symmetric_part(sys) + rhs.u_tilde @ rhs.u_tilde.T
        assert np.linalg.eigvalsh(f).min() > 0


class TestDenseLyapunov:
    def test_identity_case(self):
        m = solve_lyapunov_dense(-np.eye(3), np.eye(3), 2 * np.eye(3))
        assert np.allclose(m, np.eye(3), atol=1e-12)

    def test_diagonal_balance(self):
        m = solve_lyapunov_dense(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
        assert np.allclose(m, np.diag([0.5, 0.25]), atol=1e-12)

    def test_kronecker_oracle(self, rng):
        n = 40
        sys = random_stable_system(rng, n, identity_mass=False)
        a, e = np.asarray(sys.a), np.asarray(sys.e)
        f = random_spd(rng, n)
        m = solve_lyapunov_dense(a, e, f)
        # vec(A^T M E + E^T M A) = (E^T kron A^T + A^T kron E^T) vec(M)
        big = np.kron(e.T, a.T) + np.kron(a.T, e.T)
        m_ref = np.linalg.solve(big, -f.flatten(order="F")).reshape(
            (n, n), order="F")
        assert np.linalg.norm(m - m_ref) <= 1e-8 * np.linalg.norm(m_ref)

    def test_residual_contract_nontrivial_mass(self, rng):
        sys = random_stable_system(rng, 120, identity_mass=False)
        f = random_spd(rng, 120, spread=100.0)
        m = solve_lyapunov_dense(sys.a, sys.e, f)
        assert lyapunov_residual(sys.a, sys.e, m, f) <= 1e-8 * np.linalg.norm(f)
        assert np.linalg.eigvalsh(m).min() > 0

    def test_unstable_pencil_rejected(self):
        with pytest.raises(UnstablePencil):
            solve_lyapunov_dense(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))

    def test_large_accurate_solution_accepted(self):
        # ||M||_2 ~ 4e7 against ||F|| ~ 25: the residual 3e-7 is a backward
        # error near 1e-17, and must not be judged against ||F|| alone
        sys = benchgen.gen_msd_chain(masses=150)
        stab = assemble_stabilizer(sys, mode="dense")
        assert stab.mode == "dense" and stab.q > 0
        f = stab.u_tilde @ stab.u_tilde.T
        m = solve_lyapunov_dense(sys.a, sys.e, f)
        assert lyapunov_residual(sys.a, sys.e, m, f) > 1e-8 * np.linalg.norm(f)

    def test_perturbed_solution_rejected(self, rng, monkeypatch):
        assert_perturbed_solution_rejected(benchgen.gen_msd_chain(masses=4),
                                           rng, monkeypatch)

    @pytest.mark.parametrize("make", [
        lambda: benchgen.gen_msd_chain(masses=150),
        lambda: benchgen.gen_nonnormal_stable(n=300),
    ], ids=["msd150", "nonnormal300"])
    def test_perturbed_solution_rejected_at_scale(self, make, rng,
                                                  monkeypatch):
        # a relative error of 1e-6 is a backward error near 2.5e-9 here
        assert_perturbed_solution_rejected(make(), rng, monkeypatch)

    def test_nonsymmetric_rhs_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov_dense(-np.eye(2), np.eye(2),
                                 np.array([[1.0, 1.0], [0.0, 1.0]]))


def assert_perturbed_solution_rejected(sys, rng, monkeypatch):
    """A symmetric error of relative size 1e-6 in M fails the residual check.

    Every system used has E = I, so the standard-form solution N is M.
    """
    f = build_stab_factor_F(sys, delta=1.0).u_tilde
    f = f @ f.T
    exact = sla.solve_continuous_lyapunov
    g = rng.standard_normal((sys.n, sys.n))
    g = g + g.T

    def perturbed(a, q):
        n = exact(a, q)
        return n + 1e-6 * np.linalg.norm(n) / np.linalg.norm(g) * g

    solve_lyapunov_dense(sys.a, sys.e, f)
    monkeypatch.setattr(stabilize.sla, "solve_continuous_lyapunov", perturbed)
    with pytest.raises(StabmorError, match="exceeds tolerance"):
        solve_lyapunov_dense(sys.a, sys.e, f)


class TestLRADI:
    def test_single_step_closed_form(self, rng):
        # A=-I, E=I: exact correction is u u^T / 2, reached by one step at -1
        u = rng.standard_normal((30, 1))
        z, history = solve_lyapunov_lradi(-np.eye(30), np.eye(30), u,
                                          steps=1, shifts=np.array([-1.0]))
        assert np.allclose(z @ z.T, u @ u.T / 2.0, atol=1e-12 * (u ** 2).sum())
        assert history[0] == 1.0 and history[-1] <= 1e-12

    def test_matches_dense_solution(self, rng):
        n, k = 150, 2
        sys = random_stable_system(rng, n, identity_mass=False, margin=0.5)
        u_tilde = rng.standard_normal((n, k))
        ref = dense_correction_oracle(sys.a, sys.e, u_tilde)
        cfg = DEFAULT.with_(lradi_residual=1e-14, lradi_num_shifts=16)
        z, history = solve_lyapunov_lradi(sys.a, sys.e, u_tilde, steps=30,
                                          config=cfg)
        err = np.linalg.norm(z @ z.T - ref) / np.linalg.norm(ref)
        assert err <= 1e-6, f"ADI error {err:.2e}, residual {history[-1]:.2e}"

    def test_rank_grows_k_per_step_real_shifts(self, rng):
        n, k, steps = 40, 3, 7
        sys = random_stable_system(rng, n)
        cfg = DEFAULT.with_(lradi_residual=0.0)  # disable early stop
        z, history = solve_lyapunov_lradi(
            sys.a, sys.e, rng.standard_normal((n, k)), steps=steps,
            shifts=np.array([-0.5, -1.0, -2.0]), config=cfg)
        assert z.shape[1] == steps * k
        assert len(history) == steps + 1

    def test_complex_pair_counts_two_steps(self, rng):
        n, k = 30, 2
        sys = random_stable_system(rng, n)
        shifts = np.array([-1.0 + 1.0j, -1.0 - 1.0j, -2.0])
        cfg = DEFAULT.with_(lradi_residual=0.0)
        z, history = solve_lyapunov_lradi(
            sys.a, sys.e, rng.standard_normal((n, k)), steps=6,
            shifts=shifts, config=cfg)
        assert z.shape[1] == 6 * k  # pairs advance two steps, 2k columns
        # result is real and symmetric-definite in action
        assert np.isrealobj(z)

    def test_residual_monotone_per_step_symmetric_benchmark(self):
        # pure diffusion on a uniform mesh: symmetric pencil, every Cayley
        # factor is a contraction, so each step lowers the residual
        sys = benchgen.gen_convection_diffusion(n=120, velocity=0.0,
                                                grade=1.0)
        u = np.random.default_rng(7).standard_normal((120, 1))
        _, history = solve_lyapunov_lradi(
            sys.a, sys.e, u, steps=20,
            config=DEFAULT.with_(lradi_residual=1e-15))
        hist = np.asarray(history)
        assert hist[0] == 1.0
        assert np.all(np.diff(hist) <= 1e-12)

    def test_residual_monotone_over_shift_cycles_nondissipative(self):
        # single steps may bump the residual here; completed cycles of the
        # selected shifts must not
        sys = benchgen.gen_convection_diffusion(n=120)
        rhs = build_stab_factor_F(sys)
        shifts = np.atleast_1d(np.asarray(penzl_shifts(sys.a, sys.e),
                                          dtype=complex))
        _, history = solve_lyapunov_lradi(
            sys.a, sys.e, rhs.u_tilde, steps=4 * len(shifts), shifts=shifts,
            config=DEFAULT.with_(lradi_residual=1e-15))
        hist = np.asarray(history)
        # replay the step counter: a conjugate pair advances two steps but
        # records one residual, so boundaries must be reconstructed
        js = [0]
        while len(js) < len(hist):
            p = shifts[js[-1] % len(shifts)]
            js.append(js[-1] + (1 if p.imag == 0.0 else 2))
        cycles = hist[[i for i, j in enumerate(js) if j % len(shifts) == 0]]
        assert len(cycles) >= 4
        assert np.all(np.diff(cycles) <= 1e-12)

    def test_positive_shift_rejected(self, rng):
        with pytest.raises(ValueError):
            solve_lyapunov_lradi(-np.eye(3), np.eye(3), np.ones((3, 1)),
                                 steps=2, shifts=np.array([0.5]))

    def test_shift_failure_after_retry(self):
        zero = np.zeros((2, 2))
        with pytest.raises(ShiftFailure):
            solve_lyapunov_lradi(zero, zero, np.ones((2, 1)), steps=1,
                                 shifts=np.array([-1.0]))

    def test_zero_rhs_short_circuits(self):
        z, history = solve_lyapunov_lradi(-np.eye(4), np.eye(4),
                                          np.zeros((4, 1)), steps=5,
                                          shifts=np.array([-1.0]))
        assert z.shape == (4, 0) and history == [0.0]


class TestPenzlShifts:
    def test_all_stable_and_deterministic(self, rng):
        sys = random_stable_system(rng, 60, identity_mass=False)
        cfg = DEFAULT.with_(lradi_num_shifts=8)
        s1 = penzl_shifts(sys.a, sys.e, config=cfg, seed=5)
        s2 = penzl_shifts(sys.a, sys.e, config=cfg, seed=5)
        assert np.array_equal(s1, s2)
        assert np.all(s1.real < 0)

    def test_conjugate_pairs_adjacent(self):
        sys = benchgen.gen_msd_chain(masses=10, damping=0.1)
        shifts = penzl_shifts(sys.a, sys.e,
                              config=DEFAULT.with_(lradi_num_shifts=10))
        i = 0
        while i < len(shifts):
            if shifts[i].imag != 0.0:
                assert i + 1 < len(shifts)
                assert np.isclose(shifts[i + 1], np.conj(shifts[i]))
                i += 2
            else:
                i += 1

    def test_fallback_for_unstable_operator(self):
        shifts = penzl_shifts(np.eye(4), np.eye(4),
                              config=DEFAULT.with_(lradi_num_shifts=4))
        assert np.array_equal(shifts, np.array([-1.0 + 0.0j]))


class TestAssembleStabilizer:
    def test_dissipative_yields_identity_transform(self):
        sys = LinearSystem(np.eye(5), -2 * np.eye(5), np.ones((5, 1)),
                           np.ones((1, 5)))
        stab = assemble_stabilizer(sys)
        assert stab.mode == "none" and stab.q == 0 and stab.k == 0
        v = np.linspace(-1, 1, 5)
        assert np.allclose(stab.apply(v), v, atol=1e-12)

    def test_explicit_rank_one_action(self):
        sys = LinearSystem(np.eye(4), -np.eye(4), np.ones((4, 1)),
                           np.ones((1, 4)))
        z = np.eye(4)[:, :1]
        stab = StabilizerFactor(sys=sys, z=z, u_tilde=np.zeros((4, 0)),
                                delta=1.0, k=0, mu_max=-2.0, mode="dense",
                                residual_history=(0.0,))
        assert np.allclose(dense_transform(stab), np.diag([2.0, 1.0, 1.0, 1.0]))

    def test_auto_mode_crossover(self):
        msd = benchgen.gen_msd_chain(masses=4)  # k = n/2 >> 5% of n
        assert assemble_stabilizer(msd).mode == "dense"
        convdiff = benchgen.gen_convection_diffusion(n=200)  # k = 1
        assert assemble_stabilizer(convdiff).mode == "lradi"

    def test_rayleigh_quotients_positive_large_sparse(self):
        sys = benchgen.gen_convection_diffusion(n=2000)
        stab = assemble_stabilizer(sys, mode="lradi")
        gen = np.random.default_rng(0)
        v = gen.standard_normal((2000, 1000))
        quotients = np.einsum("ij,ij->j", v, stab.apply(v))
        assert np.all(quotients > 0)

    def test_dense_mode_solves_correction_equation(self, rng):
        sys = benchgen.gen_nonnormal_stable(n=60, kappa=30.0, seed=1)
        stab = assemble_stabilizer(sys, mode="dense")
        res = lyapunov_residual(sys.a, sys.e, stab.z @ stab.z.T,
                                stab.u_tilde @ stab.u_tilde.T)
        assert res <= 1e-8 * np.linalg.norm(stab.u_tilde @ stab.u_tilde.T)


class TestStabilizedReduce:
    def test_crafted_case_becomes_stable(self):
        sys, basis = crafted_case()
        conventional = galerkin_reduce(sys, basis)
        assert spectral_abscissa(conventional.to_system()) > 0
        red = stabilized_reduce(sys, basis,
                                assemble_stabilizer(sys, mode="dense"))
        assert spectral_abscissa(red.to_system()) < 0
        assert red.stabilized and red.w_source == "lyapunov"

    def test_dissipative_identity_mass_matches_galerkin(self, rng):
        sys = LinearSystem(np.eye(6), -random_spd(rng, 6), np.ones((6, 1)),
                           np.ones((1, 6)))
        v = random_orthonormal(rng, 6, 2)
        basis = external_basis(v)
        red = stabilized_reduce(sys, basis)
        ref = galerkin_reduce(sys, basis)
        assert np.allclose(red.ebar, ref.ebar, atol=1e-12)
        assert np.allclose(red.abar, ref.abar, atol=1e-12)
        assert np.allclose(red.bbar, ref.bbar, atol=1e-12)

    def test_reduced_mass_is_spd(self, rng):
        sys = benchgen.gen_nonnormal_stable(n=50, kappa=30.0, seed=2)
        stab = assemble_stabilizer(sys, mode="dense")
        for r in (1, 3, 7):
            basis = external_basis(random_orthonormal(rng, 50, r))
            red = stabilized_reduce(sys, basis, stab)
            assert np.allclose(red.ebar, red.ebar.T)
            assert np.linalg.eigvalsh(red.ebar).min() >= 1.0 - 1e-12

    def test_exact_transform_stabilizes_random_bases(self, rng):
        sys = benchgen.gen_nonnormal_stable(n=80, kappa=40.0, seed=4)
        stab = assemble_stabilizer(sys, mode="dense")
        for _ in range(25):
            r = int(rng.integers(1, 16))
            basis = external_basis(random_orthonormal(rng, 80, r))
            red = stabilized_reduce(sys, basis, stab)
            assert spectral_abscissa(red.to_system()) < 0

    def test_transfer_invariance_of_transformation(self, rng):
        # (E^T M~ E, E^T M~ A, E^T M~ B, C) has the same transfer function
        sys = random_stable_system(rng, 8, identity_mass=False)
        try:
            stab = assemble_stabilizer(sys, mode="dense")
        except AlreadyDissipative:  # pragma: no cover - seed dependent
            pytest.skip("sampled system came out dissipative")
        m_dense = dense_transform(stab)
        e, a = np.asarray(sys.e), np.asarray(sys.a)
        transformed = LinearSystem(e.T @ m_dense @ e, e.T @ m_dense @ a,
                                   e.T @ m_dense @ sys.b, sys.c)
        tf_a, tf_b = sys.transfer(), transformed.transfer()
        for omega in np.geomspace(0.01, 100, 20):
            ha, hb = tf_a.eval(1j * omega), tf_b.eval(1j * omega)
            assert np.linalg.norm(ha - hb) <= 1e-8 * max(np.linalg.norm(ha),
                                                         1e-12)

    def test_reduced_systems_not_equivalent(self):
        # same V, but conventional and stabilized ROMs differ as systems
        from stabmor import analysis

        sys = benchgen.gen_msd_chain(masses=4)
        # columns must reach the actuated velocity and the measured position
        basis = external_basis(np.eye(8)[:, [3, 4]])
        conv = galerkin_reduce(sys, basis)
        stab_red = stabilized_reduce(sys, basis,
                                     assemble_stabilizer(sys, mode="dense"))
        u = analysis.make_input("sine", period=4.0)
        t_conv = analysis.integrate_trapezoidal(conv, u, np.zeros(2),
                                                (0.0, 10.0), steps=800)
        t_stab = analysis.integrate_trapezoidal(stab_red, u, np.zeros(2),
                                                (0.0, 10.0), steps=800)
        gap = np.abs(t_conv.y - t_stab.y).max()
        assert gap > 1e-6, "outputs should differ beyond integration error"


class TestConditionBound:
    def test_empty_factor(self, rng):
        sys = LinearSystem(np.eye(4), -np.eye(4), np.ones((4, 1)),
                           np.ones((1, 4)))
        stab = assemble_stabilizer(sys)
        cond, bound = condition_bound_check(stab, sys,
                                            external_basis(np.eye(4)[:, :2]))
        assert cond == 1.0 and bound == 1.0

    def test_rank_one_identity_case(self):
        sys = LinearSystem(np.eye(3), -np.eye(3), np.ones((3, 1)),
                           np.ones((1, 3)))
        stab = StabilizerFactor(sys=sys, z=np.eye(3)[:, :1],
                                u_tilde=np.zeros((3, 0)), delta=1.0, k=0,
                                mu_max=-2.0, mode="dense",
                                residual_history=(0.0,))
        cond, bound = condition_bound_check(stab, sys,
                                            external_basis(np.eye(3)[:, :1]))
        assert np.isclose(cond, 1.0)
        assert np.isclose(bound, 2.0)

    def test_holds_across_sweep(self, rng):
        sys = benchgen.gen_convection_diffusion(n=150)
        stab = assemble_stabilizer(sys, mode="lradi")
        for r in (1, 2, 5, 10):
            basis = external_basis(random_orthonormal(rng, 150, r))
            cond, bound = condition_bound_check(stab, sys, basis)
            assert cond <= bound * (1.0 + 1e-10)


class TestMatrixSqrt:
    def test_empty_factor_is_identity(self, rng):
        op = matrix_sqrt_factor(np.zeros((6, 0)))
        v = rng.standard_normal(6)
        assert np.array_equal(op.apply_sqrt(v), v)
        assert np.array_equal(op.apply_inv_sqrt(v), v)

    def test_rank_one_diagonal(self):
        op = matrix_sqrt_factor(np.eye(3)[:, :1])
        got = op.apply_sqrt(np.eye(3))
        assert np.allclose(got, np.diag([np.sqrt(2.0), 1.0, 1.0]), atol=1e-12)

    def test_identities_random(self, rng):
        # the second factor is wide: q > n, and Z Z^T has rank n
        for n, q in ((300, 8), (40, 60)):
            z = rng.standard_normal((n, q))
            op = matrix_sqrt_factor(z)
            v = rng.standard_normal((n, 5))
            mv = v + z @ (z.T @ v)
            sq = op.apply_sqrt(op.apply_sqrt(v))
            assert np.linalg.norm(sq - mv) <= 1e-10 * np.linalg.norm(mv)
            back = op.apply_inv_sqrt(op.apply_sqrt(v))
            assert np.linalg.norm(back - v) <= 1e-10 * np.linalg.norm(v)

    def test_matches_dense_eigh_oracle(self, rng):
        n, q = 40, 5
        z = rng.standard_normal((n, q))
        m = np.eye(n) + z @ z.T
        w, u = np.linalg.eigh(m)
        sqrt_ref = (u * np.sqrt(w)) @ u.T
        op = matrix_sqrt_factor(z)
        assert np.allclose(op.apply_sqrt(np.eye(n)), sqrt_ref, atol=1e-10)

    def test_non_identity_mass_rejected(self):
        with pytest.raises(NotIdentityMass):
            matrix_sqrt_factor(np.ones((3, 1)), e=np.diag([1.0, 2.0, 1.0]))
        with pytest.raises(NotIdentityMass):
            matrix_sqrt_factor(np.ones((3, 1)),
                               e=sp.diags([1.0, 2.0, 1.0], format="csr"))
        # identity mass in sparse form is accepted
        matrix_sqrt_factor(np.ones((3, 1)), e=sp.identity(3, format="csr"))

    def test_factor_sqrt_operator_route(self):
        sys = LinearSystem(np.eye(3), np.array([[-1.0, 3.0, 0.0],
                                                [0.0, -1.0, 0.0],
                                                [0.0, 0.0, -2.0]]),
                           np.ones((3, 1)), np.ones((1, 3)))
        stab = assemble_stabilizer(sys, mode="dense")
        op = stab.sqrt_operator()
        v = np.linspace(1, 3, 3)
        assert np.allclose(op.apply_sqrt(op.apply_sqrt(v)), stab.apply(v),
                           atol=1e-10)


class TestCertificate:
    """||W||_2^2 of the LR-ADI residual W W^T against min(delta, |mu_k+1|)."""

    @pytest.fixture(scope="class")
    def convdiff(self):
        return benchgen.gen_convection_diffusion(n=400)

    def test_default_steps_uncertified_and_warned(self, convdiff):
        with pytest.warns(UserWarning, match="not certified"):
            stab = assemble_stabilizer(convdiff, mode="lradi")
        assert stab.mode == "lradi" and not stab.certified
        a, e = densify(convdiff.a), densify(convdiff.e)
        z, u = stab.z, stab.u_tilde
        residual = np.linalg.norm(
            a.T @ z @ (z.T @ e) + e.T @ z @ (z.T @ a) + u @ u.T, 2)
        assert stab.residual_norm > stab.certificate_bound
        assert abs(stab.residual_norm - residual) <= 1e-8 * residual
        g = np.linalg.solve(e, a)
        mu = np.linalg.eigvalsh(g + g.T)
        want = min(stab.delta, abs(mu[mu < 0.0].max()))
        assert abs(stab.certificate_bound - want) <= 1e-6 * want

    def test_long_run_certified_without_warning(self, convdiff):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stab = assemble_stabilizer(
                convdiff, mode="lradi", steps=200,
                config=DEFAULT.with_(lradi_num_shifts=40))
        assert stab.certified
        assert stab.residual_norm < stab.certificate_bound

    def test_exact_and_empty_factors_are_certified(self):
        dense = assemble_stabilizer(benchgen.gen_msd_chain(masses=4),
                                    mode="dense")
        none = assemble_stabilizer(LinearSystem(
            np.eye(3), -np.eye(3), np.ones((3, 1)), np.ones((1, 3))))
        for stab in (dense, none):
            assert stab.certified and stab.residual_norm == 0.0
            assert 0.0 < stab.certificate_bound <= stab.delta

    def test_manifest_records_certificate(self, tmp_path):
        sys = benchgen.gen_convection_diffusion(n=80)
        with pytest.warns(UserWarning, match="not certified"):
            stab = assemble_stabilizer(sys, mode="lradi", steps=2)
        save_stabilizer(stab, tmp_path / "stab")
        manifest = json.loads((tmp_path / "stab" / "manifest.json")
                              .read_text())
        assert manifest["certified"] is False
        assert manifest["residual_norm"] == stab.residual_norm
        assert manifest["certificate_bound"] == stab.certificate_bound
        back = load_stabilizer(tmp_path / "stab", sys)
        assert back.residual_norm == stab.residual_norm
        assert back.certificate_bound == stab.certificate_bound
        # a manifest without a certificate loads as uncertified
        for key in ("residual_norm", "certificate_bound", "certified"):
            del manifest[key]
        (tmp_path / "stab" / "manifest.json").write_text(json.dumps(manifest))
        assert not load_stabilizer(tmp_path / "stab", sys).certified


class TestPersistence:
    def test_roundtrip(self, tmp_path, rng):
        sys = benchgen.gen_convection_diffusion(n=80)
        stab = assemble_stabilizer(sys, mode="lradi")
        save_stabilizer(stab, tmp_path / "stab")
        back = load_stabilizer(tmp_path / "stab", sys)
        v = rng.standard_normal(80)
        assert np.allclose(back.apply(v), stab.apply(v), atol=1e-14)
        assert back.k == stab.k and back.q == stab.q
        assert back.mode == stab.mode
        assert np.isclose(back.mu_max, stab.mu_max)
        assert back.residual_history == stab.residual_history

    def test_roundtrip_empty_factor(self, tmp_path):
        sys = LinearSystem(np.eye(4), -np.eye(4), np.ones((4, 1)),
                           np.ones((1, 4)))
        stab = assemble_stabilizer(sys)
        save_stabilizer(stab, tmp_path / "stab")
        back = load_stabilizer(tmp_path / "stab", sys)
        assert back.q == 0 and back.k == 0
