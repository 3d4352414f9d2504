"""Nonlinear systems: equilibria, linearization, stabilized projection."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmor import analysis, benchgen, projection
from stabmor.dynsys import LinearSystem, stability_report
from stabmor.errors import (EquilibriumResidualTooLarge, SingularE,
                            SingularReducedMass)
from stabmor.nonlinear import (
    NonlinearSystem,
    Structure,
    equilibrium_stability,
    finite_difference_jacobian,
    linearize,
    nonlinear_reduce,
    shift_to_origin,
)
from stabmor.projection import external_basis, galerkin_reduce
from stabmor.stabilize import assemble_stabilizer, stabilized_reduce
from tests.conftest import random_orthonormal


def cubic_damped(a: np.ndarray, gamma: float = 0.5) -> NonlinearSystem:
    """f(x) = A x - gamma x^3 elementwise; equilibrium 0, jac(0) = A."""
    n = a.shape[0]

    def f(x):
        return a @ x - gamma * x**3

    def jac(x):
        return a - np.diag(3.0 * gamma * x**2)

    return NonlinearSystem(np.eye(n), f, jac,
                           b=np.ones((n, 1)), c=np.ones((1, n)))


def newton_equilibrium(f, jac, x0, tol=1e-13, maxit=50):
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(maxit):
        r = np.asarray(f(x), dtype=float)
        if np.linalg.norm(r) <= tol:
            return x
        j = jac(x)
        j = j.toarray() if hasattr(j, "toarray") else np.asarray(j)
        x = x - np.linalg.solve(j, r)
    raise AssertionError("Newton iteration for the test oracle stalled")


class TestConstruction:
    def test_equilibrium_residual_enforced(self):
        a = -np.eye(3)
        with pytest.raises(EquilibriumResidualTooLarge):
            NonlinearSystem(np.eye(3), lambda x: a @ x + 1.0, lambda x: a)

    def test_nonsquare_e_rejected(self):
        with pytest.raises(ValueError):
            NonlinearSystem(np.ones((3, 2)), lambda x: -x,
                            lambda x: -np.eye(3))

    def test_wrong_equilibrium_length_rejected(self):
        with pytest.raises(ValueError):
            NonlinearSystem(np.eye(3), lambda x: -x, lambda x: -np.eye(3),
                            x_star=np.zeros(4))

    def test_nonzero_equilibrium_accepted(self):
        # f(x) = -(x - 1) vanishes at x* = 1
        sys = NonlinearSystem(np.eye(2), lambda x: -(x - 1.0),
                              lambda x: -np.eye(2), x_star=np.ones(2))
        assert np.allclose(sys.x_star, 1.0)

    def test_missing_inputs_and_outputs_are_zero_width(self):
        sys = NonlinearSystem(np.eye(3), lambda x: -x, lambda x: -np.eye(3))
        assert sys.b.shape == (3, 0) and sys.c.shape == (0, 3)
        assert (sys.n_in, sys.n_out) == (0, 0)
        assert linearize(sys).n_in == 0 and linearize(sys).n_out == 0
        traj = analysis.integrate_trapezoidal(sys, None, np.ones(3),
                                              (0.0, 1.0), steps=10)
        assert traj.y.shape == (11, 0)


class TestShiftToOrigin:
    def test_zero_equilibrium_is_identity(self):
        sys = cubic_damped(-np.eye(2))
        assert shift_to_origin(sys) is sys

    def test_affine_example(self):
        sys = NonlinearSystem(np.eye(2), lambda x: -(x - 1.0),
                              lambda x: -np.eye(2), x_star=np.ones(2))
        shifted = shift_to_origin(sys)
        x = np.array([0.3, -0.7])
        assert np.allclose(shifted.f(x), -x)
        assert np.allclose(shifted.x_star, 0.0)

    def test_cubic_chain_newton_equilibrium(self):
        # constant forcing folded into f; the displaced equilibrium is
        # found independently by a plain Newton iteration
        nl = benchgen.gen_cubic_msd(masses=4, gamma=0.8)
        force = (nl.b @ np.array([0.6])).ravel()
        f2 = lambda x: np.asarray(nl.f(x), dtype=float) + force
        x_star = newton_equilibrium(f2, nl.jac, np.zeros(nl.n))
        assert np.abs(x_star).max() > 1e-3  # genuinely displaced
        forced = NonlinearSystem(nl.e, f2, nl.jac, x_star=x_star,
                                 b=nl.b, c=nl.c)
        shifted = shift_to_origin(forced)
        assert np.linalg.norm(shifted.f(np.zeros(nl.n))) <= 1e-10
        assert np.allclose(
            (shifted.jac(np.zeros(nl.n)) - forced.jac(x_star)).toarray()
            if hasattr(forced.jac(x_star), "toarray")
            else shifted.jac(np.zeros(nl.n)) - forced.jac(x_star), 0.0)


class TestEquilibriumStability:
    def test_identity_decay(self):
        sys = NonlinearSystem(np.eye(3), lambda x: -x, lambda x: -np.eye(3))
        report = equilibrium_stability(sys)
        assert report.alpha == pytest.approx(-1.0, abs=1e-12)
        assert report.dissipative

    def test_cubic_terms_do_not_change_the_report(self):
        a = np.array([[-1.0, 3.0], [0.0, -1.0]])
        nl = cubic_damped(a, gamma=1.0)
        lin = LinearSystem(np.eye(2), a, np.ones((2, 1)), np.ones((1, 2)))
        rep_nl = equilibrium_stability(nl)
        rep_lin = stability_report(lin)
        assert rep_nl.alpha == pytest.approx(rep_lin.alpha, abs=1e-12)
        assert rep_nl.k == rep_lin.k
        assert rep_nl.dissipative == rep_lin.dissipative
        assert rep_nl.mu_max == pytest.approx(rep_lin.mu_max, rel=1e-10)

    def test_jacobian_matches_finite_differences(self, rng):
        nl = benchgen.gen_cubic_msd(masses=5, gamma=0.7)
        for _ in range(3):
            x = rng.standard_normal(nl.n)
            j = nl.jac(x).toarray()
            fd = finite_difference_jacobian(nl.f, x)
            assert np.linalg.norm(fd - j) <= 1e-6 * max(
                1.0, np.linalg.norm(j))


class TestNonlinearReduce:
    def test_linear_f_matches_galerkin_reduce(self, rng):
        lin = benchgen.gen_msd_chain(masses=5)
        a = lin.a.toarray() if hasattr(lin.a, "toarray") else np.asarray(lin.a)
        nl = NonlinearSystem(lin.e, lambda x: a @ x, lambda x: a,
                             b=lin.b, c=lin.c)
        basis = external_basis(random_orthonormal(rng, lin.n, 4))
        rom_nl = nonlinear_reduce(nl, basis)
        rom_lin = galerkin_reduce(lin, basis)
        assert np.allclose(rom_nl.ebar, rom_lin.ebar, atol=1e-13)
        assert np.allclose(rom_nl.jac(np.zeros(4)), rom_lin.abar, atol=1e-13)
        assert np.allclose(rom_nl.bbar, rom_lin.bbar, atol=1e-13)
        assert np.allclose(rom_nl.cbar, rom_lin.cbar, atol=1e-13)
        xbar = rng.standard_normal(4)
        assert np.allclose(rom_nl.f(xbar), rom_lin.abar @ xbar, atol=1e-12)

    def test_linear_f_matches_stabilized_reduce(self, rng):
        lin = benchgen.gen_msd_chain(masses=5)
        a = lin.a.toarray() if hasattr(lin.a, "toarray") else np.asarray(lin.a)
        nl = NonlinearSystem(lin.e, lambda x: a @ x, lambda x: a,
                             b=lin.b, c=lin.c)
        stab = assemble_stabilizer(lin, mode="dense")
        basis = external_basis(random_orthonormal(rng, lin.n, 3))
        rom_nl = nonlinear_reduce(nl, basis, stab=stab)
        rom_lin = stabilized_reduce(lin, basis, stab=stab)
        assert np.allclose(rom_nl.ebar, rom_lin.ebar, atol=1e-12)
        assert np.allclose(rom_nl.jac(np.zeros(3)), rom_lin.abar, atol=1e-12)
        assert np.allclose(rom_nl.bbar, rom_lin.bbar, atol=1e-12)
        assert np.allclose(rom_nl.cbar, rom_lin.cbar, atol=1e-12)
        # both reductions take W and the reduced mass from the one kernel
        w, ebar = stab.test_basis(basis.v)
        assert np.array_equal(rom_nl.w, w)
        assert np.array_equal(rom_nl.ebar, ebar)
        # stabilized reduced mass is symmetric positive definite
        assert np.allclose(rom_nl.ebar, rom_nl.ebar.T)
        assert np.linalg.eigvalsh(rom_nl.ebar).min() > 0.0

    def test_crafted_cubic_counterexample(self):
        a = np.array([[-1.0, 4.0], [0.0, -1.0]])
        nl = cubic_damped(a, gamma=0.5)
        basis = external_basis(np.full((2, 1), 1.0 / np.sqrt(2.0)))
        conventional = nonlinear_reduce(nl, basis)
        # 1-by-1 reduced Jacobian: v^T A v = (-1 + 4 - 1)/2 = +1
        assert conventional.jac(np.zeros(1))[0, 0] == pytest.approx(1.0)
        from stabmor.dynsys import spectral_abscissa

        assert spectral_abscissa(conventional.jacobian_system()) > 0.0
        stab = assemble_stabilizer(linearize(nl), mode="dense")
        stabilized = nonlinear_reduce(nl, basis, stab=stab)
        assert spectral_abscissa(stabilized.jacobian_system()) < 0.0

    def test_crafted_cubic_trajectories(self):
        # the unstable reduced equilibrium is visible in time domain: the
        # conventional ROM leaves a small neighborhood, the stabilized
        # ROM contracts back to the origin
        a = np.array([[-1.0, 4.0], [0.0, -1.0]])
        nl = cubic_damped(a, gamma=0.5)
        basis = external_basis(np.full((2, 1), 1.0 / np.sqrt(2.0)))
        conventional = nonlinear_reduce(nl, basis)
        stab = assemble_stabilizer(linearize(nl), mode="dense")
        stabilized = nonlinear_reduce(nl, basis, stab=stab)
        x0 = np.array([0.01])
        t_conv = analysis.integrate_trapezoidal(conventional, None, x0,
                                                (0.0, 3.0), steps=600)
        t_stab = analysis.integrate_trapezoidal(stabilized, None, x0,
                                                (0.0, 3.0), steps=600)
        assert np.abs(t_conv.x_end) > 5.0 * np.abs(x0)
        assert np.abs(t_stab.x_end) < np.abs(x0)

    def test_reduced_equilibrium_at_origin_after_shift(self):
        nl = benchgen.gen_cubic_msd(masses=4, gamma=0.8)
        force = (nl.b @ np.array([0.6])).ravel()
        f2 = lambda x: np.asarray(nl.f(x), dtype=float) + force
        x_star = newton_equilibrium(f2, nl.jac, np.zeros(nl.n))
        forced = NonlinearSystem(nl.e, f2, nl.jac, x_star=x_star,
                                 b=nl.b, c=nl.c)
        rng = np.random.default_rng(5)
        basis = external_basis(random_orthonormal(rng, nl.n, 3))
        rom = nonlinear_reduce(forced, basis)
        assert np.linalg.norm(rom.f(np.zeros(3))) <= 1e-10
        assert np.allclose(rom.x_star, x_star)

    def test_singular_reduced_mass_rejected_at_construction(self):
        # V^T E V = diag(0, 1) for the indefinite E = diag(1, -1, 1)
        e = np.diag([1.0, -1.0, 1.0])
        nl = NonlinearSystem(e, lambda x: -e @ x, lambda x: -e)
        v = np.zeros((3, 2))
        v[:2, 0] = 1.0 / np.sqrt(2.0)
        v[2, 1] = 1.0
        basis = external_basis(v)
        with pytest.raises(SingularE):
            nonlinear_reduce(nl, basis)

    def test_tiny_reduced_mass_rejected_on_the_scale_of_e_v(self):
        # V^T E V = 0 up to rounding (-2.2e-17) for E = diag(1, -1): a pivot
        # test relative to the 1-by-1 matrix itself would accept it
        e = np.diag([1.0, -1.0])
        nl = NonlinearSystem(e, lambda x: -x, lambda x: -np.eye(2))
        basis = external_basis(np.full((2, 1), 1.0 / np.sqrt(2.0)))
        with pytest.raises(SingularReducedMass, match="at scale"):
            nonlinear_reduce(nl, basis)

    def test_reduction_evaluates_no_full_order_callback(self, rng):
        calls = []
        a = -np.eye(4) + np.diag(np.ones(3), 1)

        def f(x):
            calls.append("f")
            return a @ x

        def jac(x):
            calls.append("jac")
            return a.copy()

        nl = NonlinearSystem(np.eye(4), f, jac)
        calls.clear()
        stab = assemble_stabilizer(linearize(nl), mode="dense")
        calls.clear()
        basis = external_basis(random_orthonormal(rng, 4, 2))
        nonlinear_reduce(nl, basis)
        nonlinear_reduce(nl, basis, stab=stab)
        assert calls == []

    def test_basis_row_mismatch_rejected(self, rng):
        nl = benchgen.gen_cubic_msd(masses=3)
        with pytest.raises(ValueError):
            nonlinear_reduce(nl, external_basis(random_orthonormal(rng, 4, 2)))


def counting(sys, calls):
    """Wrap the instance attributes ``f`` and ``jac`` to count calls."""
    for name in ("f", "jac"):
        inner = getattr(sys, name)

        def wrapped(x, inner=inner, name=name):
            calls.append(name)
            return inner(x)
        setattr(sys, name, wrapped)
    return sys


def forced_cubic_chain(structured: bool):
    """Cubic chain (4 masses) under a constant force 0.6 on the first
    mass, with its displaced equilibrium, structured or opaque."""
    nl = benchgen.gen_cubic_msd(masses=4, gamma=0.8)
    s = nl.structure
    force = np.zeros(4)
    force[0] = 0.6
    f2 = lambda x: np.asarray(nl.f(x), dtype=float) + np.r_[np.zeros(4), force]
    x_star = newton_equilibrium(f2, nl.jac, np.zeros(nl.n))
    if structured:
        return NonlinearSystem.structured(
            nl.e, s.a, s.rows, s.cols, lambda q: s.g(q) + force, s.dg,
            x_star=x_star, b=nl.b, c=nl.c)
    return NonlinearSystem(nl.e, f2, nl.jac, x_star=x_star, b=nl.b, c=nl.c)


class TestStructure:
    def test_f_and_jac_are_the_dense_formula(self, rng):
        # f(x) = A x + P g(Q^T x) with scattered, unsorted selectors
        n = 7
        a = np.where(rng.random((n, n)) < 0.5, rng.standard_normal((n, n)),
                     0.0)
        rows, cols = np.array([5, 0, 3]), np.array([1, 1, 6])
        a[rows, cols] = 1.0  # stored slots for g'
        p, q = np.eye(n)[:, rows], np.eye(n)[:, cols]
        sys = NonlinearSystem.structured(np.eye(n), a, rows, cols, np.sin,
                                         np.cos)
        for _ in range(3):
            x = rng.standard_normal(n)
            want_f = a @ x + p @ np.sin(q.T @ x)
            want_j = a + p @ np.diag(np.cos(q.T @ x)) @ q.T
            assert np.allclose(sys.f(x), want_f, rtol=1e-14, atol=1e-14)
            assert np.allclose(sys.jac(x).toarray(), want_j, rtol=1e-14,
                               atol=1e-14)
            assert np.allclose(sys.jac(x).toarray(),
                               finite_difference_jacobian(sys.f, x),
                               atol=1e-7)

    def test_scattered_selectors_reduce_like_the_projection(self, rng):
        n, r = 8, 3
        a = -2.0 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
        rows, cols = np.array([6, 1, 4]), np.array([2, 2, 7])
        g = lambda z: -z ** 3
        dg = lambda z: -3.0 * z ** 2
        sys = NonlinearSystem.structured(np.eye(n), a, rows, cols, g, dg)
        opaque = NonlinearSystem(np.eye(n), sys.f, sys.jac)
        stab = assemble_stabilizer(linearize(sys), mode="dense")
        basis = external_basis(random_orthonormal(rng, n, r))
        for with_stab in (None, stab):
            rom = nonlinear_reduce(sys, basis, with_stab)
            ref = nonlinear_reduce(opaque, basis, with_stab)
            x = rng.standard_normal(r)
            assert np.allclose(rom.f(x), ref.f(x), rtol=1e-12, atol=1e-13)
            assert np.allclose(rom.jac(x), ref.jac(x), rtol=1e-12, atol=1e-13)

    def test_integer_a_becomes_float(self):
        sys = NonlinearSystem.structured(np.eye(3), -np.eye(3, dtype=int),
                                         [0], [0], np.sin, np.cos)
        assert sys.structure.a.dtype == np.float64
        x = np.full(3, 0.5)
        assert np.array_equal(sys.f(x), [np.sin(0.5) - 0.5, -0.5, -0.5])
        assert sys.jac(x).toarray()[0, 0] == np.cos(0.5) - 1.0

    def test_unstored_slot_rejected(self):
        a = sp.csr_matrix(-np.eye(3))
        with pytest.raises(ValueError, match=r"none at \(2, 0\)"):
            Structure(a, [0, 2], [0, 0], np.sin, np.cos)
        # an explicitly stored zero is a slot
        a = sp.csr_matrix((np.array([-1.0, 0.0, -1.0, -1.0]),
                           (np.array([0, 2, 1, 2]), np.array([0, 0, 1, 2]))),
                          shape=(3, 3))
        Structure(a, [0, 2], [0, 0], np.sin, np.cos)

    def test_invalid_selectors_rejected(self):
        a = -np.eye(3)
        for rows, cols in (([0, 0], [0, 1]), ([0, 3], [0, 1]),
                           ([0, 1], [0]), ([-1], [0])):
            with pytest.raises(ValueError):
                Structure(a, rows, cols, np.sin, np.cos)
        with pytest.raises(ValueError):
            Structure(np.ones((2, 3)), [0], [0], np.sin, np.cos)


class TestStructuredReduce:
    """Reduction through f(x) = A x + P g(Q^T x) against the projected
    callbacks of the same system (the cubic-chain benchmark setup)."""

    @pytest.fixture(scope="class")
    def setup(self):
        nl = benchgen.gen_cubic_msd(masses=30)
        opaque = NonlinearSystem(nl.e, nl.f, nl.jac, b=nl.b, c=nl.c)
        lin = linearize(nl)
        stab = assemble_stabilizer(lin, mode="dense")
        basis = projection.arnoldi_basis(lin, 20)
        return nl, opaque, stab, basis

    @staticmethod
    def reduce(system, basis, r, stab):
        return nonlinear_reduce(system, external_basis(basis.v[:, :r]), stab)

    def test_callbacks_match_the_projection(self, setup, rng):
        nl, opaque, stab, basis = setup
        for r in (5, 10, 15, 20):
            for with_stab in (None, stab):
                rom = self.reduce(nl, basis, r, with_stab)
                ref = self.reduce(opaque, basis, r, with_stab)
                assert np.array_equal(rom.jac(np.zeros(r)),
                                      ref.jac(np.zeros(r)))
                for _ in range(3):
                    x = rng.standard_normal(r)
                    assert np.abs(rom.f(x) - ref.f(x)).max() <= \
                        1e-12 * np.abs(ref.f(x)).max()
                    assert np.abs(rom.jac(x) - ref.jac(x)).max() <= \
                        1e-12 * np.abs(ref.jac(x)).max()

    def test_trapezoid_outputs_match_the_projection(self, setup):
        nl, opaque, stab, basis = setup
        u = analysis.make_input("sine", period=4.0)
        for r in (5, 10, 15, 20):
            runs = [analysis.integrate_trapezoidal(
                self.reduce(sys, basis, r, stab), u, np.zeros(r),
                (0.0, 10.0), steps=400) for sys in (nl, opaque)]
            assert runs[0].stats == runs[1].stats
            assert np.abs(runs[0].y - runs[1].y).max() <= \
                1e-10 * np.abs(runs[1].y).max()

    def test_reduced_simulation_calls_no_full_order_callback(self, setup):
        _, _, stab, basis = setup
        calls = []
        nl = counting(benchgen.gen_cubic_msd(masses=30), calls)
        rom = self.reduce(nl, basis, 10, stab)
        u = analysis.make_input("sine", period=4.0)
        traj = analysis.integrate_trapezoidal(rom, u, np.zeros(10),
                                              (0.0, 10.0), steps=400)
        assert traj.stats["stage_count"] > 400
        analysis.integrate_adaptive(rom, u, np.zeros(10), (0.0, 1.0))
        assert calls == []
        # the counters do see full-order calls
        analysis.integrate_trapezoidal(nl, u, np.zeros(60), (0.0, 0.1),
                                       steps=2)
        assert "f" in calls and "jac" in calls

    def test_each_call_returns_a_new_array(self, setup, rng):
        nl, _, stab, basis = setup
        rom = self.reduce(nl, basis, 5, stab)
        x = rng.standard_normal(5)
        want_j, want_f = rom.jac(x).copy(), rom.f(x).copy()
        first, second = rom.jac(x), rom.jac(x)
        assert not np.shares_memory(first, second)
        first[:] = 7.0
        assert np.array_equal(rom.jac(x), want_j)
        f1 = rom.f(x)
        f1[:] = 7.0
        assert np.array_equal(rom.f(x), want_f)

    def test_nonzero_equilibrium_falls_back_to_callbacks(self):
        forced = forced_cubic_chain(structured=True)
        opaque = forced_cubic_chain(structured=False)
        assert np.abs(forced.x_star).max() > 1e-3
        assert shift_to_origin(forced).structure is None
        stab = assemble_stabilizer(linearize(forced), mode="dense")
        basis = external_basis(
            random_orthonormal(np.random.default_rng(5), forced.n, 3))
        calls = []
        rom = nonlinear_reduce(counting(forced, calls), basis, stab)
        ref = nonlinear_reduce(opaque, basis, stab)
        calls.clear()  # the shifted system checks its equilibrium once
        assert np.linalg.norm(rom.f(np.zeros(3))) <= 1e-10
        assert calls == ["f"]  # the projected callback, not the structure
        assert np.allclose(rom.jac(np.zeros(3)), ref.jac(np.zeros(3)),
                           rtol=1e-12, atol=1e-12)
        x = 0.1 * np.ones(3)
        assert np.allclose(rom.f(x), ref.f(x), rtol=1e-12, atol=1e-12)
        assert np.array_equal(rom.x_star, forced.x_star)


class TestStabilizedSweep:
    def test_random_bases_keep_equilibrium_stable(self):
        from stabmor.dynsys import spectral_abscissa

        nl = benchgen.gen_cubic_msd(masses=10, gamma=0.5)
        stab = assemble_stabilizer(linearize(nl), mode="dense")
        gen = np.random.default_rng(17)
        for trial in range(20):
            r = int(gen.integers(1, 7))
            basis = external_basis(random_orthonormal(gen, nl.n, r))
            rom = nonlinear_reduce(nl, basis, stab=stab)
            alpha = spectral_abscissa(rom.jacobian_system())
            assert alpha < 0.0, f"trial {trial}: alpha = {alpha:.3e}"

    def test_stabilized_trajectory_decays(self):
        nl = benchgen.gen_cubic_msd(masses=10, gamma=0.5)
        stab = assemble_stabilizer(linearize(nl), mode="dense")
        gen = np.random.default_rng(3)
        basis = external_basis(random_orthonormal(gen, nl.n, 4))
        rom = nonlinear_reduce(nl, basis, stab=stab)
        x0 = 0.1 * gen.standard_normal(4)
        traj = analysis.integrate_adaptive(rom, None, x0, (0.0, 80.0))
        assert np.linalg.norm(traj.x_end) < 1e-2 * np.linalg.norm(x0)


class TestTrajectoryConsistency:
    def test_vanishing_cubic_matches_linear_rom(self, rng):
        nl = benchgen.gen_cubic_msd(masses=4, gamma=0.0)
        lin = benchgen.gen_msd_chain(masses=4)
        basis = external_basis(random_orthonormal(rng, 8, 3))
        rom_nl = nonlinear_reduce(nl, basis)
        rom_lin = galerkin_reduce(lin, basis)
        u = analysis.make_input("sine", period=5.0)
        x0 = np.zeros(3)
        t_nl = analysis.integrate_trapezoidal(rom_nl, u, x0, (0.0, 10.0),
                                              steps=500)
        t_lin = analysis.integrate_trapezoidal(rom_lin, u, x0, (0.0, 10.0),
                                               steps=500)
        assert np.abs(t_nl.y - t_lin.y).max() <= 1e-8

    def test_adaptive_integrator_accepts_nonlinear_rom(self, rng):
        nl = benchgen.gen_cubic_msd(masses=4, gamma=0.4)
        basis = external_basis(random_orthonormal(rng, 8, 3))
        rom = nonlinear_reduce(nl, basis)
        u = analysis.make_input("step")
        traj = analysis.integrate_adaptive(rom, u, np.zeros(3), (0.0, 5.0))
        ref = analysis.integrate_trapezoidal(rom, u, np.zeros(3), (0.0, 5.0),
                                             steps=4000)
        assert np.abs(traj.y[-1] - ref.y[-1]).max() <= 1e-4


@settings(max_examples=25, deadline=None)
@given(masses=st.integers(min_value=1, max_value=6),
       gamma=st.floats(min_value=0.0, max_value=3.0))
def test_cubic_chain_jacobian_at_origin_is_the_linear_matrix(masses, gamma):
    nl = benchgen.gen_cubic_msd(masses=masses, gamma=gamma)
    lin = benchgen.gen_msd_chain(masses=masses)
    assert np.allclose(nl.jac(np.zeros(nl.n)).toarray(),
                       lin.a.toarray(), atol=0.0)
    assert np.linalg.norm(nl.f(np.zeros(nl.n))) == 0.0
