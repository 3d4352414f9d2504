"""Galerkin projection bases and reduced-system assembly."""
from __future__ import annotations

import numpy as np
import pytest

from stabmor.analysis import integrate_adaptive, make_input
from stabmor.benchgen import gen_convection_diffusion
from stabmor.dynsys import LinearSystem, spectral_abscissa
from stabmor.errors import RankDeficient, SingularReducedMass
from stabmor.projection import (
    ProjectionBasis,
    arnoldi_basis,
    external_basis,
    galerkin_reduce,
    load_basis,
    pod_basis,
    residual,
    save_basis,
)
from tests.conftest import random_orthonormal, random_stable_system


def crafted_unstable_case():
    a = np.array([[-1.0, 4.0], [0.0, -1.0]])
    sys = LinearSystem(np.eye(2), a, np.ones((2, 1)), np.ones((1, 2)))
    v = np.full((2, 1), 1.0 / np.sqrt(2.0))
    return sys, external_basis(v)


class TestProjectionBasis:
    def test_orthonormality_enforced(self, rng):
        with pytest.raises(ValueError):
            ProjectionBasis(v=rng.standard_normal((10, 3)), method="external")

    def test_properties(self, rng):
        v = random_orthonormal(rng, 10, 3)
        basis = external_basis(v)
        assert basis.n == 10 and basis.r == 3 and not basis.deflated


class TestGalerkinReduce:
    def test_full_basis_is_identity_projection(self, rng):
        sys = random_stable_system(rng, 6, identity_mass=False)
        red = galerkin_reduce(sys, external_basis(np.eye(6)))
        assert np.allclose(red.ebar, np.asarray(sys.e))
        assert np.allclose(red.abar, np.asarray(sys.a))
        assert np.allclose(red.bbar, sys.b)
        assert np.allclose(red.cbar, sys.c)

    def test_crafted_two_by_two_goes_unstable(self):
        sys, basis = crafted_unstable_case()
        red = galerkin_reduce(sys, basis)
        assert np.isclose(red.abar[0, 0], 1.0)
        assert spectral_abscissa(red.to_system()) > 0
        # while the first coordinate direction stays stable
        stable = galerkin_reduce(sys, external_basis(np.eye(2)[:, :1]))
        assert np.isclose(stable.abar[0, 0], -1.0)

    def test_matches_dense_products(self, rng):
        sys = random_stable_system(rng, 30, n_in=2, n_out=2,
                                   identity_mass=False)
        v = random_orthonormal(rng, 30, 4)
        w = rng.standard_normal((30, 4))
        red = galerkin_reduce(sys, external_basis(v), w=w)
        e, a = np.asarray(sys.e), np.asarray(sys.a)
        assert np.allclose(red.ebar, w.T @ e @ v, atol=1e-12)
        assert np.allclose(red.abar, w.T @ a @ v, atol=1e-12)
        assert np.allclose(red.bbar, w.T @ sys.b, atol=1e-12)
        assert np.allclose(red.cbar, sys.c @ v, atol=1e-12)

    def test_singular_reduced_mass(self):
        e = np.diag([1.0, -1.0])
        sys = LinearSystem(e, -np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
        v = np.full((2, 1), 1.0 / np.sqrt(2.0))  # v^T E v = 0
        with pytest.raises(SingularReducedMass):
            galerkin_reduce(sys, external_basis(v))


class TestArnoldi:
    def test_first_vector_definition(self, rng):
        sys = random_stable_system(rng, 20, identity_mass=False)
        basis = arnoldi_basis(sys, 1, s0=1.0)
        e, a = np.asarray(sys.e), np.asarray(sys.a)
        start = np.linalg.solve(1.0 * e - a, sys.b)[:, 0]
        expected = start / np.linalg.norm(start)
        assert (np.allclose(basis.v[:, 0], expected, atol=1e-10)
                or np.allclose(basis.v[:, 0], -expected, atol=1e-10))

    def test_moment_matching_at_expansion_point(self, rng):
        sys = random_stable_system(rng, 50)
        h_full = sys.transfer().eval(1.0)
        for r in (1, 3, 6):
            red = galerkin_reduce(sys, arnoldi_basis(sys, r, s0=1.0))
            h_red = red.to_system().transfer().eval(1.0)
            assert np.allclose(h_red, h_full,
                               rtol=1e-8), f"moment mismatch at r={r}"

    def test_nesting(self, rng):
        sys = random_stable_system(rng, 40, identity_mass=False)
        small = arnoldi_basis(sys, 3)
        large = arnoldi_basis(sys, 8)
        overlap = np.abs(np.sum(small.v * large.v[:, :3], axis=0))
        assert np.allclose(overlap, 1.0, atol=1e-8)

    def test_full_order_reproduces_transfer(self, rng):
        sys = random_stable_system(rng, 8)
        basis = arnoldi_basis(sys, 8)
        red = galerkin_reduce(sys, basis)
        tf_full, tf_red = sys.transfer(), red.to_system().transfer()
        for omega in np.geomspace(0.01, 100, 20):
            hf = tf_full.eval(1j * omega)
            hr = tf_red.eval(1j * omega)
            assert np.linalg.norm(hf - hr) <= 1e-8 * max(np.linalg.norm(hf), 1e-12)

    def test_breakdown_deflates(self):
        # B spans an invariant subspace of the shifted-inverse operator
        a = np.diag([-1.0, -2.0, -3.0])
        sys = LinearSystem(np.eye(3), a, np.eye(3)[:, :1], np.ones((1, 3)))
        basis = arnoldi_basis(sys, 3)
        assert basis.deflated
        assert basis.r == 1

    def test_block_krylov_multi_input(self, rng):
        sys = random_stable_system(rng, 25, n_in=3)
        basis = arnoldi_basis(sys, 7)
        assert basis.r == 7
        assert np.linalg.norm(basis.v.T @ basis.v - np.eye(7), 2) <= 1e-10


class TestPOD:
    def test_single_snapshot(self, rng):
        x = rng.standard_normal((15, 1))
        basis = pod_basis(x, 1)
        expected = x[:, 0] / np.linalg.norm(x)
        assert (np.allclose(basis.v[:, 0], expected)
                or np.allclose(basis.v[:, 0], -expected))

    def test_axis_aligned(self):
        snaps = np.array([[3.0, 0.0], [0.0, 1.0]])
        basis = pod_basis(snaps, 1)
        assert np.allclose(np.abs(basis.v[:, 0]), [1.0, 0.0])

    def test_rank_five_exact_projection(self, rng):
        u = random_orthonormal(rng, 60, 5)
        x = u @ rng.standard_normal((5, 30))
        basis = pod_basis(x, 5)
        err = np.linalg.norm(x - basis.v @ (basis.v.T @ x))
        assert err <= 1e-10 * np.linalg.norm(x)
        assert "singular_values" in basis.details

    def test_rank_deficient_raises(self, rng):
        col = rng.standard_normal((20, 1))
        with pytest.raises(RankDeficient):
            pod_basis(np.hstack([col, 2 * col, -col]), 2)

    def test_equal_tall_snapshots_are_rank_one(self):
        col = np.random.default_rng(1234).standard_normal((20, 1))
        with pytest.raises(RankDeficient):
            pod_basis(np.hstack([col] * 4), 2)

    def test_harvest_with_fewer_snapshots_than_r_rejected(self):
        sys = gen_convection_diffusion(n=100)
        traj = integrate_adaptive(sys, make_input("step"), np.zeros(100),
                                  (0.0, 1.0), harvest_snapshots=True,
                                  fixed_steps=1)
        assert traj.snapshots.shape == (100, 7)
        with pytest.raises(ValueError):
            pod_basis(traj.snapshots, 8)

    def test_rank_deficient_harvest_raises(self):
        # decoupled modes with only the first excited: rank-one snapshots
        sys = LinearSystem(np.eye(3), -np.diag([1.0, 2.0, 3.0]),
                           np.ones((3, 1)), np.ones((1, 3)))
        traj = integrate_adaptive(sys, make_input("zero"),
                                  np.array([1.0, 0.0, 0.0]), (0.0, 1.0),
                                  harvest_snapshots=True)
        assert pod_basis(traj.snapshots, 1).r == 1
        with pytest.raises(RankDeficient):
            pod_basis(traj.snapshots, 2)


class TestResidual:
    def test_zero_state_zero_input(self, rng):
        sys = random_stable_system(rng, 10)
        v = random_orthonormal(rng, 10, 3)
        s = residual(sys, external_basis(v), np.zeros(3), np.zeros(3), 0.0)
        assert np.all(s == 0)

    def test_galerkin_orthogonality(self, rng):
        # xbar' from the ROM equation makes V^T s vanish identically
        sys = random_stable_system(rng, 30, identity_mass=False)
        v = random_orthonormal(rng, 30, 5)
        basis = external_basis(v)
        red = galerkin_reduce(sys, basis)
        u_val = 0.7
        xbar = rng.standard_normal(5)
        rhs = red.abar @ xbar + red.bbar[:, 0] * u_val
        xbar_dot = np.linalg.solve(red.ebar, rhs)
        s = residual(sys, basis, xbar, xbar_dot, u_val)
        assert np.linalg.norm(v.T @ s) <= 1e-8 * np.linalg.norm(s) + 1e-12

    def test_full_basis_residual_vanishes_on_fom_dynamics(self, rng):
        sys = random_stable_system(rng, 8)
        x = rng.standard_normal(8)
        u_val = -0.3
        xdot = np.linalg.solve(np.asarray(sys.e),
                               np.asarray(sys.a) @ x + sys.b[:, 0] * u_val)
        s = residual(sys, external_basis(np.eye(8)), x, xdot, u_val)
        assert np.linalg.norm(s) <= 1e-10 * max(1.0, np.linalg.norm(x))


class TestPersistence:
    def test_roundtrip(self, tmp_path, rng):
        sys = random_stable_system(rng, 12)
        basis = arnoldi_basis(sys, 4, s0=2.0)
        save_basis(basis, tmp_path / "basis")
        back = load_basis(tmp_path / "basis")
        assert np.array_equal(back.v, basis.v)
        assert back.method == "arnoldi"
        assert back.details["s0"] == 2.0
        assert back.deflated == basis.deflated
