"""Benchmark generators: stability, prescribed spectra, determinism."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmor import benchgen
from stabmor.dynsys import (
    is_asymptotically_stable,
    save_system,
    spectral_abscissa,
    symmetric_part_spectrum,
)
from stabmor.errors import ResampleExhausted
from stabmor.nonlinear import finite_difference_jacobian
from tests.conftest import (
    cubic_msd_block_jacobian,
    cubic_msd_closures,
    reference_similarity_scale,
)

# every (n, kappa, seed) with kappa > 1 that the tests, the README
# quickstart (200, 50, 0) and the nonnormal benchmark (300, 50, 0..3) draw
SIMILARITY_CASES = sorted(
    {(200, 50.0, 0), (60, 20.0, 3), (100, 50.0, 0), (200, 200.0, 0),
     (30, 10.0, 7), (30, 50.0, 0), (30, 50.0, 1), (120, 50.0, 2),
     (200, 50.0, 3), (60, 30.0, 1), (50, 30.0, 2), (80, 40.0, 4),
     (120, 20.0, 2), (200, 10.0, 3)}
    | {(20 + 3 * seed, 30.0, seed) for seed in range(8)}
    | {(80, 100.0, seed) for seed in range(20)}
    | {(300, 50.0, seed) for seed in range(4)})


class TestMsdChain:
    def test_single_mass_oracle(self):
        # m lambda^2 + d lambda + k = 0 with unit coefficients:
        # lambda = (-1 +- i sqrt(3))/2
        sys = benchgen.gen_msd_chain(masses=1)
        eigs = np.linalg.eigvals(np.linalg.solve(sys.e.toarray(),
                                                 sys.a.toarray()))
        expected = np.array([-0.5 + 0.5j * np.sqrt(3.0),
                             -0.5 - 0.5j * np.sqrt(3.0)])
        assert np.allclose(np.sort_complex(eigs), np.sort_complex(expected))
        assert spectral_abscissa(sys) == pytest.approx(-0.5, abs=1e-12)

    def test_four_masses_give_eight_states(self):
        sys = benchgen.gen_msd_chain(masses=4)
        assert sys.n == 8
        assert sys.n_in == 1 and sys.n_out == 1

    def test_structure_of_first_order_form(self):
        sys = benchgen.gen_msd_chain(masses=3, mass=2.0)
        e = sys.e.toarray()
        a = sys.a.toarray()
        assert np.allclose(e[:3, :3], np.eye(3))
        assert np.allclose(e[3:, 3:], 2.0 * np.eye(3))
        assert np.allclose(a[:3, :3], 0.0)
        assert np.allclose(a[:3, 3:], np.eye(3))

    def test_io_node_selection(self):
        sys = benchgen.gen_msd_chain(masses=4, input_node=2, output_node=1)
        b = sys.b.toarray() if hasattr(sys.b, "toarray") else np.asarray(sys.b)
        c = sys.c.toarray() if hasattr(sys.c, "toarray") else np.asarray(sys.c)
        assert b.ravel()[4 + 2] == 1.0 and np.count_nonzero(b) == 1
        assert c.ravel()[1] == 1.0 and np.count_nonzero(c) == 1

    def test_node_validation(self):
        with pytest.raises(ValueError):
            benchgen.gen_msd_chain(masses=3, input_node=5)
        with pytest.raises(ValueError):
            benchgen.gen_msd_chain(masses=0)
        with pytest.raises(ValueError):
            benchgen.gen_msd_chain(masses=3, damping=0.0)

    @settings(max_examples=40, deadline=None)
    @given(masses=st.integers(min_value=1, max_value=8),
           mass=st.floats(min_value=0.05, max_value=10.0),
           stiffness=st.floats(min_value=0.05, max_value=10.0),
           damping=st.floats(min_value=0.05, max_value=10.0))
    def test_positive_parameters_are_stable(self, masses, mass, stiffness,
                                            damping):
        sys = benchgen.gen_msd_chain(masses=masses, mass=mass,
                                     stiffness=stiffness, damping=damping)
        assert is_asymptotically_stable(sys)


class TestNonNormal:
    def test_kappa_one_is_normal_and_dissipative(self):
        sys = benchgen.gen_nonnormal_stable(n=40, kappa=1.0,
                                            require_nonnormal=False)
        a = np.asarray(sys.a)
        assert np.allclose(a, np.diag(np.diag(a)))
        assert symmetric_part_spectrum(sys, 1).k == 0

    def test_high_kappa_large_n_is_nondissipative(self):
        sys = benchgen.gen_nonnormal_stable(n=200, kappa=50.0)
        frag = symmetric_part_spectrum(sys, 8)
        assert frag.k >= 1
        assert frag.mu_max > 0.0

    def test_spectrum_is_prescribed_exactly(self):
        sys = benchgen.gen_nonnormal_stable(n=60, kappa=20.0, lam_min=0.5,
                                            lam_max=4.0, seed=3)
        a = np.asarray(sys.a)
        # triangular by construction, so the diagonal is the spectrum
        assert np.allclose(np.tril(a, -1), 0.0)
        eigs = np.sort(np.linalg.eigvals(a).real)
        assert np.allclose(np.sort(np.linalg.eigvals(a).imag), 0.0)
        assert np.allclose(eigs, np.sort(np.diag(a)), atol=1e-8)
        assert np.all(np.diag(a) <= -0.5) and np.all(np.diag(a) >= -4.0)

    def test_norm_stays_bounded_by_conditioning(self):
        # the point of the kappa parameterization: no norm blowups
        for n, kappa in ((100, 50.0), (300, 50.0), (200, 200.0)):
            sys = benchgen.gen_nonnormal_stable(n=n, kappa=kappa,
                                                lam_max=10.0)
            assert np.linalg.norm(np.asarray(sys.a), 2) <= kappa * 10.0 + 1.0

    def test_resample_exhausted_when_dissipative_demanded(self):
        with pytest.raises(ResampleExhausted):
            benchgen.gen_nonnormal_stable(n=30, kappa=1.0, max_resample=3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            benchgen.gen_nonnormal_stable(n=10, kappa=0.5)
        with pytest.raises(ValueError):
            benchgen.gen_nonnormal_stable(n=10, lam_min=-1.0)
        with pytest.raises(ValueError):
            benchgen.gen_nonnormal_stable(n=10, density=1.5)
        with pytest.raises(ValueError):
            benchgen.gen_nonnormal_stable(n=20, kappa=np.inf)
        with pytest.raises(ValueError):
            benchgen.gen_nonnormal_stable(n=20, kappa=np.nan)

    @pytest.mark.parametrize("n, kappa, seed", SIMILARITY_CASES)
    def test_similarity_scale_matches_bisection(self, monkeypatch, n, kappa,
                                                seed):
        draws = []
        scale = benchgen._similarity_scale

        def recorded(s, kappa):
            c = scale(s, kappa)
            draws.append((s, kappa, c))
            return c

        monkeypatch.setattr(benchgen, "_similarity_scale", recorded)
        benchgen.gen_nonnormal_stable(n=n, kappa=kappa, seed=seed)
        assert draws
        for s, kap, c in draws:
            c_ref = reference_similarity_scale(s, kap)
            assert abs(c - c_ref) <= 1e-13 * c_ref
            cond = np.linalg.cond(np.eye(n) + c * s)
            assert abs(cond - kap) <= 1e-12 * kap

    def test_kappa_within_rounding_of_one(self):
        # cond_2 cannot resolve kappa from 1 here, so the bracket's lower
        # end already reads kappa: T is I to rounding, not an error
        sys = benchgen.gen_nonnormal_stable(n=20, kappa=1.0 + 2.0 ** -52,
                                            require_nonnormal=False)
        a = np.asarray(sys.a)
        assert np.abs(np.triu(a, 1)).max() <= 1e-12

    def test_few_svds_at_n_300(self, monkeypatch):
        # each np.linalg.cond and each spectral norm is a full SVD; a
        # 60-step bisection on cond took 65 of them
        calls = []
        cond, norm = np.linalg.cond, np.linalg.norm

        def counted_cond(x, p=None):
            calls.append("cond")
            return cond(x, p)

        def counted_norm(x, ord=None, axis=None, keepdims=False):
            if ord == 2:
                calls.append("norm")
            return norm(x, ord, axis, keepdims)

        monkeypatch.setattr(np.linalg, "cond", counted_cond)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        benchgen.gen_nonnormal_stable(n=300, kappa=50.0, seed=0)
        assert 0 < len(calls) <= 16

    def test_same_seed_bit_identical_bundles(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        save_system(benchgen.gen_nonnormal_stable(n=30, kappa=10.0, seed=7),
                    d1)
        save_system(benchgen.gen_nonnormal_stable(n=30, kappa=10.0, seed=7),
                    d2)
        for name in ("E.mtx", "A.mtx", "B.mtx", "C.mtx", "manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_different_seeds_differ(self):
        a1 = np.asarray(benchgen.gen_nonnormal_stable(n=30, seed=0).a)
        a2 = np.asarray(benchgen.gen_nonnormal_stable(n=30, seed=1).a)
        assert not np.allclose(a1, a2)


class TestConvectionDiffusion:
    def test_pure_diffusion_uniform_mesh_is_dissipative(self):
        sys = benchgen.gen_convection_diffusion(n=80, velocity=0.0,
                                                grade=1.0)
        a = sys.a.toarray()
        assert np.allclose(a, a.T)
        assert np.linalg.eigvalsh(a).max() < 0.0
        assert symmetric_part_spectrum(sys, 1).k == 0

    def test_defaults_are_stable_but_not_dissipative(self):
        sys = benchgen.gen_convection_diffusion(n=400)
        assert spectral_abscissa(sys) < 0.0
        frag = symmetric_part_spectrum(sys, 4)
        assert frag.k >= 1
        assert frag.k <= 4  # k << n

    def test_mass_matrix_is_positive_diagonal_of_cell_widths(self):
        sys = benchgen.gen_convection_diffusion(n=60)
        e = sys.e.toarray()
        widths = np.diag(e)
        assert np.allclose(e, np.diag(widths))
        assert np.all(widths > 0.0)
        assert np.sum(widths) == pytest.approx(1.0)

    def test_abscissa_refines_under_mesh_refinement(self):
        # resolvable diffusion: the Cauchy differences of alpha shrink
        alphas = [spectral_abscissa(
            benchgen.gen_convection_diffusion(n=n, diffusion=0.05))
            for n in (100, 200, 400)]
        d1 = abs(alphas[1] - alphas[0])
        d2 = abs(alphas[2] - alphas[1])
        assert d2 < d1

    def test_callable_velocity_profile(self):
        sys = benchgen.gen_convection_diffusion(n=50,
                                                velocity=lambda x: 1.0 + x)
        assert is_asymptotically_stable(sys)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            benchgen.gen_convection_diffusion(n=2)
        with pytest.raises(ValueError):
            benchgen.gen_convection_diffusion(n=50, diffusion=0.0)
        with pytest.raises(ValueError):
            benchgen.gen_convection_diffusion(n=50, grade=0.5)


class TestCubicMsd:
    def test_zero_gamma_recovers_the_linear_chain(self, rng):
        nl = benchgen.gen_cubic_msd(masses=4, gamma=0.0)
        lin = benchgen.gen_msd_chain(masses=4)
        for _ in range(3):
            x = rng.standard_normal(8)
            assert np.allclose(nl.f(x), lin.a @ x, atol=0.0)

    def test_jacobian_at_origin_is_the_linear_matrix(self):
        nl = benchgen.gen_cubic_msd(masses=5, gamma=2.0)
        lin = benchgen.gen_msd_chain(masses=5)
        assert np.array_equal(nl.jac(np.zeros(10)).toarray(),
                              lin.a.toarray())

    def test_finite_difference_jacobian_at_random_points(self, rng):
        nl = benchgen.gen_cubic_msd(masses=4, gamma=0.9)
        x = rng.standard_normal(8)
        fd = finite_difference_jacobian(nl.f, x)
        j = nl.jac(x).toarray()
        assert np.linalg.norm(fd - j) <= 1e-6 * max(1.0, np.linalg.norm(j))

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            benchgen.gen_cubic_msd(masses=3, gamma=-0.1)

    def test_jacobian_equals_the_block_assembly(self, rng):
        nl = benchgen.gen_cubic_msd(masses=30)
        ref = cubic_msd_block_jacobian(30)
        for scale in (0.1, 1.0, 3.0):
            x = scale * rng.standard_normal(60)
            j = nl.jac(x)
            assert j.format == "csr"
            assert np.array_equal(j.toarray(), ref(x).toarray())
            fd = finite_difference_jacobian(nl.f, x)
            assert np.linalg.norm(fd - j.toarray()) <= \
                1e-6 * max(1.0, np.linalg.norm(j.toarray()))

    def test_jacobian_calls_return_independent_matrices(self, rng):
        nl = benchgen.gen_cubic_msd(masses=30)
        x, y = rng.standard_normal(60), rng.standard_normal(60)
        want_j, want_f = nl.jac(x).toarray(), nl.f(y)
        first, second = nl.jac(x), nl.jac(x)
        for name in ("data", "indices", "indptr"):
            assert not np.shares_memory(getattr(first, name),
                                        getattr(second, name))
        first.data[:] = 7.0
        first.indices[:] = 0
        first.indptr[:] = 0
        second.data *= -1.0
        assert np.array_equal(nl.jac(x).toarray(), want_j)
        assert np.array_equal(nl.f(y), want_f)


    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.7])
    def test_structured_f_and_jac_are_the_closures_bitwise(self, rng, gamma):
        nl = benchgen.gen_cubic_msd(masses=30, gamma=gamma)
        f, jac = cubic_msd_closures(30, gamma)
        for scale in 10.0 ** np.arange(-8, 9):
            x = scale * rng.standard_normal(60)
            assert np.array_equal(nl.f(x), f(x))
            j, want = nl.jac(x), jac(x)
            assert j.format == "csr"
            assert np.array_equal(j.indptr, want.indptr)
            assert np.array_equal(j.indices, want.indices)
            assert np.array_equal(j.data, want.data)

    def test_declares_its_structure(self):
        nl = benchgen.gen_cubic_msd(masses=4, gamma=0.5)
        s = nl.structure
        assert np.array_equal(s.rows, np.arange(4, 8))
        assert np.array_equal(s.cols, np.arange(4))
        assert np.array_equal(s.a.toarray(),
                              benchgen.gen_msd_chain(masses=4).a.toarray())
        q = np.array([-2.0, -0.5, 0.0, 3.0])
        assert np.array_equal(s.g(q), -0.5 * q ** 3)
        assert np.array_equal(s.dg(q), -1.5 * q ** 2)
        # f and jac are the structure's, as plain instance attributes
        assert nl.f == s.f and nl.jac == s.jac
        assert "f" in vars(nl) and "jac" in vars(nl)


class TestGlobalInvariants:
    def test_every_generator_output_is_stable(self):
        cases = [
            benchgen.gen_msd_chain(masses=12, damping=0.2),
            benchgen.gen_nonnormal_stable(n=120, kappa=50.0, seed=2),
            benchgen.gen_convection_diffusion(n=300),
        ]
        for sys in cases:
            assert is_asymptotically_stable(sys)
