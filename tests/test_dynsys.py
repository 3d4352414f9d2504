"""Linear system representation, stability reports, transfer functions."""
from __future__ import annotations

import json
import subprocess
import sys as sys_module
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmor import benchgen
from stabmor.config import DEFAULT
from stabmor.linalg import as_dense
from stabmor.errors import ConvergenceFailure, DenseCapExceeded, PoleHit, SingularE
from stabmor.dynsys import (
    LinearSystem,
    TransferFunction,
    is_asymptotically_stable,
    is_dissipative,
    load_system,
    save_system,
    spectral_abscissa,
    stability_report,
    symmetric_part_spectrum,
)
from tests.conftest import random_spd, random_stable_system


def scalar_system() -> LinearSystem:
    return LinearSystem(np.eye(1), -np.eye(1), np.eye(1), np.eye(1))


class TestConstruction:
    def test_singular_e_rejected(self):
        e = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularE):
            LinearSystem(e, -np.eye(2), np.ones((2, 1)), np.ones((1, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearSystem(np.eye(2), -np.eye(3), np.ones((2, 1)), np.ones((1, 2)))

    def test_descriptor_flag(self, rng):
        identity = LinearSystem(np.eye(3), -np.eye(3), np.ones((3, 1)),
                                np.ones((1, 3)))
        assert not identity.descriptor
        weighted = LinearSystem(np.diag([1.0, 2.0, 1.0]), -np.eye(3),
                                np.ones((3, 1)), np.ones((1, 3)))
        assert weighted.descriptor
        sparse_identity = LinearSystem(sp.identity(3, format="csr"),
                                       -sp.identity(3, format="csr"),
                                       np.ones((3, 1)), np.ones((1, 3)))
        assert not sparse_identity.descriptor

    def test_operator_helpers(self, rng):
        sys = random_stable_system(rng, 12, identity_mass=False)
        v = rng.standard_normal(12)
        e = np.asarray(sys.e)
        a = np.asarray(sys.a)
        assert np.allclose(sys.apply_a(v), a @ v)
        assert np.allclose(sys.apply_at(v), a.T @ v)
        assert np.allclose(sys.solve_e(v), np.linalg.solve(e, v), atol=1e-10)
        assert np.allclose(sys.solve_et(v), np.linalg.solve(e.T, v), atol=1e-10)
        g = np.linalg.solve(e, a)
        g = g + g.T
        assert np.allclose(sys.sym_part_matvec(v), g @ v, atol=1e-9)


class TestDiagonalMassSolve:
    """A sparse diagonal E is divided out, bitwise as the LU solve."""

    def system(self, e):
        n = e.shape[0]
        return LinearSystem(e, -sp.identity(n, format="csr"),
                            np.ones((n, 1)), np.ones((1, n)))

    def test_bitwise_equal_to_lu_solve(self, rng):
        n = 200
        sys = self.system(sp.diags(10.0 ** rng.uniform(-6, 6, n),
                                   format="csr"))
        assert sys._e_diagonal is not None
        # right-hand sides spanning 16 decades, 1-D and 2-D
        for x in (rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n),
                  rng.standard_normal((n, 5))
                  * 10.0 ** rng.uniform(-8, 8, (n, 5))):
            np.testing.assert_array_equal(sys.solve_e(x), sys.e_lu.solve(x))
            np.testing.assert_array_equal(sys.solve_et(x),
                                          sys.e_lu.solve(x, trans=True))

    def test_other_formats_and_complex_input(self, rng):
        d = rng.uniform(0.5, 2.0, 6)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        for e in (sp.diags(d, format="dia"), sp.diags(d, format="csc"),
                  sp.coo_matrix(np.diag(d))):
            sys = self.system(e)
            assert sys._e_diagonal is not None
            np.testing.assert_array_equal(sys.solve_e(x.real), x.real / d)
            # complex right-hand sides keep the LU path
            np.testing.assert_array_equal(sys.solve_e(x), sys.e_lu.solve(x))

    def test_non_diagonal_and_dense_mass_use_lu(self, rng):
        tridiagonal = sp.diags([0.1, 1.0, 0.1], [-1, 0, 1], shape=(6, 6),
                               format="csr")
        # the identity with an explicit zero stored at (0, 1)
        stored_zero = sp.csr_matrix(
            ([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0], [0, 1, 1, 2, 3, 4, 5],
             [0, 2, 3, 4, 5, 6, 7]), shape=(6, 6))
        v = rng.standard_normal(6)
        for e in (tridiagonal, stored_zero, np.diag(rng.uniform(1, 2, 6))):
            sys = self.system(e)
            assert sys._e_diagonal is None
            np.testing.assert_allclose(sys.solve_e(v),
                                       np.linalg.solve(as_dense(e), v),
                                       rtol=1e-14)

    def test_wrong_length_still_raises(self):
        sys = self.system(sp.diags(np.arange(1.0, 5.0), format="csr"))
        with pytest.raises(ValueError):
            sys.solve_e(np.ones(1))


class TestSpectralAbscissa:
    def test_diagonal(self):
        sys = LinearSystem(np.eye(2), np.diag([-1.0, -2.0]), np.ones((2, 1)),
                           np.ones((1, 2)))
        assert np.isclose(spectral_abscissa(sys), -1.0)

    def test_mass_scaling(self):
        sys = LinearSystem(2 * np.eye(2), -np.eye(2), np.ones((2, 1)),
                           np.ones((1, 2)))
        assert np.isclose(spectral_abscissa(sys), -0.5)

    def test_rotation_is_marginal(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = LinearSystem(np.eye(2), a, np.ones((2, 1)), np.ones((1, 2)))
        assert np.isclose(spectral_abscissa(sys), 0.0, atol=1e-12)
        assert not is_asymptotically_stable(sys)

    def test_invariant_under_left_multiplication(self, rng):
        sys = random_stable_system(rng, 20, identity_mass=False)
        alpha = spectral_abscissa(sys)
        for _ in range(5):
            m = random_spd(rng, 20, spread=5.0) + 0.3 * rng.standard_normal((20, 20))
            sys_m = LinearSystem(m @ sys.e, m @ np.asarray(sys.a),
                                 m @ sys.b, sys.c)
            assert abs(spectral_abscissa(sys_m) - alpha) <= 1e-8

    def test_dense_cap(self, rng):
        sys = random_stable_system(rng, 12)
        with pytest.raises(DenseCapExceeded):
            spectral_abscissa(sys, DEFAULT.with_(dense_cap=10))


class TestSymmetricPartSpectrum:
    def test_dissipative_identity(self):
        sys = LinearSystem(np.eye(4), -np.eye(4), np.ones((4, 1)),
                           np.ones((1, 4)))
        frag = symmetric_part_spectrum(sys, ell=4)
        assert frag.k == 0
        assert np.isclose(frag.mu_max, -2.0)
        assert is_dissipative(sys)

    def test_two_by_two_oracle(self):
        a = np.array([[-1.0, 3.0], [0.0, -1.0]])
        sys = LinearSystem(np.eye(2), a, np.ones((2, 1)), np.ones((1, 2)))
        frag = symmetric_part_spectrum(sys, ell=2)
        assert frag.k == 1
        assert np.isclose(frag.mu_max, 1.0, atol=1e-10)
        assert np.allclose(frag.values, [1.0, -5.0], atol=1e-10)
        assert is_asymptotically_stable(sys) and not is_dissipative(sys)

    def test_incomplete_flag_when_all_returned_nonnegative(self, rng):
        # G_sym has many positive eigenvalues; asking for few flags k as bound
        q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
        g = (q * np.linspace(5.0, 1.0, 30)) @ q.T  # all positive
        skew = rng.standard_normal((30, 30))
        skew = skew - skew.T
        a = 0.5 * g + skew  # symmetric part of A is g/2, so G_sym = g
        sys = LinearSystem(np.eye(30), a, np.ones((30, 1)), np.ones((1, 30)))
        frag = symmetric_part_spectrum(sys, ell=3)
        assert frag.incomplete
        assert frag.k == 3  # lower bound only

    @pytest.mark.parametrize("make", [
        lambda: benchgen.gen_nonnormal_stable(n=300, seed=0),
        lambda: benchgen.gen_msd_chain(masses=30),
    ], ids=["nonnormal300", "msd30"])
    def test_arpack_path_matches_dense_path(self, make):
        sys = make()
        dense = symmetric_part_spectrum(sys, ell=16)
        arpack = symmetric_part_spectrum(
            sys, ell=16, config=DEFAULT.with_(dense_cap=sys.n - 1))
        assert arpack.k == dense.k
        assert arpack.incomplete == dense.incomplete
        assert (np.abs(arpack.values - dense.values).max()
                <= 1e-8 * abs(dense.mu_max))

    def test_all_pairs_above_the_cap_rejected(self, rng):
        sys = random_stable_system(rng, 12)
        with pytest.raises(DenseCapExceeded):
            symmetric_part_spectrum(sys, ell=12,
                                    config=DEFAULT.with_(dense_cap=10))

    def test_arpack_failure_is_typed_and_fast(self):
        # the interior cluster of convection-diffusion does not converge
        sys = benchgen.gen_convection_diffusion(n=2001)
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceFailure):
            symmetric_part_spectrum(sys, ell=16)
        assert time.perf_counter() - t0 < 2.0

    def test_report_consistency(self, rng):
        sys = random_stable_system(rng, 25)
        rep = stability_report(sys)
        if rep.dissipative:
            assert rep.k == 0
        assert rep.alpha < 0
        if rep.k == 0:
            assert rep.mu_max < 0


class TestTransferFunction:
    def test_scalar_values(self):
        tf = TransferFunction(scalar_system())
        assert np.isclose(tf.eval(0.0)[0, 0], 1.0)
        for omega in (0.5, 1.0, 10.0):
            assert np.isclose(abs(tf.eval(1j * omega)[0, 0]),
                              1.0 / np.sqrt(1 + omega ** 2))

    def test_matches_dense_inverse(self, rng):
        sys = random_stable_system(rng, 3, identity_mass=False)
        tf = sys.transfer()
        e = np.asarray(sys.e)
        a = np.asarray(sys.a)
        for s in (0.0, 1.0, 1j, 0.3 + 2j, -0.05 + 7j):
            ref = sys.c @ np.linalg.solve(s * e - a, sys.b)
            assert np.allclose(tf.eval(s), ref, atol=1e-10 * max(1, abs(ref).max()))

    def test_pole_hit(self):
        a = np.diag([-1.0, -2.0])
        sys = LinearSystem(np.eye(2), a, np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(PoleHit):
            sys.transfer().eval(-1.0)

    def test_cache_returns_consistent_values(self, rng):
        sys = random_stable_system(rng, 6)
        tf = sys.transfer()
        first = tf.eval(1j)
        for _ in range(40):  # churn the bounded cache
            tf.eval(1j * np.random.default_rng(_).uniform(0.1, 10))
        assert np.array_equal(tf.eval(1j), first)

    def test_invariant_under_congruence_transformation(self, rng):
        # replacing (E, A, B) by (E^T M E, E^T M A, E^T M B) keeps H(s)
        sys = random_stable_system(rng, 8, identity_mass=False)
        m = random_spd(rng, 8, spread=3.0)
        e = np.asarray(sys.e)
        transformed = LinearSystem(e.T @ m @ e, e.T @ m @ np.asarray(sys.a),
                                   e.T @ m @ sys.b, sys.c)
        tf_a, tf_b = sys.transfer(), transformed.transfer()
        for omega in np.geomspace(0.01, 100, 20):
            ha, hb = tf_a.eval(1j * omega), tf_b.eval(1j * omega)
            assert np.linalg.norm(ha - hb) <= 1e-8 * max(np.linalg.norm(ha), 1e-12)


class TestDissipativeImpliesStable:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 15))
    @settings(max_examples=25, deadline=None)
    def test_property(self, seed, n):
        gen = np.random.default_rng(seed)
        spd = gen.standard_normal((n, n))
        spd = spd @ spd.T + n * np.eye(n)
        skew = gen.standard_normal((n, n))
        skew = skew - skew.T
        sys = LinearSystem(np.eye(n), -spd + skew, np.ones((n, 1)),
                           np.ones((1, n)))
        assert is_dissipative(sys)
        assert is_asymptotically_stable(sys)


class TestPersistence:
    def test_roundtrip_dense(self, tmp_path, rng):
        sys = random_stable_system(rng, 9, n_in=2, n_out=3,
                                   identity_mass=False)
        save_system(sys, tmp_path / "bundle")
        back = load_system(tmp_path / "bundle")
        assert back.n == 9 and back.n_in == 2 and back.n_out == 3
        assert np.array_equal(np.asarray(back.a), np.asarray(sys.a))
        assert np.array_equal(np.asarray(back.e), np.asarray(sys.e))
        assert np.array_equal(back.b, sys.b)
        assert np.array_equal(back.c, sys.c)
        assert back.descriptor == sys.descriptor

    def test_roundtrip_sparse(self, tmp_path):
        e = sp.diags([1.0, 2.0, 3.0], format="csr")
        a = sp.diags([-1.0, -2.0, -3.0], format="csr")
        sys = LinearSystem(e, a, np.ones((3, 1)), np.ones((1, 3)))
        save_system(sys, tmp_path / "bundle")
        back = load_system(tmp_path / "bundle")
        assert sp.issparse(back.e)
        assert np.array_equal(np.asarray(back.e.todense()),
                              np.asarray(e.todense()))

    @pytest.mark.parametrize("b, c", [
        (np.zeros((3, 0)), np.ones((1, 3))),
        (np.ones((3, 1)), np.zeros((0, 3))),
    ], ids=["no-inputs", "no-outputs"])
    def test_roundtrip_without_inputs_or_outputs(self, tmp_path, b, c):
        # loaded in a child process: scipy's mmread of an empty array body
        # can kill the interpreter (SIGFPE) rather than raise
        sys = LinearSystem(np.eye(3), -np.eye(3), b, c)
        save_system(sys, tmp_path / "bundle")
        script = ("import json, sys; from stabmor.dynsys import load_system; "
                  "s = load_system(sys.argv[1]); "
                  "print(json.dumps([s.b.shape, s.b.tolist(), "
                  "s.c.shape, s.c.tolist()]))")
        proc = subprocess.run(
            [sys_module.executable, "-c", script, str(tmp_path / "bundle")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        b_shape, b_back, c_shape, c_back = json.loads(proc.stdout)
        assert np.array_equal(np.reshape(b_back, b_shape), b)
        assert np.array_equal(np.reshape(c_back, c_shape), c)

    def test_manifest_mismatch_detected(self, tmp_path, rng):
        sys = random_stable_system(rng, 4)
        save_system(sys, tmp_path / "bundle")
        manifest = (tmp_path / "bundle" / "manifest.json")
        manifest.write_text(manifest.read_text().replace('"n": 4', '"n": 5'))
        with pytest.raises(ValueError):
            load_system(tmp_path / "bundle")
