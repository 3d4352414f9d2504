"""Dense/sparse linear algebra kernel tests against independent oracles."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmor.config import DEFAULT
from stabmor.errors import DenseCapExceeded, SingularMatrix
from stabmor.linalg import (
    as_dense,
    dominant_sym_eigs,
    lu_factor,
    read_mtx,
    real_schur,
    schur_eigenvalues,
    spectral_norm,
    sym_eig_dense,
    thin_svd,
    write_mtx,
)
from tests.conftest import random_orthonormal, random_spd


class TestLU:
    def test_dense_solve_matches_numpy(self, rng):
        a = rng.standard_normal((30, 30)) + 5 * np.eye(30)
        b = rng.standard_normal(30)
        x = lu_factor(a).solve(b)
        assert np.allclose(a @ x, b, atol=1e-10)
        assert np.allclose(x, np.linalg.solve(a, b))

    def test_transpose_solve(self, rng):
        a = rng.standard_normal((20, 20)) + 4 * np.eye(20)
        b = rng.standard_normal((20, 3))
        x = lu_factor(a).solve(b, trans=True)
        assert np.allclose(a.T @ x, b, atol=1e-10)

    def test_sparse_matches_dense(self, rng):
        a = sp.diags([np.full(49, -1.0), np.full(50, 4.0), np.full(49, -1.0)],
                     [-1, 0, 1], format="csr")
        b = rng.standard_normal(50)
        x_sparse = lu_factor(a).solve(b)
        x_dense = lu_factor(as_dense(a)).solve(b)
        assert np.allclose(x_sparse, x_dense, atol=1e-12)

    def test_sparse_block_solve_matches_column_solves(self, rng):
        n = 60
        a = (sp.random(n, n, density=0.1, random_state=3, format="csr")
             + sp.diags(np.full(n, 4.0)))
        lu = lu_factor(a)
        b = rng.standard_normal((n, 5))
        for trans in (False, True):
            block = lu.solve(b, trans=trans)
            cols = np.column_stack([lu.solve(b[:, j], trans=trans)
                                    for j in range(b.shape[1])])
            assert np.abs(block - cols).max() <= 1e-14 * np.abs(cols).max()
        z = b + 1j * rng.standard_normal((n, 5))
        x = lu.solve(z)
        assert np.allclose(a @ x, z, atol=1e-10)

    def test_complex_rhs_with_real_factorization(self, rng):
        a = rng.standard_normal((15, 15)) + 4 * np.eye(15)
        b = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        x = lu_factor(a).solve(b)
        assert np.allclose(a @ x, b, atol=1e-10)
        x_t = lu_factor(a).solve(b, trans=True)
        assert np.allclose(a.T @ x_t, b, atol=1e-10)

    def test_dense_solve_is_scipy_lu_solve(self, rng):
        # the direct LAPACK call gives lu_solve's result and dtype exactly
        a = rng.standard_normal((12, 12)) + 4 * np.eye(12)
        lu = lu_factor(a)
        for b in (rng.standard_normal(12), rng.standard_normal((12, 3)),
                  rng.standard_normal(12).astype(np.float32), np.arange(12)):
            for trans in (False, True):
                want = sla.lu_solve((lu._lu, lu._piv), b, trans=int(trans))
                got = lu.solve(b, trans=trans)
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
        assert lu.solve(np.zeros((12, 0))).shape == (12, 0)
        with pytest.raises(ValueError):
            lu.solve(np.ones(3))

    def test_singular_dense_raises(self):
        with pytest.raises(SingularMatrix):
            lu_factor(np.array([[1.0, 2.0], [0.5, 1.0]]))

    def test_singular_sparse_raises(self):
        m = sp.csr_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(SingularMatrix):
            lu_factor(m)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            lu_factor(np.ones((2, 3)))

    @given(st.integers(min_value=1, max_value=12), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, n, seed):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((n, n)) + (n + 2) * np.eye(n)
        x_true = gen.standard_normal(n)
        x = lu_factor(a).solve(a @ x_true)
        assert np.allclose(x, x_true, atol=1e-8)


class TestSymEig:
    def test_two_by_two_oracle(self):
        w, u = sym_eig_dense(np.array([[-2.0, 3.0], [3.0, -2.0]]))
        assert np.allclose(w, [1.0, -5.0])
        m = np.array([[-2.0, 3.0], [3.0, -2.0]])
        assert np.allclose(m @ u, u * w, atol=1e-12)

    def test_descending_order(self, rng):
        w, _ = sym_eig_dense(random_spd(rng, 20))
        assert np.all(np.diff(w) <= 0)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_diagonal_property(self, diag):
        w, _ = sym_eig_dense(np.diag(diag))
        assert np.allclose(w, np.sort(diag)[::-1], atol=1e-9)

    def test_symmetry_enforced(self, rng):
        from stabmor.errors import SymmetryViolation
        with pytest.raises(SymmetryViolation):
            sym_eig_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLanczos:
    def test_matches_dense_on_random_symmetric(self, rng):
        n = 120
        m = random_spd(rng, n, spread=1e4) - 3.0 * np.eye(n)
        w_ref, _ = sym_eig_dense(m)
        w, u = dominant_sym_eigs(m, n, ell=8)
        assert np.allclose(w, w_ref[:8], atol=1e-8 * abs(w_ref).max())
        res = np.linalg.norm(m @ u - u * w, axis=0)
        assert np.all(res <= 1e-7 * abs(w_ref).max())

    def test_operator_form(self, rng):
        n = 80
        m = random_spd(rng, n)
        w_mat, _ = dominant_sym_eigs(m, n, ell=4)
        w_op, _ = dominant_sym_eigs(lambda v: m @ v, n, ell=4)
        assert np.allclose(w_mat, w_op, atol=1e-8 * abs(w_mat).max())

    def test_full_space_small(self, rng):
        n = 12
        m = random_spd(rng, n)
        w, _ = dominant_sym_eigs(m, n, ell=n)
        w_ref, _ = sym_eig_dense(m)
        assert np.allclose(w, w_ref, atol=1e-8 * w_ref[0])

    def test_breakdown_restart_on_low_rank(self, rng):
        # rank-2 operator: Krylov space exhausts after two steps
        u = random_orthonormal(rng, 60, 2)
        m = u @ np.diag([5.0, 2.0]) @ u.T
        w, _ = dominant_sym_eigs(m, 60, ell=4)
        assert np.allclose(sorted(w[:2])[::-1], [5.0, 2.0], atol=1e-8)


class TestThinSVD:
    def test_matches_numpy(self, rng):
        m = rng.standard_normal((50, 12))
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        u5, s5 = thin_svd(m, 5)
        assert np.allclose(s5, s[:5], atol=1e-10 * s[0])
        # subspaces agree: projectors coincide
        p_ref = u[:, :5] @ u[:, :5].T
        assert np.allclose(u5 @ u5.T, p_ref, atol=1e-8)

    def test_deterministic_output(self, rng):
        m = rng.standard_normal((30, 10))
        u1, s1 = thin_svd(m, 4)
        u2, s2 = thin_svd(m, 4)
        assert np.array_equal(u1, u2) and np.array_equal(s1, s2)

    def test_rank_deficient_input_keeps_orthonormal_u(self, rng):
        col = rng.standard_normal((20, 1))
        m = np.hstack([col, col, col])
        u, s = thin_svd(m, 3)
        assert np.linalg.norm(u.T @ u - np.eye(3), 2) <= 1e-10
        assert s[1] <= 1e-12 * s[0] and s[2] <= 1e-12 * s[0]

    def test_orthonormal_for_decaying_spectrum(self, rng):
        # steeply decaying singular values stress the Gram-route accuracy
        u = random_orthonormal(rng, 200, 8)
        vt = random_orthonormal(rng, 8, 8)
        m = u @ np.diag(np.geomspace(1.0, 1e-6, 8)) @ vt
        u8, _ = thin_svd(m, 8)
        assert np.linalg.norm(u8.T @ u8 - np.eye(8), 2) <= 1e-10


class TestSchur:
    def test_eigenvalues_match_numpy(self, rng):
        a = rng.standard_normal((25, 25))
        _, t = real_schur(a)
        ev = schur_eigenvalues(t)
        ref = np.linalg.eigvals(a)
        assert np.allclose(np.sort_complex(ev), np.sort_complex(ref),
                           atol=1e-8 * np.abs(ref).max())

    def test_dense_cap(self, rng):
        cfg = DEFAULT.with_(dense_cap=10)
        with pytest.raises(DenseCapExceeded):
            real_schur(rng.standard_normal((11, 11)), cfg)


class TestSpectralNorm:
    def test_dense_matches_numpy(self, rng):
        m = rng.standard_normal((30, 18))
        assert np.isclose(spectral_norm(m), np.linalg.norm(m, 2), rtol=1e-10)

    def test_sparse_diagonal(self):
        m = sp.diags([1.0, -7.0, 3.0])
        assert spectral_norm(m) == 7.0

    def test_sparse_general_matches_dense(self, rng):
        m = sp.random(80, 80, density=0.1, random_state=7, format="csr")
        assert np.isclose(spectral_norm(m), np.linalg.norm(as_dense(m), 2),
                          rtol=1e-7)

    def test_zero_matrix(self):
        assert spectral_norm(sp.csr_matrix((5, 5))) == 0.0


class TestMatrixMarketIO:
    def test_dense_roundtrip_exact(self, tmp_path, rng):
        m = rng.standard_normal((7, 3))
        write_mtx(tmp_path / "m.mtx", m)
        assert np.array_equal(as_dense(read_mtx(tmp_path / "m.mtx")), m)

    def test_sparse_roundtrip_exact(self, tmp_path):
        m = sp.diags([np.pi, -1e-17, 2.0 / 3.0], format="csr")
        write_mtx(tmp_path / "m.mtx", m)
        back = read_mtx(tmp_path / "m.mtx")
        assert np.array_equal(as_dense(back), as_dense(m))
