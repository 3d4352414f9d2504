"""Dense/sparse linear algebra kernel tests against independent oracles."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmor.config import DEFAULT
from stabmor.errors import ConvergenceFailure, SingularMatrix
from stabmor.linalg import (
    _matvec_into,
    as_dense,
    dense_abscissa,
    lu_factor,
    read_mtx,
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

    def test_dense_factors_are_scipy_lu_factor(self, rng):
        # getrf called directly: bitwise lu_factor's factors, pivots and
        # dtypes, and the input left as it was
        real = rng.standard_normal((9, 9))
        cases = [real, real + 1j * rng.standard_normal((9, 9)),
                 rng.integers(-9, 10, (9, 9)) + 30 * np.eye(9, dtype=int)]
        for base in cases:
            wide = np.repeat(np.repeat(base, 2, axis=0), 3, axis=1)
            for m in (base, np.asfortranarray(base), wide[::2, ::3]):
                before = m.copy()
                want_lu, want_piv = sla.lu_factor(m)
                lu = lu_factor(m)
                assert np.array_equal(lu._lu, want_lu)
                assert np.array_equal(lu._piv, want_piv)
                assert lu._lu.dtype == want_lu.dtype
                assert lu._piv.dtype == want_piv.dtype
                assert np.array_equal(m, before)
        assert lu_factor(np.zeros((0, 0))).solve(np.zeros(0)).shape == (0,)

    def test_exactly_singular_dense_raises(self):
        # getrf reports an exact zero pivot (info > 0); the pivot check
        # turns it into the typed error, for float and integer input
        for m in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3)),
                  np.array([[1, 2], [2, 4]])):
            before = m.copy()
            with pytest.raises(SingularMatrix):
                lu_factor(m)
            assert np.array_equal(m, before)

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


class TestMatvecInto:
    """The bound product writes m @ x into ``out`` bitwise, for each kind
    of matrix, whatever ``out`` held before."""

    def test_bitwise_m_at_x_over_sixteen_decades(self, rng):
        sparse = sp.random(80, 80, density=0.1, random_state=7,
                           format="csr") - 3.0 * sp.identity(80, format="csr")
        mats = {"csr": sparse, "csc": sparse.tocsc(),
                "dense": sparse.toarray(),
                "dense, Fortran order": np.asfortranarray(sparse.toarray()),
                "coo (fallback)": sparse.tocoo()}
        for label, m in mats.items():
            matvec = _matvec_into(m)
            out = np.full(80, np.nan)
            for scale in 10.0 ** np.arange(-8, 9):
                x = scale * rng.standard_normal(80)
                got = matvec(x, out)
                assert got is out, label
                np.testing.assert_array_equal(out, m @ x, err_msg=label)

    def test_wrong_lengths_rejected_before_the_kernel(self):
        matvec = _matvec_into(sp.identity(5, format="csr"))
        for x, out in ((np.ones(4), np.empty(5)), (np.ones(5), np.empty(4))):
            with pytest.raises(ValueError):
                matvec(x, out)


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
        # the dense Gram path, then ARPACK's svds, which needs r < 3
        for config, r in ((DEFAULT, 3), (DEFAULT.with_(svd_gram_max=2), 2)):
            u, s = thin_svd(m, r, config)
            assert np.linalg.norm(u.T @ u - np.eye(r), 2) <= 1e-10
            assert np.all(s[1:] <= 1e-12 * s[0])

    def test_tall_equal_columns_have_rounding_level_tail(self):
        # the Gram matrix of the columns squares the condition number:
        # its eigensolve left sigma_2 / sigma_1 at 1.7e-8 here
        col = np.random.default_rng(1234).standard_normal((20, 1))
        u, s = thin_svd(np.hstack([col] * 4), 4)
        assert np.all(s[1:] <= 1e-15 * s[0])
        assert np.linalg.norm(u.T @ u - np.eye(4), 2) <= 1e-12

    def test_tall_resolved_spectrum_takes_no_full_svd(self, rng,
                                                      monkeypatch):
        # while the s-by-s Gram matrix resolves sigma_r it serves; the
        # thin SVD of the n-by-s matrix costs about five times as much
        m = rng.standard_normal((60, 12))
        _, s_ref, _ = np.linalg.svd(m, full_matrices=False)

        def fail(*args, **kwargs):
            raise AssertionError("full SVD taken")
        monkeypatch.setattr(np.linalg, "svd", fail)
        u, s = thin_svd(m, 5)
        assert np.allclose(s, s_ref[:5], rtol=1e-12)
        assert np.linalg.norm(u.T @ u - np.eye(5), 2) <= 1e-14

    def test_orthonormal_for_decaying_spectrum(self, rng):
        # steeply decaying singular values stress the Gram-route accuracy
        u = random_orthonormal(rng, 200, 8)
        vt = random_orthonormal(rng, 8, 8)
        m = u @ np.diag(np.geomspace(1.0, 1e-6, 8)) @ vt
        u8, _ = thin_svd(m, 8)
        assert np.linalg.norm(u8.T @ u8 - np.eye(8), 2) <= 1e-10


class TestDenseAbscissa:
    def test_matches_known_spectrum_with_complex_pairs(self, rng):
        # real blocks with eigenvalues -0.5 +- 3i, 0.2 +- i and -1,
        # hidden by a random similarity transformation
        blocks = sla.block_diag([[-0.5, 3.0], [-3.0, -0.5]],
                                [[0.2, 1.0], [-1.0, 0.2]], [[-1.0]])
        s = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        a = s @ blocks @ np.linalg.inv(s)
        assert abs(dense_abscissa(a) - 0.2) <= 1e-12
        assert abs(dense_abscissa(a - 0.2 * np.eye(5))) <= 1e-12

    def test_lapack_failure_is_a_convergence_failure(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(ConvergenceFailure):
            dense_abscissa(np.eye(3))


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
        # a seeded start vector: the same value on every call
        assert spectral_norm(m) == spectral_norm(m)

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
