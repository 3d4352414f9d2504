"""Dense and sparse linear-algebra kernels used by every other module.

Factorizations and decompositions are pure functions of immutable inputs.
They are delegated to scipy: LU to LAPACK and SuperLU, dense eigenvalue
problems to LAPACK, and iterative ones (partial SVDs of large matrices)
to ARPACK, always from a seeded start vector so that runs repeat bitwise.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.io
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from .config import DEFAULT, Tolerances
from .errors import ConvergenceFailure, SingularMatrix, SymmetryViolation

__all__ = [
    "LUFactorization",
    "lu_factor",
    "sym_eig_dense",
    "dense_abscissa",
    "Snapshots",
    "thin_svd",
    "spectral_norm",
    "as_dense",
    "read_mtx",
    "write_mtx",
]


def as_dense(m) -> np.ndarray:
    """Return ``m`` as an ndarray, densifying sparse input."""
    if sp.issparse(m):
        return m.toarray()
    return np.asarray(m)


def _matvec_into(m):
    """``f(x, out)`` that writes ``m @ x`` into ``out`` and returns it.

    Bound once per matrix, for products taken once per time step or stage.
    A float64 CSR or CSC matrix calls the ``_sparsetools`` kernel that
    ``m @ x`` itself calls, on a zeroed ``out``; a dense one calls
    ``np.dot``. Both give ``m @ x`` bitwise, without scipy's dispatch and
    allocation per call. Any other matrix falls back to ``m @ x``.
    """
    if sp.issparse(m) and m.format in ("csr", "csc") and m.dtype == np.float64:
        kernel = getattr(_sparsetools, m.format + "_matvec")
        rows, cols = m.shape
        indptr, indices, data = m.indptr, m.indices, m.data

        def matvec(x, out):
            # the kernel checks no lengths: a short x or out would be read
            # or written past its end
            if x.shape != (cols,) or out.shape != (rows,):
                raise ValueError(f"matvec of a {rows}-by-{cols} matrix: x has "
                                 f"shape {x.shape}, out {out.shape}")
            out.fill(0.0)
            kernel(rows, cols, indptr, indices, data, x, out)
            return out
    elif isinstance(m, np.ndarray):
        def matvec(x, out):
            return np.dot(m, x, out=out)
    else:
        def matvec(x, out):
            out[...] = m @ x
            return out
    return matvec


def _check_pivots(diag, context: str):
    diag = np.abs(np.asarray(diag))
    if diag.size == 0:
        return
    dmax = diag.max()
    if dmax == 0.0 or diag.min() <= 1e-14 * dmax:
        raise SingularMatrix(f"{context}: singular to working precision "
                             f"(pivot ratio {diag.min():.3e} / {dmax:.3e})")


@functools.lru_cache(maxsize=None)
def _lapack_lu(dtype: np.dtype):
    """LAPACK ``getrf`` and ``getrs`` for one input dtype, looked up once.

    The prefix is the one ``scipy.linalg.lu_factor`` picks for that dtype
    (``d`` for integers), so the factors are bitwise its factors.
    """
    return sla.get_lapack_funcs(("getrf", "getrs"), dtype=dtype)


class LUFactorization:
    """LU factors of a square matrix with forward/transposed solves.

    Dense input is factorized by LAPACK ``getrf`` directly: the routine
    ``scipy.linalg.lu_factor`` calls, with the same dtype rules and
    bitwise the same factors, without its per-call overhead (a reduced
    Newton run factorizes a small matrix at every iterate). The input is
    never overwritten. Sparse input goes to SuperLU. A pivot below 1e-14
    of the largest raises :class:`SingularMatrix`. ``solve`` accepts
    vectors or matrices; complex right-hand sides on a real factorization
    are split into real and imaginary solves.
    """

    def __init__(self, m, context: str = "lu_factor"):
        self.shape = m.shape
        if m.shape[0] != m.shape[1]:
            raise ValueError("lu_factor requires a square matrix")
        self.sparse = sp.issparse(m)
        if self.sparse:
            try:
                self._splu = spla.splu(sp.csc_matrix(m))
            except RuntimeError as exc:  # SuperLU signals exact singularity
                raise SingularMatrix(f"{context}: {exc}") from exc
            _check_pivots(self._splu.U.diagonal(), context)
        else:
            m = np.asarray(m)
            getrf, self._getrs = _lapack_lu(m.dtype)
            if m.size == 0:  # lu_factor's result for an empty matrix
                self._lu = np.empty_like(m)
                self._piv = np.arange(0, dtype=np.int32)
            else:
                # a zero pivot (info > 0) is caught by the pivot check below
                self._lu, self._piv, info = getrf(m)
                if info < 0:
                    raise ValueError(f"getrf: illegal value in argument {-info}")
            _check_pivots(np.diag(self._lu), context)
        self.dtype = (self._splu.U.dtype if self.sparse else self._lu.dtype)

    def solve(self, b, trans: bool = False):
        b = np.asarray(b)
        if np.iscomplexobj(b) and self.dtype.kind != "c":
            return self.solve(b.real, trans) + 1j * self.solve(b.imag, trans)
        if self.sparse:
            return self._splu.solve(b, trans="T" if trans else "N")
        if b.ndim not in (1, 2) or b.shape[0] != self.shape[0] or b.size == 0:
            # scipy's handling of empty, batched and mismatched inputs
            return sla.lu_solve((self._lu, self._piv), b,
                                trans=1 if trans else 0, check_finite=False)
        # getrs directly: the same solve without lu_solve's cost per call,
        # which dominates the small systems solved once per time step
        x, info = self._getrs(self._lu, self._piv, b, trans=1 if trans else 0)
        if info != 0:
            raise ValueError(f"getrs: illegal value in argument {-info}")
        return x


def lu_factor(m, context: str = "lu_factor") -> LUFactorization:
    """Factorize a square matrix; raises :class:`SingularMatrix` if singular."""
    return LUFactorization(m, context=context)


# largest ||m - m^T|| / ||m|| that sym_eig_dense accepts as symmetric
SYM_CHECK = 1e-12


def sym_eig_dense(m):
    """Eigendecomposition of a symmetric dense matrix.

    Returns ``(w, u)`` with eigenvalues sorted descending and orthonormal
    eigenvectors as columns. Raises :class:`SymmetryViolation` when the
    input is not symmetric within ``SYM_CHECK * ||m||``.
    """
    m = as_dense(m)
    norm_m = np.linalg.norm(m)
    asym = np.linalg.norm(m - m.T)
    if asym > SYM_CHECK * max(norm_m, 1e-300):
        raise SymmetryViolation(
            f"matrix is not symmetric: ||m - m^T|| = {asym:.3e}, ||m|| = {norm_m:.3e}")
    w, u = np.linalg.eigh(0.5 * (m + m.T))
    return w[::-1].copy(), u[:, ::-1].copy()


def dense_abscissa(m) -> float:
    """Largest real part over the eigenvalues of a dense square matrix.

    One LAPACK ``geev`` without eigenvectors; raises
    :class:`ConvergenceFailure` when its QR iteration does not converge.
    """
    try:
        return float(np.linalg.eigvals(m).real.max())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigenvalues: {exc}") from exc


def _fix_signs(u: np.ndarray) -> np.ndarray:
    for j in range(u.shape[1]):
        i = np.argmax(np.abs(u[:, j]))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
    return u


def _svds(m, k: int, **kwargs):
    """ARPACK's ``svds`` from a seeded start vector; failures are typed."""
    v0 = np.random.default_rng(0).standard_normal(min(m.shape))
    try:
        return spla.svds(m, k=k, v0=v0, **kwargs)
    except spla.ArpackError as exc:
        raise ConvergenceFailure(f"svds: {exc}") from exc


# Snapshot columns buffered per Gram update (SNAPSHOT_BLOCK-by-n buffer).
SNAPSHOT_BLOCK = 1024


class Snapshots:
    """Snapshot columns S (n-by-count), harvested one at a time, for POD.

    Up to n = ``config.svd_gram_max``, where :func:`thin_svd` works from the
    Gram matrix anyway, only G = S S^T is kept (the method of snapshots):
    each column is written into one fixed SNAPSHOT_BLOCK-by-n buffer, and
    every full buffer B is added as G += B^T B. Memory is then O(n^2),
    whatever the count. Above that size the raw matrix is kept in
    ``matrix`` (O(n count)), for the ARPACK path of :func:`thin_svd`.
    ``close`` adds the last partial buffer and releases it. ``shape`` is
    ``(n, count)`` and ``nbytes`` counts the arrays actually held.
    """

    def __init__(self, n: int, config: Tolerances = DEFAULT):
        self.n = n
        self.count = 0
        self.gram = np.zeros((n, n)) if n <= config.svd_gram_max else None
        self.matrix = None
        self._full: list[np.ndarray] = []  # full buffers of the raw path
        self._buf = np.empty((SNAPSHOT_BLOCK, n))
        self._fill = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.count

    @property
    def nbytes(self) -> int:
        held = [self.gram, self.matrix, self._buf, *self._full]
        return sum(a.nbytes for a in held if a is not None)

    def append(self, x) -> None:
        self._buf[self._fill] = x
        self._fill += 1
        self.count += 1
        if self._fill == SNAPSHOT_BLOCK:
            self._flush()

    def _flush(self) -> None:
        if self.gram is not None:
            block = self._buf[:self._fill]
            self.gram += block.T @ block
        else:
            self._full.append(self._buf)
            self._buf = np.empty_like(self._buf)
        self._fill = 0

    def close(self) -> "Snapshots":
        """Take in the buffered columns and release the buffer."""
        if self._buf is not None:
            if self.gram is not None:
                self._flush()
            else:
                self.matrix = np.vstack([*self._full,
                                         self._buf[:self._fill]]).T
                self._full = []
            self._buf = None
        return self


# Smallest eigenvalue ratio w_r / w_1 of a tall matrix's Gram matrix that
# :func:`thin_svd` trusts: there sigma_r = sqrt(w_r) is still relatively
# accurate to about 1e-6, and U = M V / sigma orthogonal to about 1e-6
# before its QR. Below it (sigma_r < 1e-5 sigma_1) the rounding in w_r
# decides, so a rank decision needs the SVD of M itself.
GRAM_RESOLVED = 1e-10


def _gram_svd(g, r: int):
    """Leading r left singular vectors and values of S from G = S S^T."""
    w, u = sym_eig_dense(0.5 * (g + g.T))
    sigma = np.sqrt(np.clip(w[:r], 0.0, None))
    return _fix_signs(u[:, :r].copy()), sigma


def thin_svd(m, r: int, config: Tolerances = DEFAULT):
    """Leading left singular vectors and singular values of ``m``.

    Up to a smaller side of ``config.svd_gram_max`` the dense path
    eigendecomposes the smaller Gram matrix with LAPACK. A tall matrix
    (n > s) then forms U = M V / sigma from its s-by-s Gram matrix, which
    holds sigma_r only while sigma_r^2 is well above rounding relative to
    sigma_1^2 (GRAM_RESOLVED); below that it takes one LAPACK thin SVD,
    whose small singular values keep their accuracy, at about five times
    the time (n = 4000, s = 300 to 800). Above that size the ARPACK path
    calls scipy's ``svds``, which needs only products with ``m`` and
    ``m^T`` and requires ``r`` below the smaller side. A closed
    :class:`Snapshots` is taken through its accumulated Gram matrix, or its
    raw matrix if it kept one.

    Returns ``(u, sigma)`` with ``u`` n-by-r orthonormal and ``sigma``
    descending.
    """
    n, s = m.shape
    small = min(n, s)
    if not 1 <= r <= small:
        raise ValueError(f"need 1 <= r <= min(n, s) = {small}, got {r}")
    if isinstance(m, Snapshots):
        if m.gram is not None:
            return _gram_svd(m.gram, r)
        m = m.matrix

    if small > config.svd_gram_max:
        u, sigma, _ = _svds(m, r)
        return _fix_signs(u[:, ::-1].copy()), sigma[::-1].copy()
    if n <= s:
        return _gram_svd(as_dense(m @ m.T), r)
    g = as_dense(m.T @ m)
    w, v = sym_eig_dense(0.5 * (g + g.T))
    if w[r - 1] > GRAM_RESOLVED * w[0]:
        sigma = np.sqrt(w[:r])
        u = np.linalg.qr(m @ (v[:, :r] / sigma))[0]  # restore orthogonality
        return _fix_signs(u), sigma
    u, sigma, _ = np.linalg.svd(as_dense(m), full_matrices=False)
    return _fix_signs(u[:, :r].copy()), sigma[:r].copy()


def spectral_norm(m) -> float:
    """2-norm of a matrix; sparse input is handled without densifying."""
    if not sp.issparse(m) or min(m.shape) == 1:
        return float(np.linalg.norm(as_dense(m), 2))
    coo = m.tocoo()
    if coo.nnz == 0:
        return 0.0
    if np.all(coo.row == coo.col):  # diagonal matrix
        return float(np.abs(coo.data).max())
    return float(_svds(m, 1, return_singular_vectors=False)[0])


def read_mtx(path):
    """Read a Matrix Market file; sparse files come back in CSR format.

    A matrix with no rows or no columns (a bundle without inputs or
    outputs) is read from the header alone, as zeros of that shape:
    scipy's ``mmread`` does not handle an empty array body.
    """
    rows, cols = scipy.io.mminfo(path)[:2]
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols))
    m = scipy.io.mmread(path)
    if sp.issparse(m):
        return m.tocsr()
    return np.asarray(m)


def write_mtx(path, m):
    """Write a matrix in Matrix Market format (coordinate or array)."""
    if sp.issparse(m):
        scipy.io.mmwrite(path, m.tocoo(), precision=17)
    else:
        scipy.io.mmwrite(path, np.atleast_2d(np.asarray(m)), precision=17)
