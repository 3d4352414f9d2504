"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from stabmor import benchgen
from stabmor.dynsys import LinearSystem


def random_orthonormal(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def random_spd(rng: np.random.Generator, n: int,
               spread: float = 10.0) -> np.ndarray:
    q = random_orthonormal(rng, n, n)
    w = np.geomspace(1.0, spread, n)
    return (q * w) @ q.T


def random_stable_dense(rng: np.random.Generator, n: int,
                        margin: float = 0.1) -> np.ndarray:
    """Dense matrix shifted so that its spectral abscissa is <= -margin."""
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    alpha = np.linalg.eigvals(a).real.max()
    return a - (alpha + margin) * np.eye(n)


def random_stable_system(rng: np.random.Generator, n: int,
                         n_in: int = 1, n_out: int = 1,
                         identity_mass: bool = True,
                         margin: float = 0.1) -> LinearSystem:
    a = random_stable_dense(rng, n, margin)
    e = np.eye(n) if identity_mass else random_spd(rng, n, spread=4.0)
    if not identity_mass:
        # keep the pencil stable: E SPD, A shifted on E's scale
        alpha = np.linalg.eigvals(np.linalg.solve(e, a)).real.max()
        if alpha >= -1e-3:
            a = a - (alpha + margin) * e
    b = rng.standard_normal((n, n_in))
    c = rng.standard_normal((n_out, n))
    return LinearSystem(e, a, b, c)


def cubic_msd_block_jacobian(masses: int, gamma: float = 0.5):
    """Reference Jacobian of ``gen_cubic_msd`` assembled block by block.

    A + [[0, 0], [diag(-3 gamma q^2), 0]] with A the linear chain's matrix,
    the generator's default mass, stiffness and damping.
    """
    a = benchgen.gen_msd_chain(masses=masses).a
    m = masses

    def jac(x):
        cubic = sp.diags(-3.0 * gamma * x[:m] ** 2).tocsr()
        zero = sp.csr_matrix((m, m))
        return a + sp.bmat([[zero, zero], [cubic, zero]], format="csr")

    return jac


def dense_transform(stab) -> np.ndarray:
    """Densify a stabilizer factor's action (small n only)."""
    return stab.apply(np.eye(stab.sys.n))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
