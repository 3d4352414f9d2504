"""Central numerical configuration.

Every tolerance and cap used across the package lives in one frozen record
so that test suites and the CLI can tighten or relax them coherently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # symmetry check, relative to ||m||
    sym_check: float = 1e-12
    # ARPACK's relative Ritz-pair tolerance (eigsh's tol) for the
    # symmetric-part spectrum above dense_cap
    lanczos_residual: float = 1e-8
    # largest n admitted to dense O(n^3) paths
    dense_cap: int = 2000
    # eigenvalue >= -nonneg_margin * |mu_1| counts as non-negative
    nonneg_margin: float = 1e-12
    # sigma_r <= rank_deficient * sigma_1 means rank deficiency
    rank_deficient: float = 1e-14
    # thin SVD uses a dense Gram eigensolve up to this side length
    svd_gram_max: int = 1000
    # accepted normwise backward error of a dense Lyapunov solve: residual
    # over 2 ||A||_F ||M||_F ||E||_F + ||F||_F. Correct solves measure
    # 5e-18 to 5e-17; a symmetric error of relative size 1e-6 in M gives
    # about 2.5e-9 at n = 300, so the check needs a bound well below that
    lyap_dense_residual: float = 1e-12
    # low-rank ADI defaults
    lradi_residual: float = 1e-8
    lradi_num_shifts: int = 10
    # refuse LR-ADI when k / n exceeds this fraction
    lradi_rank_fraction: float = 0.05
    # equilibrium verification, relative to problem scale
    equilibrium_residual: float = 1e-10

    def with_(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT = Tolerances()
