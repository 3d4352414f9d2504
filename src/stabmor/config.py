"""Numerical settings that callers vary; see :class:`Tolerances`."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """The four values a caller sets, in a frozen and hashable record.

    Tests lower the size caps ``dense_cap`` and ``svd_gram_max`` to reach
    the above-cap paths at small n. ``reduce --adi-tol`` and
    ``--adi-shifts`` and the convdiff benchmark set ``lradi_residual`` and
    ``lradi_num_shifts``. Every other tolerance is a named constant in the
    one module that reads it.
    """

    # largest n admitted to dense O(n^3) paths
    dense_cap: int = 2000
    # thin SVD uses a dense Gram eigensolve up to this side length
    svd_gram_max: int = 1000
    # low-rank ADI defaults
    lradi_residual: float = 1e-8
    lradi_num_shifts: int = 10

    def with_(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT = Tolerances()
