"""Optional numba kernel for the symmetrized Kronecker product.

The generic Schur complement assembly (``sdp.DenseSchur``) evaluates
skron(S^{-1}, X) once per cone block per interior-point iteration; the
scalar-indexed loop is ~15x faster under numba than the vectorized gather
version.  numba is not a dependency: without it ``skron_into`` is None and
``sdp`` uses the numpy gather version.
"""

from __future__ import annotations

try:
    import numba

    @numba.njit(cache=True)
    def skron_into(u, v, iu, ju, cc, out):  # pragma: no cover - exercised via sdp
        n = len(iu)
        for p in range(n):
            i = iu[p]
            j = ju[p]
            for q in range(n):
                k = iu[q]
                l = ju[q]
                out[p, q] = cc[p, q] * (u[j, k] * v[i, l] + u[j, l] * v[i, k]
                                        + u[i, k] * v[j, l] + u[i, l] * v[j, k])
except ImportError:
    skron_into = None
