"""Optional numba kernel for the symmetrized Kronecker product (not used by the solver).

Nothing in the package calls ``skron_into``: the Schur assembly in ``sdp``
and ``gmn`` forms every block from ``_BlockGeometry.schur_kernel``.  The
module is kept only because perfbench's host record reads
``genneg._kernels.skron_into`` (a numba kernel, or None without numba).
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
