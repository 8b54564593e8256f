"""Genuine multiparticle negativity via the PPT-mixture semidefinite program.

The monotone E(ρ) is the absolute value of

    minimize Tr(W ρ)  over Hermitian W such that, for every bipartition M|M̄,
    W = P_M + Q_M^{T_M}  with  0 <= P_M <= 1  and  0 <= Q_M <= 1,

whenever that minimum is negative (otherwise E = 0 and the state is not
detected as genuinely multiparticle entangled — some entangled states are
PPT mixtures, so a zero never claims biseparability).  A negative optimum
makes W a decomposable entanglement witness for every bipartition, which is
the independently checkable certificate.

The program is handed to the Hermitian solver in ``sdp`` as it stands: the
witness-side variables (W and the Q_M) are the solver's free dual vector y,
expressed in the solver's orthonormal Hermitian basis of the d x d matrices
(d = 2^N), and each bipartition contributes four d x d cone blocks (P_M,
1-P_M, Q_M, 1-Q_M).  Coordinate alpha of a block is basis element F_alpha,
so every constraint column is a +-1 entry per block it reaches, and the
coefficients of a matrix are its svec.

The coefficients q_M of bipartition M reach only the four blocks of M, so the
solver's Schur matrix is block-arrowhead: the witness columns w border K
diagonal q-blocks that never couple to each other (K = 2^(N-1) - 1).  The
program supplies :class:`ArrowheadSchur` as its ``sdp.SchurSystem``.  It
assembles each block pair's contribution with the solver's Schur kernel,
eliminates the K q-blocks of size d^2, and factors only the d^2 x d^2 Schur
complement of the w-block.  The generic dense path would instead form and
factor a (K + 1) d^2 square matrix, 2048 x 2048 at N = 4.

Assembly is bound by memory traffic, not arithmetic: the kernel of a block
pair writes one d^2 x d^2 complex product, gathers half its rows and folds
them into the real d^2 x d^2 kernel in one pass.  It runs in chunks of
bipartitions; each chunk forms its blocks' kernels and writes each of the
bipartition's Schur blocks once, in place, while the kernels are still in
cache.  The chunk size follows from the complex product of a pair and the
byte budget :data:`ASSEMBLY_CHUNK_BYTES`: all three bipartitions of N = 3
share one chunk, and at N = 4 each bipartition is its own chunk.  The
arithmetic, and so every rounding, does not depend on the chunk size.

Every solve starts from an interior point built from rho alone
(:func:`_start_point`) and strictly feasible on both sides.  Dual side: W = 1
and every Q_M = 1/2 make P_M = 1/2, so every slack is 1/2, the centre of its
[0, 1] box.  Primal side: the split rho_M = rho/K with a floor 1/(Kd) in
every block, the partial transpose of rho/K split into its positive and
negative parts across Q_M and 1-Q_M, meets every equality constraint up to
rounding.  From the solver's generic cold start X = S = tau 1, y = 0, which
is infeasible on both sides, the bracket of an N = 4 solve can sit still for
the first four iterations; the benchmark's four N = 4 solves take 4/8/7/10
iterations from this start against 7/10/11/14 from the cold one.

Every result is a certified bracket E_lo <= E <= E_hi, taken at each
interior-point iterate through the solver's stop callback and kept as the best
over all iterates:

* E_lo = max(0, -Tr(W' rho)) for a witness repaired to exact feasibility: W
  and the Q_M come from the dual vector, P_M = W - Q_M^{T_M}, and with eps the
  largest excursion of an eigenvalue of any P_M or Q_M outside [0, 1],
  W' = (W + 2 eps)/(1 + 2 eps) (Jansson-Chaykin-Keil, SIAM J. Numer. Anal. 46,
  180 (2007));
* E_hi = sum_M neg(rho_M) + neg(rho_M^{T_M}) for the split rho_M = X_{P_M} -
  X_{1-P_M} read from the primal blocks, with the residual of rho = sum_M
  rho_M put into the first part (the mixed form of Hofmann-Moroder-Guehne,
  J. Phys. A 47, 155301 (2014)).

The solve stops once E_hi - E_lo <= :data:`BRACKET_TOL`, and a result is
usable (``solved``) exactly then, whatever the solver status.  It reports
E = E_lo, and E = 0 when E_hi <= BRACKET_TOL.  Both bounds can be rechecked
with eigendecompositions alone (:func:`certificate_diagnostics`).

For two parties the monotone equals the partial-transpose negativity, which
:func:`bipartite_negativity` computes directly as the eigendecomposition
oracle.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from . import sdp
from .linalg import check_density_matrix, eig_hermitian, hermitian_part, partial_transpose

QUBIT_BOUND = 0.5         # E <= 1/2 for any number of qubits

# A solve ends, and its result is usable, once E_hi - E_lo is at most this.
# Generic states give programs without a strictly complementary optimum,
# where the solver's own gap and residual tests stall near 1e-8 while the
# bracket is already far narrower than this; at 1e-7 a few such brackets
# (widths 1.0-1.6e-7 seen on Haar-3 states) never close before the stall.
BRACKET_TOL = 5e-7

# Absolute tolerance of every check in certificate_diagnostics: the repaired
# witness and the split satisfy their constraints up to rounding alone.
CERTIFICATE_TOL = 1e-9

# Budget for the complex d^2 x d^2 products of the block pairs that one chunk
# of the arrowhead assembly holds at once; their gathered half rows take half
# as much again.  On a Xeon with 2 MB of L2 cache per core, an N = 4 assembly
# took 8.7 ms with one bipartition per chunk and 13-17 ms with two or seven.
ASSEMBLY_CHUNK_BYTES = 2**20


@dataclass(frozen=True, order=True)
class Bipartition:
    """Canonical bipartition M | M̄ of {0..N-1}; the side M contains qubit 0."""

    nqubits: int
    members: tuple

    def __post_init__(self):
        mem = tuple(sorted(set(int(q) for q in self.members)))
        object.__setattr__(self, "members", mem)
        if not mem or len(mem) >= self.nqubits:
            raise ValueError(f"bipartition side must have 1..{self.nqubits - 1} qubits, got {mem}")
        if any(q < 0 or q >= self.nqubits for q in mem):
            raise ValueError(f"qubit indices {mem} out of range for {self.nqubits} qubits")
        if 0 not in mem:
            raise ValueError("canonical bipartitions contain qubit 0 "
                             "(M and its complement describe the same split)")

    @property
    def complement(self) -> tuple:
        return tuple(q for q in range(self.nqubits) if q not in self.members)

    @property
    def mask(self) -> int:
        """Bit mask of the members with qubit 0 as the most significant bit."""
        m = 0
        for q in self.members:
            m |= 1 << (self.nqubits - 1 - q)
        return m

    def __str__(self):
        left = "".join(str(q) for q in self.members)
        right = "".join(str(q) for q in self.complement)
        return f"{left}|{right}"


def bipartitions(nqubits: int) -> list:
    """All 2^(N-1) - 1 canonical bipartitions, ordered by size then members."""
    if nqubits < 2:
        raise ValueError(f"need at least 2 qubits, got {nqubits}")
    out = []
    for pattern in range(2 ** (nqubits - 1)):
        members = [0] + [q for q in range(1, nqubits) if pattern & (1 << (q - 1))]
        if len(members) < nqubits:
            out.append(Bipartition(nqubits, tuple(members)))
    return sorted(out, key=lambda bp: (len(bp.members), bp.members))


def bipartite_negativity(rho: np.ndarray, members, nqubits: int) -> float:
    """Sum of |negative eigenvalues| of the partial transpose (oracle path)."""
    pt = partial_transpose(rho, members, nqubits)
    eigs = eig_hermitian(pt)
    return float(-eigs[eigs < 0].sum())


class ArrowheadSchur:
    """Block-arrowhead :class:`sdp.SchurSystem` of the PPT-mixture program.

    The columns are the witness coefficients w, then the coefficients q_M of
    each bipartition M (n = d^2 each).  q_M reaches only the four cone blocks
    of M, so q_M and q_M' never couple and the Schur matrix is

        [ M_ww    M_wq_1  ...  M_wq_K ]
        [ M_q1w   M_q1q1  ...  0      ]
        [ ...             ...         ]
        [ M_qKw   0       ...  M_qKqK ]

    A d x d block with iterates s = S^-1 and x contributes the solver's
    kernel H[alpha, beta] = Re Tr(F_alpha s F_beta x) in the Hermitian basis
    F (``sdp._BlockGeometry.schur_kernel``, which :class:`sdp.DenseSchur`
    calls too).  The blocks P_M and 1-P_M (Q_M and 1-Q_M) carry the same
    columns up to sign, so each pair is one kernel group summed over its two
    blocks, H01_M (H23_M).  With F_alpha^{T_M} = sigma_M[alpha]
    F_{tau_M[alpha]},

        M_ww = sum_M H01_M,   M_wq_M = -H01_M[:, tau_M] sigma_M,
        M_qq_M = sigma_M H01_M[tau_M, tau_M] sigma_M + H23_M.

    :meth:`assemble` runs over chunks of c bipartitions.  A chunk forms the H
    of its 2c block pairs in one kernel call.  Then, bipartition by
    bipartition, it adds H01_M to M_ww and writes M_q_Mw and M_q_Mq_M in
    place while H01_M and H23_M are still in cache.  c = max(1,
    ASSEMBLY_CHUNK_BYTES // (2 * 16 n^2)), the bipartitions whose two pairs'
    complex n x n products fit :data:`ASSEMBLY_CHUNK_BYTES`: all of
    N <= 3 share one chunk, and N = 4 takes one bipartition per chunk.  M_ww
    is summed in bipartition order whatever c is, so the result does not
    depend on c.  The kernel is symmetric to about 1e-16 relative, so
    M_q_Mq_M is used as assembled: its ``dpotrf`` (lower, on the Fortran-
    ordered transpose) reads only the upper triangle of the C-ordered block.

    Factoring eliminates the K q-blocks (n x n Cholesky each, M_qq_M =
    L_M L_M^T) and factors the n x n Schur complement
    M_ww - sum_M wq_M^T wq_M of the w-block, with wq_M = L_M^-1 M_{q_M w}.
    The wq_M are kept as one C-ordered (K, n, n) array, written in place by
    a right-sided triangular solve on its Fortran-ordered transpose.  Its
    (K n, n) reshape is then a view, so the Schur complement and every
    :meth:`solve` (two products with wq per call) read it without a copy.
    """

    def __init__(self, tau: np.ndarray, sigma: np.ndarray, problem: sdp.SdpProblem):
        self._tau, self._sigma = tau, sigma
        self._geom = problem._geom[0]
        self.n = self._geom.L
        self.nparts = len(tau)
        if problem.num_constraints != self.n * (1 + self.nparts):
            raise ValueError(f"program has {problem.num_constraints} constraints, "
                             f"the arrowhead system expects {self.n * (1 + self.nparts)}")
        self.ww = self.qw = self.qq = None       # M_ww, M_{q_M w} and M_{q_M q_M}
        self._chunk = max(1, ASSEMBLY_CHUNK_BYTES // (2 * 16 * self.n ** 2))
        self._lq = self._wq = self._lw = None    # factors, set by factor()

    def assemble(self, sinv_blocks, x_blocks):
        n, k, d = self.n, self.nparts, self._geom.n
        # (pair, block of the pair, d, d) for the pairs (P_M, 1-P_M), (Q_M, 1-Q_M)
        s = np.stack(sinv_blocks).reshape(2 * k, 2, d, d)
        x = np.stack(x_blocks).reshape(2 * k, 2, d, d)
        ww = None
        self.qw = np.empty((k, n, n))
        self.qq = np.empty((k, n, n))
        for m0 in range(0, k, self._chunk):
            m = slice(m0, m0 + self._chunk)
            pairs = slice(2 * m0, 2 * m.stop)
            h = self._geom.schur_kernel(s[pairs], x[pairs])
            for h01, h23, tau, sigma, qw, qq in zip(h[0::2], h[1::2], self._tau[m],
                                                    self._sigma[m], self.qw[m], self.qq[m]):
                # summed in bipartition order from the first term on, as one
                # reduction over the whole stack would
                if ww is None:
                    ww = h01.copy()
                else:
                    ww += h01
                np.multiply(np.take(h01, tau, axis=0), -sigma[:, None], out=qw)
                np.take(qw, tau, axis=1, out=qq)
                qq *= -sigma
                qq += h23
        self.ww = (ww + ww.T) / 2

    def max_diagonal(self):
        return float(max(np.max(np.abs(self.ww.diagonal())),
                         np.max(np.abs(self.qq.diagonal(axis1=1, axis2=2)))))

    def factor(self, shift):
        diag = np.arange(self.n)
        qq = self.qq.copy()
        qq[:, diag, diag] += shift
        # LAPACK is called directly: the scipy.linalg wrappers spend tens of
        # microseconds on argument checks per call, and every factor and solve
        # makes 2K + 1 calls.  q.T is q itself, and Fortran-ordered, so LAPACK
        # factors it in place.
        self._lq = [sdp.lapack_checked(lapack.dpotrf(q.T, lower=1, clean=0, overwrite_a=1),
                                       "dpotrf(q_M block)")
                    for q in qq]
        # solved in place in a copy, since matvec reads qw: on the Fortran-
        # ordered view w.T, X L_M^T = qw_M^T gives X = wq_M^T.  A successful
        # dpotrf leaves a positive diagonal, so L_M needs no singularity check.
        self._wq = self.qw.copy()
        for lq, w in zip(self._lq, self._wq):
            blas.dtrsm(1.0, lq, w.T, side=1, lower=1, trans_a=1, overwrite_b=1)
        wq = self._wq.reshape(-1, self.n)
        sc = self.ww - wq.T @ wq
        sc[diag, diag] += shift
        self._lw = sdp.lapack_checked(lapack.dpotrf(sc, lower=1, clean=0),
                                      "dpotrf(w Schur complement)")

    def solve(self, rhs):
        n, k = self.n, self.nparts
        r = rhs.reshape(len(rhs), -1)
        z = np.stack([sdp.lapack_checked(lapack.dtrtrs(lq, rq, lower=1), "dtrtrs")
                      for lq, rq in zip(self._lq, r[n:].reshape(k, n, -1))])
        rw = r[:n] - self._wq.reshape(-1, n).T @ z.reshape(k * n, -1)
        dw = sdp.lapack_checked(lapack.dpotrs(self._lw, rw, lower=1), "dpotrs")
        dq = np.stack([sdp.lapack_checked(lapack.dtrtrs(lq, zq, lower=1, trans=1), "dtrtrs")
                       for lq, zq in zip(self._lq, z - self._wq @ dw)])
        return np.concatenate([dw, dq.reshape(k * n, -1)]).reshape(rhs.shape)

    def matvec(self, v):
        n, k = self.n, self.nparts
        v2 = v.reshape(len(v), -1)
        vw, vq = v2[:n], v2[n:].reshape(k, n, -1)
        out_w = self.ww @ vw + self.qw.reshape(-1, n).T @ vq.reshape(k * n, -1)
        out_q = self.qw @ vw + self.qq @ vq
        return np.concatenate([out_w, out_q.reshape(k * n, -1)]).reshape(v.shape)


@lru_cache(maxsize=None)
def _program_structure(nqubits: int):
    """Constraint matrix, objective and extraction metadata for N qubits.

    Only the right-hand side of the SDP depends on the state, so everything
    else is built once per qubit count and shared by all solves.
    """
    d = 2**nqubits
    n_basis = d * d
    parts = bipartitions(nqubits)
    n_parts = len(parts)
    block_dims = (d,) * (4 * n_parts)
    geom = sdp._geometry(d)

    c_blocks = []
    for _ in parts:
        c_blocks += [np.zeros((d, d)), np.eye(d), np.zeros((d, d)), np.eye(d)]

    # for a stack of K matrices H_M, the flat indices of the entries of H_M^{T_M}
    transpose = np.stack([partial_transpose(np.arange(n_basis).reshape(d, d),
                                            part.members, nqubits).ravel() + mi * n_basis
                          for mi, part in enumerate(parts)])
    # The partial transpose maps the solver's basis onto itself up to sign,
    # F_alpha^{T_M} = sigma[M, alpha] F_{tau[M, alpha]}.  Both svec and T_M are
    # linear, so one matrix reads off every image: coordinate tau[M, alpha]
    # of svec((sum_alpha (alpha + 1) F_alpha)^{T_M}) is sigma[M, alpha] (alpha + 1).
    labels = np.take(geom.smat(np.arange(1.0, n_basis + 1)).ravel(), transpose % n_basis)
    images = geom.svec(labels.reshape(n_parts, d, d))
    tau = np.empty((n_parts, n_basis), dtype=np.intp)
    sigma = np.empty((n_parts, n_basis))
    alpha = np.rint(np.abs(images)).astype(np.intp) - 1
    np.put_along_axis(tau, alpha, np.arange(n_basis)[None, :], axis=1)
    np.put_along_axis(sigma, alpha, np.sign(images), axis=1)

    # constraint columns: y = (w coefficients, then q coefficients per
    # bipartition).  Coordinate alpha of a cone block is F_alpha, so a column
    # has one entry +-1 in each block it reaches.
    alpha = np.arange(n_basis)
    rows, cols, vals = [], [], []

    def add(block, coords, col, val):
        rows.append(block * n_basis + coords)
        cols.append(col)
        vals.append(np.broadcast_to(val, n_basis))

    for mi in range(n_parts):
        q_col = n_basis * (1 + mi) + alpha
        add(4 * mi + 0, alpha, alpha, -1.0)          # P_M block:   S = W - Q^{T_M}
        add(4 * mi + 1, alpha, alpha, +1.0)          # 1-P_M block: S = 1 - W + Q^{T_M}
        add(4 * mi + 0, tau[mi], q_col, sigma[mi])   # ... - Q^{T_M} inside the P_M slack
        add(4 * mi + 1, tau[mi], q_col, -sigma[mi])
        add(4 * mi + 2, alpha, q_col, -1.0)          # Q_M >= 0 slack is Q itself
        add(4 * mi + 3, alpha, q_col, +1.0)

    m = n_basis * (1 + n_parts)
    a_csc = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(len(block_dims) * n_basis, m))
    skeleton = sdp.SdpProblem.from_svec_columns(block_dims, c_blocks, a_csc, np.zeros(m))
    skeleton.schur_factory = partial(ArrowheadSchur, tau, sigma)
    return {
        "nqubits": nqubits,
        "dim": d,
        "parts": parts,
        "skeleton": skeleton,
        "geom": geom,
        "transpose": transpose,
        "tau": tau,
        "sigma": sigma,
        "n_basis": n_basis,
    }


def _rhs_for(rho: np.ndarray, structure) -> np.ndarray:
    b = np.zeros(structure["skeleton"].num_constraints)
    b[:structure["n_basis"]] = -structure["geom"].svec(rho)
    return b


def build_program(rho: np.ndarray, nqubits: int | None = None) -> sdp.SdpProblem:
    """PPT-mixture program for ρ in the solver's standard form.

    Both sides are strictly feasible, so the program is solvable, its optimum
    is attained and there is no duality gap.  :func:`_start_point` gives the
    interior point every :func:`genuine_negativity` solve starts from.
    """
    rho = np.asarray(rho, dtype=complex)
    n = check_density_matrix(rho, nqubits)
    structure = _program_structure(n)
    return structure["skeleton"].with_rhs(_rhs_for(rho, structure))


def _start_point(rho: np.ndarray, structure) -> tuple:
    """A strictly feasible primal-dual point of the program for ρ, from ρ alone.

    Returns ``(x_blocks, y, s_blocks)`` for ``sdp.solve(start=...)``, blocks in
    the program's order (P_M, 1-P_M, Q_M, 1-Q_M per bipartition), K
    bipartitions and d = 2^N.

    Dual side: W = 1 and every Q_M = 1/2, so P_M = W - Q_M^{T_M} = 1/2 and
    every slack is 1/2, the centre of its [0, 1] box; the point is exactly
    dual feasible.

    Primal side: the split ρ_M = ρ/K, with X_{P_M} = (ρ + 1/d)/K, X_{1-P_M} =
    1/(Kd), X_{Q_M} = 1/(Kd) + [(ρ/K)^{T_M}]_+ and X_{1-Q_M} = 1/(Kd) +
    [(ρ/K)^{T_M}]_-, the positive and negative parts of one eigendecomposition.
    Then sum_M (X_{P_M} - X_{1-P_M}) = ρ and X_{Q_M} - X_{1-Q_M} =
    (X_{P_M} - X_{1-P_M})^{T_M}, which are the program's equality
    constraints, up to rounding, and every block is at least 1/(Kd) > 0.
    """
    k, d = len(structure["parts"]), structure["dim"]
    eye = np.eye(d)
    floor = eye / (k * d)
    # (ρ/K)^{T_M} for every M, through the structure's transpose table
    transposed = np.take(rho.ravel() / k, structure["transpose"] % (d * d)).reshape(k, d, d)
    lam, vec = np.linalg.eigh(transposed)
    vec_h = np.conj(vec).transpose(0, 2, 1)
    positive = (vec * np.maximum(lam, 0)[:, None, :]) @ vec_h
    negative = (vec * np.maximum(-lam, 0)[:, None, :]) @ vec_h
    x_p = (rho + eye / d) / k
    x_blocks = []
    for pos, neg in zip(positive, negative):
        x_blocks += [x_p, floor, floor + pos, floor + neg]
    geom = structure["geom"]
    y = np.concatenate([geom.svec(eye)] + [geom.svec(eye / 2)] * k)
    return x_blocks, y, [eye / 2] * (4 * k)


@dataclass
class GmnResult:
    """Outcome of one PPT-mixture solve: a certified bracket E_lo <= E <= E_hi.

    The lower bound comes from a feasible witness W' = P'_M + Q'_M^{T_M}
    (0 <= P'_M, Q'_M <= 1): E >= -Tr(W' rho).  The upper bound comes from a
    split rho = sum_M rho_M: E <= sum_M neg(rho_M) + neg(rho_M^{T_M}).
    :func:`certificate_diagnostics` rechecks both with eigendecompositions.
    """

    nqubits: int
    value: float                 # E_lo; 0 when E_hi <= BRACKET_TOL; NaN unless solved
    objective: float             # Tr(W' rho), so E_lo = max(0, -objective)
    witness: np.ndarray          # W'
    decompositions: dict         # Bipartition -> (P'_M, Q'_M)
    certificate_ok: bool
    solver: sdp.SdpSolution
    e_hi: float = math.inf
    split: dict | None = None    # Bipartition -> rho_M, summing to rho

    @property
    def e_lo(self) -> float:
        return max(0.0, -self.objective)

    @property
    def solved(self) -> bool:
        """True when the bracket closed to BRACKET_TOL, whatever the solver status."""
        return self.e_hi - self.e_lo <= BRACKET_TOL

    @property
    def detected(self) -> bool:
        """True when genuine multiparticle entanglement is certified."""
        return self.solved and self.value > 0

    def failure(self) -> str:
        """Why an unsolved result is unusable: the solver's stop and the open bracket."""
        return (f"{self.solver.status.value} ({self.solver.message}); the bracket "
                f"[{self.e_lo:.9f}, {self.e_hi:.9f}] did not close: width "
                f"{self.e_hi - self.e_lo:.2e} > {BRACKET_TOL:.0e}")


class _Bracket:
    """The best certified bounds on E over the iterates of one solve.

    :meth:`closed` is the solve's stop callback.

    Upper bound, at every iterate: the primal blocks give rho_M = X_{P_M} -
    X_{1-P_M}; the residual rho - sum_M rho_M goes into
    the first, which makes the split exact at any iterate, feasible or not,
    and E <= sum_M neg(rho_M) + neg(rho_M^{T_M}).

    Lower bound: W and every Q_M come from y, and P_M = W - Q_M^{T_M}.  With
    eps >= 0 the largest distance of an eigenvalue of any P_M or Q_M outside
    [0, 1], W' = (W + 2 eps)/(1 + 2 eps) = P'_M + Q'_M^{T_M} with P'_M =
    (P_M + eps)/(1 + 2 eps) and Q'_M likewise is feasible, so E >= -Tr(W'
    rho).  Tr(W' rho) is a mean of Tr(W rho) and Tr(rho) = 1, so a witness
    can only beat the best so far, or close the bracket, when Tr(W rho) does.
    Witnesses therefore wait in a heap ordered by Tr(W rho) and are repaired
    only when one of them could close the bracket, and at the end while one
    could still improve E_lo.  The lower bound is the best over all iterates
    all the same, and the solve stops at the same iterate as if every
    witness were repaired at once, for a fraction of the eigendecompositions.

    Partial transposes permute matrix entries through the structure's
    ``transpose`` table.  Each bound takes one batched eigvalsh of 2K
    matrices: rho_M and rho_M^{T_M}, or P_M and Q_M.
    """

    def __init__(self, rho: np.ndarray, structure):
        self._structure = structure
        self._k, self._d = len(structure["parts"]), structure["dim"]
        self._rho = rho
        self._rho_coeffs = structure["geom"].svec(rho)
        self._trace = float(np.trace(rho).real)
        transpose = structure["transpose"]
        # the entries of rho_M, then of rho_M^{T_M}, in a stack of the rho_M
        self._split_entries = np.concatenate(
            [np.arange(transpose.size).reshape(transpose.shape), transpose])
        self.objective = math.inf      # the smallest Tr(W' rho) of a repaired witness
        self.e_hi = math.inf           # the smallest upper bound so far
        self._witness = None           # (W, P_M stack, Q_M stack, eps) behind self.objective
        self._split = None             # rho_M stack behind self.e_hi
        self._pending = []             # heap of (Tr(W rho), arrival, y) not yet repaired
        self._arrivals = itertools.count()

    @property
    def e_lo(self) -> float:
        return max(0.0, -self.objective)

    def closed(self, x_blocks, y, s_blocks) -> bool:
        """Update both bounds from one iterate; True once E_hi - E_lo <= BRACKET_TOL."""
        k, d = self._k, self._d
        heapq.heappush(self._pending, (float(y[:d * d] @ self._rho_coeffs),
                                       next(self._arrivals), y.copy()))
        split = (np.array(x_blocks[0::4]) - np.array(x_blocks[1::4])).reshape(k, d * d)
        split[0] += self._rho.ravel() - split.sum(axis=0)
        eigs = np.linalg.eigvalsh(np.take(split, self._split_entries).reshape(2 * k, d, d))
        e_hi = -float(np.minimum(eigs, 0).sum())
        if e_hi < self.e_hi:
            self.e_hi, self._split = e_hi, split.reshape(k, d, d)
        # a witness with Tr(W rho) = t has E_lo <= max(0, -t)
        need = self.e_hi - BRACKET_TOL
        while self.e_lo < need and self._pending and -self._pending[0][0] >= need:
            self._repair(heapq.heappop(self._pending)[2])
        return self.e_hi - self.e_lo <= BRACKET_TOL

    def _repair(self, y: np.ndarray) -> None:
        """The repaired witness of one iterate; kept if it lowers the objective."""
        k, d = self._k, self._d
        mats = self._structure["geom"].smat(y.reshape(1 + k, d * d))
        w, q = mats[0], mats[1:]
        p = w - np.take(q, self._structure["transpose"]).reshape(k, d, d)
        eigs = np.linalg.eigvalsh(np.concatenate([p, q]))
        eps = max(0.0, -float(eigs[:, 0].min()), float(eigs[:, -1].max()) - 1)
        objective = ((float(y[:d * d] @ self._rho_coeffs) + 2 * eps * self._trace)
                     / (1 + 2 * eps))
        if objective < self.objective:
            self.objective, self._witness = objective, (w, p, q, eps)

    def result(self, solver: sdp.SdpSolution) -> GmnResult:
        """The bracket as a result, with W', every (P'_M, Q'_M) and the split."""
        while self._pending and self._pending[0][0] < self.objective:
            self._repair(heapq.heappop(self._pending)[2])
        w, p, q, eps = self._witness
        shift = eps * np.eye(len(w))
        parts = self._structure["parts"]
        result = GmnResult(
            nqubits=self._structure["nqubits"], value=math.nan, objective=self.objective,
            witness=(w + 2 * shift) / (1 + 2 * eps),
            decompositions={part: ((p_m + shift) / (1 + 2 * eps), (q_m + shift) / (1 + 2 * eps))
                            for part, p_m, q_m in zip(parts, p, q)},
            certificate_ok=False, solver=solver, e_hi=self.e_hi,
            split=dict(zip(parts, self._split)))
        if result.solved:
            result.value = 0.0 if self.e_hi <= BRACKET_TOL else self.e_lo
        return result


def genuine_negativity(rho: np.ndarray, nqubits: int | None = None) -> GmnResult:
    """Compute the genuine multiparticle negativity E(ρ) with its certified bracket.

    The solve starts from :func:`_start_point`, feasible on both sides, and
    stops at the first iterate where the best bounds so far satisfy
    E_hi - E_lo <= :data:`BRACKET_TOL` (see :class:`_Bracket`), and reports
    E = E_lo.  When the bracket never closes, whatever the solver status, the
    result is an explicit failure (NaN value, ``certificate_ok`` False) that
    still carries its bracket, rather than a silent zero.
    """
    rho = np.asarray(rho, dtype=complex)
    n = check_density_matrix(rho, nqubits)
    structure = _program_structure(n)
    problem = structure["skeleton"].with_rhs(_rhs_for(rho, structure))
    bracket = _Bracket(rho, structure)
    result = bracket.result(sdp.solve(problem, stop=bracket.closed,
                                      start=_start_point(rho, structure)))
    if result.solved:
        result.certificate_ok = verify_certificate(result, rho)
    return result


def certificate_diagnostics(result: GmnResult, rho: np.ndarray) -> list:
    """Recheck both ends of the bracket with plain linear algebra.

    Lower end: for every bipartition W' = P'_M + Q'_M^{T_M} entrywise, the
    eigenvalues of P'_M and Q'_M lie in [0, 1], and Tr(W' rho) reproduces the
    reported objective, hence E_lo.  Upper end: the split is Hermitian and
    sums to rho, and sum_M neg(rho_M) + neg(rho_M^{T_M}) reproduces E_hi (a
    result without a split claims no upper bound, E_hi = inf).  Every check is
    absolute, at :data:`CERTIFICATE_TOL`.  Returns a list of human-readable
    violations (empty when the certificate stands).  Nothing here trusts the
    solver beyond the values being checked.
    """
    tol = CERTIFICATE_TOL
    issues = []
    w = result.witness
    n = result.nqubits
    for part, (p_m, q_m) in result.decompositions.items():
        resid = float(np.max(np.abs(w - p_m - partial_transpose(q_m, part.members, n))))
        if resid > tol:
            issues.append(f"decomposition residual {resid:.3e} > {tol:.0e} "
                          f"for bipartition {part}")
        for name, block in (("P", p_m), ("Q", q_m)):
            eigs = eig_hermitian(block)
            if eigs[0] < -tol or eigs[-1] > 1 + tol:
                issues.append(f"{name}_{part} eigenvalues [{eigs[0]:.3e}, {eigs[-1]:.3e}] "
                              f"outside [0, 1] beyond {tol:.0e}")
    trace_val = float(np.trace(w @ rho).real)
    if abs(trace_val - result.objective) > tol:
        issues.append(f"Tr(W rho) = {trace_val:.12f} differs from objective "
                      f"{result.objective:.12f} by more than {tol:.0e}")
    if result.split is None:
        if math.isfinite(result.e_hi):
            issues.append(f"E_hi = {result.e_hi:.12f} is claimed without a split")
        return issues
    resid = float(np.max(np.abs(sum(result.split.values()) - rho)))
    if resid > tol:
        issues.append(f"split residual |sum_M rho_M - rho| = {resid:.3e} > {tol:.0e}")
    e_hi = 0.0
    for part, rho_m in result.split.items():
        asym = float(np.max(np.abs(rho_m - rho_m.conj().T)))
        if asym > tol:
            issues.append(f"rho_{part} is not Hermitian: max |rho_M - rho_M^dagger| = {asym:.3e}")
            rho_m = hermitian_part(rho_m)
        e_hi += bipartite_negativity(rho_m, (), n) + bipartite_negativity(rho_m, part.members, n)
    if abs(e_hi - result.e_hi) > tol:
        issues.append(f"the split gives E_hi = {e_hi:.12f}, not the reported "
                      f"{result.e_hi:.12f}")
    return issues


def verify_certificate(result: GmnResult, rho: np.ndarray) -> bool:
    """True iff the witness certificate survives independent rechecking."""
    return not certificate_diagnostics(result, rho)
