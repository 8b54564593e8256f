"""Genuine multiparticle negativity via the PPT-mixture semidefinite program.

The monotone E(ρ) is the absolute value of

    minimize Tr(W ρ)  over Hermitian W such that, for every bipartition M|M̄,
    W = P_M + Q_M^{T_M}  with  0 <= P_M <= 1  and  0 <= Q_M <= 1,

whenever that minimum is negative (otherwise E = 0 and the state is not
detected as genuinely multiparticle entangled — some entangled states are
PPT mixtures, so a zero never claims biseparability).  A negative optimum
makes W a decomposable entanglement witness for every bipartition, which is
the independently checkable certificate.

The program is handed to the Hermitian solver in ``sdp`` in the variables W
and R_M = Q_M^{T_M}, so that P_M = W - R_M and Q_M = R_M^{T_M}: the
witness-side variables are the solver's free dual vector y, expressed in the
solver's orthonormal Hermitian basis of the d x d matrices (d = 2^N), and
each bipartition contributes four d x d cone blocks (P_M, 1-P_M, Q_M,
1-Q_M).  Coordinate alpha of a block is basis element F_alpha, so every
constraint column is a +-1 entry per block it reaches, and the coefficients
of a matrix are its svec.  The partial transpose maps the basis onto itself
up to sign, F_alpha^{T_M} = sigma_M[alpha] F_{tau_M[alpha]}, and those
signed entries sit in the Q_M and 1-Q_M blocks.

The coefficients r_M of bipartition M reach only the four blocks of M, so the
solver's Schur matrix is block-arrowhead: the witness columns w border K
diagonal r-blocks that never couple to each other (K = 2^(N-1) - 1).  The
program supplies :class:`ArrowheadSchur` as its ``sdp.SchurSystem``.  It
assembles each block pair's contribution with the solver's Schur kernel,
eliminates the K r-blocks of size d^2, and factors only the d^2 x d^2 Schur
complement of the w-block.  The generic dense path would instead form and
factor a (K + 1) d^2 square matrix, 2048 x 2048 at N = 4.

Assembly is bound by memory traffic, not arithmetic: the kernel of a block
pair writes one d^2 x d^2 product, gathers half its rows through an intp
table and folds them into the real d^2 x d^2 kernel.  In the variables R_M no
Schur block needs a permutation or a sign: the (P_M, 1-P_M) pair's kernel
enters as it is, and the (Q_M, 1-Q_M) pair's is gathered in the partially
transposed basis through a table of transposed matrix units.  The assembly
runs in chunks of block pairs; each chunk writes its kernels straight into
the stored Schur blocks, and each bipartition is added up in place once both
its pairs are written.  The chunk size follows from the product of a pair and
the byte budget :data:`ASSEMBLY_CHUNK_BYTES`: all six pairs of N = 3 share
one chunk, and at N = 4 each pair is its own chunk, so its product is still
in cache when it is gathered.  The arithmetic, and so every rounding, does
not depend on the chunk size.

Factoring forms wq_M = -L_M^-1 H01_M for every r-block factor L_M by forward
substitution in row blocks of :data:`SOLVE_BLOCK_ROWS`, so that most of its
flops run in ``dgemm`` rather than in the slower ``dtrsm``; up to N = 3 that
is one ``dtrsm`` per factor.

An N = 4 iteration writes about 18 MB of Schur blocks, kernel scratch and
factors, the same shapes every time.  They live in a :class:`_Workspace`,
one per program shape in use at once.  :func:`genuine_negativity` borrows one
from a free list kept with the program structure for the length of its solve
and hands it to the arrowhead system, so back-to-back solves reuse memory
that is already mapped instead of faulting in fresh pages every iteration.
A system built straight from the program's ``schur_factory``, as the tests
and the dense oracle comparisons build them, allocates a private workspace.

Every solve starts from an interior point built from rho alone
(:func:`_start_point`) and strictly feasible on both sides.  Dual side: W = 1
and every Q_M = 1/2 make P_M = 1/2, so every slack is 1/2, the centre of its
[0, 1] box.  Primal side: the split rho_M = rho/K with a floor 1/(Kd) in
every block, the partial transpose of rho/K split into its positive and
negative parts across Q_M and 1-Q_M, meets every equality constraint up to
rounding.  From the solver's generic cold start X = S = tau 1, y = 0, which
is infeasible on both sides, the bracket of an N = 4 solve can sit still for
the first four iterations; the benchmark's four N = 4 solves take 3/8/7/10
iterations from this start against 6/10/10/13 from the cold one.

Every result is a certified bracket E_lo <= E <= E_hi, taken through the
solver's stop callback at every interior-point iterate and at every full
Newton point (X + dX, y + dy, S + dS) before the step is cut back into the
cone, and kept as the best over all of them.  Neither bound needs its point
inside the cone or on the constraints:

* E_lo = max(0, -Tr(W' rho)) for a witness repaired to exact feasibility: W
  and the R_M come from the dual vector, P_M = W - R_M and Q_M = R_M^{T_M},
  and with eps the largest excursion of an eigenvalue of any P_M or Q_M
  outside [0, 1], W' = (W + 2 eps)/(1 + 2 eps) (Jansson-Chaykin-Keil, SIAM
  J. Numer. Anal. 46, 180 (2007));
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
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from . import sdp
from .linalg import check_density_matrix, eig_hermitian, hermitian_part, partial_transpose

# A solve ends, and its result is usable, once E_hi - E_lo is at most this.
# Generic states give programs without a strictly complementary optimum,
# where the solver's own gap and residual tests stall near 1e-8 while the
# bracket is already far narrower than this; at 1e-7 a few such brackets
# (widths 1.0-1.6e-7 seen on Haar-3 states) never close before the stall.
BRACKET_TOL = 5e-7

# Absolute tolerance of every check in certificate_diagnostics: the repaired
# witness and the split satisfy their constraints up to rounding alone.
CERTIFICATE_TOL = 1e-9

# Budget for the d^2 x d^2 products (real and imaginary parts) of the block
# pairs that one chunk of the arrowhead assembly holds at once; their gathered
# half rows take half as much again.  On a Xeon with 2 MB of L2 cache per
# core, an N = 4 assembly took 8.7 ms with one bipartition (two pairs) per
# chunk and 13-17 ms with two or seven, and the kernels of one bipartition
# 490-530 us pair by pair against 550 us in one call.
ASSEMBLY_CHUNK_BYTES = 2**20

# Row block of the forward substitution that forms wq_M = -L_M^-1 H01_M in
# ArrowheadSchur.factor (_lower_solve).  With one OpenBLAS thread on a 2-vCPU
# Xeon, the seven solves of N = 4 (256 rows) took 4.9 ms as one dtrsm each,
# 3.8 ms in halves, 3.3-3.4 ms in blocks of 64 and 3.3 ms in blocks of 32.
# The three of N = 3 (64 rows) took 60 us in halves against 49 us whole, so
# N <= 3 keeps one block.
SOLVE_BLOCK_ROWS = 64

# The qubit counts the program is built for.  At N = 5 it has 16384
# constraints and one solve would hold ~250 MB of Schur blocks.
QUBIT_RANGE = (2, 4)


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

    The columns are the witness coefficients w, then the coefficients r_M of
    each R_M = Q_M^{T_M} (n = d^2 each).  r_M reaches only the four cone
    blocks of M, so r_M and r_M' never couple and the Schur matrix is

        [ M_ww    M_wr_1  ...  M_wr_K ]
        [ M_r1w   M_r1r1  ...  0      ]
        [ ...             ...         ]
        [ M_rKw   0       ...  M_rKrK ]

    A d x d block with iterates s = S^-1 and x contributes the solver's
    kernel H^[alpha, beta] = Re Tr(F^_alpha s F^_beta x) in the unnormalised
    Hermitian basis F^ (``sdp._BlockGeometry.schur_kernel``, which
    :class:`sdp.DenseSchur` calls too).  The blocks P_M and 1-P_M (Q_M and
    1-Q_M) carry the same columns up to sign, so each pair is one kernel
    group summed over its two blocks: H01_M over the basis F^ itself, and
    H23_M^Γ over the partially transposed basis F^_alpha^{T_M}, in which the
    Q pair's constraint columns are plain +-1 entries.  Then M = D M^ D with D
    the svec scale ``delta`` of the geometry, one copy per column block, and

        M^_ww = sum_M H01_M,   M^_{r_M w} = -H01_M,   M^_{r_M r_M} = H01_M + H23_M^Γ.

    No block needs a permutation or a sign.  E_ab^{T_M} is again a matrix
    unit, so H23_M^Γ is gathered from the Q pair's product G through the
    table ``kernel_table(units)`` of the transposed units, and the kernel's
    fold needs no change.  The tables come from the program (intp, one per
    bipartition); the P pairs use the geometry's own table.

    :meth:`assemble` reads the solver's (4K, d, d) stacks of S^-1 and X as
    (2K, 2, d, d) views, one row per block pair, without a copy.  It runs
    over chunks of c block pairs.  A chunk forms the kernels of its pairs in
    one kernel call, written straight into the stored (K, 2, n, n) array
    whose rows are H01_M and M^_{r_M r_M}.  Then, bipartition by
    bipartition, it adds H01_M to M^_ww and to H23_M^Γ in place.  c =
    max(1, ASSEMBLY_CHUNK_BYTES // (16 n^2)), the pairs whose n x n products
    (real and imaginary parts) fit :data:`ASSEMBLY_CHUNK_BYTES`: all of N <=
    3 share one chunk, and N = 4 takes one pair per chunk.  M^_ww is summed
    in bipartition order whatever c is, so the result does not depend on c.
    The kernel is symmetric to about 1e-16 relative, so M^_{r_M r_M} is used
    as assembled: its ``dpotrf`` (lower, on the Fortran-ordered transpose)
    reads only the upper triangle of the C-ordered block.

    D stays out of the stored blocks: :meth:`solve` and :meth:`matvec` scale
    their vectors by D^-1 and D, and the shift of :meth:`factor` enters M^ as
    shift D^-2 = shift diag(1, 2, 2), since (M + shift) = D (M^ + shift D^-2) D.
    :meth:`max_diagonal` reads the diagonal of M^ times D^2.

    Factoring eliminates the K r-blocks (n x n Cholesky each, M^_{r_M r_M} =
    L_M L_M^T) and factors the n x n Schur complement
    M^_ww - sum_M wq_M^T wq_M of the w-block, with wq_M = -L_M^-1 H01_M.
    The wq_M are kept as one C-ordered (K, n, n) array, written by
    :func:`_lower_solve`: right-sided triangular solves on the
    Fortran-ordered transposes of its row blocks, with one batched product
    per row block for the rows before it.  Its (K n, n) reshape is a view,
    so the Schur complement and every :meth:`solve` (two products with wq
    per call) read it without a copy.

    Every array the system writes lives in its :class:`_Workspace`: the
    blocks, M^_ww, the kernel's scratch, the shifted r-blocks that
    ``dpotrf`` factors in place, wq and the w-block Schur complement.
    ``ww``, ``h01``, ``qq`` and the factors are views into it.  The system
    borrows ``workspace`` when one is given (:func:`genuine_negativity`
    lends one for the length of a solve); otherwise it allocates its own, so
    two systems built from one problem never share an array.  A workspace
    allocates its factor side at its first :meth:`factor`.
    """

    def __init__(self, tables, problem: sdp.SdpProblem, workspace: _Workspace | None = None):
        self._geom = problem._geom
        self.n = self._geom.L
        self.nparts = len(tables)
        if problem.num_constraints != self.n * (1 + self.nparts):
            raise ValueError(f"program has {problem.num_constraints} constraints, "
                             f"the arrowhead system expects {self.n * (1 + self.nparts)}")
        if workspace is None:
            workspace = _Workspace(self.nparts, self._geom)
        self._ws = workspace
        self._chunk = workspace.chunk
        self.ww = self.h01 = self.qq = None      # M^_ww and views of the blocks
        # per chunk, the kernel table of each block pair: None (the geometry's
        # own) for every (P_M, 1-P_M), the transposed units for (Q_M, 1-Q_M)
        pair_tables = [t for table in tables for t in (None, table)]
        self._tables = [tuple(pair_tables[p0:p0 + self._chunk])
                        for p0 in range(0, len(pair_tables), self._chunk)]
        self._delta = np.tile(self._geom.delta, 1 + self.nparts)
        self._lq = self._wq = self._lw = None    # factors, set by factor()

    def assemble(self, sinv, x):
        n, k, d = self.n, self.nparts, self._geom.n
        # (pair, block of the pair, d, d) for the pairs (P_M, 1-P_M), (Q_M, 1-Q_M)
        s = sinv.reshape(2 * k, 2, d, d)
        x = x.reshape(2 * k, 2, d, d)
        ws = self._ws
        blocks, ww = ws.blocks, ws.ww_sum
        ww.fill(0.0)
        summed = 0      # bipartitions added to M^_ww so far
        for p0, tables in zip(range(0, 2 * k, self._chunk), self._tables):
            pairs = slice(p0, min(p0 + self._chunk, 2 * k))
            self._geom.schur_kernel(s[pairs], x[pairs], tables,
                                    out=blocks.reshape(2 * k, n, n)[pairs], work=ws.kernel)
            # every bipartition whose two pairs are written, in bipartition
            # order, as one reduction over the whole stack would sum them
            for h01, qq in blocks[summed:pairs.stop // 2]:
                ww += h01
                qq += h01
            summed = pairs.stop // 2
        self.ww = np.add(ww, ww.T, out=ws.ww)
        self.ww /= 2
        self.h01, self.qq = blocks[:, 0], blocks[:, 1]

    def max_diagonal(self):
        diagonals = np.concatenate([self.ww.diagonal()[None], self.qq.diagonal(axis1=1, axis2=2)])
        return float(np.max(np.abs(diagonals) * self._geom.delta ** 2))

    def factor(self, shift):
        n = self.n
        lq, wq, sc = self._ws.factor_arrays()
        diag = np.arange(n)
        shifts = shift / self._geom.delta ** 2
        np.copyto(lq, self.qq)
        lq[:, diag, diag] += shifts
        # LAPACK is called directly: the scipy.linalg wrappers spend tens of
        # microseconds on argument checks per call, and every factor and solve
        # makes 2K + 1 calls.  q.T is q itself, and Fortran-ordered, so LAPACK
        # factors it in place.
        self._lq = [sdp.lapack_checked(lapack.dpotrf(q.T, lower=1, clean=0, overwrite_a=1),
                                       "dpotrf(r_M block)")
                    for q in lq]
        # wq is written apart from h01, which matvec reads.  A successful
        # dpotrf leaves a positive diagonal, so L_M needs no singularity check.
        _lower_solve(lq, self.h01, wq)
        self._wq = wq
        wq = wq.reshape(-1, n)
        np.matmul(wq.T, wq, out=sc)
        np.subtract(self.ww, sc, out=sc)
        sc[diag, diag] += shifts
        # sc is exactly symmetric (numpy forms wq^T wq as a rank-k update),
        # so its Fortran-ordered view sc.T is the same matrix, factored in place
        self._lw = sdp.lapack_checked(lapack.dpotrf(sc.T, lower=1, clean=0, overwrite_a=1),
                                      "dpotrf(w Schur complement)")

    def solve(self, rhs):
        # every block solve writes straight into its slice of z or of the output
        n, k = self.n, self.nparts
        r = rhs.reshape(len(rhs), -1) / self._delta[:, None]
        z = np.empty((k, n, r.shape[1]))
        for lq, rq, zq in zip(self._lq, r[n:].reshape(k, n, -1), z):
            zq[...] = sdp.lapack_checked(lapack.dtrtrs(lq, rq, lower=1), "dtrtrs")
        rw = r[:n] - self._wq.reshape(-1, n).T @ z.reshape(k * n, -1)
        out = np.empty(((k + 1) * n, r.shape[1]))
        dw = out[:n]
        dw[...] = sdp.lapack_checked(lapack.dpotrs(self._lw, rw, lower=1), "dpotrs")
        for lq, zq, dq in zip(self._lq, z - self._wq @ dw, out[n:].reshape(k, n, -1)):
            dq[...] = sdp.lapack_checked(lapack.dtrtrs(lq, zq, lower=1, trans=1), "dtrtrs")
        out /= self._delta[:, None]
        return out.reshape(rhs.shape)

    def matvec(self, v):
        n, k = self.n, self.nparts
        v2 = v.reshape(len(v), -1) * self._delta[:, None]
        vw, vq = v2[:n], v2[n:].reshape(k, n, -1)
        out = np.empty_like(v2)
        out[:n] = self.ww @ vw - (self.h01.transpose(0, 2, 1) @ vq).sum(axis=0)
        out[n:] = (self.qq @ vq - self.h01 @ vw).reshape(k * n, -1)
        out *= self._delta[:, None]
        return out.reshape(v.shape)


class _Workspace:
    """Every array that one :class:`ArrowheadSchur` iteration writes.

    One workspace serves any number of solves of one program shape (K
    bipartitions, r-blocks of n = d^2 rows), one solve at a time.  Assembly
    side, allocated here: the (K, 2, n, n) blocks (rows H01_M and
    M^_{r_M r_M}), M^_ww and the sum it is symmetrized from, and the Schur
    kernel's product G and half rows for one chunk of block pairs
    (``sdp._BlockGeometry.kernel_work``).  Factor side, allocated by the first
    :meth:`factor_arrays` call: the shifted r-blocks that ``dpotrf`` factors
    in place, wq and the Schur complement of the w-block.  At N = 4 the two
    sides take 10.0 and 7.9 MB; building a system and assembling once thus
    peaks at 1.4 times the assembled blocks.  Every array is written
    before it is read in each iteration, so a workspace carries nothing from
    one solve to the next.
    """

    def __init__(self, nparts: int, geom):
        n = geom.L
        self.nparts, self.n = nparts, n
        # block pairs per chunk of the assembly
        self.chunk = max(1, ASSEMBLY_CHUNK_BYTES // (16 * n ** 2))
        self.blocks = np.empty((nparts, 2, n, n))
        self.ww, self.ww_sum = np.empty((2, n, n))
        self.kernel = geom.kernel_work(min(self.chunk, 2 * nparts))
        self._factor = None

    def factor_arrays(self) -> tuple:
        """(shifted r-blocks, wq, w-block Schur complement), allocated on the first call."""
        if self._factor is None:
            k, n = self.nparts, self.n
            self._factor = (np.empty((k, n, n)), np.empty((k, n, n)), np.empty((n, n)))
        return self._factor


def _lower_solve(lt: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out[m] = -L_m^-1 b[m] for each lower triangle L_m, given as ``lt[m]`` = L_m^T.

    ``lt``, ``b`` and ``out`` are C-ordered (K, n, n) stacks; ``lt`` holds the
    factors as ``dpotrf`` leaves them in a Fortran-ordered view, and its upper
    triangle (of L_m) is never read.

    Forward substitution in row blocks of :data:`SOLVE_BLOCK_ROWS`: with
    rows r of block i and the rows p before it, out_r = -L_rr^-1 (b_r +
    L_rp out_p).  The products L_rp out_p, one batched ``matmul`` over the
    K factors per block, move most of the flops from ``dtrsm`` to
    ``dgemm``, which OpenBLAS runs about three times faster on these
    operands.  Each ``dtrsm`` is right-sided, on the Fortran-ordered
    transpose of the rows of out[m]: X L_rr^T = -c^T gives X = out_r^T.  It
    copies its triangle, a strided view, into a contiguous array.  Up to
    SOLVE_BLOCK_ROWS rows (N <= 3) there is one block, and one ``dtrsm``
    per factor.
    """
    n = lt.shape[-1]
    for start in range(0, n, SOLVE_BLOCK_ROWS):
        r = slice(start, min(start + SOLVE_BLOCK_ROWS, n))
        if start == 0:
            np.copyto(out[:, r], b[:, r])
        else:
            # L_rp = lt[:, p, r]^T, for the whole stack at once
            np.matmul(lt[:, :start, r].transpose(0, 2, 1), out[:, :start], out=out[:, r])
            out[:, r] += b[:, r]
        for low, o in zip(lt, out):
            blas.dtrsm(-1.0, low.T[r, r], o[r].T, side=1, lower=1, trans_a=1, overwrite_b=1)


@lru_cache(maxsize=None)
def _program_structure(nqubits: int):
    """Constraint matrix, objective and extraction metadata for N qubits.

    Only the right-hand side of the SDP depends on the state, so everything
    else is built once per qubit count and shared by all solves.  A qubit
    count outside :data:`QUBIT_RANGE` raises ``ValueError`` before anything
    is built.  ``workspaces`` is the free list of :class:`_Workspace` that
    :func:`genuine_negativity` borrows from.
    """
    low, high = QUBIT_RANGE
    if not low <= nqubits <= high:
        raise ValueError(f"genuine multiparticle negativity is computed for {low} to {high} "
                         f"qubits, got {nqubits}")
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

    # constraint columns: y = (w coefficients, then the coefficients of R_M =
    # Q_M^{T_M} per bipartition).  Coordinate alpha of a cone block is
    # F_alpha, so a column has one entry +-1 in each block it reaches.
    alpha = np.arange(n_basis)
    rows, cols, vals = [], [], []

    def add(block, coords, col, val):
        rows.append(block * n_basis + coords)
        cols.append(col)
        vals.append(np.broadcast_to(val, n_basis))

    for mi in range(n_parts):
        r_col = n_basis * (1 + mi) + alpha
        add(4 * mi + 0, alpha, alpha, -1.0)          # P_M block:   S = W - R
        add(4 * mi + 1, alpha, alpha, +1.0)          # 1-P_M block: S = 1 - W + R
        add(4 * mi + 0, alpha, r_col, +1.0)
        add(4 * mi + 1, alpha, r_col, -1.0)
        add(4 * mi + 2, tau[mi], r_col, -sigma[mi])  # Q_M block:   S = R^{T_M}
        add(4 * mi + 3, tau[mi], r_col, sigma[mi])   # 1-Q_M block: S = 1 - R^{T_M}

    m = n_basis * (1 + n_parts)
    a_csc = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(len(block_dims) * n_basis, m))
    skeleton = sdp.SdpProblem.from_svec_columns(block_dims, c_blocks, a_csc, np.zeros(m))
    # the Schur kernel of each (Q_M, 1-Q_M) pair over the partially transposed
    # basis, in intp, which np.take reads without a per-call conversion; the
    # seven tables of N = 4 take 1.9 MB
    kernel_tables = [geom.kernel_table(units % n_basis) for units in transpose]
    skeleton.schur_factory = partial(ArrowheadSchur, kernel_tables)
    return {
        "nqubits": nqubits,
        "dim": d,
        "parts": parts,
        "skeleton": skeleton,
        "geom": geom,
        "transpose": transpose,
        "tau": tau,
        "sigma": sigma,
        "kernel_tables": kernel_tables,
        "schur_factory": skeleton.schur_factory,
        "workspaces": [],
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

    Returns ``(x, y, s)`` for ``sdp.solve(start=...)``, X and S as (4K, d, d)
    stacks in the program's block order (P_M, 1-P_M, Q_M, 1-Q_M per
    bipartition), K bipartitions and d = 2^N.

    Dual side: W = 1 and every R_M = Q_M = 1/2 (1/2 is its own partial
    transpose), so P_M = W - R_M = 1/2 and every slack is 1/2, the centre of
    its [0, 1] box; the point is exactly dual feasible.

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
    x = np.empty((k, 4, d, d), dtype=complex)
    x[:, 0] = (rho + eye / d) / k
    x[:, 1] = floor
    x[:, 2] = floor + positive
    x[:, 3] = floor + negative
    geom = structure["geom"]
    y = np.concatenate([geom.svec(eye)] + [geom.svec(eye / 2)] * k)
    return x.reshape(4 * k, d, d), y, np.broadcast_to(eye / 2, (4 * k, d, d))


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
    """The best certified bounds on E over the points of one solve.

    :meth:`closed` is the solve's stop callback, so it sees every iterate and
    every full Newton point, X and S as the solver's (4K, d, d) stacks; the
    Newton points meet the equality constraints but may lie outside the cone,
    which neither bound needs.  The split reads the P_M and 1-P_M rows of the
    X stack by strided slices, without a copy.

    Upper bound, at every point: the primal blocks give rho_M = X_{P_M} -
    X_{1-P_M}; the residual rho - sum_M rho_M goes into
    the first, which makes the split exact at any point, feasible or not,
    and E <= sum_M neg(rho_M) + neg(rho_M^{T_M}).

    Lower bound: W and every R_M come from y, P_M = W - R_M and Q_M =
    R_M^{T_M}.  With eps >= 0 the largest distance of an eigenvalue of any
    P_M or Q_M outside [0, 1], W' = (W + 2 eps)/(1 + 2 eps) = P'_M +
    Q'_M^{T_M} with P'_M = (P_M + eps)/(1 + 2 eps) and Q'_M likewise is
    feasible, so E >= -Tr(W' rho).  Tr(W' rho) is the mean of Tr(W rho) and
    Tr(rho) = 1 with weights 1 and 2 eps.  diag P_M = diag W - diag R_M, and
    a partial transpose keeps the diagonal, so diag Q_M = diag R_M; eps is
    at least the largest excursion of these diagonals outside [0, 1].  That
    excursion, read from y without an eigendecomposition, bounds Tr(W' rho)
    from below before the repair, and a witness with a low Tr(W rho) whose
    diagonals leave their boxes (as at some Newton points) is passed over
    unrepaired.  Witnesses therefore wait
    in a heap ordered by this bound and are repaired only when one of them
    could close the bracket, and at the end while one could still improve
    E_lo.  The lower bound is the best over all points all the same, and the
    solve stops at the same point as if every witness were repaired at once,
    for a fraction of the eigendecompositions.

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
        self._pending = []             # heap of (bound on Tr(W' rho), arrival, y) not yet repaired
        self._arrivals = itertools.count()

    @property
    def e_lo(self) -> float:
        return max(0.0, -self.objective)

    def _objective_bound(self, y: np.ndarray) -> float:
        """A lower bound on Tr(W' rho) of the witness from y, from its diagonals alone."""
        k, d = self._k, self._d
        diagonals = y.reshape(1 + k, d * d)[:, :d]      # diag W, then every diag R_M = diag Q_M
        boxed = np.concatenate([diagonals[0] - diagonals[1:], diagonals[1:]])
        # eigvalsh may round the true excursion eps down by ~1e-16; the bound
        # gives up 1e-12 of it so it never exceeds the repaired objective
        eps = max(0.0, -float(boxed.min()) - 1e-12, float(boxed.max()) - 1 - 1e-12)
        t = float(y[:d * d] @ self._rho_coeffs)       # Tr(W rho)
        return min(self._trace, (t + 2 * eps * self._trace) / (1 + 2 * eps))

    def closed(self, x, y, s) -> bool:
        """Update both bounds from one point; True once E_hi - E_lo <= BRACKET_TOL."""
        k, d = self._k, self._d
        heapq.heappush(self._pending, (self._objective_bound(y), next(self._arrivals), y.copy()))
        split = (x[0::4] - x[1::4]).reshape(k, d * d)
        split[0] += self._rho.ravel() - split.sum(axis=0)
        eigs = np.linalg.eigvalsh(np.take(split, self._split_entries).reshape(2 * k, d, d))
        e_hi = -float(np.minimum(eigs, 0).sum())
        if e_hi < self.e_hi:
            self.e_hi, self._split = e_hi, split.reshape(k, d, d)
        # a witness whose key is t has E_lo <= max(0, -t)
        need = self.e_hi - BRACKET_TOL
        while self.e_lo < need and self._pending and -self._pending[0][0] >= need:
            self._repair(heapq.heappop(self._pending)[2])
        return self.e_hi - self.e_lo <= BRACKET_TOL

    def _repair(self, y: np.ndarray) -> None:
        """The repaired witness of one iterate; kept if it lowers the objective."""
        k, d = self._k, self._d
        mats = self._structure["geom"].smat(y.reshape(1 + k, d * d))
        w, r = mats[0], mats[1:]      # W, then every R_M = Q_M^{T_M}
        p = w - r
        q = np.take(r, self._structure["transpose"]).reshape(k, d, d)
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


@contextmanager
def _borrowed_workspace(structure):
    """A :class:`_Workspace` of the structure's shape, held for one solve.

    It is popped from the structure's free list, or allocated when the list
    is empty, and appended back when the solve ends, also when it raises.
    ``list.pop`` and ``list.append`` are atomic, so solves running in
    several threads never hold the same workspace; the list grows to the
    largest number of solves of one shape that ever ran at once.
    """
    free = structure["workspaces"]
    try:
        workspace = free.pop()
    except IndexError:
        workspace = _Workspace(len(structure["parts"]), structure["geom"])
    try:
        yield workspace
    finally:
        free.append(workspace)


def genuine_negativity(rho: np.ndarray, nqubits: int | None = None) -> GmnResult:
    """Compute the genuine multiparticle negativity E(ρ) with its certified bracket.

    The solve starts from :func:`_start_point`, feasible on both sides, and
    stops at the first iterate or full Newton point where the best bounds so
    far satisfy E_hi - E_lo <= :data:`BRACKET_TOL` (see :class:`_Bracket`),
    and reports E = E_lo.  When the bracket never closes, whatever the solver
    status, the result is an explicit failure (NaN value, ``certificate_ok``
    False) that still carries its bracket, rather than a silent zero.
    """
    rho = np.asarray(rho, dtype=complex)
    n = check_density_matrix(rho, nqubits)
    structure = _program_structure(n)
    problem = structure["skeleton"].with_rhs(_rhs_for(rho, structure))
    bracket = _Bracket(rho, structure)
    with _borrowed_workspace(structure) as workspace:
        # only the program's own system borrows; one swapped in (the dense
        # oracle of the tests) is left as it is
        if problem.schur_factory is structure["schur_factory"]:
            problem.schur_factory = partial(problem.schur_factory, workspace=workspace)
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
