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
is one ``dtrsm`` per factor.  Each ``dtrsm`` reads its diagonal triangle in
place inside the factor, without a copy.  The factorizations and triangular
solves call LAPACK and BLAS directly, with arguments built once per system,
so they release the interpreter lock and cost no more than scipy's wrappers.

At N = 4, where the assembly takes more than one chunk, the system splits
the bipartitions into two lanes, 0-3 and 4-6.  The calling thread assembles
and eliminates the first lane and one helper thread per process the second,
each on single-threaded BLAS; the sums over bipartitions run afterwards in a
fixed order, so results do not depend on thread timing.  N <= 3 runs one
lane inline, with the arithmetic of a single loop.

An N = 4 iteration writes about 20 MB of Schur blocks, kernel scratch and
factors, the same shapes every time.  Each :class:`ArrowheadSchur` owns
these arrays and writes every one before it reads it, so a system can serve
any program of its shape.  :func:`genuine_negativity` borrows a whole system
from a free list kept with the program structure for the length of its
solve, so back-to-back solves reuse memory that is already mapped instead of
faulting in fresh pages every iteration.  ``sdp.solve`` of a program from
:func:`build_program` builds a system of its own through the program's
``schur_factory``.

Every solve starts from an interior point built from rho alone
(:func:`_start_point`) and strictly feasible on both sides.  Dual side: W = 1
and every Q_M = 1/2 make every slack 1/2, the centre of its [0, 1] box.
Primal side: :func:`_repair_primal` of the floor 1/(Kd) in every block meets
every equality constraint up to rounding.  The solver applies the same
repair to every accepted X of its end game (its ``repair`` hook), so E_hi
pays for no primal residual there.  The benchmark's four N = 4 solves take
3/8/7/10 iterations from this start and 6/10/10/13 from the solver's cold
start, which is infeasible on both sides.

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

import ctypes
import heapq
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_blas, cython_lapack, lapack

from . import sdp
from .linalg import check_density_matrix, eig_hermitian, hermitian_part, partial_transpose

# A solve ends, and its result is usable, once E_hi - E_lo is at most this.
# Generic states give programs without a strictly complementary optimum,
# whose solves the solver's own gap and residual tests may never end while
# the bracket is already far narrower than this.  Near pure 4-qubit states
# brackets close only a little below it: the eight hardest points of
# `python tools/points.py hard` close at widths of 3.9-5.0e-7.
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
# ArrowheadSchur.factor (_LowerSolve).  With one OpenBLAS thread on a 2-vCPU
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


# The one helper thread of this process, which runs the second lane of every
# two-lane ArrowheadSchur; built at the first such call.  A forked child
# inherits the executor but not its thread, and its first submit would wait
# forever, so the child forgets both the executor and the lock around it.
_helper = None
_helper_lock = threading.Lock()


def _lane_helper() -> ThreadPoolExecutor:
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(1, thread_name_prefix="genneg-lane")
        return _helper


def _forget_lane_helper() -> None:
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):     # POSIX; elsewhere no process forks
    os.register_at_fork(after_in_child=_forget_lane_helper)


def _capi_function(module, name: str, nargs: int):
    """Routine ``name`` of scipy's Cython BLAS or LAPACK API, as a ctypes function.

    The routine takes ``nargs`` pointers (Fortran passes every argument by
    reference), given as integer addresses.  A ``CFUNCTYPE`` call releases
    the interpreter lock while the routine runs, which scipy's f2py wrappers
    do not, so the two lanes of :class:`ArrowheadSchur` factor at once.  The
    routine is the one in scipy's OpenBLAS that those wrappers call too.
    """
    capsule = module.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = capsule_pointer(capsule, capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


# arguments: uplo, n, a, lda, info; and side, uplo, transa, diag, m, n,
# alpha, a, lda, b, ldb
_dpotrf = _capi_function(cython_lapack, "dpotrf", 5)
_dtrsm = _capi_function(cython_blas, "dtrsm", 11)
_LOWER, _RIGHT, _TRANSPOSED, _NON_UNIT = (ctypes.c_char(flag) for flag in (b"L", b"R", b"T", b"N"))
_MINUS_ONE = ctypes.c_double(-1.0)


def _c_ints(*values) -> tuple:
    """An intc array of ``values``, and the address of each entry."""
    ints = np.array(values, dtype=np.intc)
    return ints, tuple(ints.ctypes.data + k * ints.itemsize for k in range(len(values)))


def _check_operand(a: np.ndarray) -> None:
    """Refuse an array that a direct call could not read as C-ordered float64 square matrices."""
    if a.dtype != np.float64 or not a.flags.c_contiguous or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected C-contiguous float64 square matrices, got a {a.dtype} "
                         f"array of shape {a.shape}")


class _Cholesky:
    """``dpotrf`` of one fixed square C-ordered array in place; a call returns the factor.

    The call is the lower ``dpotrf`` of the Fortran-ordered transpose
    ``a.T``, which it returns: the upper triangle of ``a`` is read and
    replaced by L^T, and the strict lower triangle is left as it was.  The
    arguments are built once, here, with an ``info`` of this object's own,
    so objects for different arrays may be called in different threads at
    once.  A matrix that is not positive definite raises ``LinAlgError``
    naming ``routine`` (``sdp.lapack_checked``).
    """

    def __init__(self, a: np.ndarray, routine: str):
        _check_operand(a)
        self._factor, self._routine = a.T, routine
        self._ints, (n, info) = _c_ints(a.shape[0], 0)
        self._args = (ctypes.addressof(_LOWER), n, a.ctypes.data, n, info)

    def __call__(self) -> np.ndarray:
        _dpotrf(*self._args)
        return sdp.lapack_checked((self._factor, self._ints.item(1)), self._routine)


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
    bipartition, it adds H01_M to H23_M^Γ in place.  c = max(1,
    ASSEMBLY_CHUNK_BYTES // (16 n^2)), the pairs whose n x n products (real
    and imaginary parts) fit :data:`ASSEMBLY_CHUNK_BYTES`: all of N <= 3
    share one chunk, and N = 4 takes one pair per chunk.  Once every
    bipartition is written, M^_ww = sum_M H01_M is summed in bipartition
    order and symmetrized, so the result does not depend on c.  The kernel
    is symmetric to about 1e-16 relative, so M^_{r_M r_M} is used as
    assembled: its ``dpotrf`` (lower, on the Fortran-ordered transpose)
    reads only the upper triangle of the C-ordered block.

    The bipartitions fall into lanes, contiguous runs of them: two lanes
    exactly when the assembly takes more than one chunk (N = 4: bipartitions
    0-3 and 4-6), and otherwise one (N <= 3).  The calling thread runs the
    first lane and a helper thread the second, in :meth:`assemble` and in
    :meth:`factor` alike.  In :meth:`assemble` a lane forms the kernels of
    its bipartitions through a kernel scratch of its own and adds H01_M to
    H23_M^Γ; in :meth:`factor` it factors its r-blocks, forms their wq_M and
    writes its part of wq^T wq into an n x n array of its own.  The lanes
    write disjoint arrays, and M^_ww and the w-block complement (the lanes'
    parts in lane order) are summed once both are done, so no result
    depends on thread timing.  One lane runs inline and submits nothing.
    The process has one helper, a single-thread executor built at the first
    two-lane call and shared by every system; a forked child builds its
    own.  The caller waits for the helper's lane before it returns or
    raises, so a ``LinAlgError`` from either lane reaches the solver's
    regularization ladder only once neither writes.  Each lane calls
    single-threaded BLAS under the solver's one-thread policy.  A lane calls
    ``dpotrf`` and ``dtrsm`` directly, through scipy's Cython BLAS and
    LAPACK API (:class:`_Cholesky`, :class:`_LowerSolve`), and such a call
    releases the interpreter lock, so the two lanes factor at once as they
    multiply at once.  On a 2-vCPU Xeon, the four N = 4 solves of the
    benchmark took 12.5 ms per iteration with two lanes against 16.3 ms
    with one, and 15.9 ms with two lanes on one CPU.  Their ``factor``
    took 3.8 ms per iteration, against 4.6 ms through scipy's f2py
    wrappers, which hold the lock.

    D stays out of the stored blocks: :meth:`solve` and :meth:`matvec` scale
    their vectors by D^-1 and D, and the shift of :meth:`factor` enters M^ as
    shift D^-2 = shift diag(1, 2, 2), since (M + shift) = D (M^ + shift D^-2) D.
    :meth:`max_diagonal` reads the diagonal of M^ times D^2.

    Factoring eliminates the K r-blocks (n x n Cholesky each, M^_{r_M r_M} =
    L_M L_M^T) and factors the n x n Schur complement
    M^_ww - sum_M wq_M^T wq_M of the w-block, with wq_M = -L_M^-1 H01_M.
    The wq_M are kept as one C-ordered (K, n, n) array, written by
    :class:`_LowerSolve`: right-sided triangular solves on the
    Fortran-ordered transposes of its row blocks, with one batched product
    per row block for the rows before it.  Its (K n, n) reshape is a view,
    so the Schur complement and every :meth:`solve` (two products with wq
    per call) read it without a copy.

    The system owns every array it keeps, the lanes' scratch included.  It
    allocates the assembly side when it is built: the (K, 2, n, n) blocks,
    whose rows H01_M and M^_{r_M r_M} ``h01`` and ``qq`` view, M^_ww and the
    sum it is symmetrized from, and for each lane the Schur kernel's product
    G and half rows for one chunk of block pairs
    (``sdp._BlockGeometry.kernel_work``).  It allocates the factor side at
    its first :meth:`factor`: the shifted r-blocks that ``dpotrf`` factors
    in place, wq, and one n x n part of wq^T wq per lane, the first of which
    becomes the w-block Schur complement, and builds there, once, the
    arguments of every direct ``dpotrf`` and ``dtrsm`` on them.  At N = 4
    the two sides take 11.6 and 8.4 MB (10.0 and 7.9 MB with one lane);
    building a system and assembling once thus peaks at 1.6 times the
    assembled blocks.  Every array is written before it is read in each
    iteration, so a system carries nothing from one assembly to the next and
    may serve any program of its shape (K bipartitions, r-blocks of n = d^2
    rows), one solve at a time; two systems never share an array, so solves
    in several threads may share the helper.
    """

    def __init__(self, tables, problem: sdp.SdpProblem):
        self._geom = problem._geom
        n = self.n = self._geom.L
        k = self.nparts = len(tables)
        if problem.num_constraints != n * (1 + k):
            raise ValueError(f"program has {problem.num_constraints} constraints, "
                             f"the arrowhead system expects {n * (1 + k)}")
        # block pairs per chunk of the assembly
        self._chunk = max(1, ASSEMBLY_CHUNK_BYTES // (16 * n ** 2))
        self._blocks = np.empty((k, 2, n, n))
        self.h01, self.qq = self._blocks[:, 0], self._blocks[:, 1]
        self.ww, self._ww_sum = np.empty((2, n, n))
        # the kernel table of each block pair: None (the geometry's own) for
        # every (P_M, 1-P_M), the transposed units for (Q_M, 1-Q_M)
        pair_tables = [t for table in tables for t in (None, table)]
        # two lanes exactly when the assembly takes more than one chunk; the
        # first lane takes the larger half
        cuts = (0, (k + 1) // 2, k) if self._chunk < 2 * k else (0, k)
        self._lanes = [self._lane(slice(a, b), pair_tables)
                       for a, b in itertools.pairwise(cuts) if a < b]
        self._delta = np.tile(self._geom.delta, 1 + k)
        # factor-side scratch and the direct calls on it, from the first factor()
        self._shifted = self._sc = self._lane_calls = self._factor_w = None
        self._lq = self._wq = self._lw = None    # factors, set by factor()

    def _lane(self, parts: slice, pair_tables: list) -> tuple:
        """(bipartitions, (pair slice, kernel tables) per kernel call, kernel scratch) of a lane."""
        pairs = range(2 * parts.start, 2 * parts.stop)
        chunks = [slice(p0, min(p0 + self._chunk, pairs.stop))
                  for p0 in range(pairs.start, pairs.stop, self._chunk)]
        return (parts, [(c, tuple(pair_tables[c])) for c in chunks],
                self._geom.kernel_work(min(self._chunk, len(pairs))))

    def _in_lanes(self, work, *args) -> list:
        """``[work(lane, *args) for each lane]``, the second lane on the helper thread.

        Returns or raises only once every lane has stopped writing, so that
        a ``LinAlgError`` reaches the regularization ladder, which factors
        the same arrays again, after both lanes are done with them.
        """
        helper = [_lane_helper().submit(work, lane, *args) for lane in range(1, len(self._lanes))]
        try:
            here = work(0, *args)
        finally:
            there = [future.result() for future in helper]
        return [here, *there]

    def assemble(self, sinv, x):
        k, d = self.nparts, self._geom.n
        # (pair, block of the pair, d, d) for the pairs (P_M, 1-P_M), (Q_M, 1-Q_M)
        self._in_lanes(self._assemble_lane, sinv.reshape(2 * k, 2, d, d),
                       x.reshape(2 * k, 2, d, d))
        # M^_ww in bipartition order, as one reduction over the whole stack would sum it
        ww = self._ww_sum
        ww.fill(0.0)
        for h01 in self.h01:
            ww += h01
        np.add(ww, ww.T, out=self.ww)
        self.ww /= 2

    def _assemble_lane(self, lane, s, x):
        parts, chunks, work = self._lanes[lane]
        pair_blocks = self._blocks.reshape(-1, self.n, self.n)
        summed = parts.start    # bipartitions whose H23_M^Γ has H01_M added
        for pairs, tables in chunks:
            self._geom.schur_kernel(s[pairs], x[pairs], tables, out=pair_blocks[pairs], work=work)
            # every bipartition whose two pairs are written, while they are in cache
            for h01, qq in self._blocks[summed:pairs.stop // 2]:
                qq += h01
            summed = pairs.stop // 2

    def max_diagonal(self):
        diagonals = np.concatenate([self.ww.diagonal()[None], self.qq.diagonal(axis1=1, axis2=2)])
        return float(np.max(np.abs(diagonals) * self._geom.delta ** 2))

    def factor(self, shift):
        n, k = self.n, self.nparts
        if self._sc is None:
            self._shifted, self._wq = np.empty((2, k, n, n))
            self._sc = np.empty((len(self._lanes), n, n))
            # each lane's dpotrf and dtrsm calls, on its slices of these arrays
            self._lane_calls = [
                ([_Cholesky(q, "dpotrf(r_M block)") for q in self._shifted[parts]],
                 _LowerSolve(self._shifted[parts], self.h01[parts], self._wq[parts]))
                for parts, _, _ in self._lanes]
            self._factor_w = _Cholesky(self._sc[0], "dpotrf(w Schur complement)")
        shifts = shift / self._geom.delta ** 2
        self._lq = [f for factors in self._in_lanes(self._factor_lane, shifts) for f in factors]
        # the complement of the w-block, from the lanes' wq^T wq in lane order
        sc = self._sc[0]
        for partial in self._sc[1:]:
            sc += partial
        np.subtract(self.ww, sc, out=sc)
        diag = np.arange(n)
        sc[diag, diag] += shifts
        # sc is exactly symmetric (numpy forms each wq^T wq as a rank-k
        # update), so its Fortran-ordered view sc.T is the same matrix,
        # factored in place
        self._lw = self._factor_w()

    def _factor_lane(self, lane, shifts) -> list:
        """Factor the lane's r-blocks, form its wq_M and its part of wq^T wq; returns the L_M."""
        parts = self._lanes[lane][0]
        choleskys, lower_solve = self._lane_calls[lane]
        lq = self._shifted[parts]
        diag = np.arange(self.n)
        np.copyto(lq, self.qq[parts])
        lq[:, diag, diag] += shifts
        # direct calls, which release the interpreter lock.  A shifted block
        # q is symmetric, so its Fortran-ordered view q.T is the same matrix,
        # factored in place.
        factors = [cholesky() for cholesky in choleskys]
        # wq is written apart from h01, which matvec reads.  A successful
        # dpotrf leaves a positive diagonal, so L_M needs no singularity check.
        lower_solve()
        wq = self._wq[parts].reshape(-1, self.n)
        np.matmul(wq.T, wq, out=self._sc[lane])
        return factors

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


class _LowerSolve:
    """out[m] = -L_m^-1 b[m] for each lower triangle L_m, given as ``lt[m]`` = L_m^T.

    The arrays are fixed when the object is built, and each call reads the
    values ``lt`` and ``b`` hold then.  ``lt`` and ``out`` are C-ordered (K,
    n, n) stacks, ``b`` any (K, n, n) array; ``lt`` holds the factors as
    ``dpotrf`` leaves them in a Fortran-ordered view (:class:`_Cholesky`),
    and its upper triangle (of L_m) is never read.

    Forward substitution in row blocks of :data:`SOLVE_BLOCK_ROWS`: with
    rows r of block i and the rows p before it, out_r = -L_rr^-1 (b_r +
    L_rp out_p).  The products L_rp out_p, one batched ``matmul`` over the
    K factors per block, move most of the flops from ``dtrsm`` to
    ``dgemm``, which OpenBLAS runs about three times faster on these
    operands.  Each ``dtrsm`` is right-sided, on the Fortran-ordered
    transpose of the rows of out[m]: X L_rr^T = -c^T gives X = out_r^T.  It
    is called directly, with arguments built here, and reads its triangle
    L_rr in place inside lt[m] (leading dimension n), without a copy.  Up to
    SOLVE_BLOCK_ROWS rows (N <= 3) there is one block, and one ``dtrsm`` per
    factor.
    """

    def __init__(self, lt: np.ndarray, b: np.ndarray, out: np.ndarray):
        for a in (lt, out):
            _check_operand(a)
        if b.shape != lt.shape or out.shape != lt.shape:
            raise ValueError(f"stacks of shapes {lt.shape}, {b.shape}, {out.shape} differ")
        self._lt, self._b, self._out = lt, b, out
        n, size = lt.shape[-1], lt.itemsize
        blocks = [slice(s, min(s + SOLVE_BLOCK_ROWS, n)) for s in range(0, n, SOLVE_BLOCK_ROWS)]
        self._ints, (dim, *heights) = _c_ints(n, *(r.stop - r.start for r in blocks))
        head = (*(ctypes.addressof(f) for f in (_RIGHT, _LOWER, _TRANSPOSED, _NON_UNIT)), dim)
        alpha = ctypes.addressof(_MINUS_ONE)
        # per row block r: its dtrsm for each m, on L_rr (row and column
        # r.start of lt[m]) and the rows r of out[m]
        self._blocks = [(r, [(*head, height, alpha,
                              low.ctypes.data + (r.start * n + r.start) * size, dim,
                              o.ctypes.data + r.start * n * size, dim)
                             for low, o in zip(lt, out)])
                        for r, height in zip(blocks, heights)]

    def __call__(self) -> None:
        lt, b, out = self._lt, self._b, self._out
        for r, solves in self._blocks:
            if r.start == 0:
                np.copyto(out[:, r], b[:, r])
            else:
                # L_rp = lt[:, p, r]^T, for the whole stack at once
                np.matmul(lt[:, :r.start, r].transpose(0, 2, 1), out[:, :r.start], out=out[:, r])
                out[:, r] += b[:, r]
            for args in solves:
                _dtrsm(*args)


@lru_cache(maxsize=None)
def _program_structure(nqubits: int):
    """Constraint matrix, objective and extraction metadata for N qubits.

    Only the right-hand side of the SDP depends on the state, so everything
    else is built once per qubit count and shared by all solves.  A qubit
    count outside :data:`QUBIT_RANGE` raises ``ValueError`` before anything
    is built.  ``systems`` is the free list of :class:`ArrowheadSchur` that
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
        "systems": [],
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


def _repair_primal(rho: np.ndarray, structure, x: np.ndarray) -> np.ndarray:
    """The (4K, d, d) primal stack x plus PSD blocks that make it meet A(X) = b.

    With ρ_M = X_{P_M} - X_{1-P_M}, r = (ρ - sum_M ρ_M)/K and r_M = (ρ_M +
    r)^{T_M} - (X_{Q_M} - X_{1-Q_M}), all read from x (which is not
    modified), [r]_+ is added to every X_{P_M} and [r]_- to every X_{1-P_M},
    [r_M]_+ to X_{Q_M} and [r_M]_- to X_{1-Q_M}.  Then sum_M (X_{P_M} -
    X_{1-P_M}) = ρ and X_{Q_M} - X_{1-Q_M} = (X_{P_M} - X_{1-P_M})^{T_M} up to
    rounding.  The Hermitian parts of r and the r_M take one batched
    ``eigh``, and the result is exactly Hermitian.  This is ``sdp.solve``'s
    end-game ``repair``, and :func:`_start_point` builds the primal start with it.
    """
    k, d = len(structure["parts"]), structure["dim"]
    blocks = x.reshape(k, 4, d, d)
    split = blocks[:, 0] - blocks[:, 1]
    r = (rho - split.sum(axis=0)) / k
    target = np.take(split + r, structure["transpose"]).reshape(k, d, d)
    lam, vec = np.linalg.eigh(hermitian_part(np.concatenate(
        [r[None], target - (blocks[:, 2] - blocks[:, 3])])))
    # the positive parts, then the negative parts, of r and every r_M
    parts = hermitian_part((vec * np.maximum(np.stack([lam, -lam]), 0)[..., None, :])
                           @ np.conj(vec).transpose(0, 2, 1))
    out = np.array(blocks, dtype=complex)
    out[:, :2] += parts[:, 0]
    out[:, 2:] += parts[:, 1:].transpose(1, 0, 2, 3)
    return out.reshape(4 * k, d, d)


def _start_point(rho: np.ndarray, structure) -> tuple:
    """A strictly feasible primal-dual point of the program for ρ, from ρ alone.

    Returns ``(x, y, s)`` for ``sdp.solve(start=...)``, X and S as (4K, d, d)
    stacks in the program's block order (P_M, 1-P_M, Q_M, 1-Q_M per
    bipartition), K bipartitions and d = 2^N.

    Dual side: W = 1 and every R_M = Q_M = 1/2 (1/2 is its own partial
    transpose), so P_M = W - R_M = 1/2 and every slack is 1/2, the centre of
    its [0, 1] box; the point is exactly dual feasible.  Primal side:
    :func:`_repair_primal` of the floor 1/(Kd) in every block, which meets
    the equality constraints up to rounding with every block >= 1/(Kd).
    """
    k, d = len(structure["parts"]), structure["dim"]
    eye = np.eye(d)
    x = _repair_primal(rho, structure, np.broadcast_to(eye / (k * d), (4 * k, d, d)))
    geom = structure["geom"]
    y = np.concatenate([geom.svec(eye)] + [geom.svec(eye / 2)] * k)
    return x, y, np.broadcast_to(eye / 2, (4 * k, d, d))


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
    # a system of the program's shape, held for this solve alone: list.pop
    # and list.append are atomic, so solves running in several threads never
    # hold the same one, and the list grows to the most solves of one shape
    # that ever ran at once
    free = structure["systems"]
    try:
        schur = free.pop()
    except IndexError:
        schur = ArrowheadSchur(structure["kernel_tables"], problem)
    problem.schur_factory = lambda _: schur
    try:
        result = bracket.result(sdp.solve(problem, stop=bracket.closed,
                                          start=_start_point(rho, structure),
                                          repair=partial(_repair_primal, rho, structure)))
    finally:
        free.append(schur)
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
