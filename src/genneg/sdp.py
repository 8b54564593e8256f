"""Primal-dual interior-point solver for small dense semidefinite programs.

Solves the standard equality form over a product of complex Hermitian blocks

    minimize    <C, X>
    subject to  <A_i, X> = b_i   (i = 1..m),    X >= 0 (PSD, blockwise)

with <A, X> = Re Tr(A X), together with its dual  max b'y  s.t.
C - sum_i y_i A_i = S >= 0.  The data, iterates and directions are complex
Hermitian; the dual vector y and the Schur matrix are real.  Real symmetric
data is the special case with zero imaginary parts.

Algorithm: infeasible-start path following with the HKM symmetrized search
direction (Helmberg-Rendl-Vanderbei-Wolkowicz, unchanged over the complex
field) and a Mehrotra predictor-corrector step.  Each iteration assembles and
factors the (real symmetric positive definite) Schur complement

    M_ij = Re Tr(A_i S^{-1} A_j X)

behind the small :class:`SchurSystem` interface (assemble, factor with a
diagonal shift, solve, matvec).  Both implementations form M from one
kernel, ``_BlockGeometry.schur_kernel``: H[alpha, beta] = Re Tr(F_alpha S^-1
F_beta X) over the basis F of a block, formed from half the rows of one
product since H(s, x) = H(x, s) = H(s, x)^T for Hermitian s and x.  A problem
supplies its implementation through ``SdpProblem.schur_factory``; the default
:class:`DenseSchur` forms the whole m x m matrix and factors it by dense
Cholesky, while structured programs (the PPT-mixture program in ``gmn``) keep
M in a sparser block form.
The solver owns the regularization ladder: the shift is reg times max(1, the
largest diagonal entry of M), with reg escalating by factors of ten from
:data:`MIN_REGULARIZATION` to :data:`MAX_REGULARIZATION`.  Each solve gets
one step of iterative refinement against the unshifted M, and a pure
centering step is taken whenever the smallest complementarity pairs drift far
below their mean (which is what stalls plain Mehrotra steps on degenerate
optima).  Step lengths are :data:`STEP_FRACTION` of the distance to the cone
boundary, capped at 1.

Each iteration factors S = L_S L_S^H and X = L_X L_X^H once and inverts each
factor once.  The inverse factors serve both S^-1 = L_S^-H L_S^-1 and the four
step lengths, which come from the eigenvalues of L^-1 D L^-H for a direction
D: a Hermitian eigenproblem formed with matrix products, no further solves.

Every solve runs on one BLAS thread: :func:`solve` lowers the thread count of
each loaded OpenBLAS (numpy's and scipy's bundled copies, or a system build)
to 1 for the duration of the iteration and restores it afterwards.
Parallelism comes from the worker pool in ``analysis``, whose workers start
single-threaded.  The largest BLAS operands are the 256 x 256 Schur blocks of
the 4-qubit PPT-mixture program, too small for threads to pay off: on a
2-vCPU host an N=4 solve took twice as long with two OpenBLAS threads as with
one, at the same iteration count.  One thread also makes a solve's rounding
the same in-process and in a pool worker.  Other BLAS vendors are left alone.

Problems without a strictly complementary optimum hit an accuracy floor in
double precision somewhere around 1e-7; the solver detects the stall
(:data:`STALL_ITERATIONS`, :data:`STALL_ACCURACY`) and returns its best
iterate with an explanatory message instead of burning the iteration budget.

The solver has one configuration: the module constants below, read at call
time.  ``gmn`` stops every solve through ``stop`` once its certified bracket
closes, so looser tolerances could only end a solve before that, and tighter
ones cannot make a closed bracket more exact.

A caller that can judge an iterate itself passes ``stop(x_blocks, y,
s_blocks)`` to :func:`solve`.  It sees every iterate, the start point first,
before the solver's own tests, and a True return ends the solve there with
status ``OPTIMAL`` and a message naming the callback.  The solver knows
nothing of what the callback checks: ``gmn`` uses it to stop once its
certified bracket on the monotone is narrow enough.  Without a callback the
iteration is the same, bit for bit.

Every solve starts from the scale-aware cold start X = S = tau I, y = 0
(tau = 1 + max|b_i| + the largest constraint column norm) unless the caller
passes ``start=(x_blocks, y, s_blocks)``, a point it knows to be better: for
the PPT-mixture program ``gmn`` builds one that is feasible on both sides.
The solver refuses a start with a block of the wrong shape, a non-finite
entry, a block that is not Hermitian, or an X or S block that is not
positive definite (checked by Cholesky), with a ``ValueError`` naming the
block; it does not check feasibility, which the iteration does not need.

Each accepted step is exactly Hermitian (iterate and direction both are), and
the Cholesky factors that prove the trial iterate positive definite are the
ones the next iteration uses.

Matrices are stored blockwise and batched by block dimension; constraints
are sparse columns over the n^2 real coordinates of each n x n block in a
trace-orthonormal Hermitian basis (see :class:`_BlockGeometry`), so
svec(A)·svec(B) = <A, B>.  Intended problem sizes are tiny by SDP standards
(blocks up to ~16, a few thousand constraints), which is why everything is
dense per block.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Protocol

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack

HERMITICITY_TOL = 1e-12

GAP_TOL = 1e-8                # relative duality gap
FEAS_TOL = 1e-8               # scaled primal/dual residual norms
MAX_ITERATIONS = 200
STEP_FRACTION = 0.98          # fraction of the distance to the boundary
MIN_REGULARIZATION = 1e-12
MAX_REGULARIZATION = 1e-6
DIVERGENCE_BOUND = 1e12       # |objective| beyond which we declare infeasibility
STALL_ITERATIONS = 12         # stop when this many iterations fail to halve the error
STALL_ACCURACY = 1e-6         # error level where a short plateau already stops


class SdpStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"
    INFEASIBLE = "infeasible"


@dataclass
class SdpSolution:
    """The returned iterate: complex Hermitian X and S blocks and the real y."""

    status: SdpStatus
    x_blocks: list
    y: np.ndarray
    s_blocks: list
    primal_objective: float
    dual_objective: float
    gap: float
    relative_gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    message: str = ""

    @property
    def complementarity(self) -> float:
        return float(sum(np.vdot(x, s).real for x, s in zip(self.x_blocks, self.s_blocks)))


class _BlockGeometry:
    """Real coordinates of an n x n Hermitian block, and the Schur kernel over them.

    ``svec(A)`` lists the n^2 coefficients Re Tr(F_alpha A) of A in the
    trace-orthonormal basis

        diag(a)    a = 0..n-1       F = e_a e_a'
        re(a, b)   a < b (lex)      F = (e_a e_b' + e_b e_a')/sqrt(2)
        im(a, b)   a < b (lex)      F = i (e_a e_b' - e_b e_a')/sqrt(2)

    that is diag(A), then sqrt(2) Re A[a, b], then sqrt(2) Im A[a, b], so
    svec(A)·svec(B) = Re Tr(AB) and F_alpha is coordinate alpha.  ``svec`` and
    ``smat`` act on the last two axes (last axis) of a stack, each as one
    gather from the float view of the complex entries and one multiply.
    """

    def __init__(self, n: int):
        self.n = n
        self.L = n * n
        a, b = np.triu_indices(n, 1)
        npairs = len(a)
        diag = np.arange(n)
        self.scale = np.repeat([1.0, math.sqrt(2.0)], [n, 2 * npairs])
        # coordinate alpha reads the real or imaginary part of entry (a, b)
        # of the matrix, at position 2 (a n + b) + part of its float view
        upper = 2 * (a * n + b)
        self._svec_src = np.concatenate([2 * diag * (n + 1), upper, upper + 1])
        # entry (a, b) of the float view is coordinate _smat_src times _smat_weight;
        # the imaginary diagonal reads coordinate 0 with weight 0
        lower = 2 * (b * n + a)
        re, im = n + np.arange(npairs), n + npairs + np.arange(npairs)
        self._smat_src = np.zeros(2 * n * n, dtype=np.intp)
        self._smat_weight = np.zeros(2 * n * n)
        for pos, src, weight in ((2 * diag * (n + 1), diag, 1.0),
                                 (upper, re, 1 / math.sqrt(2.0)), (lower, re, 1 / math.sqrt(2.0)),
                                 (upper + 1, im, 1 / math.sqrt(2.0)),
                                 (lower + 1, im, -1 / math.sqrt(2.0))):
            self._smat_src[pos] = src
            self._smat_weight[pos] = weight
        half = 1 / math.sqrt(2.0)  # the Schur kernel's row and column factors
        self._kernel_row = np.repeat([0.5, half, -half], [n, npairs, npairs])[:, None]
        self._kernel_col = np.repeat([1.0, half], [n, 2 * npairs])

    def svec(self, m: np.ndarray) -> np.ndarray:
        """The coordinates of a Hermitian matrix (or stack) along a new last axis."""
        m = np.asarray(m, dtype=complex)
        flat = m.reshape(m.shape[:-2] + (self.L,))
        return np.take(flat.view(np.float64), self._svec_src, axis=-1) * self.scale

    def smat(self, v: np.ndarray) -> np.ndarray:
        """The Hermitian matrices sum_alpha v_alpha F_alpha of coordinates along the last axis."""
        flat = np.take(v, self._smat_src, axis=-1) * self._smat_weight
        return flat.view(complex).reshape(v.shape[:-1] + (self.n, self.n))

    @cached_property
    def _half_rows(self) -> np.ndarray:
        # rows E_aa, E_ab (a < b) of W by columns E_cc, E_ce, E_ec (c < e), as
        # positions in G: n^2 (n + 1)/2 entries, built on the first kernel call
        n = self.n
        a, b = np.triu_indices(n, 1)
        diag = np.arange(n)
        ra, rb = np.concatenate([diag, a]), np.concatenate([diag, b])
        cc, ce = np.concatenate([diag, a, b]), np.concatenate([diag, b, a])
        return ((ra[:, None] * n + ce[None, :]) * n + rb[:, None]) * n + cc[None, :]

    def schur_kernel(self, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        """H[p, alpha, beta] = sum_r Re Tr(F_alpha s[p, r] F_beta x[p, r]).

        ``s`` and ``x`` are (P, r, n, n) stacks of Hermitian matrices; the r
        blocks of each group are summed.  With V(s, x)[(a, b), (c, e)] =
        Tr(E_ab s E_ce x) = s[b, c] x[e, a], 2H is the basis image of
        W = V(s, x) + V(x, s), as H(s, x) = H(x, s) = H(s, x)^T.  One product
        of inner dimension 2r, [vec x^T, vec s^T] times [vec s, vec x], gives
        G with W[(a, b), (c, e)] = G[a, e, b, c].  As W[(b, a), (e, c)] =
        conj W[(a, b), (c, e)], only the rows (a, a) and (a, b), a < b, are
        gathered and folded into the basis columns (W_cc, (W_ce + W_ec)/sqrt(2),
        i (W_ce - W_ec)/sqrt(2)) by sums and differences of column blocks: the
        real parts give the diag(a) and re(a, b) rows of H (times 1/2 and
        1/sqrt(2)), the imaginary parts the im(a, b) rows (times -1/sqrt(2)).
        """
        p, r, n, L = s.shape[0], s.shape[1], self.n, self.L
        rows = (L + n) // 2
        left = np.concatenate([x, s], axis=1).transpose(0, 1, 3, 2).reshape(p, 2 * r, L)
        right = np.concatenate([s, x], axis=1).reshape(p, 2 * r, L)
        # G is released once its half rows are taken: the peak is ~3x the output
        w = np.take(np.matmul(left.transpose(0, 2, 1), right).reshape(p, L * L),
                    self._half_rows, axis=1)
        wr, wi = w.real, w.imag
        h = np.empty((p, L, L))
        top, bottom = h[:, :rows], h[:, rows:]
        np.copyto(top[..., :n], wr[..., :n])
        np.add(wr[..., n:rows], wr[..., rows:], out=top[..., n:rows])
        np.subtract(wi[..., rows:], wi[..., n:rows], out=top[..., rows:])
        np.copyto(bottom[..., :n], wi[:, n:, :n])
        np.add(wi[:, n:, n:rows], wi[:, n:, rows:], out=bottom[..., n:rows])
        np.subtract(wr[:, n:, n:rows], wr[:, n:, rows:], out=bottom[..., rows:])
        h *= self._kernel_row
        h *= self._kernel_col
        return h


@lru_cache(maxsize=None)
def _geometry(n: int) -> _BlockGeometry:
    return _BlockGeometry(n)


class SdpProblem:
    """Block SDP data: dimensions, objective blocks, constraints, right-hand side.

    ``constraints`` in the public constructor is a list of ``(blocks, b_i)``
    where ``blocks`` maps block index -> dense Hermitian array, real or
    complex (a dict, or a list with ``None`` for untouched blocks).
    Internally every constraint is one sparse column over the stacked svec
    coordinates of the blocks: ``a_csc`` holds the columns and ``a_t`` its
    CSR transpose, built once because the solver applies A^T several times
    per iteration.

    ``schur_factory`` builds the :class:`SchurSystem` of each solve from the
    problem; it defaults to :class:`DenseSchur` and is shared by
    :meth:`with_rhs` copies.
    """

    def __init__(self, block_dims, objective_blocks, constraints):
        block_dims = tuple(int(d) for d in block_dims)
        if any(d < 1 for d in block_dims):
            raise ValueError(f"block dimensions must be positive, got {block_dims}")
        self._init_blocks(block_dims)
        offsets = self._svec_offsets
        c_blocks = [self._check_block(c, k, "objective") for k, c in enumerate(objective_blocks)]
        if len(c_blocks) != len(self.block_dims):
            raise ValueError("one objective block per block dimension is required")

        rows, cols, vals, b = [], [], [], []
        for i, (blocks, bi) in enumerate(constraints):
            items = blocks.items() if hasattr(blocks, "items") else [
                (k, blk) for k, blk in enumerate(blocks) if blk is not None]
            seen_any = False
            for k, blk in items:
                blk = self._check_block(blk, k, f"constraint {i}")
                v = self._geom[k].svec(blk)
                nz = np.nonzero(v)[0]
                if len(nz):
                    seen_any = True
                    rows.append(nz + offsets[k])
                    vals.append(v[nz])
                    cols.append(np.full(len(nz), i, dtype=np.intp))
            if not seen_any:
                raise ValueError(f"constraint {i} is identically zero")
            b.append(float(bi))
        if not b:
            raise ValueError("at least one constraint is required")
        a_csc = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.svec_length, len(b)))
        self._init_data(c_blocks, a_csc, np.array(b))

    @classmethod
    def from_svec_columns(cls, block_dims, objective_blocks, a_csc, b) -> "SdpProblem":
        """Construct directly from a constraint matrix over the stacked svec coordinates."""
        self = cls.__new__(cls)
        self._init_blocks(block_dims)
        if a_csc.shape[0] != self.svec_length:
            raise ValueError(f"constraint matrix has {a_csc.shape[0]} rows, "
                             f"expected {self.svec_length}")
        self._init_data([np.asarray(c, dtype=complex) for c in objective_blocks],
                        a_csc.tocsc(), np.asarray(b, dtype=float))
        return self

    def _init_blocks(self, block_dims):
        """Block dimensions and the svec layout they imply (both constructors)."""
        self.block_dims = tuple(int(d) for d in block_dims)
        self._geom = [_geometry(d) for d in self.block_dims]
        self._svec_offsets = np.cumsum([0] + [g.L for g in self._geom])
        self.svec_length = int(self._svec_offsets[-1])

    def _init_data(self, c_blocks, a_csc, b):
        """Objective, constraint columns and right-hand side (both constructors)."""
        self.c_blocks = c_blocks
        self.a_csc = a_csc
        self.a_t = a_csc.T
        self.b = b
        self._prep_holder = {"prep": None}
        self.schur_factory = DenseSchur

    def _check_block(self, blk, k, what):
        blk = np.asarray(blk, dtype=complex)
        d = self.block_dims[k]
        if blk.shape != (d, d):
            raise ValueError(f"{what}: block {k} has shape {blk.shape}, expected {(d, d)}")
        if np.max(np.abs(blk - blk.conj().T)) > HERMITICITY_TOL:
            raise ValueError(f"{what}: block {k} is not Hermitian within {HERMITICITY_TOL:.0e}")
        return (blk + blk.conj().T) / 2

    @property
    def num_constraints(self) -> int:
        return len(self.b)

    def with_rhs(self, b) -> "SdpProblem":
        """Same structure with a different right-hand side (shares all arrays)."""
        b = np.asarray(b, dtype=float)
        if b.shape != self.b.shape:
            raise ValueError(f"rhs has shape {b.shape}, expected {self.b.shape}")
        clone = SdpProblem.__new__(SdpProblem)
        clone.__dict__.update(self.__dict__)
        clone.b = b
        return clone

    # -- solver-side helpers ------------------------------------------------

    def block_slices(self):
        o = self._svec_offsets
        return [slice(int(o[k]), int(o[k + 1])) for k in range(len(self.block_dims))]

    def prep(self):
        """Per-block constraint data for the :class:`DenseSchur` assembly (cached, shared).

        For every block: the active constraint columns and the sparse slice of
        the constraint matrix that sandwiches the block's Schur kernel.
        """
        if self._prep_holder["prep"] is None:
            a_csr = self.a_csc.tocsr()
            prep = []
            for k, sl in enumerate(self.block_slices()):
                phi_rows = a_csr[sl]  # csr: indices are the constraint (column) ids
                act = np.unique(phi_rows.indices) if phi_rows.nnz else None
                if act is None or not len(act):
                    prep.append(None)
                    continue
                phi_act = phi_rows[:, act].tocsc()
                prep.append({
                    "geom": self._geom[k],
                    "act": act,
                    "phi_act": phi_act,
                    "phi_act_t": sp.csr_matrix(phi_act.T),
                })
            self._prep_holder["prep"] = prep
        return self._prep_holder["prep"]


class SchurSystem(Protocol):
    """The Schur complement (normal-equation) system of one solve.

    ``M_ij = <A_i, (S^-1 A_j X + X A_j S^-1)/2>`` summed over the cone blocks,
    for the current iterate.  A problem supplies the implementation through
    :attr:`SdpProblem.schur_factory`, so it can exploit its own sparsity.
    """

    def assemble(self, sinv_blocks: list, x_blocks: list) -> None:
        """Form M from the per-block S^-1 and X (problem block order)."""

    def max_diagonal(self) -> float:
        """Largest |M_ii|, the scale of the regularization shift."""

    def factor(self, shift: float) -> None:
        """Factor M + shift*I; raise ``np.linalg.LinAlgError`` unless it is PD."""

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(M + shift*I)^-1 rhs with the last factored shift (rhs: m or m x k)."""

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M v without the shift (v: m or m x k)."""


class DenseSchur:
    """Generic :class:`SchurSystem`: the full m x m matrix and a dense Cholesky.

    Every block contributes the sandwich of its Schur kernel with its active
    constraint columns, scattered into the rows and columns of those columns.
    """

    def __init__(self, problem: SdpProblem):
        self._prep = problem.prep()
        m = problem.num_constraints
        self.matrix = np.zeros((m, m))
        self._factor = None

    def assemble(self, sinv_blocks, x_blocks):
        mmat = self.matrix
        mmat.fill(0.0)
        for info, sinv, x in zip(self._prep, sinv_blocks, x_blocks):
            if info is None:
                continue
            h = info["geom"].schur_kernel(sinv[None, None], x[None, None])[0]
            act = info["act"]
            mmat[np.ix_(act, act)] += (info["phi_act_t"] @ h) @ info["phi_act"]
        mmat += mmat.T
        mmat *= 0.5

    def max_diagonal(self):
        return float(np.max(np.abs(self.matrix.diagonal())))

    def factor(self, shift):
        shifted = self.matrix.copy()
        shifted[np.diag_indices_from(shifted)] += shift
        self._factor = sla.cho_factor(shifted, lower=True, overwrite_a=True,
                                      check_finite=False)

    def solve(self, rhs):
        return sla.cho_solve(self._factor, rhs, check_finite=False)

    def matvec(self, v):
        return self.matrix @ v


class _Stacks:
    """Blocks grouped by dimension and stored as (count, n, n) arrays."""

    def __init__(self, block_dims):
        self.block_dims = tuple(block_dims)
        groups = {}
        for idx, d in enumerate(self.block_dims):
            groups.setdefault(d, []).append(idx)
        self.groups = [(d, np.array(idxs), _geometry(d)) for d, idxs in groups.items()]
        position = {}
        for d, idxs, _ in self.groups:
            for row, idx in enumerate(idxs):
                position[int(idx)] = (d, row)
        # (group dimension, row in the group's stack) of each block, in block order
        self.position = [position[idx] for idx in range(len(self.block_dims))]

    def identity(self, factor: float) -> dict:
        return {d: factor * np.broadcast_to(np.eye(d, dtype=complex), (len(idxs), d, d))
                for d, idxs, _ in self.groups}

    def to_blocks(self, stacks: dict) -> list:
        return [stacks[d][row] for d, row in self.position]

    def from_blocks(self, blocks: list) -> dict:
        return {d: np.stack([blocks[i] for i in idxs]) for d, idxs, _ in self.groups}

    def map(self, fn, *stack_dicts) -> dict:
        return {d: fn(*[sd[d] for sd in stack_dicts]) for d, _, _ in self.groups}

    def inner(self, a: dict, b: dict) -> float:
        return float(sum(np.vdot(a[d], b[d]).real for d, _, _ in self.groups))


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a (count, n, n) stack."""
    return stack.conj().transpose(0, 2, 1)


def _herm_stack(stack: np.ndarray) -> np.ndarray:
    return (stack + _adjoint(stack)) / 2


def lapack_checked(result, routine: str) -> np.ndarray:
    """The array of a ``scipy.linalg.lapack`` ``(array, info)`` result.

    A positive info (a failed Cholesky factorization or a singular triangle)
    raises ``np.linalg.LinAlgError``, which the regularization ladder catches;
    a negative one is an illegal argument and raises ``ValueError``.
    """
    out, info = result
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine}: matrix not positive definite or "
                                    f"singular at column {info}")
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")
    return out


def _inverse_factor(chol: np.ndarray) -> np.ndarray:
    """L^-1 for each lower-triangular Cholesky factor L of a (count, n, n) stack."""
    out = np.empty_like(chol)
    for blk, low in zip(out, chol):
        blk[...] = lapack_checked(lapack.ztrtri(low, lower=1), "ztrtri")
    return out


def _inverse_from_factor(linv: np.ndarray) -> np.ndarray:
    """X^-1 = L^-H L^-1 for each block, given the stacked L^-1 of X = L L^H."""
    return _herm_stack(np.matmul(_adjoint(linv), linv))


def _step_to_boundary(linv: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha keeping every X + alpha*delta PSD, given the stacked L^-1 of X.

    The eigenvalues of L^-1 delta L^-H are those of the pencil (delta, X); the
    step is -1/lambda_min, or inf when no eigenvalue is below -1e-14.
    """
    z = np.matmul(np.matmul(linv, delta), _adjoint(linv))
    lam_min = float(np.linalg.eigvalsh(_herm_stack(z)).min())
    if lam_min >= -1e-14:
        return math.inf
    return -1.0 / lam_min


# (get, set) thread-count functions of the OpenBLAS builds a process can load:
# numpy's ILP64 scipy-openblas, scipy's LP64 scipy-openblas, a system build
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class _OpenBlas:
    """The thread-count functions of one loaded OpenBLAS library."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _loaded_openblas() -> list:
    """Every OpenBLAS library mapped into this process.

    The libraries are read from ``/proc/self/maps``, so none are found on
    systems without it.  A library that exports none of the known symbol pairs
    (another BLAS vendor) is skipped.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = dict.fromkeys(f[5].rstrip("\n") for f in fields if len(f) == 6)
    found = {}
    for path in paths:
        if "openblas" not in path.lower():
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get_fn, set_fn = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get_fn is not None and set_fn is not None:
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                # symbol lookup also searches a library's dependencies, so
                # two mapped paths can lead to the same function
                address = ctypes.cast(get_fn, ctypes.c_void_p).value
                found.setdefault(address, _OpenBlas(path, get_fn, set_fn))
                break
    return list(found.values())


class _OneBlasThread:
    """Context manager that runs every loaded OpenBLAS on one thread inside it.

    Entry lowers each thread count above 1 to 1.  The exit of the last
    entry, over nested and concurrent entries in any thread, restores exactly
    the counts that were lowered, also when the body raised.  The libraries
    are looked up once, on the first entry.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._lowered = []  # (library, thread count before the first entry)
        self._libraries = None

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                if self._libraries is None:
                    self._libraries = _loaded_openblas()
                for lib in self._libraries:
                    count = lib.get_threads()
                    if count > 1:
                        lib.set_threads(1)
                        self._lowered.append((lib, count))
            self._depth += 1
        return self

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for lib, count in self._lowered:
                    lib.set_threads(count)
                self._lowered.clear()


_ONE_BLAS_THREAD = _OneBlasThread()


class _Failure(Exception):
    def __init__(self, status: SdpStatus, message: str):
        self.status = status
        self.message = message


def solve(problem: SdpProblem,
          stop: Callable[[list, np.ndarray, list], bool] | None = None,
          start: tuple | None = None) -> SdpSolution:
    """Run the predictor-corrector interior-point iteration on ``problem``.

    Returns an :class:`SdpSolution` whose status is ``OPTIMAL`` once the
    relative gap and both scaled residual norms are below :data:`GAP_TOL` and
    :data:`FEAS_TOL`; weak duality then brackets the true optimum between the
    reported dual and primal objectives.

    ``stop(x_blocks, y, s_blocks)``, when given, sees every iterate (the
    start point first) before the solver's own tests.  When it returns True
    the solve ends there with status ``OPTIMAL``, that iterate, and a message
    naming ``stop``.  What it raises propagates.  The blocks it receives are
    the solver's own arrays, to be read and not modified.

    ``start = (x_blocks, y, s_blocks)``, when given, is the first iterate in
    place of the cold start: one d x d array per block for X and for S, in
    problem block order, and a real y of one entry per constraint.  It need
    not be feasible.  A wrong count or shape, a non-finite entry, a block that
    is not Hermitian within ``HERMITICITY_TOL`` or an X or S block that is not
    positive definite (its Cholesky factorization fails) raises
    ``ValueError`` naming the block.  The Hermitian parts of the blocks are
    used, and their Cholesky factors serve the first iteration.  Without a
    start the iteration is the same, bit for bit.

    The iteration runs on one BLAS thread (see the module docstring); the
    thread counts after the call equal those before it, also when ``stop``
    raises.
    """
    with _ONE_BLAS_THREAD:
        return _solve(problem, stop, start)


def _start_stacks(problem: SdpProblem, stacks: _Stacks, start) -> tuple:
    """(X stacks, y, S stacks, X factors, S factors) of a caller's start point.

    Raises ``ValueError`` naming the first block (or y) that has the wrong
    shape, is not finite, is not Hermitian or is not positive definite.
    """
    try:
        x_blocks, y, s_blocks = start
    except (TypeError, ValueError):
        raise ValueError("start must be a tuple (x_blocks, y, s_blocks)") from None
    y = np.array(y, dtype=float)
    if y.shape != problem.b.shape:
        raise ValueError(f"start: y has shape {y.shape}, expected {problem.b.shape}")
    if not np.isfinite(y).all():
        raise ValueError("start: y is not finite")
    out = []
    for name, blocks in (("X", x_blocks), ("S", s_blocks)):
        blocks = [np.asarray(blk, dtype=complex) for blk in blocks]
        if len(blocks) != len(problem.block_dims):
            raise ValueError(f"start: {len(blocks)} {name} blocks, expected "
                             f"{len(problem.block_dims)}")
        for k, (blk, d) in enumerate(zip(blocks, problem.block_dims)):
            if blk.shape != (d, d):
                raise ValueError(f"start {name}: block {k} has shape {blk.shape}, "
                                 f"expected {(d, d)}")
        # one batched check per group; only a failure is traced to its block
        st = stacks.from_blocks(blocks)
        if all(np.isfinite(g).all() and np.max(np.abs(g - _adjoint(g))) <= HERMITICITY_TOL
               for g in st.values()):
            st = stacks.map(_herm_stack, st)
            try:
                out += [st, stacks.map(np.linalg.cholesky, st)]
                continue
            except np.linalg.LinAlgError:
                pass
        for k, blk in enumerate(blocks):
            if not np.isfinite(blk).all():
                raise ValueError(f"start {name}: block {k} is not finite")
            try:
                np.linalg.cholesky(problem._check_block(blk, k, f"start {name}"))
            except np.linalg.LinAlgError:
                raise ValueError(f"start {name}: block {k} is not positive definite "
                                 "(its Cholesky factorization failed)") from None
    x_st, x_chol, s_st, s_chol = out
    return x_st, y, s_st, x_chol, s_chol


def _solve(problem: SdpProblem, stop, start) -> SdpSolution:
    a, a_t = problem.a_csc, problem.a_t
    b = problem.b
    m = problem.num_constraints
    dims = problem.block_dims
    n_tot = sum(dims)
    slices = problem.block_slices()
    stacks = _Stacks(dims)
    c_stacks = stacks.from_blocks(problem.c_blocks)
    c_svec = np.concatenate([problem._geom[k].svec(problem.c_blocks[k])
                             for k in range(len(dims))])
    b_norm = float(np.linalg.norm(b))
    c_norm = float(np.linalg.norm(c_svec))

    x_chol = s_chol = None  # Cholesky factors of the iterate, when already known
    if start is not None:
        x_st, y, s_st, x_chol, s_chol = _start_stacks(problem, stacks, start)
    else:
        # scale-aware cold start: X = S = tau*I, y = 0
        col_norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=0)).ravel())
        tau = 1.0 + float(np.max(np.abs(b))) + float(np.max(col_norms))
        x_st = stacks.identity(tau)
        s_st = stacks.identity(tau)
        y = np.zeros(m)

    svec_buf = np.empty(problem.svec_length)
    # positions of each group's stacked svec rows in the full svec vector
    svec_pos = {d: np.concatenate([np.arange(slices[i].start, slices[i].stop) for i in idxs])
                for d, idxs, _ in stacks.groups}

    def svec_all(sd: dict) -> np.ndarray:
        for d, _, g in stacks.groups:
            svec_buf[svec_pos[d]] = g.svec(sd[d]).ravel()
        return svec_buf

    def op_a(sd: dict) -> np.ndarray:
        return a_t @ svec_all(sd)

    def op_at(vec_y: np.ndarray) -> dict:
        full = a @ vec_y
        return {d: g.smat(full[svec_pos[d]].reshape(len(idxs), g.L))
                for d, idxs, g in stacks.groups}

    def inverse_factors(sd: dict, chol: dict | None, what: str) -> tuple:
        """The Cholesky factors L (factored here unless given) and L^-1, per group."""
        try:
            if chol is None:
                chol = stacks.map(np.linalg.cholesky, sd)
            return chol, stacks.map(_inverse_factor, chol)
        except np.linalg.LinAlgError as exc:
            raise _Failure(SdpStatus.NUMERICAL_FAILURE,
                           f"{what} left the cone interior: {exc}") from None

    def safe_step(sd: dict, delta: dict, alpha: float, tries: int = 30) -> tuple:
        """(alpha, sd + alpha*delta, its Cholesky factors) for the first PD trial.

        The max-step estimate can overshoot once blocks are nearly singular,
        so alpha halves until the trial factors; (0, sd, None) if none does.
        The trial is exactly Hermitian (both terms are), and its factors are
        the next iteration's.
        """
        for _ in range(tries):
            trial = stacks.map(lambda blk, d: blk + alpha * d, sd, delta)
            try:
                return alpha, trial, stacks.map(np.linalg.cholesky, trial)
            except np.linalg.LinAlgError:
                alpha *= 0.5
        return 0.0, sd, None

    def max_step(linv: dict, delta: dict) -> float:
        return min(_step_to_boundary(linv[d], delta[d]) for d, _, _ in stacks.groups)

    schur = problem.schur_factory(problem)

    def factor_schur():
        # regularization is relative to the diagonal scale: near convergence the
        # Schur entries grow like 1/mu and an absolute shift would vanish in
        # the rounding noise of the factorization
        scale = max(1.0, schur.max_diagonal())
        reg = MIN_REGULARIZATION
        while reg <= MAX_REGULARIZATION * (1 + 1e-12):
            try:
                schur.factor(reg * scale)
                return
            except np.linalg.LinAlgError:
                reg *= 10
        raise _Failure(SdpStatus.NUMERICAL_FAILURE,
                       "Schur complement not positive definite up to regularization "
                       f"{MAX_REGULARIZATION:.0e} (linearly dependent constraints?)")

    status = SdpStatus.MAX_ITERATIONS
    message = ""
    iterations = 0
    best_merit = math.inf
    best_iterate = None
    best_trail = []  # best merit seen up to each iteration

    try:
        for iterations in range(MAX_ITERATIONS + 1):
            svec_x = svec_all(x_st).copy()
            svec_s = svec_all(s_st).copy()
            pobj = float(c_svec @ svec_x)
            dobj = float(b @ y)
            gap = pobj - dobj
            relgap = abs(gap) / (1 + abs(pobj))
            rp_vec = b - a_t @ svec_x
            rd_st = stacks.map(lambda c, s, aty: c - s - aty, c_stacks, s_st, op_at(y))
            rp_norm = float(np.linalg.norm(rp_vec)) / (1 + b_norm)
            rd_norm = float(np.linalg.norm(svec_all(rd_st))) / (1 + c_norm)

            merit = max(relgap, rp_norm, rd_norm)
            if merit < best_merit:
                best_merit = merit
                best_iterate = (stacks.map(np.copy, x_st), y.copy(),
                                stacks.map(np.copy, s_st))
            best_trail.append(best_merit)

            if stop is not None and stop(stacks.to_blocks(x_st), y, stacks.to_blocks(s_st)):
                status = SdpStatus.OPTIMAL
                name = getattr(stop, "__qualname__", type(stop).__qualname__)
                message = f"stopped by the caller's stop ({name}) after {iterations} iterations"
                break
            if relgap <= GAP_TOL and rp_norm <= FEAS_TOL and rd_norm <= FEAS_TOL:
                status = SdpStatus.OPTIMAL
                break
            if dobj > DIVERGENCE_BOUND:
                raise _Failure(SdpStatus.INFEASIBLE,
                               "dual objective diverged: the primal problem is infeasible")
            if pobj < -DIVERGENCE_BOUND:
                raise _Failure(SdpStatus.INFEASIBLE,
                               "primal objective diverged: the dual problem is infeasible")
            if iterations == MAX_ITERATIONS:
                break
            stalled_long = (iterations > STALL_ITERATIONS
                            and best_merit > 0.5 * best_trail[-1 - STALL_ITERATIONS])
            stalled_short = (best_merit <= STALL_ACCURACY and iterations > 4
                             and best_merit > 0.7 * best_trail[-5])
            if stalled_long or stalled_short:
                # degenerate optima (no strictly complementary solution) hit an
                # accuracy floor in double precision; stop at the best iterate
                x_st, y, s_st = best_iterate
                message = (f"progress stalled after {iterations} iterations at "
                           f"accuracy {best_merit:.2e}; best iterate returned")
                break

            mu = float(svec_x @ svec_s) / n_tot
            s_chol, s_linv = inverse_factors(s_st, s_chol, "dual iterate")
            _, x_linv = inverse_factors(x_st, x_chol, "primal iterate")
            sinv = stacks.map(_inverse_from_factor, s_linv)

            schur.assemble(stacks.to_blocks(sinv), stacks.to_blocks(x_st))
            factor_schur()
            refine = relgap < 1e-3 or rp_norm < 1e-3

            def kkt_solve(rhs):
                dy = schur.solve(rhs)
                if refine:
                    dy += schur.solve(rhs - schur.matvec(dy))
                return dy

            a_sinv = op_a(sinv).copy()
            g_st = stacks.map(lambda si, rd, x: _herm_stack(si @ rd @ x), sinv, rd_st, x_st)
            a_g = op_a(g_st).copy()

            def direction(sig_mu, corr):
                """HKM direction, with one refinement pass restoring A(dX) = rp."""
                rhs = b - sig_mu * a_sinv + a_g
                if corr is not None:
                    rhs = rhs + op_a(corr)
                dy = kkt_solve(rhs)
                aty = op_at(dy)
                ds = stacks.map(lambda rd, at: rd - at, rd_st, aty)
                dx = stacks.map(lambda si, x, dss: _herm_stack(sig_mu * si - x - si @ dss @ x),
                                sinv, x_st, ds)
                if corr is not None:
                    dx = stacks.map(lambda blk, co: blk - co, dx, corr)
                if refine:
                    # the normal-equation reconstruction of dX loses primal
                    # feasibility at high condition numbers; re-solve for the
                    # violation and correct the whole direction
                    ep = rp_vec - op_a(dx)
                    dy2 = kkt_solve(ep)
                    aty2 = op_at(dy2)
                    dy = dy + dy2
                    ds = stacks.map(lambda dss, a2: dss - a2, ds, aty2)
                    dx = stacks.map(lambda blk, si, a2, x: blk + _herm_stack(si @ a2 @ x),
                                    dx, sinv, aty2, x_st)
                return dy, ds, dx

            # predictor (affine scaling, sigma = 0)
            dy_aff, ds_aff, dx_aff = direction(0.0, None)
            ap_aff = min(1.0, max_step(x_linv, dx_aff))
            ad_aff = min(1.0, max_step(s_linv, ds_aff))
            mu_aff = stacks.inner(
                stacks.map(lambda x, dx: x + ap_aff * dx, x_st, dx_aff),
                stacks.map(lambda s, ds: s + ad_aff * ds, s_st, ds_aff)) / n_tot
            sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

            # centrality guard: when the smallest complementarity pairs fall far
            # below mu the plain Mehrotra step stalls, so re-center first
            lam_floor = math.inf
            for d, _, _ in stacks.groups:
                w = np.matmul(np.matmul(_adjoint(s_chol[d]), x_st[d]), s_chol[d])
                lam_floor = min(lam_floor, float(np.linalg.eigvalsh(_herm_stack(w)).min()))
            centrality = lam_floor / mu
            if centrality < 1e-4:
                sigma = 1.0
            elif centrality < 1e-2:
                sigma = max(sigma, 0.5)

            # corrector with Mehrotra second-order term
            corr = stacks.map(lambda si, ds, dx: _herm_stack(si @ ds @ dx),
                              sinv, ds_aff, dx_aff)
            dy, ds, dx = direction(sigma * mu, corr)

            alpha_p = min(1.0, STEP_FRACTION * max_step(x_linv, dx))
            alpha_d = min(1.0, STEP_FRACTION * max_step(s_linv, ds))
            alpha_p, x_st, x_chol = safe_step(x_st, dx, alpha_p)
            alpha_d, s_st, s_chol = safe_step(s_st, ds, alpha_d)
            if alpha_p <= 0 or alpha_d <= 0:
                raise _Failure(SdpStatus.NUMERICAL_FAILURE,
                               "no positive step keeps the iterate inside the cone")
            y = y + alpha_d * dy
            if not (np.isfinite(y).all()
                    and all(np.isfinite(x_st[d]).all() for d, _, _ in stacks.groups)
                    and all(np.isfinite(s_st[d]).all() for d, _, _ in stacks.groups)):
                raise _Failure(SdpStatus.NUMERICAL_FAILURE, "non-finite iterate")
    except _Failure as failure:
        status = failure.status
        message = failure.message

    if status is SdpStatus.MAX_ITERATIONS and not message:
        message = f"no convergence within {MAX_ITERATIONS} iterations"
        if best_iterate is not None:
            x_st, y, s_st = best_iterate

    svec_x = svec_all(x_st).copy()
    pobj = float(c_svec @ svec_x)
    dobj = float(b @ y)
    gap = pobj - dobj
    relgap = abs(gap) / (1 + abs(pobj))
    rp_norm = float(np.linalg.norm(b - a_t @ svec_x)) / (1 + b_norm)
    rd_final = stacks.map(lambda c, s, aty: c - s - aty, c_stacks, s_st, op_at(y))
    rd_norm = float(np.linalg.norm(svec_all(rd_final))) / (1 + c_norm)

    return SdpSolution(
        status=status,
        x_blocks=stacks.to_blocks(x_st),
        y=y,
        s_blocks=stacks.to_blocks(s_st),
        primal_objective=pobj,
        dual_objective=dobj,
        gap=gap,
        relative_gap=relgap,
        primal_residual=rp_norm,
        dual_residual=rd_norm,
        iterations=iterations,
        message=message,
    )
