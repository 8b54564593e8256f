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
kernel, ``_BlockGeometry.schur_kernel``: H^[alpha, beta] = Re Tr(F^_alpha
S^-1 F^_beta X) over the unnormalised basis F^ = {E_aa, E_ab + E_ba,
i (E_ba - E_ab)} of a block, formed from half the rows of one product since
H^(s, x) = H^(x, s) = H^(s, x)^T for Hermitian s and x.  The svec basis F
below is F_alpha = delta_alpha F^_alpha, D = diag(delta) = diag(1,
1/sqrt(2), -1/sqrt(2)), so the kernel over F is H = D H^ D; the kernel is
left unscaled, and each implementation applies D where it is cheap (to the
constraint columns, or to vectors and the shift).  A problem supplies its
implementation through ``SdpProblem.schur_factory``; the default
:class:`DenseSchur` forms the whole m x m matrix and factors it by dense
Cholesky, while structured programs (the PPT-mixture program in ``gmn``) keep
M in a sparser block form.
The solver owns the regularization ladder: the shift is reg times max(1, the
largest diagonal entry of M), with reg = :data:`MIN_REGULARIZATION` x 10^k
at rung k, escalating until it passes :data:`MAX_REGULARIZATION`.  A pure
centering step is taken whenever the smallest complementarity pairs drift far
below their mean (which is what stalls plain Mehrotra steps on degenerate
optima).  Step lengths are :data:`STEP_FRACTION` of the distance to the cone
boundary, capped at 1.

Refinement is kept for the end game.  Once the relative gap is below 1e-3,
each Schur solve gets one step of iterative refinement against the unshifted
M, and each direction a second solve that restores A(dX) = r_p: there the
Schur matrix is ill-conditioned (its entries grow like 1/mu), and the
rounding of one solve would show in the residuals that the stopping tests
read.  Before that one solve per direction is enough: from the feasible
start that ``gmn`` passes, A(X) = b holds to rounding, and unrefined steps
leave the scaled primal residual near 1e-9, below :data:`FEAS_TOL`.  An
early iteration thus takes 2 Schur solves and no product with M, against 8
solves and 4 products in the end game.

Each iteration factors S = L_S L_S^H and X = L_X L_X^H once and inverts each
factor once.  The inverse factors serve both S^-1 = L_S^-H L_S^-1 and the four
step lengths, which come from the eigenvalues of L^-1 D L^-H for a direction
D: a Hermitian eigenproblem formed with matrix products, no further solves.
The predictor's two step lengths and the centrality floor (the eigenvalues of
L_S^H X L_S) take one batched ``eigvalsh``, and the corrector's two take one
more.

Every solve runs on one BLAS thread: :func:`solve` lowers the thread count of
each loaded OpenBLAS (numpy's and scipy's bundled copies, or a system build)
to 1 for the duration of the iteration and restores it afterwards.
Parallelism across solves comes from the worker pool in ``analysis``, whose
workers start single-threaded.  Inside a solve the only parallelism is the
Schur system's own: ``gmn.ArrowheadSchur`` assembles and factors the 4-qubit
program's bipartitions in two lanes, on the calling thread and one helper
thread, each of which calls BLAS on one thread.  Its lanes call ``dpotrf``
and ``dtrsm`` directly through scipy's Cython API, which releases the
interpreter lock, so they run at once; these are the routines of the same
OpenBLAS, so this policy covers them too.  The largest BLAS operands
are the 256 x 256 Schur blocks of that program, too small for BLAS threads
to pay off: on a 2-vCPU host an N=4 solve took twice as long with two
OpenBLAS threads as with one, at the same iteration count.  One thread also
makes a solve's rounding the same in-process and in a pool worker.  Other
BLAS vendors are left alone.

Problems without a strictly complementary optimum stall in double
precision at a primal residual of a few 1e-7.  A caller that can restore
primal feasibility passes ``repair(x)``, which in the end game replaces
each accepted X (``gmn`` adds PSD blocks that meet A(X) = b to rounding).
After :data:`MAX_ITERATIONS` the last iterate is returned; a caller that
wants its best point keeps it through ``stop``, as ``gmn``'s bracket does.

The solver has one configuration: the module constants below, read at call
time.  ``gmn`` stops every solve through ``stop`` once its certified bracket
closes, so looser tolerances could only end a solve before that, and tighter
ones cannot make a closed bracket more exact.

A caller that can judge a point itself passes ``stop(x, y, s)`` to
:func:`solve`.  It sees two points per iteration, in turn: the iterate
(the start point first) before the solver's own tests, then the full Newton
point (X + dX, y + dy, S + dS) of the corrector direction before the step
length cuts it back into the cone.  The direction solves the linearized
equations, so the Newton point meets A(X) = b and C - A^T y = S up to the
rounding of the Schur solve, but it may lie outside the cone.  A True return
ends the solve with status ``OPTIMAL`` and a message naming the callback.  At
an iterate, that iterate is returned.  At the Newton point of iteration k,
iterate k (the last interior point) is returned with ``iterations`` k + 1:
``iterations`` counts the Schur systems factored.  The solver knows nothing
of what the callback checks: ``gmn`` uses it to stop once its certified
bracket on the monotone, which holds at any such point, is narrow enough.
Without a callback the iteration is the same, bit for bit.

Every solve starts from the scale-aware cold start X = S = tau I, y = 0
(tau = 1 + max|b_i| + the largest constraint column norm) unless the caller
passes ``start=(x, y, s)``, a point it knows to be better: for
the PPT-mixture program ``gmn`` builds one that is feasible on both sides.
The solver refuses a start with a block of the wrong shape, a non-finite
entry, a block that is not Hermitian, or an X or S block that is not
positive definite (checked by Cholesky), with a ``ValueError`` naming the
block; it does not check feasibility, which the iteration does not need.

Each accepted step is exactly Hermitian (iterate and direction both are), and
the Cholesky factors that prove the trial iterate positive definite are the
ones the next iteration uses.

Every cone block of a problem has the same dimension n, as in the
PPT-mixture program, whose 4K blocks are all 2^N x 2^N; a problem with
blocks of several sizes is refused.  So X, S, S^-1, every direction and every
Cholesky factor is one (count, n, n) array in problem block order, and that
array is what the solver passes to the Schur system, to ``stop`` and back in
the solution.  Constraints are sparse columns over the n^2 real coordinates
of each block in a trace-orthonormal Hermitian basis (see
:class:`_BlockGeometry`), so svec(A)·svec(B) = <A, B>.  Intended problem
sizes are tiny by SDP standards (blocks up to ~16, a few thousand
constraints), which is why everything is dense per block.
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
MAX_ITERATIONS = 80            # the slowest closing N=4 point takes 53
STEP_FRACTION = 0.98          # fraction of the distance to the boundary
MIN_REGULARIZATION = 1e-12
MAX_REGULARIZATION = 1e-6
DIVERGENCE_BOUND = 1e12       # |objective| beyond which we declare infeasibility


class SdpStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"
    INFEASIBLE = "infeasible"


@dataclass
class SdpSolution:
    """The returned iterate: (count, n, n) stacks of the X and S blocks, and the real y."""

    status: SdpStatus
    x_blocks: np.ndarray
    y: np.ndarray
    s_blocks: np.ndarray
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
        return float(np.vdot(self.x_blocks, self.s_blocks).real)


class _BlockGeometry:
    """Real coordinates of an n x n Hermitian block, and the Schur kernel.

    ``svec(A)`` lists the n^2 coefficients Re Tr(F_alpha A) of A in the
    trace-orthonormal basis

        diag(a)    a = 0..n-1       F = e_a e_a'
        re(a, b)   a < b (lex)      F = (e_a e_b' + e_b e_a')/sqrt(2)
        im(a, b)   a < b (lex)      F = i (e_a e_b' - e_b e_a')/sqrt(2)

    that is diag(A), then sqrt(2) Re A[a, b], then sqrt(2) Im A[a, b], so
    svec(A)·svec(B) = Re Tr(AB) and F_alpha is coordinate alpha.  ``svec`` and
    ``smat`` act on the last two axes (last axis) of a stack, each as one
    gather from the float view of the complex entries and one multiply.

    The Schur kernel is taken over the unnormalised basis F^_alpha =
    F_alpha / delta[alpha] (E_aa, E_ab + E_ba, i (E_ba - E_ab)), which needs
    no scale pass over its n^4 entries; :attr:`delta` is the diagonal of D.
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
        # D of the Schur kernel's basis: F_alpha = delta[alpha] F^_alpha
        self.delta = np.repeat([1.0, 1 / math.sqrt(2.0), -1 / math.sqrt(2.0)],
                               [n, npairs, npairs])

    def svec(self, m: np.ndarray) -> np.ndarray:
        """The coordinates of a Hermitian matrix (or stack) along a new last axis."""
        # the float view needs a contiguous last axis, which a stack copied
        # from a broadcast (the axis of stride 0 innermost) does not have
        m = np.ascontiguousarray(m, dtype=complex)
        flat = m.reshape(m.shape[:-2] + (self.L,))
        return np.take(flat.view(np.float64), self._svec_src, axis=-1) * self.scale

    def smat(self, v: np.ndarray) -> np.ndarray:
        """The Hermitian matrices sum_alpha v_alpha F_alpha of coordinates along the last axis."""
        flat = np.take(v, self._smat_src, axis=-1) * self._smat_weight
        return flat.view(complex).reshape(v.shape[:-1] + (self.n, self.n))

    @cached_property
    def _half_rows(self) -> np.ndarray:
        # the kernel's table in the basis F^ itself, built on the first call
        return self.kernel_table()

    def kernel_table(self, units: np.ndarray | None = None) -> np.ndarray:
        """Positions in G of the half rows of W that :meth:`schur_kernel` gathers.

        Rows E_aa, E_ab (a < b) of W by columns E_cc, E_ce, E_ec (c < e): an
        (n (n + 1)/2, n^2) table of intp, the index type ``np.take`` uses
        without a conversion.  ``units`` maps the flat index a n + b of
        every matrix unit E_ab to that of another unit, E_u -> E_units[u];
        the table then gathers the rows and columns of the images of these
        units, and the kernel folds them into the kernel over the image of
        the basis F^.  A map that commutes with E_ab -> E_ba (a partial
        transpose does) keeps the half-row fold exact.
        """
        n = self.n
        a, b = np.triu_indices(n, 1)
        diag = np.arange(n) * (n + 1)
        rows = np.concatenate([diag, a * n + b])
        cols = np.concatenate([diag, a * n + b, b * n + a])
        if units is not None:
            rows, cols = units[rows], units[cols]
        (ra, rb), (cc, ce) = np.divmod(rows, n), np.divmod(cols, n)
        return ((ra[:, None] * n + ce[None, :]) * n + rb[:, None]) * n + cc[None, :]

    def kernel_work(self, groups: int) -> tuple:
        """Scratch for :meth:`schur_kernel` calls of up to ``groups`` groups.

        The product G, (groups, 2, n^2, n^2) for its real and imaginary
        parts, and the half rows gathered from it, (2, groups, (n^2 + n)/2,
        n^2): about three times the kernel of as many groups, 1.6 MB per
        group at n = 16.
        """
        return (np.empty((groups, 2, self.L, self.L)),
                np.empty((2, groups, (self.L + self.n) // 2, self.L)))

    def schur_kernel(self, s: np.ndarray, x: np.ndarray, tables=None,
                     out: np.ndarray | None = None, work: tuple | None = None) -> np.ndarray:
        """H^[p, alpha, beta] = sum_r Re Tr(F^_alpha s[p, r] F^_beta x[p, r]).

        The kernel is taken over the unnormalised basis F^ = {E_aa, E_ab +
        E_ba, i (E_ba - E_ab)} (a < b), F_alpha = delta[alpha] F^_alpha, so it
        is D^-1 H D^-1 for the kernel H over the svec basis F and D =
        diag(:attr:`delta`) = diag(1, 1/sqrt(2), -1/sqrt(2)).  A caller
        applies D to its coefficient vectors or constraint columns instead
        of scaling the n^4 kernel.

        ``s`` and ``x`` are (P, r, n, n) stacks of Hermitian matrices; the r
        blocks of each group are summed.  With V(s, x)[(a, b), (c, e)] =
        Tr(E_ab s E_ce x) = s[b, c] x[e, a], 2H^ is the basis image of
        W = V(s, x) + V(x, s), as H^(s, x) = H^(x, s) = H^(s, x)^T.  One product
        of inner dimension 2r, [vec x^T, vec s^T] times [vec s, vec x], gives
        G with W[(a, b), (c, e)] = G[a, e, b, c], formed as its real and
        imaginary parts by one real product of inner dimension 4r.  As
        W[(b, a), (e, c)] = conj W[(a, b), (c, e)], only the rows (a, a) and
        (a, b), a < b, are
        gathered and folded into the basis columns (W_cc, W_ce + W_ec,
        i (W_ec - W_ce)) by sums and differences of column blocks: the real
        parts give the E_aa and E_ab + E_ba rows of 2H^ (the n diagonal rows
        are halved), the imaginary parts the i (E_ba - E_ab) rows.

        ``tables`` holds one :meth:`kernel_table` per group, ``None`` for the
        basis F^ itself; group p is then folded over the image of F^ under
        its table's unit map.  ``out``, when given, is the (P, n^2, n^2)
        array the kernel is written into (a view will do); otherwise a new
        one is returned.  ``work``, when given, is a :meth:`kernel_work`
        pair for at least P groups, into which G and its half rows are
        written; otherwise the call allocates its own.  A caller that assembles every iteration passes the same
        ``out`` and ``work`` each time, so no call touches fresh memory.
        """
        p, r, n, L = s.shape[0], s.shape[1], self.n, self.L
        rows = (L + n) // 2
        left = np.concatenate([x, s], axis=1).transpose(0, 1, 3, 2).reshape(p, 2 * r, L)
        right = np.concatenate([s, x], axis=1).reshape(p, 2 * r, L)
        # Re G and Im G as two real products of inner dimension 4r, so that
        # the gathered real and imaginary parts, and every pass of the fold,
        # are contiguous: Re G = [Re l; Im l]^T [Re r; -Im r] and Im G =
        # [Re l; Im l]^T [Im r; Re r] for G = l^T r
        lr = np.concatenate([left.real, left.imag], axis=1)
        rr = np.empty((p, 2, 4 * r, L))
        rr[:, 0, :2 * r], rr[:, 0, 2 * r:] = right.real, -right.imag
        rr[:, 1, :2 * r], rr[:, 1, 2 * r:] = right.imag, right.real
        product, halves = self.kernel_work(p) if work is None else work
        product = np.matmul(lr.transpose(0, 2, 1)[:, None], rr, out=product[:p])
        wr, wi = halves[:, :p]
        for g, wr_p, wi_p, table in zip(product.reshape(p, 2, L * L), wr, wi,
                                        (None,) * p if tables is None else tables):
            table = self._half_rows if table is None else table
            # mode "raise" would gather into a buffer and copy it into out
            np.take(g[0], table, out=wr_p, mode="clip")
            np.take(g[1], table, out=wi_p, mode="clip")
        h = np.empty((p, L, L)) if out is None else out
        top, bottom = h[:, :rows], h[:, rows:]
        np.copyto(top[..., :n], wr[..., :n])
        np.add(wr[..., n:rows], wr[..., rows:], out=top[..., n:rows])
        np.subtract(wi[..., n:rows], wi[..., rows:], out=top[..., rows:])
        np.copyto(bottom[..., :n], wi[:, n:, :n])
        np.add(wi[:, n:, n:rows], wi[:, n:, rows:], out=bottom[..., n:rows])
        np.subtract(wr[:, n:, rows:], wr[:, n:, n:rows], out=bottom[..., rows:])
        top[:, :n] *= 0.5
        return h


@lru_cache(maxsize=None)
def _geometry(n: int) -> _BlockGeometry:
    return _BlockGeometry(n)


class SdpProblem:
    """Block SDP data: dimensions, objective blocks, constraints, right-hand side.

    Every cone block has the same dimension: ``block_dims`` repeats it once
    per block, and unequal sizes raise ``ValueError`` in both constructors.
    ``c_blocks`` is the (count, n, n) stack of objective blocks.
    ``constraints`` in the public constructor is a list of ``(blocks, b_i)``
    where ``blocks`` maps block index -> dense Hermitian array, real or
    complex (a dict, or a list with ``None`` for untouched blocks).
    Internally every constraint is one sparse column over the stacked svec
    coordinates of the blocks: ``a_csc`` holds the columns and ``a_t`` its
    CSR transpose, built once because the solver applies A^T several times
    per iteration.  Both constructors and :meth:`with_rhs` raise
    ``ValueError`` for a block index outside ``block_dims``, a right-hand
    side without one entry per constraint or one with a non-finite entry.

    ``schur_factory`` builds the :class:`SchurSystem` of each solve from the
    problem; it defaults to :class:`DenseSchur` and is shared by
    :meth:`with_rhs` copies.
    """

    def __init__(self, block_dims, objective_blocks, constraints):
        self._init_blocks(block_dims)
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
                v = self._geom.svec(blk)
                nz = np.nonzero(v)[0]
                if len(nz):
                    seen_any = True
                    rows.append(nz + k * self._geom.L)
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
        self._init_data(np.array(c_blocks), a_csc, np.array(b))

    @classmethod
    def from_svec_columns(cls, block_dims, objective_blocks, a_csc, b) -> "SdpProblem":
        """Construct directly from a constraint matrix over the stacked svec coordinates."""
        self = cls.__new__(cls)
        self._init_blocks(block_dims)
        if a_csc.shape[0] != self.svec_length:
            raise ValueError(f"constraint matrix has {a_csc.shape[0]} rows, "
                             f"expected {self.svec_length}")
        expected = (len(self.block_dims),) + (self.block_dims[0],) * 2
        try:
            c_blocks = np.array(objective_blocks, dtype=complex)
        except ValueError:   # blocks of several shapes
            c_blocks = None
        if c_blocks is None or c_blocks.shape != expected:
            shape = "several shapes" if c_blocks is None else f"shape {c_blocks.shape}"
            raise ValueError(f"objective has {shape}, expected {expected}")
        self._init_data(c_blocks, a_csc.tocsc(), b)
        return self

    def _init_blocks(self, block_dims):
        """The block dimension and the svec layout it implies (both constructors)."""
        self.block_dims = tuple(int(d) for d in block_dims)
        if len(set(self.block_dims)) != 1:
            raise ValueError("every block must have the same dimension, got block_dims "
                             f"{self.block_dims}")
        if self.block_dims[0] < 1:
            raise ValueError(f"block dimensions must be positive, got {self.block_dims}")
        self._geom = _geometry(self.block_dims[0])
        self.svec_length = len(self.block_dims) * self._geom.L

    def _init_data(self, c_blocks, a_csc, b):
        """Objective, constraint columns and right-hand side (both constructors)."""
        self.c_blocks = c_blocks
        self.a_csc = a_csc
        self.a_t = a_csc.T
        self.b = _checked_rhs(b, a_csc.shape[1])
        self._prep_holder = {"prep": None}
        self.schur_factory = DenseSchur

    def _check_block(self, blk, k, what):
        if not 0 <= k < len(self.block_dims):
            raise ValueError(f"{what}: block index {k} out of range for "
                             f"{len(self.block_dims)} blocks")
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
        clone = SdpProblem.__new__(SdpProblem)
        clone.__dict__.update(self.__dict__)
        clone.b = _checked_rhs(b, self.num_constraints)
        return clone

    # -- solver-side helpers ------------------------------------------------

    def block_slices(self):
        size = self._geom.L
        return [slice(k * size, (k + 1) * size) for k in range(len(self.block_dims))]

    def prep(self):
        """Per-block constraint data for the :class:`DenseSchur` assembly (cached, shared).

        For every block: the active constraint columns and the sparse slice of
        the constraint matrix that sandwiches the block's Schur kernel, its
        rows scaled by D (``_BlockGeometry.delta``), so that the sandwich of
        the kernel H^ = D^-1 H D^-1 is that of H.
        """
        if self._prep_holder["prep"] is None:
            a_csr = self.a_csc.tocsr()
            scale = sp.diags(self._geom.delta)
            prep = []
            for sl in self.block_slices():
                phi_rows = scale @ a_csr[sl]  # csr: indices are the constraint (column) ids
                act = np.unique(phi_rows.indices) if phi_rows.nnz else None
                if act is None or not len(act):
                    prep.append(None)
                    continue
                phi_act = phi_rows[:, act].tocsc()
                prep.append({
                    "act": act,
                    "phi_act": phi_act,
                    "phi_act_t": sp.csr_matrix(phi_act.T),
                })
            self._prep_holder["prep"] = prep
        return self._prep_holder["prep"]


def _checked_rhs(b, m: int) -> np.ndarray:
    """b as a float vector; ``ValueError`` unless it has m entries, all finite."""
    b = np.asarray(b, dtype=float)
    if b.shape != (m,):
        raise ValueError(f"rhs has shape {b.shape}, expected {(m,)}, one entry per constraint")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs has non-finite entries")
    return b


class SchurSystem(Protocol):
    """The Schur complement (normal-equation) system of one solve.

    ``M_ij = <A_i, (S^-1 A_j X + X A_j S^-1)/2>`` summed over the cone blocks,
    for the current iterate.  A problem supplies the implementation through
    :attr:`SdpProblem.schur_factory`, so it can exploit its own sparsity.
    """

    def assemble(self, sinv: np.ndarray, x: np.ndarray) -> None:
        """Form M from the (count, n, n) stacks of S^-1 and X, in problem block order."""

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
    The columns carry D (see :meth:`SdpProblem.prep`), so the unscaled kernel
    H^ gives M itself.
    """

    def __init__(self, problem: SdpProblem):
        self._prep = problem.prep()
        self._geom = problem._geom
        m = problem.num_constraints
        self.matrix = np.zeros((m, m))
        self._factor = None

    def assemble(self, sinv, x):
        mmat = self.matrix
        mmat.fill(0.0)
        for info, sinv_k, x_k in zip(self._prep, sinv, x):
            if info is None:
                continue
            h = self._geom.schur_kernel(sinv_k[None, None], x_k[None, None])[0]
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


def _congruence(linv: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """L^-1 delta L^-H for each block, whose eigenvalues are those of the pencil (delta, X)."""
    return np.matmul(np.matmul(linv, delta), _adjoint(linv))


def _smallest_eigenvalues(parts: list) -> np.ndarray:
    """The smallest eigenvalue of each (count, n, n) stack in ``parts``, from one eigvalsh.

    The stacks share n.  Their Hermitian parts are written into one joint
    stack, and ``eigvalsh`` treats each matrix of it alone, so every minimum
    is bit for bit that of a separate call per stack.
    """
    sizes = [len(part) for part in parts]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    joint = np.empty((ends[-1],) + parts[0].shape[1:], dtype=complex)
    for part, start, stop in zip(parts, starts, ends):
        np.add(part, _adjoint(part), out=joint[start:stop])
    joint /= 2
    return np.minimum.reduceat(np.linalg.eigvalsh(joint)[:, 0], starts)


def _boundary_step(lam_min: float) -> float:
    """Largest alpha keeping X + alpha*delta PSD, from the smallest eigenvalue of L^-1 delta L^-H.

    That is -1/lam_min, or inf when lam_min is not below -1e-14.
    """
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
          stop: Callable[[np.ndarray, np.ndarray, np.ndarray], bool] | None = None,
          start: tuple | None = None,
          repair: Callable[[np.ndarray], np.ndarray] | None = None) -> SdpSolution:
    """Run the predictor-corrector interior-point iteration on ``problem``.

    Returns an :class:`SdpSolution` whose status is ``OPTIMAL`` once the
    relative gap and both scaled residual norms are below :data:`GAP_TOL` and
    :data:`FEAS_TOL`; weak duality then brackets the true optimum between the
    reported dual and primal objectives.  Its X and S are (count, n, n)
    stacks, block k at index k.

    ``stop(x, y, s)``, when given, is called twice per iteration,
    alternating: on the iterate (the start point first) before the solver's
    own tests, and on the full Newton point (X + dX, y + dy, S + dS), which
    meets both equality constraints up to rounding but may lie outside the
    cone, before the step length is cut.  ``x`` and ``s`` are (count, n, n)
    stacks.  When it returns True the solve ends with status ``OPTIMAL`` and
    a message naming ``stop``.  At an iterate k the solution is that iterate,
    with ``iterations`` k.  At the Newton point of iteration k it is iterate
    k, the last interior point, with ``iterations`` k + 1 and the Newton point
    named in the message: ``iterations`` counts the Schur systems factored.
    What ``stop`` raises propagates.  The stacks it receives are the solver's
    own arrays or fresh sums, to be read and not modified.

    ``start = (x, y, s)``, when given, is the first iterate in place of the
    cold start: X and S as a (count, n, n) stack or a sequence of n x n
    blocks, in problem block order, and a real y of one entry per
    constraint.  It need not be feasible.  A wrong count or shape, a
    non-finite entry, a block that is not Hermitian within
    ``HERMITICITY_TOL`` or an X or S block that is not positive definite (its
    Cholesky factorization fails) raises ``ValueError`` naming the block.  The
    Hermitian parts of the blocks are used, and their Cholesky factors serve
    the first iteration.  Without a start the iteration is the same, bit for
    bit.

    ``repair(x)``, when given, is called on the accepted X (a stack to be
    read, not modified) of every iteration whose relative gap is below 1e-3,
    the iterations that refine, and returns the exactly Hermitian positive
    definite stack that replaces it.  What it raises propagates.  After
    :data:`MAX_ITERATIONS` iterations the last iterate is returned.

    The iteration runs on one BLAS thread (see the module docstring); the
    thread counts after the call equal those before it, also when ``stop``
    raises.
    """
    with _ONE_BLAS_THREAD:
        return _solve(problem, stop, start, repair)


def _checked_start(problem: SdpProblem, start) -> tuple:
    """(X, y, S, X factors, S factors) of a caller's start point, X and S as stacks.

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
    count, d = len(problem.block_dims), problem._geom.n
    out = []
    for name, blocks in (("X", x_blocks), ("S", s_blocks)):
        if len(blocks) != count:
            raise ValueError(f"start: {len(blocks)} {name} blocks, expected {count}")
        for k, blk in enumerate(blocks):
            if np.shape(blk) != (d, d):
                raise ValueError(f"start {name}: block {k} has shape {np.shape(blk)}, "
                                 f"expected {(d, d)}")
        stack = np.ascontiguousarray(blocks, dtype=complex)
        # one batched check; only a failure is traced to its block
        if np.isfinite(stack).all() and np.max(np.abs(stack - _adjoint(stack))) <= HERMITICITY_TOL:
            herm = _herm_stack(stack)
            try:
                out += [herm, np.linalg.cholesky(herm)]
                continue
            except np.linalg.LinAlgError:
                pass
        for k, blk in enumerate(stack):
            if not np.isfinite(blk).all():
                raise ValueError(f"start {name}: block {k} is not finite")
            try:
                np.linalg.cholesky(problem._check_block(blk, k, f"start {name}"))
            except np.linalg.LinAlgError:
                raise ValueError(f"start {name}: block {k} is not positive definite "
                                 "(its Cholesky factorization failed)") from None
    x, x_chol, s, s_chol = out
    return x, y, s, x_chol, s_chol


def _solve(problem: SdpProblem, stop, start, repair) -> SdpSolution:
    a, a_t = problem.a_csc, problem.a_t
    b = problem.b
    m = problem.num_constraints
    geom = problem._geom
    count, d = len(problem.block_dims), geom.n
    n_tot = count * d
    c = problem.c_blocks
    c_svec = geom.svec(c).ravel()
    b_norm = float(np.linalg.norm(b))
    c_norm = float(np.linalg.norm(c_svec))

    x_chol = s_chol = None  # Cholesky factors of the iterate, when already known
    if start is not None:
        x, y, s, x_chol, s_chol = _checked_start(problem, start)
    else:
        # scale-aware cold start: X = S = tau*I, y = 0
        col_norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=0)).ravel())
        tau = 1.0 + float(np.max(np.abs(b))) + float(np.max(col_norms))
        identity = np.broadcast_to(np.eye(d, dtype=complex), (count, d, d))
        x, s = tau * identity, tau * identity
        y = np.zeros(m)

    def svec(stack: np.ndarray) -> np.ndarray:
        return geom.svec(stack).ravel()

    def op_a(stack: np.ndarray) -> np.ndarray:
        return a_t @ svec(stack)

    def op_at(vec_y: np.ndarray) -> np.ndarray:
        return geom.smat((a @ vec_y).reshape(count, geom.L))

    def measure(x, y, s) -> tuple:
        """(pobj, dobj, relgap, scaled norms of both residuals, b - A(X), C - S - A^T y)."""
        svec_x = svec(x)
        pobj, dobj = float(c_svec @ svec_x), float(b @ y)
        rp = b - a_t @ svec_x
        rd = c - s - op_at(y)
        return (pobj, dobj, abs(pobj - dobj) / (1 + abs(pobj)),
                float(np.linalg.norm(rp)) / (1 + b_norm),
                float(np.linalg.norm(svec(rd))) / (1 + c_norm), rp, rd)

    def inverse_factors(stack: np.ndarray, chol: np.ndarray | None, what: str) -> tuple:
        """The Cholesky factors L (factored here unless given) and L^-1."""
        try:
            if chol is None:
                chol = np.linalg.cholesky(stack)
            return chol, _inverse_factor(chol)
        except np.linalg.LinAlgError as exc:
            raise _Failure(SdpStatus.NUMERICAL_FAILURE,
                           f"{what} left the cone interior: {exc}") from None

    def safe_step(stack: np.ndarray, delta: np.ndarray, alpha: float) -> tuple:
        """(alpha, stack + alpha*delta, its Cholesky factors) for the first PD trial.

        The max-step estimate can overshoot once blocks are nearly singular,
        so alpha halves until the trial factors; (0, stack, None) if none of
        30 trials does.  The trial is exactly Hermitian (both terms are), and
        its factors are the next iteration's.
        """
        for _ in range(30):
            trial = stack + alpha * delta
            try:
                return alpha, trial, np.linalg.cholesky(trial)
            except np.linalg.LinAlgError:
                alpha *= 0.5
        return 0.0, stack, None

    schur = problem.schur_factory(problem)

    def factor_schur():
        # regularization is relative to the diagonal scale: near convergence the
        # Schur entries grow like 1/mu and an absolute shift would vanish in
        # the rounding noise of the factorization
        scale = max(1.0, schur.max_diagonal())
        rung, reg = 0, MIN_REGULARIZATION
        while reg <= MAX_REGULARIZATION:
            try:
                schur.factor(reg * scale)
                return
            except np.linalg.LinAlgError:
                # rung k from MIN_REGULARIZATION itself: repeated products by 10
                # would fall short of the decades
                rung += 1
                reg = MIN_REGULARIZATION * 10.0 ** rung
        raise _Failure(SdpStatus.NUMERICAL_FAILURE,
                       "Schur complement not positive definite up to regularization "
                       f"{MAX_REGULARIZATION:.0e} (linearly dependent constraints?)")

    stop_name = getattr(stop, "__qualname__", type(stop).__qualname__)
    status = SdpStatus.MAX_ITERATIONS
    message = ""
    iterations = 0

    try:
        for iterations in range(MAX_ITERATIONS + 1):
            pobj, dobj, relgap, rp_norm, rd_norm, rp_vec, rd = measure(x, y, s)

            if stop is not None and stop(x, y, s):
                status = SdpStatus.OPTIMAL
                message = (f"stopped by the caller's stop ({stop_name}) after {iterations} "
                           "iterations")
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
                message = f"no convergence within {MAX_ITERATIONS} iterations"
                break

            mu = float(svec(x) @ svec(s)) / n_tot
            s_chol, s_linv = inverse_factors(s, s_chol, "dual iterate")
            _, x_linv = inverse_factors(x, x_chol, "primal iterate")
            sinv = _inverse_from_factor(s_linv)

            schur.assemble(sinv, x)
            factor_schur()
            refine = relgap < 1e-3

            def kkt_solve(rhs):
                dy = schur.solve(rhs)
                if refine:
                    dy += schur.solve(rhs - schur.matvec(dy))
                return dy

            a_sinv = op_a(sinv)
            a_g = op_a(_herm_stack(sinv @ rd @ x))

            def direction(sig_mu, corr):
                """HKM direction; in the end game its solves are refined and A(dX) = rp restored."""
                rhs = b - sig_mu * a_sinv + a_g
                if corr is not None:
                    rhs = rhs + op_a(corr)
                dy = kkt_solve(rhs)
                ds = rd - op_at(dy)
                dx = _herm_stack(sig_mu * sinv - x - sinv @ ds @ x)
                if corr is not None:
                    dx = dx - corr
                if refine:
                    # the normal-equation reconstruction of dX loses primal
                    # feasibility at high condition numbers; re-solve for the
                    # violation and correct the whole direction
                    dy2 = kkt_solve(rp_vec - op_a(dx))
                    aty2 = op_at(dy2)
                    dy = dy + dy2
                    ds = ds - aty2
                    dx = dx + _herm_stack(sinv @ aty2 @ x)
                return dy, ds, dx

            # predictor (affine scaling, sigma = 0)
            dy_aff, ds_aff, dx_aff = direction(0.0, None)
            # its two step lengths and the centrality floor, from one eigvalsh
            lam_p, lam_d, lam_floor = _smallest_eigenvalues([
                _congruence(x_linv, dx_aff), _congruence(s_linv, ds_aff),
                np.matmul(np.matmul(_adjoint(s_chol), x), s_chol)]).tolist()
            ap_aff = min(1.0, _boundary_step(lam_p))
            ad_aff = min(1.0, _boundary_step(lam_d))
            mu_aff = float(np.vdot(x + ap_aff * dx_aff, s + ad_aff * ds_aff).real) / n_tot
            sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

            # centrality guard: when the smallest complementarity pairs (the
            # eigenvalues of L_S^H X L_S) fall far below mu the plain Mehrotra
            # step stalls, so re-center first
            centrality = lam_floor / mu
            if centrality < 1e-4:
                sigma = 1.0
            elif centrality < 1e-2:
                sigma = max(sigma, 0.5)

            # corrector with Mehrotra second-order term
            corr = _herm_stack(sinv @ ds_aff @ dx_aff)
            dy, ds, dx = direction(sigma * mu, corr)

            # the full Newton point meets A(X) = b and C - A^T y = S to rounding
            # but may lie outside the cone; when the caller's stop takes it,
            # this iterate (the last interior one) is returned
            if stop is not None and stop(x + dx, y + dy, s + ds):
                status = SdpStatus.OPTIMAL
                message = (f"stopped by the caller's stop ({stop_name}) at the Newton point of "
                           f"iteration {iterations}; iterate {iterations} returned")
                iterations += 1  # count this iteration's Schur factorization too
                break

            lam_p, lam_d = _smallest_eigenvalues([_congruence(x_linv, dx),
                                                  _congruence(s_linv, ds)]).tolist()
            alpha_p = min(1.0, STEP_FRACTION * _boundary_step(lam_p))
            alpha_d = min(1.0, STEP_FRACTION * _boundary_step(lam_d))
            alpha_p, x, x_chol = safe_step(x, dx, alpha_p)
            alpha_d, s, s_chol = safe_step(s, ds, alpha_d)
            if alpha_p <= 0 or alpha_d <= 0:
                raise _Failure(SdpStatus.NUMERICAL_FAILURE,
                               "no positive step keeps the iterate inside the cone")
            if refine and repair is not None:
                # the accepted X's factor no longer describes the repaired X
                x, x_chol = repair(x), None
            y = y + alpha_d * dy
            if not (np.isfinite(y).all() and np.isfinite(x).all() and np.isfinite(s).all()):
                raise _Failure(SdpStatus.NUMERICAL_FAILURE, "non-finite iterate")
    except _Failure as failure:
        status = failure.status
        message = failure.message

    pobj, dobj, relgap, rp_norm, rd_norm, _, _ = measure(x, y, s)
    return SdpSolution(
        status=status,
        x_blocks=x,
        y=y,
        s_blocks=s,
        primal_objective=pobj,
        dual_objective=dobj,
        gap=pobj - dobj,
        relative_gap=relgap,
        primal_residual=rp_norm,
        dual_residual=rd_norm,
        iterations=iterations,
        message=message,
    )
