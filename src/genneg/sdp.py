"""Primal-dual interior-point solver for small dense semidefinite programs.

Solves the standard equality form over a product of real symmetric blocks

    minimize    <C, X>
    subject to  <A_i, X> = b_i   (i = 1..m),    X >= 0 (PSD, blockwise)

together with its dual  max b'y  s.t.  C - sum_i y_i A_i = S >= 0.

Algorithm: infeasible-start path following with the HKM symmetrized search
direction and a Mehrotra predictor-corrector step.  Each iteration assembles
and factors the (symmetric positive definite) Schur complement

    M_ij = Tr(A_i S^{-1} A_j X)

behind the small :class:`SchurSystem` interface (assemble, factor with a
diagonal shift, solve, matvec).  A problem supplies its implementation through
``SdpProblem.schur_factory``; the default :class:`DenseSchur` forms the whole
m x m matrix and factors it by dense Cholesky, while structured programs (the
PPT-mixture program in ``gmn``) keep M in a sparser block form.  The solver
owns the regularization ladder: the shift is reg times max(1, the largest
diagonal entry of M), with reg escalating by factors of ten from ``min_regularization``
to ``max_regularization``.  Each solve gets one step of iterative refinement
against the unshifted M, and a pure centering step is taken whenever the
smallest complementarity pairs drift far below their mean (which is what
stalls plain Mehrotra steps on degenerate optima).  Step lengths are 0.98 of
the distance to the cone boundary, capped at 1.

Each iteration factors S = L_S L_S^T and X = L_X L_X^T once and inverts each
factor once.  The inverse factors serve both S^-1 = L_S^-T L_S^-1 and the four
step lengths, which come from the eigenvalues of L^-1 D L^-T for a direction
D: a symmetric eigenproblem formed with matrix products, no further solves.

Problems without a strictly complementary optimum hit an accuracy floor in
double precision somewhere around 1e-7; the solver detects the stall and
returns its best iterate with an explanatory message instead of burning the
iteration budget.

Matrices are stored blockwise and batched by block dimension; constraints
are sparse columns in the scaled svec basis (off-diagonal entries carry a
factor sqrt(2), so svec(A)·svec(B) = <A, B>).  Intended problem sizes are
tiny by SDP standards (blocks up to ~64, a few thousand constraints), which
is why everything is dense per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Protocol

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack

from ._kernels import skron_into

SYMMETRY_TOL = 1e-12


class SdpStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"
    INFEASIBLE = "infeasible"


@dataclass
class SdpOptions:
    gap_tol: float = 1e-8            # relative duality gap
    feas_tol: float = 1e-8           # scaled primal/dual residual norms
    max_iterations: int = 200
    step_fraction: float = 0.98      # fraction of the distance to the boundary
    min_regularization: float = 1e-12
    max_regularization: float = 1e-6
    divergence_bound: float = 1e12   # |objective| beyond which we declare infeasibility
    stall_iterations: int = 12       # stop when this many iterations fail to halve the error
    stall_accuracy: float = 1e-6     # error level where a short plateau already stops
    trace_path: str | None = None    # per-iteration CSV dump when set


@dataclass
class SdpSolution:
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
    # (primal, dual, relgap, rp, rd) per iterate, first entry is the start point
    history: list = field(default_factory=list, repr=False)

    @property
    def complementarity(self) -> float:
        return float(sum(np.vdot(x, s).real for x, s in zip(self.x_blocks, self.s_blocks)))


class _BlockGeometry:
    """svec indexing and gather tables for one block dimension."""

    def __init__(self, n: int):
        self.n = n
        iu, ju = np.triu_indices(n)
        self.iu, self.ju = iu, ju
        self.L = len(iu)
        self.scale = np.where(iu == ju, 1.0, math.sqrt(2.0))
        self.inv_scale = 1.0 / self.scale
        # gather tables for the numpy fallback of the symmetrized Kronecker product
        self.flat_ii = (iu[:, None] * n + iu[None, :]).astype(np.intp)
        self.flat_jj = (ju[:, None] * n + ju[None, :]).astype(np.intp)
        self.flat_ij = (iu[:, None] * n + ju[None, :]).astype(np.intp)
        c = np.where(iu == ju, 0.5, 1.0 / math.sqrt(2.0))
        self.cc = np.outer(c, c)

    def svec(self, m: np.ndarray) -> np.ndarray:
        return m[self.iu, self.ju] * self.scale

    def svec_stack(self, stack: np.ndarray) -> np.ndarray:
        return stack[:, self.iu, self.ju] * self.scale

    def smat(self, v: np.ndarray) -> np.ndarray:
        out = np.empty((self.n, self.n))
        vals = v * self.inv_scale
        out[self.iu, self.ju] = vals
        out[self.ju, self.iu] = vals
        return out

    def smat_stack(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty((rows.shape[0], self.n, self.n))
        vals = rows * self.inv_scale
        out[:, self.iu, self.ju] = vals
        out[:, self.ju, self.iu] = vals
        return out

    def skron(self, u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """K with svec(A)' K svec(B) = <A, (U B V + V B U)/2> for symmetric U, V."""
        if out is None:
            out = np.empty((self.L, self.L))
        if skron_into is not None:
            skron_into(np.ascontiguousarray(u), np.ascontiguousarray(v),
                       self.iu, self.ju, self.cc, out)
            return out
        uf, vf = np.ascontiguousarray(u).ravel(), np.ascontiguousarray(v).ravel()
        u_ij = uf[self.flat_ij]
        v_ij = vf[self.flat_ij]
        np.multiply(u_ij.T, v_ij, out=out)
        out += u_ij * v_ij.T
        out += uf[self.flat_jj] * vf[self.flat_ii]
        out += uf[self.flat_ii] * vf[self.flat_jj]
        out *= self.cc
        return out


@lru_cache(maxsize=None)
def _geometry(n: int) -> _BlockGeometry:
    return _BlockGeometry(n)


class SdpProblem:
    """Block SDP data: dimensions, objective blocks, constraints, right-hand side.

    ``constraints`` in the public constructor is a list of ``(blocks, b_i)``
    where ``blocks`` maps block index -> dense symmetric array (a dict, or a
    list with ``None`` for untouched blocks).  Internally every constraint is
    one sparse column in the stacked scaled-svec basis: ``a_csc`` holds the
    columns and ``a_t`` its CSR transpose, built once because the solver
    applies A^T several times per iteration.

    ``schur_factory`` builds the :class:`SchurSystem` of each solve from the
    problem; it defaults to :class:`DenseSchur` and is shared by
    :meth:`with_rhs` copies.
    """

    def __init__(self, block_dims, objective_blocks, constraints):
        self.block_dims = tuple(int(d) for d in block_dims)
        if any(d < 1 for d in self.block_dims):
            raise ValueError(f"block dimensions must be positive, got {self.block_dims}")
        self._geom = [_geometry(d) for d in self.block_dims]
        offsets = np.cumsum([0] + [g.L for g in self._geom])
        self._svec_offsets = offsets
        self.svec_length = int(offsets[-1])

        self.c_blocks = []
        for k, c in enumerate(objective_blocks):
            c = self._check_block(c, k, "objective")
            self.c_blocks.append(c)
        if len(self.c_blocks) != len(self.block_dims):
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
        self.b = np.array(b)
        self.a_csc = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.svec_length, len(b)))
        self.a_t = self.a_csc.T
        self._prep_holder = {"prep": None}
        self.schur_factory = DenseSchur

    @classmethod
    def from_svec_columns(cls, block_dims, objective_blocks, a_csc, b) -> "SdpProblem":
        """Construct directly from a stacked scaled-svec constraint matrix."""
        self = cls.__new__(cls)
        self.block_dims = tuple(int(d) for d in block_dims)
        self._geom = [_geometry(d) for d in self.block_dims]
        offsets = np.cumsum([0] + [g.L for g in self._geom])
        self._svec_offsets = offsets
        self.svec_length = int(offsets[-1])
        if a_csc.shape[0] != self.svec_length:
            raise ValueError(f"constraint matrix has {a_csc.shape[0]} rows, "
                             f"expected {self.svec_length}")
        self.c_blocks = [np.asarray(c, dtype=float) for c in objective_blocks]
        self.a_csc = a_csc.tocsc()
        self.a_t = self.a_csc.T
        self.b = np.asarray(b, dtype=float)
        self._prep_holder = {"prep": None}
        self.schur_factory = DenseSchur
        return self

    def _check_block(self, blk, k, what):
        blk = np.asarray(blk, dtype=float)
        d = self.block_dims[k]
        if blk.shape != (d, d):
            raise ValueError(f"{what}: block {k} has shape {blk.shape}, expected {(d, d)}")
        if np.max(np.abs(blk - blk.T)) > SYMMETRY_TOL:
            raise ValueError(f"{what}: block {k} is not symmetric within {SYMMETRY_TOL:.0e}")
        return (blk + blk.T) / 2

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

        For every block: the active constraint columns, their contiguous runs
        (so the scatter into the Schur matrix is slice arithmetic) and the
        sparse slice of the constraint matrix that sandwiches skron(S^-1, X).
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
                breaks = np.nonzero(np.diff(act) > 1)[0] + 1
                starts = np.concatenate([[0], breaks])
                stops = np.concatenate([breaks, [len(act)]])
                runs = [(int(act[s0]), int(act[s1 - 1]) + 1, int(s0), int(s1))
                        for s0, s1 in zip(starts, stops)]
                prep.append({
                    "geom": self._geom[k],
                    "act": act,
                    "runs": runs,
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

    Every block contributes the sandwich of skron(S^-1, X) with its active
    constraint columns, scattered into the rows and columns of those columns.
    """

    def __init__(self, problem: SdpProblem):
        self._prep = problem.prep()
        m = problem.num_constraints
        self.matrix = np.zeros((m, m))
        self._kron_bufs = {g.n: np.empty((g.L, g.L)) for g in problem._geom}
        self._factor = None

    def assemble(self, sinv_blocks, x_blocks):
        mmat = self.matrix
        mmat.fill(0.0)
        for info, sinv, x in zip(self._prep, sinv_blocks, x_blocks):
            if info is None:
                continue
            geom = info["geom"]
            k = geom.skron(sinv, x, out=self._kron_bufs[geom.n])
            contrib = (info["phi_act_t"] @ k) @ info["phi_act"]
            runs = info["runs"]
            if len(runs) <= 8:
                for a0, a1, c0, c1 in runs:
                    for b0, b1, d0, d1 in runs:
                        mmat[a0:a1, b0:b1] += contrib[c0:c1, d0:d1]
            else:
                act = info["act"]
                mmat[np.ix_(act, act)] += contrib
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
        self.position = {}
        for d, idxs, _ in self.groups:
            for row, idx in enumerate(idxs):
                self.position[int(idx)] = (d, row)

    def identity(self, factor: float) -> dict:
        return {d: factor * np.broadcast_to(np.eye(d), (len(idxs), d, d)).copy()
                for d, idxs, _ in self.groups}

    def block(self, stacks: dict, idx: int) -> np.ndarray:
        d, row = self.position[idx]
        return stacks[d][row]

    def to_blocks(self, stacks: dict) -> list:
        return [self.block(stacks, idx) for idx in range(len(self.block_dims))]

    def map(self, fn, *stack_dicts) -> dict:
        return {d: fn(*[sd[d] for sd in stack_dicts]) for d, _, _ in self.groups}

    def inner(self, a: dict, b: dict) -> float:
        return float(sum(np.vdot(a[d], b[d]).real for d, _, _ in self.groups))


def _herm_stack(stack: np.ndarray) -> np.ndarray:
    return (stack + stack.transpose(0, 2, 1)) / 2


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
        blk[...] = lapack_checked(lapack.dtrtri(low, lower=1), "dtrtri")
    return out


def _inverse_from_factor(linv: np.ndarray) -> np.ndarray:
    """X^-1 = L^-T L^-1 for each block, given the stacked L^-1 of X = L L^T."""
    return _herm_stack(np.matmul(linv.transpose(0, 2, 1), linv))


def _step_to_boundary(linv: np.ndarray, delta: np.ndarray) -> float:
    """Largest alpha keeping every X + alpha*delta PSD, given the stacked L^-1 of X.

    The eigenvalues of L^-1 delta L^-T are those of the pencil (delta, X); the
    step is -1/lambda_min, or inf when no eigenvalue is below -1e-14.
    """
    z = np.matmul(np.matmul(linv, delta), linv.transpose(0, 2, 1))
    lam_min = float(np.linalg.eigvalsh(_herm_stack(z)).min())
    if lam_min >= -1e-14:
        return math.inf
    return -1.0 / lam_min


class _Failure(Exception):
    def __init__(self, status: SdpStatus, message: str):
        self.status = status
        self.message = message


def solve(problem: SdpProblem, options: SdpOptions | None = None) -> SdpSolution:
    """Run the predictor-corrector interior-point iteration on ``problem``.

    Returns an :class:`SdpSolution` whose status is ``OPTIMAL`` once the
    relative gap and both scaled residual norms are below tolerance; weak
    duality then brackets the true optimum between the reported dual and
    primal objectives.
    """
    opts = options or SdpOptions()
    a, a_t = problem.a_csc, problem.a_t
    b = problem.b
    m = problem.num_constraints
    dims = problem.block_dims
    n_tot = sum(dims)
    slices = problem.block_slices()
    stacks = _Stacks(dims)
    c_stacks = {}
    for d, idxs, g in stacks.groups:
        c_stacks[d] = np.stack([problem.c_blocks[i] for i in idxs])
    c_svec = np.concatenate([problem._geom[k].svec(problem.c_blocks[k])
                             for k in range(len(dims))])
    b_norm = float(np.linalg.norm(b))
    c_norm = float(np.linalg.norm(c_svec))

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
            svec_buf[svec_pos[d]] = g.svec_stack(sd[d]).ravel()
        return svec_buf

    def op_a(sd: dict) -> np.ndarray:
        return a_t @ svec_all(sd)

    def op_at(vec_y: np.ndarray) -> dict:
        full = a @ vec_y
        return {d: g.smat_stack(full[svec_pos[d]].reshape(len(idxs), g.L))
                for d, idxs, g in stacks.groups}

    def inverse_factors(sd: dict, what: str) -> tuple:
        """The Cholesky factors L and their inverses L^-1, per group."""
        try:
            chol = stacks.map(np.linalg.cholesky, sd)
            return chol, stacks.map(_inverse_factor, chol)
        except np.linalg.LinAlgError as exc:
            raise _Failure(SdpStatus.NUMERICAL_FAILURE,
                           f"{what} left the cone interior: {exc}") from None

    def is_pd(sd: dict) -> bool:
        try:
            stacks.map(np.linalg.cholesky, sd)
            return True
        except np.linalg.LinAlgError:
            return False

    def safe_step(sd: dict, delta: dict, alpha: float, tries: int = 30) -> float:
        # the max-step estimate can overshoot once blocks are nearly singular
        for _ in range(tries):
            if is_pd(stacks.map(lambda blk, d: blk + alpha * d, sd, delta)):
                return alpha
            alpha *= 0.5
        return 0.0

    def max_step(linv: dict, delta: dict) -> float:
        return min(_step_to_boundary(linv[d], delta[d]) for d, _, _ in stacks.groups)

    schur = problem.schur_factory(problem)

    def factor_schur():
        # regularization is relative to the diagonal scale: near convergence the
        # Schur entries grow like 1/mu and an absolute shift would vanish in
        # the rounding noise of the factorization
        scale = max(1.0, schur.max_diagonal())
        reg = opts.min_regularization
        while reg <= opts.max_regularization * (1 + 1e-12):
            try:
                schur.factor(reg * scale)
                return
            except np.linalg.LinAlgError:
                reg *= 10
        raise _Failure(SdpStatus.NUMERICAL_FAILURE,
                       "Schur complement not positive definite up to regularization "
                       f"{opts.max_regularization:.0e} (linearly dependent constraints?)")

    history = []
    trace_rows = []
    status = SdpStatus.MAX_ITERATIONS
    message = ""
    iterations = 0
    sigma = 0.0
    alpha_p = alpha_d = 0.0
    best_merit = math.inf
    best_iterate = None
    best_trail = []  # best merit seen up to each iteration

    try:
        for iterations in range(opts.max_iterations + 1):
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
            history.append((pobj, dobj, relgap, rp_norm, rd_norm))
            if opts.trace_path is not None:
                trace_rows.append((iterations, pobj, dobj, relgap, rp_norm, rd_norm,
                                   sigma, alpha_p, alpha_d))

            merit = max(relgap, rp_norm, rd_norm)
            if merit < best_merit:
                best_merit = merit
                best_iterate = (stacks.map(np.copy, x_st), y.copy(),
                                stacks.map(np.copy, s_st))
            best_trail.append(best_merit)

            if relgap <= opts.gap_tol and rp_norm <= opts.feas_tol and rd_norm <= opts.feas_tol:
                status = SdpStatus.OPTIMAL
                break
            if dobj > opts.divergence_bound:
                raise _Failure(SdpStatus.INFEASIBLE,
                               "dual objective diverged: the primal problem is infeasible")
            if pobj < -opts.divergence_bound:
                raise _Failure(SdpStatus.INFEASIBLE,
                               "primal objective diverged: the dual problem is infeasible")
            if iterations == opts.max_iterations:
                break
            stalled_long = (opts.stall_iterations > 0 and iterations > opts.stall_iterations
                            and best_merit > 0.5 * best_trail[-1 - opts.stall_iterations])
            stalled_short = (best_merit <= opts.stall_accuracy and iterations > 4
                             and best_merit > 0.7 * best_trail[-5])
            if stalled_long or stalled_short:
                # degenerate optima (no strictly complementary solution) hit an
                # accuracy floor in double precision; stop at the best iterate
                x_st, y, s_st = best_iterate
                message = (f"progress stalled after {iterations} iterations at "
                           f"accuracy {best_merit:.2e}; best iterate returned")
                break

            mu = float(svec_x @ svec_s) / n_tot
            s_chol, s_linv = inverse_factors(s_st, "dual iterate")
            _, x_linv = inverse_factors(x_st, "primal iterate")
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
                w = np.matmul(np.matmul(s_chol[d].transpose(0, 2, 1), x_st[d]), s_chol[d])
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

            alpha_p = min(1.0, opts.step_fraction * max_step(x_linv, dx))
            alpha_d = min(1.0, opts.step_fraction * max_step(s_linv, ds))
            alpha_p = safe_step(x_st, dx, alpha_p)
            alpha_d = safe_step(s_st, ds, alpha_d)
            if alpha_p <= 0 or alpha_d <= 0:
                raise _Failure(SdpStatus.NUMERICAL_FAILURE,
                               "no positive step keeps the iterate inside the cone")
            x_st = stacks.map(lambda x, d: _herm_stack(x + alpha_p * d), x_st, dx)
            s_st = stacks.map(lambda s, d: _herm_stack(s + alpha_d * d), s_st, ds)
            y = y + alpha_d * dy
            if not (np.isfinite(y).all()
                    and all(np.isfinite(x_st[d]).all() for d, _, _ in stacks.groups)
                    and all(np.isfinite(s_st[d]).all() for d, _, _ in stacks.groups)):
                raise _Failure(SdpStatus.NUMERICAL_FAILURE, "non-finite iterate")
    except _Failure as failure:
        status = failure.status
        message = failure.message

    if status is SdpStatus.MAX_ITERATIONS and not message:
        message = f"no convergence within {opts.max_iterations} iterations"
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

    if opts.trace_path is not None:
        lines = ["iter,primal,dual,relgap,primal_residual,dual_residual,sigma,alpha_p,alpha_d"]
        lines += [",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)
                  for row in trace_rows]
        with open(opts.trace_path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

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
        history=history,
    )
