"""Genuine multiparticle negativity via the PPT-mixture semidefinite program.

The monotone E(ρ) is the absolute value of

    minimize Tr(W ρ)  over Hermitian W such that, for every bipartition M|M̄,
    W = P_M + Q_M^{T_M}  with  0 <= P_M <= 1  and  0 <= Q_M <= 1,

whenever that minimum is negative (otherwise E = 0 and the state is not
detected as genuinely multiparticle entangled — some entangled states are
PPT mixtures, so a zero never claims biseparability).  A negative optimum
makes W a decomposable entanglement witness for every bipartition, which is
the independently checkable certificate.

The program is handed to the real-symmetric solver in ``sdp`` through the
complex-to-real embedding: the witness-side variables (W and the Q_M) are the
solver's free dual vector y, expressed in an orthonormal Hermitian basis, and
each bipartition contributes four embedded cone blocks (P_M, 1-P_M, Q_M,
1-Q_M).  The right-hand side is built from complex-convention traces, so all
reported objective values are already in the complex convention.

The coefficients q_M of bipartition M reach only the four blocks of M, so the
solver's Schur matrix is block-arrowhead: the witness columns w border K
diagonal q-blocks that never couple to each other (K = 2^(N-1) - 1).  The
program supplies :class:`ArrowheadSchur` as its ``sdp.SchurSystem``.  It
assembles each block's contribution from the unembedded d x d complex
iterates (d = 2^N), eliminates the K q-blocks of size d^2, and factors only
the d^2 x d^2 Schur complement of the w-block.  The generic dense path would
instead form and factor a (K + 1) d^2 square matrix, 2048 x 2048 at N = 4.

Assembly is bound by memory traffic, not arithmetic: every block pair passes
through a few d^2 x d^2 complex intermediates.  It therefore runs in chunks
of bipartitions.  Each chunk forms its blocks' contributions and writes the
bipartition's Schur blocks while those are still in cache.  The chunk size
follows from the d^2 x d^2 complex working set of a pair and the byte budget
:data:`ASSEMBLY_CHUNK_BYTES`: all three bipartitions of N = 3 share one
chunk, and at N = 4 each bipartition is its own chunk.  The arithmetic, and
so every rounding, does not depend on the chunk size.

For two parties the monotone equals the partial-transpose negativity, which
:func:`bipartite_negativity` computes directly as the eigendecomposition
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from . import sdp
from .linalg import (check_density_matrix, eig_hermitian, partial_transpose,
                     unembed_hermitian)

DETECTION_FLOOR = 1e-7    # monotone values below this are clamped to exactly 0
QUBIT_BOUND = 0.5         # E <= 1/2 for any number of qubits

# Generic states yield programs without a strictly complementary optimum; no
# double-precision interior-point method reaches a joint 1e-8 accuracy there
# (cross-checked against an independent production solver).  A stalled solve
# is still accepted when gap and residuals are all below this level, which
# keeps the monotone accurate to well under 1e-6; the witness certificate is
# verified at its own tolerances regardless.
STALL_ACCEPT_ACCURACY = 2e-6

# Budget for the complex d^2 x d^2 intermediates of the block pairs that one
# chunk of the arrowhead assembly holds at once.  The chunk's other arrays
# take about as much again.  On a Xeon with 2 MB of L2 cache per core, N = 4
# chunks of one pair or one bipartition assembled equally fast, and a single
# chunk of all 14 pairs 1.5x slower.
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


# -- Hermitian basis bookkeeping ---------------------------------------------
#
# Basis order for a d-dimensional Hermitian space (d^2 elements):
#   diag(a)       a = 0..d-1          F = e_a e_a'
#   re(a, b)      a < b (lex)         F = (e_a e_b' + e_b e_a')/sqrt(2)
#   im(a, b)      a < b (lex)         F = i (e_a e_b' - e_b e_a')/sqrt(2)
# All F are trace-orthonormal. The partial transpose permutes this basis up
# to a sign, and the real embedding of every element occupies exactly two
# scaled-svec coordinates with values +-1.  Keeping the three kinds in
# contiguous runs lets the Schur assembly combine them with slices.

_DIAG, _RE, _IM = 0, 1, 2


def _triu_pos(i: int, j: int, n: int) -> int:
    return i * n - (i * (i - 1)) // 2 + (j - i)


@lru_cache(maxsize=None)
def _basis_enumeration(d: int):
    """Arrays (a, b, kind) for the d^2 basis elements, plus (a, b, kind)->index lookup."""
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    elements = ([(a, a, _DIAG) for a in range(d)] + [(a, b, _RE) for a, b in pairs]
                + [(a, b, _IM) for a, b in pairs])
    a_idx, b_idx, kind = (np.array(col) for col in zip(*elements))
    return a_idx, b_idx, kind, {e: i for i, e in enumerate(elements)}


def _embedding_coords(a: int, b: int, kind: int, d: int):
    """Scaled-svec coordinates (position, value) of the embedded basis element."""
    if kind == _DIAG:
        return ((_triu_pos(a, a, 2 * d), 1.0), (_triu_pos(d + a, d + a, 2 * d), 1.0))
    if kind == _RE:
        return ((_triu_pos(a, b, 2 * d), 1.0), (_triu_pos(d + a, d + b, 2 * d), 1.0))
    return ((_triu_pos(a, d + b, 2 * d), -1.0), (_triu_pos(b, d + a, 2 * d), 1.0))


def _transpose_action(a: int, b: int, kind: int, mask: int):
    """Index and sign of the basis element after partial transpose over ``mask``."""
    ta = (a & ~mask) | (b & mask)
    tb = (b & ~mask) | (a & mask)
    if kind == _DIAG:
        return ta, tb, kind, 1.0
    if ta < tb:
        return ta, tb, kind, 1.0
    return tb, ta, kind, (1.0 if kind == _RE else -1.0)


@dataclass(frozen=True)
class _ArrowheadLayout:
    """What the arrowhead Schur system needs to know about the program."""

    dim: int               # d = 2^N
    gather: np.ndarray     # (d^2, d^2): V[alpha, beta] = G[a_alpha, b_beta, b_alpha, a_beta]
    scale_re: np.ndarray   # (d^2, d^2): H = scale_re * Re(V) + scale_im * Im(V)
    scale_im: np.ndarray
    tau: np.ndarray        # (K, d^2): F_alpha^{T_M} = sigma[M, alpha] F_{tau[M, alpha]}
    sigma: np.ndarray      # (K, d^2)


class ArrowheadSchur:
    """Block-arrowhead :class:`sdp.SchurSystem` of the PPT-mixture program.

    The columns are the witness coefficients w, then the coefficients q_M of
    each bipartition M (n = d^2 each).  q_M reaches only the four cone blocks
    of M, so q_M and q_M' never couple and the Schur matrix is

        [ M_ww    M_wq_1  ...  M_wq_K ]
        [ M_q1w   M_q1q1  ...  0      ]
        [ ...             ...         ]
        [ M_qKw   0       ...  M_qKqK ]

    A block with unembedded iterates s = S^-1 and x contributes
    H[alpha, beta] = 2 Re Tr(F_alpha s F_beta x) = 2 Re (C^T G C) in the
    Hermitian basis C, with G[(a,b),(c,e)] = s[b,c] x[e,a].  The blocks P_M
    and 1-P_M (Q_M and 1-Q_M) carry the same columns up to sign, so their G
    are summed into H01_M (H23_M) before the basis change.  Then

        M_ww = sum_M H01_M,   M_wq_M = -H01_M[:, tau_M] sigma_M,
        M_qq_M = sigma_M H01_M[tau_M, tau_M] sigma_M + H23_M.

    :meth:`assemble` runs over chunks of c bipartitions.  A chunk forms the H
    of its 2c block pairs in one batch.  Then, bipartition by bipartition, it
    adds H01_M to M_ww and writes M_q_Mw and the symmetrized M_q_Mq_M while
    H01_M and H23_M are still in cache.  c = max(1, ASSEMBLY_CHUNK_BYTES //
    (2 * 16 n^2)), the bipartitions whose two pairs' complex n x n
    intermediates fit :data:`ASSEMBLY_CHUNK_BYTES`: all of N <= 3 share one
    chunk, and N = 4 takes one bipartition per chunk.  M_ww is summed in
    bipartition order whatever c is, so the result does not depend on c.

    Factoring eliminates the K q-blocks (n x n Cholesky each) and factors the
    n x n Schur complement of the w-block.
    """

    def __init__(self, layout: _ArrowheadLayout, problem: sdp.SdpProblem):
        self._layout = layout
        self.n = layout.dim ** 2
        self.nparts = layout.tau.shape[0]
        if problem.num_constraints != self.n * (1 + self.nparts):
            raise ValueError(f"program has {problem.num_constraints} constraints, "
                             f"layout expects {self.n * (1 + self.nparts)}")
        self.ww = self.qw = self.qq = None       # M_ww, M_{q_M w} and M_{q_M q_M}
        self._chunk = max(1, ASSEMBLY_CHUNK_BYTES // (2 * 16 * self.n ** 2))
        self._lq = self._wq = self._lw = None    # factors, set by factor()

    def assemble(self, sinv_blocks, x_blocks):
        lay, d, n, k = self._layout, self._layout.dim, self.n, self.nparts
        s = unembed_hermitian(np.stack(sinv_blocks)).reshape(2 * k, 2, n)
        xt = unembed_hermitian(np.stack(x_blocks)).transpose(0, 2, 1).reshape(2 * k, 2, n)
        ww = None
        self.qw = np.empty((k, n, n))
        self.qq = np.empty((k, n, n))
        for m0 in range(0, k, self._chunk):
            m = slice(m0, m0 + self._chunk)
            pairs = slice(2 * m0, 2 * m.stop)
            # G summed over the two blocks of each pair, in the order G[pair, a, e, b, c]
            g = np.matmul(xt[pairs].transpose(0, 2, 1), s[pairs]).reshape(-1, n * n)
            # V: G gathered into the basis order, then its rows and columns (a, b),
            # (b, a) turned into their sum and difference, which is C^T G C up to
            # the factors in scale_re/scale_im
            v = np.take(g, lay.gather, axis=1)
            self._fold(v[:, d:].transpose(1, 0, 2))
            self._fold(v[:, :, d:].transpose(2, 0, 1))
            h = v.real * lay.scale_re
            h += v.imag * lay.scale_im
            for h01, h23, tau, sigma, qw, qq in zip(h[0::2], h[1::2], lay.tau[m], lay.sigma[m],
                                                    self.qw[m], self.qq[m]):
                # summed in bipartition order from the first term on, as one
                # reduction over the whole stack would
                if ww is None:
                    ww = h01.copy()
                else:
                    ww += h01
                np.multiply(np.take(h01, tau, axis=0), -sigma[:, None], out=qw)
                qq_m = np.take(qw, tau, axis=1)
                qq_m *= -sigma
                qq_m += h23
                np.add(qq_m, qq_m.T, out=qq)
                qq /= 2
        self.ww = (ww + ww.T) / 2

    @staticmethod
    def _fold(v):
        """Entries (a, b), (b, a) of each pair become their sum and difference."""
        ab, ba = np.split(v, 2)
        np.subtract(ab, ba, out=ba)
        ab *= 2
        ab -= ba

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
        self._wq = np.stack([sdp.lapack_checked(lapack.dtrtrs(lq, qw, lower=1), "dtrtrs")
                             for lq, qw in zip(self._lq, self.qw)])
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
    block_dim = 2 * d
    block_dims = tuple([block_dim] * (4 * n_parts))
    a_idx, b_idx, kind, index = _basis_enumeration(d)
    svec_len_block = block_dim * (block_dim + 1) // 2

    c_blocks = []
    for _ in parts:
        c_blocks += [np.zeros((block_dim, block_dim)), np.eye(block_dim),
                     np.zeros((block_dim, block_dim)), np.eye(block_dim)]

    # constraint columns: y = (w coefficients, then q coefficients per bipartition)
    rows, cols, vals = [], [], []

    def add(col, block, coords, factor):
        for pos, val in coords:
            rows.append(block * svec_len_block + pos)
            cols.append(col)
            vals.append(factor * val)

    for alpha in range(n_basis):
        coords = _embedding_coords(int(a_idx[alpha]), int(b_idx[alpha]), int(kind[alpha]), d)
        for mi in range(n_parts):
            add(alpha, 4 * mi + 0, coords, -1.0)   # P_M block:   S = W - Q^{T_M}
            add(alpha, 4 * mi + 1, coords, +1.0)   # 1-P_M block: S = 1 - W + Q^{T_M}
    tau = np.empty((n_parts, n_basis), dtype=np.intp)
    sigma = np.empty((n_parts, n_basis))
    for mi, part in enumerate(parts):
        mask = part.mask
        for alpha in range(n_basis):
            col = n_basis * (1 + mi) + alpha
            ta, tb, tk, sign = _transpose_action(int(a_idx[alpha]), int(b_idx[alpha]),
                                                 int(kind[alpha]), mask)
            tau[mi, alpha] = index[(ta, tb, tk)]
            sigma[mi, alpha] = sign
            tcoords = _embedding_coords(ta, tb, tk, d)
            coords = _embedding_coords(int(a_idx[alpha]), int(b_idx[alpha]), int(kind[alpha]), d)
            add(col, 4 * mi + 0, tcoords, +sign)   # ... - Q^{T_M} inside the P_M slack
            add(col, 4 * mi + 1, tcoords, -sign)
            add(col, 4 * mi + 2, coords, -1.0)     # Q_M >= 0 slack is Q itself
            add(col, 4 * mi + 3, coords, +1.0)

    m = n_basis * (1 + n_parts)
    a_csc = sp.csc_matrix((np.array(vals), (np.array(rows), np.array(cols))),
                          shape=(len(block_dims) * svec_len_block, m))
    skeleton = sdp.SdpProblem.from_svec_columns(block_dims, c_blocks, a_csc, np.zeros(m))
    # 2 Re of the complex coefficient products of F_alpha and F_beta, applied to
    # the sums and differences that assemble() forms (see ArrowheadSchur)
    kappa = np.where(kind == _DIAG, 1.0, 1 / math.sqrt(2))
    imag = kind == _IM
    scale = 2 * np.outer(kappa, kappa)
    mixed = imag[:, None] != imag[None, :]
    # matrix positions (a, b) in the order diagonal, (a, b) for a < b, (b, a) for a < b
    a = np.concatenate([a_idx[~imag], b_idx[imag]])
    b = np.concatenate([b_idx[~imag], a_idx[imag]])
    layout = _ArrowheadLayout(
        dim=d,
        gather=((a[:, None] * d + b[None, :]) * d + b[:, None]) * d + a[None, :],
        scale_re=np.where(mixed, 0.0, np.where(imag[:, None], -scale, scale)),
        scale_im=np.where(mixed, -scale, 0.0),
        tau=tau, sigma=sigma)
    skeleton.schur_factory = partial(ArrowheadSchur, layout)
    return {
        "nqubits": nqubits,
        "dim": d,
        "parts": parts,
        "skeleton": skeleton,
        "basis": (a_idx, b_idx, kind),
        "n_basis": n_basis,
    }


def _rhs_for(rho: np.ndarray, structure) -> np.ndarray:
    a_idx, b_idx, kind = structure["basis"]
    vals = rho[a_idx, b_idx]
    traces = np.where(kind == _DIAG, vals.real,
                      np.where(kind == _RE, math.sqrt(2) * vals.real,
                               math.sqrt(2) * vals.imag))
    b = np.zeros(structure["skeleton"].num_constraints)
    b[:structure["n_basis"]] = -traces
    return b


def build_program(rho: np.ndarray, nqubits: int | None = None) -> sdp.SdpProblem:
    """PPT-mixture program for ρ in the solver's standard form.

    A strictly feasible witness always exists (W = 1/2 with P_M = Q_M = 1/4),
    so the program is solvable and its optimum is attained.
    """
    rho = np.asarray(rho, dtype=complex)
    n = check_density_matrix(rho, nqubits)
    structure = _program_structure(n)
    return structure["skeleton"].with_rhs(_rhs_for(rho, structure))


def _witness_from_y(y: np.ndarray, structure) -> np.ndarray:
    d = structure["dim"]
    a_idx, b_idx, kind = structure["basis"]
    upper = np.zeros((d, d), dtype=complex)
    coeff = y[:structure["n_basis"]]
    r = 1 / math.sqrt(2)
    diag = kind == _DIAG
    upper[a_idx[diag], b_idx[diag]] = coeff[diag]
    re = kind == _RE
    im = kind == _IM
    upper[a_idx[re], b_idx[re]] += coeff[re] * r
    upper[a_idx[im], b_idx[im]] += 1j * coeff[im] * r
    return upper + np.triu(upper, 1).conj().T


@dataclass
class GmnResult:
    """Outcome of one PPT-mixture solve."""

    nqubits: int
    value: float                 # max(0, -objective); exact 0 below the detection floor
    objective: float             # raw SDP minimum of Tr(W rho), <= 0 when entangled
    witness: np.ndarray
    decompositions: dict         # Bipartition -> (P_M, Q_M) as claimed by the solver
    certificate_ok: bool
    solver: sdp.SdpSolution
    accuracy: float = math.nan   # max of relative gap and scaled residuals

    @property
    def solved(self) -> bool:
        if self.solver.status is sdp.SdpStatus.OPTIMAL:
            return True
        return self.accuracy <= STALL_ACCEPT_ACCURACY

    @property
    def detected(self) -> bool:
        """True when genuine multiparticle entanglement is certified."""
        return self.solved and self.value > 0


def genuine_negativity(rho: np.ndarray, nqubits: int | None = None,
                       options: sdp.SdpOptions | None = None) -> GmnResult:
    """Compute the genuine multiparticle negativity E(ρ) with certificate.

    An unusable solver outcome yields an explicit failed result (NaN value,
    ``certificate_ok`` False) rather than a silent zero.  Stalled solves whose
    best iterate is still accurate to :data:`STALL_ACCEPT_ACCURACY` are used.
    """
    rho = np.asarray(rho, dtype=complex)
    n = check_density_matrix(rho, nqubits)
    structure = _program_structure(n)
    problem = structure["skeleton"].with_rhs(_rhs_for(rho, structure))
    solution = sdp.solve(problem, options)

    witness = _witness_from_y(solution.y, structure)
    decompositions = {}
    for mi, part in enumerate(structure["parts"]):
        p_m = unembed_hermitian(solution.s_blocks[4 * mi + 0])
        q_m = unembed_hermitian(solution.s_blocks[4 * mi + 2])
        decompositions[part] = (p_m, q_m)
    accuracy = max(solution.relative_gap, solution.primal_residual, solution.dual_residual)

    result = GmnResult(nqubits=n, value=math.nan, objective=math.nan, witness=witness,
                       decompositions=decompositions, certificate_ok=False, solver=solution,
                       accuracy=accuracy)
    if not result.solved:
        return result

    result.objective = -solution.dual_objective
    result.value = max(0.0, -result.objective)
    if result.value < DETECTION_FLOOR:
        result.value = 0.0
    result.certificate_ok = verify_certificate(result, rho)
    return result


def certificate_diagnostics(result: GmnResult, rho: np.ndarray,
                            decomposition_tol: float = 1e-6,
                            eig_tol: float = 1e-7,
                            objective_tol: float = 1e-6) -> list:
    """Recheck the witness decomposition with plain linear algebra.

    Verifies, for every bipartition, that W = P_M + Q_M^{T_M} holds entrywise,
    that the eigenvalues of P_M and Q_M lie in [0, 1] up to ``eig_tol``, and
    that Tr(W ρ) reproduces the reported objective.  Returns a list of
    human-readable violations (empty when the certificate stands).  Nothing
    here trusts the solver beyond the values being checked.
    """
    issues = []
    w = result.witness
    n = result.nqubits
    for part, (p_m, q_m) in result.decompositions.items():
        resid = float(np.max(np.abs(w - p_m - partial_transpose(q_m, part.members, n))))
        if resid > decomposition_tol:
            issues.append(f"decomposition residual {resid:.3e} > {decomposition_tol:.0e} "
                          f"for bipartition {part}")
        for name, block in (("P", p_m), ("Q", q_m)):
            eigs = eig_hermitian(block)
            if eigs[0] < -eig_tol or eigs[-1] > 1 + eig_tol:
                issues.append(f"{name}_{part} eigenvalues [{eigs[0]:.3e}, {eigs[-1]:.3e}] "
                              f"outside [0, 1] beyond {eig_tol:.0e}")
    trace_val = float(np.trace(w @ rho).real)
    if abs(trace_val - result.objective) > objective_tol:
        issues.append(f"Tr(W rho) = {trace_val:.9f} differs from objective "
                      f"{result.objective:.9f} by more than {objective_tol:.0e}")
    return issues


def verify_certificate(result: GmnResult, rho: np.ndarray) -> bool:
    """True iff the witness certificate survives independent rechecking."""
    return not certificate_diagnostics(result, rho)
