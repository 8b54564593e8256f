"""Dense complex linear algebra for multi-qubit operators.

Conventions used throughout the package:

* Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of
  the computational-basis index.  The basis state |q0 q1 ... q_{N-1}> has
  index sum_k q_k * 2**(N-1-k).
* Operators are dense complex ``numpy`` arrays.  The largest dimension in
  practice is 16 (four qubits), so no sparse machinery is used.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (m + m†)/2 (of each matrix in a stack along the last two axes)."""
    return (m + np.swapaxes(m.conj(), -1, -2)) / 2


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True if max |m - m†| entry is below ``tol``."""
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def require_hermitian(m: np.ndarray, what: str = "matrix", tol: float = HERMITICITY_TOL) -> None:
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol:
        raise ValueError(f"{what} is not Hermitian: max |m - m^dagger| = {dev:.3e} > {tol:.0e}")


def nqubits_of(m: np.ndarray) -> int:
    """Number of qubits for a square operator whose dimension is a power of two."""
    d = m.shape[0]
    if m.ndim != 2 or m.shape[1] != d:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = d.bit_length() - 1
    if d != 2**n:
        raise ValueError(f"dimension {d} is not a power of two")
    return n


def tensor_product(a: np.ndarray, b: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Kronecker product a ⊗ b ⊗ ... with qubit 0 as the leftmost factor."""
    out = np.kron(np.asarray(a), np.asarray(b))
    for op in rest:
        out = np.kron(out, np.asarray(op))
    return out


def partial_transpose(m: np.ndarray, subset, nqubits: int) -> np.ndarray:
    """Transpose the tensor factors in ``subset`` (qubit indices) of an N-qubit operator.

    Entry (r, c) moves to the entry whose bits at the subset positions are
    swapped between r and c; all other bits are unchanged.  Applying the map
    twice with the same subset is the identity.
    """
    d = m.shape[0]
    if m.shape != (d, d) or d != 2**nqubits:
        raise ValueError(f"matrix shape {m.shape} does not match {nqubits} qubits")
    subset = sorted(set(int(q) for q in subset))
    for q in subset:
        if q < 0 or q >= nqubits:
            raise ValueError(f"subset index {q} out of range for {nqubits} qubits")
    t = m.reshape((2,) * (2 * nqubits))
    axes = list(range(2 * nqubits))
    for q in subset:
        axes[q], axes[nqubits + q] = axes[nqubits + q], axes[q]
    return np.ascontiguousarray(t.transpose(axes).reshape(d, d))


def eig_hermitian(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, in nondecreasing order.

    The input is symmetrized as (m + m†)/2 before the eigendecomposition to
    suppress roundoff drift; inputs further than 1e-10 from Hermitian are
    rejected.
    """
    require_hermitian(m)
    return np.linalg.eigvalsh(hermitian_part(m))


def real_embedding(m: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[Re m, -Im m], [Im m, Re m]] of a Hermitian matrix.

    The embedding doubles the multiplicity of every eigenvalue and maps the
    PSD cone of Hermitian matrices onto (a section of) the real PSD cone,
    which lets a real-arithmetic SDP solver handle Hermitian variables.
    """
    require_hermitian(m)
    h = hermitian_part(m)
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def unembed_hermitian(r: np.ndarray) -> np.ndarray:
    """Inverse of :func:`real_embedding` for (possibly perturbed) symmetric input.

    Averages the two real blocks and antisymmetrizes the imaginary blocks, so
    small symmetric noise maps to small Hermitian noise.  A stack of embedded
    matrices (along the last two axes) is unembedded matrix by matrix.
    """
    n2 = r.shape[-1]
    if n2 % 2:
        raise ValueError("embedded matrix must have even dimension")
    d = n2 // 2
    re = (r[..., :d, :d] + r[..., d:, d:]) / 2
    im = (r[..., d:, :d] - r[..., :d, d:]) / 2
    return hermitian_part(re + 1j * im)


def check_density_matrix(rho: np.ndarray, nqubits: int | None = None,
                         trace_tol: float = 1e-9, eig_tol: float = 1e-9) -> int:
    """Validate a density matrix and return its qubit count.

    Raises ``ValueError`` naming the violated property (shape, hermiticity,
    trace, positivity).
    """
    rho = np.asarray(rho)
    n = nqubits_of(rho)
    if nqubits is not None and n != nqubits:
        raise ValueError(f"dimension mismatch: matrix is {rho.shape[0]}x{rho.shape[0]}, "
                         f"expected {2**nqubits}x{2**nqubits} for {nqubits} qubits")
    require_hermitian(rho, "density matrix")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {tr!r} differs from 1 by more than {trace_tol:.0e}")
    lo = float(np.linalg.eigvalsh(hermitian_part(rho))[0])
    if lo < -eig_tol:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e} < -{eig_tol:.0e}")
    return n
