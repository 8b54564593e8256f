"""Single-qubit Kraus sets and independent local noise on N-qubit states.

Three Markovian models are supported, all parameterized by the dimensionless
elapsed noise s = Γt with equal rates on every qubit, writing γ = exp(-s/2):

* amplitude damping:  {diag(1, γ), [[0, sqrt(1-γ²)], [0, 0]]}
* phase damping:      {diag(1, γ), diag(0, sqrt(1-γ²))}
* depolarizing:       {sqrt(1-q)·I, sqrt(q/3)·σx, sqrt(q/3)·σy, sqrt(q/3)·σz}
                      with p = 1-γ and q = 3p/4

Each set satisfies the completeness relation Σ ω† ω = I, so ρ ↦ Σ ω ρ ω† is
trace preserving, and each family forms a semigroup in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import PAULI_X, PAULI_Y, PAULI_Z, check_density_matrix, hermitian_part


class ChannelKind(Enum):
    AMPLITUDE_DAMPING = "ad"
    PHASE_DAMPING = "pd"
    DEPOLARIZING = "dp"

    @classmethod
    def parse(cls, text: str) -> "ChannelKind":
        key = str(text).strip().lower()
        for kind in cls:
            if key in (kind.value, kind.name.lower()):
                return kind
        valid = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown channel {text!r} (expected one of: {valid})")


@dataclass(frozen=True)
class KrausSet:
    """Single-qubit Kraus operators for one channel at elapsed noise s."""

    kind: ChannelKind
    s: float
    operators: tuple = field(repr=False)

    def __post_init__(self):
        total = sum(w.conj().T @ w for w in self.operators)
        if np.max(np.abs(total - np.eye(2))) > 1e-12:
            raise ValueError("Kraus set violates completeness: sum w†w != I within 1e-12")


def single_qubit_kraus(kind: ChannelKind, s: float) -> KrausSet:
    """Kraus operators of one noise model at dimensionless time s = Γt."""
    if s < 0:
        raise ValueError(f"elapsed noise s must be nonnegative, got {s}")
    gamma = math.exp(-s / 2)
    decay = math.sqrt(max(0.0, 1.0 - gamma * gamma))
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        ops = (np.array([[1, 0], [0, gamma]], dtype=complex),
               np.array([[0, decay], [0, 0]], dtype=complex))
    elif kind is ChannelKind.PHASE_DAMPING:
        ops = (np.array([[1, 0], [0, gamma]], dtype=complex),
               np.array([[0, 0], [0, decay]], dtype=complex))
    elif kind is ChannelKind.DEPOLARIZING:
        p = 1.0 - gamma
        q = 0.75 * p
        ops = (math.sqrt(1.0 - q) * np.eye(2, dtype=complex),
               math.sqrt(q / 3) * PAULI_X,
               math.sqrt(q / 3) * PAULI_Y,
               math.sqrt(q / 3) * PAULI_Z)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unsupported channel kind {kind!r}")
    return KrausSet(kind=kind, s=float(s), operators=ops)


def apply_local_channel(rho: np.ndarray, kind: ChannelKind, s: float, nqubits: int) -> np.ndarray:
    """Evolve ρ under independent local noise of one kind on every qubit.

    Applies the channel qubit by qubit, which equals the sum over all global
    Kraus products for independent local reservoirs without enumerating them.
    On qubit q the Kraus operators act only on bit q of the row and of the
    column index, so ρ is viewed as (left, row bit, middle, column bit,
    right) and the 4 x 4 matrix sum_k w_k ⊗ conj(w_k) maps the (row bit,
    column bit) pair: one product with a 4 x d²/4 matrix per qubit, instead
    of products with d x d Kronecker factors.
    """
    rho = np.asarray(rho, dtype=complex)
    check_density_matrix(rho, nqubits)
    d = len(rho)
    kraus = np.array(single_qubit_kraus(kind, s).operators)
    pair_map = np.einsum("kac,kbd->abcd", kraus, kraus.conj()).reshape(4, 4)
    out = rho
    for q in range(nqubits):
        left, right = 2**q, 2 ** (nqubits - q - 1)
        bits = out.reshape(left, 2, right * left, 2, right).transpose(1, 3, 0, 2, 4)
        out = (pair_map @ bits.reshape(4, -1)).reshape(2, 2, left, right * left, right)
        out = out.transpose(2, 0, 3, 1, 4).reshape(d, d)
    return hermitian_part(out)


def evolved_single_qubit_oracle(rho: np.ndarray, kind: ChannelKind, s: float) -> np.ndarray:
    """Closed-form single-qubit evolution, used as an independent test oracle.

    Writes the evolved matrix directly in terms of e^{-s} and e^{-s/2}
    (amplitude/phase damping) or p = 1 - e^{-s/2} (depolarizing), without
    going through Kraus operators.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"single-qubit oracle needs a 2x2 matrix, got shape {rho.shape}")
    e1 = math.exp(-s)
    eh = math.exp(-s / 2)
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        return np.array([[rho[0, 0] + rho[1, 1] * (1 - e1), rho[0, 1] * eh],
                         [rho[1, 0] * eh, rho[1, 1] * e1]])
    if kind is ChannelKind.PHASE_DAMPING:
        return np.array([[rho[0, 0], rho[0, 1] * eh],
                         [rho[1, 0] * eh, rho[1, 1]]])
    if kind is ChannelKind.DEPOLARIZING:
        p = 1.0 - eh
        return (1.0 - p) * rho + p * np.eye(2) / 2
    raise ValueError(f"unsupported channel kind {kind!r}")  # pragma: no cover
