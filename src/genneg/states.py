"""Construction of the studied pure states and state-file round-tripping.

Named states use the flat selector namespace also exposed by the CLI:
ghz2/ghz3/ghz4, w2/w3/w4, the three-qubit variants ghz3b = (|001>+|110>)/√2
and w3b = (|110>+|101>+|011>)/√3, and the four-qubit states d24, singlet4,
cluster4, chi4.  :func:`random_state` draws the random states, Haar-random
or weighted graph states, as :class:`GeneratorKind` selects.

Randomness contract: every generator takes a 64-bit integer seed and is a
pure function of its arguments.  Streams are produced by PCG64 seeded through
``numpy.random.SeedSequence``; ensemble members use :func:`derive_seed` so a
single base seed reproduces a whole ensemble.  Gaussian variates are drawn
with the Marsaglia polar transform of the uniform stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gmn import QUBIT_RANGE

NORM_TOL = 1e-9


def _ket(nqubits: int, assignments: dict[int, complex]) -> np.ndarray:
    amp = np.zeros(2**nqubits, dtype=complex)
    for index, value in assignments.items():
        amp[index] = value
    return amp


def _ghz(n: int) -> np.ndarray:
    r = 1 / np.sqrt(2)
    return _ket(n, {0: r, 2**n - 1: r})


def _w(n: int) -> np.ndarray:
    r = 1 / np.sqrt(n)
    return _ket(n, {2**k: r for k in range(n)})


def _ghz3b() -> np.ndarray:
    r = 1 / np.sqrt(2)
    return _ket(3, {0b001: r, 0b110: r})


def _w3b() -> np.ndarray:
    r = 1 / np.sqrt(3)
    return _ket(3, {0b110: r, 0b101: r, 0b011: r})


def _dicke24() -> np.ndarray:
    r = 1 / np.sqrt(6)
    return _ket(4, {i: r for i in (0b0011, 0b1100, 0b0101, 0b0110, 0b1001, 0b1010)})


def _singlet4() -> np.ndarray:
    a = 1 / np.sqrt(3)
    b = -a / 2
    return _ket(4, {0b0011: a, 0b1100: a, 0b0101: b, 0b0110: b, 0b1001: b, 0b1010: b})


def _cluster4() -> np.ndarray:
    return _ket(4, {0b0000: 0.5, 0b0011: 0.5, 0b1100: 0.5, 0b1111: -0.5})


def _chi4() -> np.ndarray:
    r = 1 / np.sqrt(6)
    return _ket(4, {0b1111: np.sqrt(2) * r, 0b0001: r, 0b0010: r, 0b0100: r, 0b1000: r})


_NAMED = {
    "ghz2": lambda: _ghz(2),
    "ghz3": lambda: _ghz(3),
    "ghz4": lambda: _ghz(4),
    "ghz3b": _ghz3b,
    "w2": lambda: _w(2),
    "w3": lambda: _w(3),
    "w4": lambda: _w(4),
    "w3b": _w3b,
    "d24": _dicke24,
    "singlet4": _singlet4,
    "cluster4": _cluster4,
    "chi4": _chi4,
}

NAMED_STATE_NAMES = tuple(_NAMED)


def named_state(which: str) -> np.ndarray:
    """Amplitude vector of a named state (unit norm, qubit 0 = leftmost factor)."""
    try:
        builder = _NAMED[str(which).strip().lower()]
    except KeyError:
        raise ValueError(f"unknown named state {which!r} "
                         f"(expected one of: {', '.join(NAMED_STATE_NAMES)})") from None
    return builder()


def nqubits_of_state(psi: np.ndarray) -> int:
    d = len(psi)
    n = d.bit_length() - 1
    if d != 2**n or d < 2:
        raise ValueError(f"state vector length {d} is not a power of two")
    return n


def to_density(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi| of a normalized state vector."""
    psi = np.asarray(psi, dtype=complex).ravel()
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state vector norm {norm!r} differs from 1 by more than {NORM_TOL:.0e}")
    return np.outer(psi, psi.conj())


def seeded_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed (the package-wide stream contract)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def derive_seed(seed: int, index: int) -> int:
    """Deterministic per-member seed for ensembles built from one base seed."""
    child = np.random.SeedSequence(int(seed), spawn_key=(int(index),))
    lo, hi = child.generate_state(2, dtype=np.uint64)[:2]
    return int(lo ^ (hi << np.uint64(1)) & np.uint64(0xFFFFFFFFFFFFFFFF))


def _standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Marsaglia polar transform of the uniform stream (zero mean, unit variance)."""
    out = np.empty(count)
    have = 0
    while have < count:
        need = count - have
        batch = max(8, int(need * 0.8) + 4)
        u = rng.random(batch) * 2 - 1
        v = rng.random(batch) * 2 - 1
        r2 = u * u + v * v
        keep = (r2 > 0) & (r2 < 1)
        u, v, r2 = u[keep], v[keep], r2[keep]
        factor = np.sqrt(-2 * np.log(r2) / r2)
        pair = np.empty(2 * len(r2))
        pair[0::2] = u * factor
        pair[1::2] = v * factor
        take = min(len(pair), need)
        out[have:have + take] = pair[:take]
        have += take
    return out


def _check_nqubits(nqubits: int) -> None:
    """Random states are drawn for the qubit counts of ``gmn.QUBIT_RANGE``."""
    low, high = QUBIT_RANGE
    if not low <= nqubits <= high:
        raise ValueError(f"nqubits must be {low} to {high}, got {nqubits}")


def haar_random_state(nqubits: int, seed: int) -> np.ndarray:
    """Haar-random pure state: normalized vector of complex standard normals."""
    _check_nqubits(nqubits)
    d = 2**nqubits
    z = _standard_normals(seeded_rng(seed), 2 * d)
    psi = z[:d] + 1j * z[d:]
    return psi / np.linalg.norm(psi)


@dataclass(frozen=True)
class WeightedGraph:
    """Interaction phases φ_kl ∈ [0, 2π) for every pair k < l of qubits."""

    nqubits: int
    phases: dict

    def __post_init__(self):
        n = self.nqubits
        expected = {(k, l) for k in range(n) for l in range(k + 1, n)}
        got = set(self.phases)
        if got != expected:
            raise ValueError(f"phase table must have exactly the {n * (n - 1) // 2} "
                             f"pairs k<l for {n} qubits, got keys {sorted(got)}")


def random_weighted_graph(nqubits: int, seed: int) -> WeightedGraph:
    """Uniformly random interaction phases on [0, 2π), one per qubit pair."""
    _check_nqubits(nqubits)
    rng = seeded_rng(seed)
    phases = {}
    for k in range(nqubits):
        for l in range(k + 1, nqubits):
            phases[(k, l)] = float(rng.random() * 2 * np.pi)
    return WeightedGraph(nqubits=nqubits, phases=phases)


def weighted_graph_state(g: WeightedGraph) -> np.ndarray:
    """State |G> = ⊗_{k<l} U_kl(φ_kl) |+>^N in closed form.

    The pairwise unitaries are diagonal (phase e^{-iφ} exactly on the |11>
    component of the pair) and commute, so the amplitude on bit pattern x is
    2^{-N/2} · exp(-i Σ_{k<l} φ_kl x_k x_l).
    """
    n = g.nqubits
    d = 2**n
    indices = np.arange(d)
    bits = [(indices >> (n - 1 - k)) & 1 for k in range(n)]
    phase = np.zeros(d)
    for (k, l), phi in sorted(g.phases.items()):
        phase += phi * bits[k] * bits[l]
    return np.exp(-1j * phase) / np.sqrt(d)


class GeneratorKind(Enum):
    HAAR_RANDOM = "haar"
    WEIGHTED_GRAPH = "wgs"

    @classmethod
    def parse(cls, text) -> "GeneratorKind":
        """The kind whose value or member name is ``text`` in any case, or ``text`` if a kind."""
        if isinstance(text, cls):
            return text
        key = str(text).strip().lower()
        for kind in cls:
            if key in (kind.value, kind.name.lower()):
                return kind
        raise ValueError(f"unknown generator {text!r} (expected 'haar' or 'wgs')")


def random_state(generator, nqubits: int, seed: int) -> np.ndarray:
    """The Haar-random or weighted graph state that ``generator`` draws for ``seed``."""
    if GeneratorKind.parse(generator) is GeneratorKind.HAAR_RANDOM:
        return haar_random_state(nqubits, seed)
    return weighted_graph_state(random_weighted_graph(nqubits, seed))


class StateFileError(ValueError):
    """Malformed state file; carries 1-based line (and column when known)."""

    def __init__(self, path, line: int, message: str, column: int | None = None):
        where = f"{path}:{line}" + (f":{column}" if column is not None else "")
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line
        self.column = column


def _content_lines(path):
    """Yield (lineno, text) with comments stripped and blank lines skipped."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield lineno, text


def read_state_file(path) -> np.ndarray:
    """Read a state file and return the density matrix it describes.

    Format: header line ``pure N`` followed by 2^N lines ``re im``, or
    ``mixed N`` followed by 2^N rows of 2^N whitespace-separated ``re,im``
    pairs.  ``#`` starts a comment.
    """
    lines = list(_content_lines(path))
    if not lines:
        raise StateFileError(path, 1, "empty state file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("pure", "mixed"):
        raise StateFileError(path, lineno, f"expected header 'pure N' or 'mixed N', got {header!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise StateFileError(path, lineno, f"qubit count {parts[1]!r} is not an integer") from None
    if n < 1 or n > 6:
        raise StateFileError(path, lineno, f"qubit count {n} out of supported range 1..6")
    d = 2**n
    body = lines[1:]
    if len(body) != d:
        last = body[-1][0] if body else lineno
        raise StateFileError(path, last, f"expected {d} data lines after header, found {len(body)}")

    if parts[0] == "pure":
        amp = np.zeros(d, dtype=complex)
        for row, (ln, text) in enumerate(body):
            fields = text.split()
            if len(fields) != 2:
                raise StateFileError(path, ln, f"expected 're im', got {len(fields)} fields")
            try:
                amp[row] = float(fields[0]) + 1j * float(fields[1])
            except ValueError:
                raise StateFileError(path, ln, f"non-numeric amplitude {text!r}") from None
            if not np.isfinite(amp[row]):
                raise StateFileError(path, ln, f"non-finite amplitude {text!r}")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > 1e-6:
            raise StateFileError(path, body[-1][0], f"pure state norm {norm!r} is not 1")
        return to_density(amp / norm)

    rho = np.zeros((d, d), dtype=complex)
    for row, (ln, text) in enumerate(body):
        fields = text.split()
        if len(fields) != d:
            raise StateFileError(path, ln, f"expected {d} 're,im' pairs, got {len(fields)}")
        for col, field in enumerate(fields):
            halves = field.split(",")
            if len(halves) != 2:
                raise StateFileError(path, ln, f"pair {field!r} is not 're,im'", column=col + 1)
            try:
                rho[row, col] = float(halves[0]) + 1j * float(halves[1])
            except ValueError:
                raise StateFileError(path, ln, f"non-numeric pair {field!r}", column=col + 1) from None
            if not np.isfinite(rho[row, col]):
                raise StateFileError(path, ln, f"non-finite pair {field!r}", column=col + 1)
    return rho


def format_pure_state(psi: np.ndarray) -> str:
    n = nqubits_of_state(psi)
    lines = [f"pure {n}"]
    lines += [f"{a.real:.17g} {a.imag:.17g}" for a in np.asarray(psi, dtype=complex)]
    return "\n".join(lines) + "\n"


def format_mixed_state(rho: np.ndarray) -> str:
    d = rho.shape[0]
    n = d.bit_length() - 1
    lines = [f"mixed {n}"]
    for row in np.asarray(rho, dtype=complex):
        lines.append(" ".join(f"{v.real:.17g},{v.imag:.17g}" for v in row))
    return "\n".join(lines) + "\n"
