"""Canonical gate and matrix constructors.

Provides the Pauli operators, the ten-gate single-qubit library whose Choi
matrices span the full 10-dimensional space of qubit-unitary Choi matrices,
and sign matrices: +-1 matrices of Hadamard type (including the order-4
matrix used by all bundled fixtures) and the Fourier phase matrix.

+-1 sign matrices keep integer entries so that orthogonality checks are
exact; they are converted to complex gates only at the algorithm boundary.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import ATOL, _as_index, require_unitary

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


@dataclass(frozen=True)
class NamedGate:
    """A named square unitary (2x2 in the ten-gate library and every fixture)."""

    name: str
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = require_unitary(self.matrix, what=f"gate {self.name!r}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pauli(name: str) -> NamedGate:
    """Identity or Pauli gate; accepts '1' as an alias for the identity."""
    key = "I" if name == "1" else name
    if key not in _PAULI:
        raise ValueError(f"unknown Pauli name {name!r}")
    return NamedGate(key, _PAULI[key])


def gate_set_G() -> list[NamedGate]:
    """The ten-gate library: identity, Paulis, three axis bisectors, three
    quarter-turn phase gates.  Global phases matter and are kept exactly as
    constructed; the ten Choi matrices are linearly independent."""
    i2, z, x, y = (_PAULI[k] for k in "IZXY")
    s2 = np.sqrt(2.0)
    return [
        NamedGate("I", i2),
        NamedGate("Z", z),
        NamedGate("X", x),
        NamedGate("Y", y),
        NamedGate("(Z+X)/sqrt2", (z + x) / s2),
        NamedGate("(Z+Y)/sqrt2", (z + y) / s2),
        NamedGate("(X+Y)/sqrt2", (x + y) / s2),
        NamedGate("(I+iZ)/sqrt2", (i2 + 1j * z) / s2),
        NamedGate("(I+iX)/sqrt2", (i2 + 1j * x) / s2),
        NamedGate("(I+iY)/sqrt2", (i2 + 1j * y) / s2),
    ]


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """P x P control matrix with orthogonal rows and an all-1 first row and
    first column, whose entries are P-th roots of unity: +-1 integers
    (Hadamard type), kept exact, or complex phases (Fourier type)."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.size == 0:
            raise ValueError("sign matrix must be square and nonempty")
        p = e.shape[0]
        if np.all(np.isin(e, (-1, 1))):
            e = keys = e.real.astype(np.int64)   # complex-typed +-1 too, without a cast warning
        else:
            e = e.astype(complex)
            keys = np.rint(np.angle(e) * p / (2 * np.pi)) % p   # the nearest root's exponent
            if not np.max(np.abs(e - np.exp(2j * np.pi * keys / p))) <= ATOL:   # NaN fails
                raise ValueError("sign matrix entries must be +-1 or P-th roots of unity")
        if not np.max(np.abs(e @ e.conj().T - p * np.eye(p))) <= p * ATOL:   # exact for +-1
            raise ValueError("sign matrix rows are not exactly orthogonal")
        if not (np.all(e[0] == 1) and np.all(e[:, 0] == 1)):
            raise ValueError("first row and column must be all +1")
        gate = e.astype(complex) / np.sqrt(p)
        readout = (gate[:, :1], gate.conj().T, gate.conj().T.conj())   # switch._readout's constants
        # oracles._promise_residuals: K distinct entries, lookup[x-1, y] = (x-1) K + e[x, y]'s index
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
        distinct = e.reshape(-1)[first].astype(complex)
        lookup = np.arange(p - 1)[:, None] * len(first) + which.reshape(p, p)[1:]
        for a in (e, gate, *readout, distinct, lookup):
            a.flags.writeable = False
        self.__dict__.update(entries=e, _gate=gate, _readout=readout, _distinct=distinct,
                             _lookup=lookup)   # frozen: set once, here

    @property
    def P(self) -> int:
        return self.entries.shape[0]

    def as_gate(self) -> np.ndarray:
        """The unitary entries/sqrt(P) acting on the control register (read-only)."""
        return self._gate

    def as_gate_inverse(self) -> np.ndarray:
        return self.entries.conj().T.astype(complex) / np.sqrt(self.P)


def hadamard_m4() -> SignMatrix:
    """The self-inverse order-4 sign matrix used by every bundled fixture:
    rows (1,1,1,1), (1,1,-1,-1), (1,-1,-1,1), (1,-1,1,-1)."""
    return SignMatrix(np.array([
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
        [1, -1, 1, -1],
    ]))


def sylvester_hadamard(k: int) -> SignMatrix:
    """Recursive doubling construction of an order 2**k sign matrix, k <= 6."""
    k = _as_index(k, "k")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if 2 ** k > 64:
        raise ValueError("k too large: order capped at 64")
    h = np.array([[1]], dtype=np.int64)
    h2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for _ in range(k):
        h = np.kron(h2, h)
    return SignMatrix(h)


def fourier_matrix(p: int) -> SignMatrix:
    """Phase matrix with entries omega**(j*k), omega = exp(2 pi i / P); its
    gate is the quantum Fourier transform."""
    p = _as_index(p, "P")
    if p < 1:
        raise ValueError("P must be at least 1")
    j = np.arange(p)
    return SignMatrix(np.exp(2j * np.pi * np.outer(j, j) / p))
