"""The quantum N-switch gate and the promise-problem algorithms built on it.

The switch applies the x-th ordering of N oracle gates to a target system,
conditioned on control basis state |x>.  Two single-shot decoding algorithms
are provided: the sign-matrix variant (conjugating the switch by H_P built
from a +-1 sign matrix, works for any even target dimension) and the Fourier
variant (conjugating by F_P, which needs target dimension >= P).

A two-knob noise model is included for qualitative studies: control
dephasing scales the off-diagonal control blocks of the post-switch density
matrix by (1 - gamma), and gate overrotation left-multiplies every oracle
gate by a rotation of angle epsilon about the Y axis.  Both knobs at zero
reproduce the ideal pure-state evolution exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gates import NamedGate, SignMatrix, fourier_matrix
from .linalg import PROBABILITY_TOL, as_state

_LABELS = "ABCDEFGH"


@dataclass(frozen=True)
class PermutationSet:
    """P orderings of N gate labels; sigma[x][j] is the j-th gate applied in
    ordering x, and ``index`` holds sigma as a read-only (P, N) int array.
    The first ordering is the identity and defines the reference product."""

    sigma: tuple[tuple[int, ...], ...]

    def __init__(self, sigma, require_identity_reference: bool = True):
        sigma = tuple(tuple(int(j) for j in row) for row in sigma)
        if not sigma:
            raise ValueError("at least one ordering is required")
        n = len(sigma[0])
        ident = tuple(range(n))
        for row in sigma:
            if sorted(row) != list(range(n)):
                raise ValueError(f"{row} is not a permutation of 0..{n - 1}")
        if len(set(sigma)) != len(sigma):
            raise ValueError("orderings must be pairwise distinct")
        if len(sigma) > math.factorial(n):
            raise ValueError("more orderings than permutations exist")
        if require_identity_reference and sigma[0] != ident:
            # The relabeling-consistency property needs the escape hatch; the
            # published fixtures never do.
            raise ValueError("the first ordering must be the identity")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "index", np.array(sigma, dtype=np.intp))
        self.index.flags.writeable = False

    @property
    def N(self) -> int:
        return len(self.sigma[0])

    @property
    def P(self) -> int:
        return len(self.sigma)

    @classmethod
    def from_strings(cls, words, require_identity_reference: bool = True) -> "PermutationSet":
        words = list(words)
        n = len(words[0]) if words else 0   # no words: the constructor names the error
        if n > len(_LABELS):
            raise ValueError("at most 8 labels supported")
        alphabet = _LABELS[:n]
        rows = []
        for w in words:
            w = w.upper()
            if len(w) != n or sorted(w) != sorted(alphabet):
                raise ValueError(f"{w!r} is not a permutation of {alphabet!r}")
            rows.append(tuple(alphabet.index(ch) for ch in w))
        return cls(rows, require_identity_reference=require_identity_reference)

    def to_strings(self) -> list[str]:
        return ["".join(_LABELS[j] for j in row) for row in self.sigma]


SIGMA_STAR = PermutationSet.from_strings(("ABCD", "BADC", "CBDA", "DACB"))


@dataclass(frozen=True)
class OracleSet:
    """An N-tuple of oracle gates, optionally carrying a verified column y."""

    gates: tuple[NamedGate, ...]
    claimed_y: int | None = None

    def __post_init__(self):
        gates = tuple(self.gates)
        if not gates:
            raise ValueError("oracle needs at least one gate")
        dims = {g.dim for g in gates}
        if len(dims) != 1:
            raise ValueError("oracle gates must share one dimension")
        if self.claimed_y is not None and self.claimed_y < 0:
            raise ValueError("claimed_y must be a column index")
        object.__setattr__(self, "gates", gates)

    @property
    def N(self) -> int:
        return len(self.gates)

    @property
    def dim(self) -> int:
        return self.gates[0].dim

    def matrices(self) -> np.ndarray:
        """The gates as one read-only stack of shape (N, d, d), built on first use."""
        return self._stack

    @cached_property
    def _stack(self) -> np.ndarray:
        stack = np.array([g.matrix for g in self.gates])
        stack.flags.writeable = False
        return stack

    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.gates)

    def conjugated(self, v: np.ndarray) -> "OracleSet":
        """Simultaneously conjugate every gate by the same unitary."""
        vd = np.asarray(v).conj().T
        return OracleSet(
            tuple(NamedGate(f"{g.name}^V", v @ g.matrix @ vd) for g in self.gates),
            claimed_y=self.claimed_y,
        )


@dataclass(frozen=True)
class NoiseModel:
    """Control dephasing gamma in [0, 1] and gate overrotation epsilon
    (radians); the channel is deterministic."""

    gamma: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be a finite angle")


@dataclass(frozen=True)
class RunResult:
    """Outcome distribution of a single algorithm run."""

    outcome_distribution: np.ndarray = field(repr=False)
    decoded_y: int
    success_probability: float | None

    def __post_init__(self):
        p = np.asarray(self.outcome_distribution, dtype=float)
        if not p.min() >= -PROBABILITY_TOL:    # written so that NaN fails
            raise ValueError("negative or NaN outcome probability")
        if not abs(p.sum() - 1.0) <= PROBABILITY_TOL:
            raise ValueError("outcome probabilities must sum to 1")
        p = np.maximum(p, 0.0)
        p.flags.writeable = False
        object.__setattr__(self, "outcome_distribution", p)


def _ordering_products(mats: np.ndarray, sigma) -> np.ndarray:
    """Products of gate stacks ``mats[..., N, d, d]`` in every ordering of
    ``sigma``, shape ``[..., P, d, d]``; an ordering's first gate acts first
    (rightmost factor)."""
    sigma = np.asarray(sigma)
    out = mats[..., sigma[:, 0], :, :]
    for j in range(1, sigma.shape[1]):
        out = mats[..., sigma[:, j], :, :] @ out
    return out


def all_products(oracle: OracleSet, perms: PermutationSet) -> np.ndarray:
    """Stack of the P ordering products, shape (P, d, d)."""
    if oracle.N != perms.N:
        raise ValueError("oracle size does not match the permutation set")
    return _ordering_products(oracle.matrices(), perms.index)


def _branch_rows(pis: np.ndarray, amplitudes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Rows amplitudes[x] * Pi_x |t> for products ``pis[..., P, d, d]`` and
    targets ``[T, d]``: one joint state per target, shape ``[..., T, P, d]``."""
    return amplitudes[:, None] * (targets @ pis.swapaxes(-1, -2)).swapaxes(-2, -3)


def apply_n_switch(control: np.ndarray, target: np.ndarray,
                   oracle: OracleSet, perms: PermutationSet) -> np.ndarray:
    """Joint (control (x) target) state after the controlled-ordering gate:
    |x>|psi> -> |x> Pi_x |psi>, extended linearly."""
    control = as_state(control)
    target = as_state(target)
    if control.size != perms.P:
        raise ValueError(f"control dimension {control.size} != P={perms.P}")
    if target.size != oracle.dim:
        raise ValueError("target dimension does not match the oracle gates")
    return _branch_rows(all_products(oracle, perms), control, target[None]).reshape(-1)


def _distribution(pis: np.ndarray, u_ctrl: np.ndarray, targets: np.ndarray,
                  gamma: float = 0.0) -> np.ndarray:
    """Control readout distributions of u_ctrl^-1 . switch . u_ctrl on
    |0>|t>, with the post-switch control coherences scaled by 1 - gamma, for
    products ``pis[..., P, d, d]`` and targets ``[T, d]``; shape ``[..., T, P]``."""
    joint = _branch_rows(pis, u_ctrl[:, 0], targets)
    rho = joint @ joint.conj().swapaxes(-1, -2)  # control blocks, target traced out
    if gamma != 0.0:
        rho = rho * ((1.0 - gamma) + gamma * np.eye(rho.shape[-1]))
    uinv = u_ctrl.conj().T
    return ((uinv @ rho) * uinv.conj()).sum(axis=-1).real


def _overrotation(epsilon: float) -> np.ndarray:
    # exp(-i epsilon Y / 2): a real rotation by epsilon in the qubit plane
    c, s = np.cos(epsilon / 2.0), np.sin(epsilon / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _checked_target(oracle: OracleSet, perms: PermutationSet, target_state) -> np.ndarray:
    """The target state, once the oracle fits the orderings and the target."""
    if oracle.N != perms.N:
        raise ValueError("oracle size does not match the permutation set")
    target = as_state(target_state)
    if target.size != oracle.dim:
        raise ValueError("target dimension does not match the oracle gates")
    if oracle.claimed_y is not None and oracle.claimed_y >= perms.P:
        raise ValueError(f"claimed column {oracle.claimed_y} out of range for P = {perms.P}")
    return target


def _finish(dist: np.ndarray, claimed_y: int | None) -> RunResult:
    """Normalize a raw distribution; RunResult checks it and clips rounding
    negatives, which cannot win the argmax of a distribution summing to 1."""
    dist = dist / dist.sum()
    success = max(float(dist[claimed_y]), 0.0) if claimed_y is not None else None
    return RunResult(dist, int(dist.argmax()), success)  # ties break to the lowest index


def run_hadamard_algorithm(oracle: OracleSet, perms: PermutationSet, m: SignMatrix,
                           target_state: np.ndarray,
                           noise: NoiseModel | None = None) -> RunResult:
    """Conjugate the switch by the sign-matrix gate H_P and measure the
    control.  For a promise-satisfying oracle and no noise the distribution
    is a point mass on the promised column."""
    if m.P != perms.P:
        raise ValueError(f"sign matrix order {m.P} does not match P={perms.P}")
    if oracle.dim != 2:
        raise ValueError("the sign-matrix algorithm runs qubit targets only")
    target = _checked_target(oracle, perms, target_state)
    noise = noise or NoiseModel()
    mats = oracle.matrices()
    if noise.epsilon != 0.0:
        mats = _overrotation(noise.epsilon) @ mats
    dist = _distribution(_ordering_products(mats, perms.index), m.as_gate(), target[None],
                         noise.gamma)
    return _finish(dist[0], oracle.claimed_y)


def run_fourier_algorithm(oracle: OracleSet, perms: PermutationSet,
                          target_state: np.ndarray) -> RunResult:
    """Phase-estimation variant: conjugate the switch by F_P.  Decodes the
    promised exponent when the orderings differ by powers of exp(2 pi i/P);
    the promise itself forces target dimension >= P."""
    target = _checked_target(oracle, perms, target_state)
    dist = _distribution(_ordering_products(oracle.matrices(), perms.index),
                         fourier_matrix(perms.P), target[None])
    return _finish(dist[0], oracle.claimed_y)


def sample_shots(result: RunResult, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts per outcome; deterministic for a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    p = result.outcome_distribution
    return rng.multinomial(shots, p / p.sum())
