"""The quantum N-switch gate and the promise-problem algorithms built on it.

The switch applies the x-th ordering of N oracle gates to a target system,
conditioned on control basis state |x>.  One single-shot decoding algorithm
conjugates the switch by a sign matrix's gate: H_P for +-1 entries (a qubit
target suffices at any N) or F_P for Fourier phases (the earlier phase
estimation, whose column y needs P | y d at target dimension d).  The
paper's demonstration tables ship as ``chart_fixture`` oracle sets, kept here
so that commands which only decode or attack them need not load ``oracles``.

One kernel, ``_readout``, computes the decoding distribution.  It is
batched over oracle sets and takes one target: stacking sets gives every set
the bits of its own call, while stacking targets reorders the target sums
and moves hundreds of the 20,240 entries of 460 sets x 11 targets by an
ulp, which the pinned decode bits and the CLI goldens would see.

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

from .gates import NamedGate, SignMatrix, gate_set_G
from .linalg import PROBABILITY_TOL, _as_index, as_state

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
        if n == 0:
            raise ValueError("an ordering needs at least one label")
        if n > len(_LABELS):
            raise ValueError(f"at most {len(_LABELS)} labels supported, got {n}")
        for row in sigma:
            if sorted(row) != list(range(n)):
                raise ValueError(f"{row} is not a permutation of 0..{n - 1}")
        if len(set(sigma)) != len(sigma):
            raise ValueError("orderings must be pairwise distinct")
        if len(sigma) > math.factorial(n):
            raise ValueError("more orderings than permutations exist")
        if require_identity_reference and sigma[0] != tuple(range(n)):
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
        alphabet = _LABELS[:n]
        rows = []
        for w in words:
            w = w.upper()
            if len(w) != n or sorted(w) != sorted(alphabet):
                raise ValueError(f"{w!r} is not a permutation of {alphabet!r}")
            rows.append(tuple(alphabet.index(ch) for ch in w))
        return cls(rows, require_identity_reference=require_identity_reference)

    def to_strings(self) -> list[str]:
        return list(self._words)

    @cached_property
    def _words(self) -> tuple[str, ...]:
        return tuple("".join(_LABELS[j] for j in row) for row in self.sigma)


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
        if self.claimed_y is not None:
            y = _as_index(self.claimed_y, "claimed_y")
            if y < 0:
                raise ValueError("claimed_y must be a column index")
            object.__setattr__(self, "claimed_y", y)
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "_product_memo", {})   # filled by _products

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


_TABLE1 = [
    ("I", "X", "I", "X"),
    ("Z", "X", "Z", "X"),
    ("I", "X", "Z", "X"),
    ("Z", "X", "I", "X"),
]

_TABLE2 = [
    ("(Z+X)/sqrt2", "(Z+X)/sqrt2", "I", "I"),
    ("I", "X", "Z", "I"),
    ("Z", "X", "I", "I"),
    ("Z", "X", "I", "X"),
]

_THIRTY_ROWS = {
    "A": "1 1 1 Z 1 1 Z 1 Z Z 1 Z Z Z Z Z 1 Z Z Z Z Z 1 Z Z Z 1 Z Z Z",
    "B": "1 1 Z 1 1 Z 1 Z 1 Z Z 1 Z Z Z X Z 1 Z X X X Z 1 X Z 1 X X X",
    "C": "1 Z 1 1 Z 1 1 Z Z 1 Z Z 1 Z Z X X 1 X Z X Y X Z 1 X Z 1 Z Y",
    "D": "Z 1 1 1 Z Z Z 1 1 1 Z Z Z 1 Z Z 1 X X X Y Z Z X 1 Y X X 1 Y",
}
_THIRTY_Y = [0] * 16 + [1] * 6 + [2] * 4 + [3] * 4


def chart_fixture(which: str) -> list[OracleSet]:
    """Bundled demonstration oracles, one OracleSet per column with its
    verified y: 'table1' (orthogonal Pauli-type columns), 'table2' (includes
    a non-orthogonal column), 'thirty' (the 30 Pauli-only witness sets)."""
    if which == "table1":
        rows = enumerate(_TABLE1)
    elif which == "table2":
        rows = enumerate(_TABLE2)
    elif which == "thirty":
        rows = zip(_THIRTY_Y, zip(*(_THIRTY_ROWS[slot].split() for slot in "ABCD")))
    else:
        raise ValueError(f"unknown fixture {which!r}; use table1, table2 or thirty")
    gates = {g.name: g for g in gate_set_G()}
    gates["1"] = gates["I"]
    return [OracleSet(tuple(gates[n] for n in names), claimed_y=y) for y, names in rows]


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


_NOISELESS = NoiseModel()
_MAX_SHOTS = 2 ** 63 - 1   # numpy draws multinomial counts as int64


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


def _products(oracle: OracleSet, perms: PermutationSet, epsilon: float = 0.0,
              known: np.ndarray | None = None) -> np.ndarray:
    """The oracle's ordering products at overrotation epsilon, built once (or
    taken from ``known``, when the caller already holds them) and kept read-only."""
    key = (perms.sigma, epsilon)
    pis = oracle._product_memo.get(key)
    if pis is None:
        if known is None:
            mats = oracle.matrices()
            if epsilon != 0.0:
                mats = _overrotation(epsilon) @ mats
            known = _ordering_products(mats, perms.index)
        pis = oracle._product_memo[key] = known
        pis.flags.writeable = False
    return pis


def all_products(oracle: OracleSet, perms: PermutationSet) -> np.ndarray:
    """Read-only stack of the P ordering products, shape (P, d, d)."""
    if oracle.N != perms.N:
        raise ValueError("oracle size does not match the permutation set")
    return _products(oracle, perms)


def _branch_rows(pis: np.ndarray, amplitudes: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rows amplitudes[x] * Pi_x |t> for products ``pis[..., P, d, d]``, the
    amplitudes as a column ``[P, 1]`` and one target ``[d]``: the joint state,
    shape ``[..., P, d]``."""
    return amplitudes * (pis @ target)


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
    return _branch_rows(all_products(oracle, perms), control[:, None], target).reshape(-1)


def _readout(pis: np.ndarray, readout: tuple, target: np.ndarray, gamma: float) -> np.ndarray:
    """Control readout distributions of u^-1 . switch . u on |0>|t>, u given by
    ``readout`` = (u[:, :1], u^-1, conj(u^-1)) as a SignMatrix keeps it, with the
    post-switch control coherences scaled by 1 - gamma, for products
    ``pis[..., P, d, d]`` and one target ``[d]``; shape ``[..., P]``.  Sets
    are batched and targets are not, so a set's row has the bits of its own
    call (see the module docstring)."""
    joint = _branch_rows(pis, readout[0], target)
    rho = joint @ joint.conj().swapaxes(-1, -2)  # control blocks, target traced out
    if gamma != 0.0:   # times the mask (1 - gamma) + gamma * eye, entry by entry
        p = rho.shape[-1]
        kept = rho.diagonal(0, -2, -1) * ((1.0 - gamma) + gamma)
        rho *= 1.0 - gamma
        rho.reshape(*rho.shape[:-2], p * p)[..., ::p + 1] = kept   # a view: rho is new
    return np.add.reduce((readout[1] @ rho) * readout[2], -1).real


def _overrotation(epsilon: float) -> np.ndarray:
    # exp(-i epsilon Y / 2): a real rotation by epsilon in the qubit plane
    c, s = np.cos(epsilon / 2.0), np.sin(epsilon / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _finish(dist: np.ndarray, claimed_y: int | None) -> RunResult:
    """Normalize a raw distribution into a RunResult, summing it once and
    reading it back once."""
    total = np.add.reduce(dist)
    p = dist / total  # sums to 1 up to rounding when the total is finite
    values = p.tolist()  # NaN entries come with a non-finite total, or a zero one (min -inf/NaN)
    low = min(values)
    if not (low >= -PROBABILITY_TOL and math.isfinite(total)):
        return RunResult(p, 0, None)  # raises RunResult's error
    success = max(values[claimed_y], 0.0) if claimed_y is not None else None
    if low <= 0.0:
        np.maximum(p, 0.0, out=p)  # rounding negatives and -0.0, which cannot win the argmax
    p.flags.writeable = False
    result = RunResult.__new__(RunResult)  # checked above, so __post_init__ is skipped
    result.__dict__.update(outcome_distribution=p, decoded_y=values.index(max(values)),
                           success_probability=success)  # ties break to the lowest index
    return result


def run_hadamard_algorithm(oracle: OracleSet, perms: PermutationSet, m: SignMatrix,
                           target_state: np.ndarray,
                           noise: NoiseModel | None = None) -> RunResult:
    """Conjugate the switch by the sign matrix's gate (H_P for +-1 entries,
    F_P for Fourier phases) and measure the control.  For a
    promise-satisfying oracle and no noise the distribution is a point mass
    on the promised column."""
    p, d, y = perms.P, oracle.dim, oracle.claimed_y
    if m.P != p:
        raise ValueError(f"sign matrix order {m.P} does not match P={p}")
    if oracle.N != perms.N:
        raise ValueError("oracle size does not match the permutation set")
    target = as_state(target_state)
    if target.size != d:
        raise ValueError("target dimension does not match the oracle gates")
    if y is not None and y >= p:
        raise ValueError(f"claimed column {y} out of range for P = {p}")
    noise = noise or _NOISELESS
    if noise.epsilon != 0.0 and d != 2:
        raise ValueError("gate overrotation acts on qubit gates only")
    pis = _products(oracle, perms, noise.epsilon)
    return _finish(_readout(pis, m._readout, target, noise.gamma), y)


def sample_shots(result: RunResult, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts per outcome; deterministic for a fixed seed."""
    shots = _as_index(shots, "shots")
    seed = _as_index(seed, "seed")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots must be at most {_MAX_SHOTS} (2**63 - 1)")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    p = result.outcome_distribution
    return rng.multinomial(shots, p / p.sum())
