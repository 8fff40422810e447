"""Dense complex linear algebra shared by every other module.

Conventions used throughout the package:

* Multi-subsystem objects are plain numpy arrays with their tensor factors
  ordered slowest to fastest.  ``numpy.kron(a, b)`` makes ``a`` the slow
  factor, so a kron over a factor list reproduces the listed order; each
  module fixes its own factor order (see ``processes`` for the process
  side).
* Every tolerance is an entry of the table below; no function takes one.
  Functions read their entry when called.  Every quantity in this project
  is O(1) in magnitude, and no dense operator has more than 2048 rows
  (``processes`` refuses a larger one).  Kets and gates are stored dense;
  process matrices are stored as factors (see ``processes``), because a
  dense 1024x1024 process of rank <= 2 wastes both memory and time.

All functions are pure and never mutate their inputs.
"""
from __future__ import annotations

import math
import operator

import numpy as np

# The tolerance table: each threshold of the package, once, with its reason.
# Exact results carry float error near 1e-15, far inside every entry.
ATOL = 1e-10                # max-norm unitarity defect of gates, norm defect of states
PROMISE_TOL = 1e-9          # ordering products vs +-1 times the reference product
CONJUGATOR_TOL = 1e-8       # certificates may miss exact conjugation by this
KEY_DECIMALS = 8            # float noise never splits a rounded key; every merge is verified anyway
DEGENERATE = 1e-6           # shorter vectors span no frame axis; |q0| below it marks a half turn
PROBABILITY_TOL = 1e-9      # outcome distributions and witness weights: negativity, sum to 1
WITNESS_RANGE_TOL = 1e-8    # a witness value may leave [0, 1] by this before it is an error
CCGO_TOL = 1e-9             # CCGO verifier residuals, and the Cholesky shift of its PSD check
CCGO_TRACE_RTOL = 1e-8      # relative slack of the parts' total trace against 2**N
EXACT_TEST_TOL = 1e-9       # attack tests are deterministic and fixtures match exactly
FIDELITY_FLOOR = 1e-10      # the fixed-order circuit reproduces the switch to 1 - this


class InvariantViolation(RuntimeError):
    """An internal consistency contract was broken."""


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence of vectors or matrices, first factor
    slowest: the same multiplies, in the same order, as chained ``np.kron``."""
    out = np.array([[1.0 + 0j]]) if np.ndim(factors[0]) == 2 else np.array([1.0 + 0j])
    for f in map(np.asarray, factors):
        if out.ndim == f.ndim == 1:
            out = (out[:, None] * f).reshape(-1)
        else:  # np.kron reads a vector as one row
            out, f = out.reshape(-1, out.shape[-1]), f.reshape(-1, f.shape[-1])
            out = (out[:, None, :, None] * f[:, None]).reshape(len(out) * len(f), -1)
    return out


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= ATOL)


def require_unitary(u: np.ndarray, what: str = "matrix") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if not np.all(np.isfinite(u)):
        raise ValueError(f"{what} has non-finite entries")
    if not is_unitary(u):
        raise ValueError(f"{what} is not unitary within {ATOL}")
    return u


def as_state(amplitudes) -> np.ndarray:
    """Validate and return a normalized pure-state vector."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("state has non-finite amplitudes")
    n = math.sqrt(np.vdot(v, v).real)
    if abs(n - 1.0) > ATOL:
        raise ValueError(f"state norm {n} deviates from 1 by more than {ATOL}")
    return v


def _as_index(value, what: str) -> int:
    """``value`` as an int; any integer type, numpy's included, is accepted."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {value!r}") from None


def basis_state(dim: int, index: int) -> np.ndarray:
    index = _as_index(index, "basis index")
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside [0, {dim})")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def choi_vector(u: np.ndarray) -> np.ndarray:
    """Vectorize a 2x2 unitary as (1 (x) U)(|00> + |11>); squared norm 2.

    Component (a, b) of the result is U[b, a]; the first (slow) leg is the
    input side, the second the output side.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("choi_vector expects a 2x2 matrix")
    return u.T.reshape(-1).copy()
