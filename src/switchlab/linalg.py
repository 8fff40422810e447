"""Dense complex linear algebra shared by every other module.

Conventions used throughout the package:

* Multi-subsystem objects are plain numpy arrays whose tensor factors are
  ordered slowest-to-fastest exactly as the accompanying space list is
  written.  ``numpy.kron(a, b)`` makes ``a`` the slow factor, so a kron over
  a factor list reproduces the listed order.
* Comparisons use absolute max-norm tolerance ``ATOL`` (1e-10) unless a
  function documents otherwise.  Every quantity in this project is O(1) in
  magnitude and at most 2048-dimensional.  Kets and gates are stored dense;
  process matrices are stored as factors (see ``processes``), because a
  dense 1024x1024 process of rank <= 2 wastes both memory and time.

All functions are pure and never mutate their inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATOL = 1e-10


class InvariantViolation(RuntimeError):
    """An internal consistency contract was broken."""


@dataclass(frozen=True)
class LabeledSpace:
    """A named tensor factor, e.g. ('A_I', 2) or ('c', 4)."""

    label: str
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"space {self.label!r} must have positive dimension")


def space_dims(spaces) -> list[int]:
    return [s.dim for s in spaces]


def space_index(spaces, label: str) -> int:
    for i, s in enumerate(spaces):
        if s.label == label:
            return i
    raise ValueError(f"unknown space label {label!r}")


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence of arrays, first factor slowest."""
    out = np.array([[1.0 + 0j]]) if np.ndim(factors[0]) == 2 else np.array([1.0 + 0j])
    for f in factors:
        out = np.kron(out, f)
    return out


def is_unitary(u: np.ndarray, tol: float = ATOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= tol)


def require_unitary(u: np.ndarray, tol: float = ATOL, what: str = "matrix") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if not np.all(np.isfinite(u)):
        raise ValueError(f"{what} has non-finite entries")
    if not is_unitary(u, tol):
        raise ValueError(f"{what} is not unitary within {tol}")
    return u


def as_state(amplitudes, tol: float = ATOL) -> np.ndarray:
    """Validate and return a normalized pure-state vector."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("state has non-finite amplitudes")
    n = np.linalg.norm(v)
    if abs(n - 1.0) > tol:
        raise ValueError(f"state norm {n} deviates from 1 by more than {tol}")
    return v


def basis_state(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for pure states."""
    return float(abs(np.vdot(np.asarray(a), np.asarray(b))) ** 2)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def reorder_vector(v: np.ndarray, dims, order) -> np.ndarray:
    """Rearrange tensor factors of a flat vector.

    ``order[i]`` is the current axis that ends up in slot ``i`` of the output.
    """
    v = np.asarray(v)
    if sorted(order) != list(range(len(dims))):
        raise ValueError("order must be a permutation of the axes")
    return np.transpose(v.reshape(list(dims)), order).reshape(-1)


def reorder_matrix(m: np.ndarray, dims, order) -> np.ndarray:
    """Same as :func:`reorder_vector` but for operators (both index groups)."""
    m = np.asarray(m)
    k = len(dims)
    if sorted(order) != list(range(k)):
        raise ValueError("order must be a permutation of the axes")
    d = int(np.prod(dims))
    full = list(order) + [k + o for o in order]
    return np.transpose(m.reshape(list(dims) * 2), full).reshape(d, d)


def partial_trace(m: np.ndarray, spaces, traced) -> np.ndarray:
    """Trace an operator over the named subsystems.

    ``spaces`` lists the tensor factors of ``m`` in order; ``traced`` is a
    set of labels to trace out.  The retained factors keep their order.
    """
    dims = space_dims(spaces)
    d = int(np.prod(dims))
    m = np.asarray(m)
    if m.shape != (d, d):
        raise ValueError(f"operator shape {m.shape} does not match spaces (dim {d})")
    labels = [s.label for s in spaces]
    if len(set(labels)) != len(labels):
        raise ValueError("space labels must be unique")
    traced = set(traced)
    unknown = traced - set(labels)
    if unknown:
        raise ValueError(f"unknown space label(s) {sorted(unknown)!r}")
    keep = [i for i, label in enumerate(labels) if label not in traced]
    drop = [i for i, label in enumerate(labels) if label in traced]
    k = len(dims)
    t = m.reshape(dims + dims)
    row = list(range(k))
    col = [i if i in drop else k + i for i in range(k)]
    out = [i for i in keep] + [k + i for i in keep]
    res = np.einsum(t, row + col, out)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return res.reshape(d_keep, d_keep)


def choi_vector(u: np.ndarray) -> np.ndarray:
    """Vectorize a 2x2 unitary as (1 (x) U)(|00> + |11>); squared norm 2.

    Component (a, b) of the result is U[b, a]; the first (slow) leg is the
    input side, the second the output side.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("choi_vector expects a 2x2 matrix")
    return u.T.reshape(-1).copy()
