"""Candidate expander constructions and gap certification.

Haar tuples, Cayley regular-representation tuples of finite groups, and the
Pauli tuple (the depolarizing-channel generator, the canonical zero-gap
witness). Certification records the contraction parameter eps = 1 - gap/n
and the slack over the Ramanujan value 2 sqrt(n-1).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
import numpy as np

from .errors import TupleFormatError
from .linalg import MatrixTuple, _haar_stack, _load_json, as_generator, as_square_matrix
from .superop import GapReport, SuperOperator, _applier, center, spectral_gap

__all__ = [
    "PAULI",
    "GroupPresentation",
    "ExpanderCertificate",
    "haar_tuple",
    "pauli_tuple",
    "cyclic_group",
    "cayley_regular_tuple",
    "classical_gap",
    "certify",
    "mixing_curve",
]

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli_tuple() -> MatrixTuple:
    """The 4-tuple (I, X, Y, Z) at N = 2; its gap on the trace-zero space is 0."""
    return MatrixTuple(np.stack(PAULI), unitary=True)


def haar_tuple(n: int, N: int, rng=None) -> MatrixTuple:
    """n independent Haar unitaries of size N."""
    if n < 1 or N < 1:
        raise ValueError(f"n and N must be positive, got n={n}, N={N}")
    return MatrixTuple(_haar_stack(N, n, as_generator(rng)), unitary=True)


@dataclass(frozen=True)
class GroupPresentation:
    """Finite group given by the left-translation action of its generators.

    ``generators[j][g]`` is the index of t_j * g. Each generator must be a
    bijection and together they must act transitively (orbit closure from the
    identity covers the whole set), which is checked at construction.
    """

    order: int
    generators: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"group order must be positive, got {self.order}")
        gens = tuple(tuple(int(i) for i in g) for g in self.generators)
        if not gens:
            raise ValueError("at least one generator required")
        for j, g in enumerate(gens):
            if sorted(g) != list(range(self.order)):
                raise ValueError(
                    f"generator {j} is not a permutation of 0..{self.order - 1}"
                )
        object.__setattr__(self, "generators", gens)
        labels = tuple(self.labels) or tuple(f"t{j}" for j in range(len(gens)))
        if len(labels) != len(gens):
            raise ValueError("labels must match the number of generators")
        object.__setattr__(self, "labels", labels)
        # orbit closure: finite order makes inverses reachable by iteration
        seen = {0}
        frontier = [0]
        while frontier:
            g = frontier.pop()
            for perm in gens:
                h = perm[g]
                if h not in seen:
                    seen.add(h)
                    frontier.append(h)
        if len(seen) != self.order:
            raise ValueError(
                f"generators act transitively on only {len(seen)} of {self.order} elements"
            )

    @property
    def n(self) -> int:
        return len(self.generators)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "generators": [list(g) for g in self.generators],
            "labels": list(self.labels),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GroupPresentation":
        if not isinstance(obj, dict):
            raise TupleFormatError("group file must be a JSON object")
        unknown = set(obj) - {"order", "generators", "labels"}
        if unknown:
            raise TupleFormatError(f"unknown group-file keys: {sorted(unknown)}")
        try:
            order, gens, labels = obj["order"], obj["generators"], obj.get("labels", [])
            if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
                raise TypeError("generators must be a list of lists")
            for val in (order, *(i for g in gens for i in g)):
                if not isinstance(val, int) or isinstance(val, bool):
                    raise TypeError(f"order and generator entries must be integers, got {val!r}")
            if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
                raise TypeError(f"labels must be a list of strings, got {labels!r}")
            return cls(order, tuple(map(tuple, gens)), tuple(labels))
        except (KeyError, TypeError, ValueError) as exc:
            raise TupleFormatError(f"bad group file: {exc}") from exc

    @classmethod
    def load(cls, path) -> "GroupPresentation":
        return _load_json(path, lambda text: cls.from_json(json.loads(text)), TupleFormatError)


def cyclic_group(m: int, steps=(1, -1)) -> GroupPresentation:
    """Z_m with one generator per step; steps (1, -1) give the cycle graph."""
    gens = tuple(tuple((g + s) % m for g in range(m)) for s in steps)
    labels = tuple(f"{s:+d}" for s in steps)
    return GroupPresentation(m, gens, labels)


def cayley_regular_tuple(g: GroupPresentation) -> MatrixTuple:
    """Permutation matrices of the left regular representation at the generators."""
    mats = np.zeros((g.n, g.order, g.order), dtype=complex)
    for j, perm in enumerate(g.generators):
        for src, dst in enumerate(perm):
            mats[j, dst, src] = 1.0
    return MatrixTuple(mats, unitary=True)


def classical_gap(g: GroupPresentation) -> float:
    """Largest |eigenvalue| of the generator sum on the mean-zero subspace.

    This is the classical (vector-level) spectral quantity of the Cayley
    graph; the tuple-level gap of the regular representation upper-bounds it.
    """
    m = g.order
    a = np.zeros((m, m))
    for perm in g.generators:
        for src, dst in enumerate(perm):
            a[dst, src] += 1.0
    ones = np.ones((m, 1)) / math.sqrt(m)
    q, _ = np.linalg.qr(np.hstack([ones, np.eye(m)[:, : m - 1]]))
    basis = q[:, 1:]
    restricted = basis.T @ a @ basis
    return float(np.max(np.abs(np.linalg.eigvals(restricted))))


@dataclass
class ExpanderCertificate:
    """Measured contraction data for a unitary tuple.

    eps = 1 - gap/n in [0, 1]; ramanujan_slack = gap - 2 sqrt(n-1).
    """

    tuple_ref: MatrixTuple
    epsilon: float
    ramanujan_slack: float
    gap: GapReport

    @property
    def n(self) -> int:
        return self.tuple_ref.n

    def is_expander(self, eps0: float, tol: float = 1e-9) -> bool:
        """Does the tuple contract the trace-zero space by at least eps0?"""
        return self.epsilon >= eps0 - tol

    def is_ramanujan(self, eps: float, tol: float = 1e-9) -> bool:
        """Is the gap within eps*n of the optimal value 2 sqrt(n-1)?"""
        return self.ramanujan_slack <= eps * self.n + tol

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": self.tuple_ref.dim,
            "epsilon": float(self.epsilon),
            "ramanujan_slack": float(self.ramanujan_slack),
            "gap": self.gap.to_json(),
        }


def certify(
    u: MatrixTuple,
    tol: float = 1e-10,
    method: str = "auto",
    rng=None,
) -> ExpanderCertificate:
    u.require_unitary()
    rep = spectral_gap(u, method=method, tol=tol, rng=rng)
    slack = rep.value - 2.0 * math.sqrt(u.n - 1)
    return ExpanderCertificate(u, _epsilon(rep.value, u.n), slack, rep)


def _epsilon(gap_value: float, n: int) -> float:
    """Expander parameter 1 - value/n of a gap value, clamped to [0, 1]."""
    return min(max(1.0 - gap_value / n, 0.0), 1.0)


def mixing_curve(u: MatrixTuple, x0, steps: int) -> np.ndarray:
    """Residuals ||Phi^k(x0) - tr(x0)/N I||_H for the channel Phi = n^-1 sum u_j . u_j*.

    Returns steps+1 values, k = 0..steps. The curve of an eps-expander decays
    at least like (1-eps)^k.
    """
    u.require_unitary()
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = as_square_matrix(x0, "x0")
    if x.shape[0] != u.dim:
        raise ValueError(f"x0 has dim {x.shape[0]}, tuple has {u.dim}")
    y = center(x)
    out = np.empty(steps + 1)
    n, N = u.n, u.dim
    step = _applier(SuperOperator(u, u))
    for k in range(steps + 1):
        out[k] = float(np.linalg.norm(y)) / math.sqrt(N)
        if k < steps:
            y = step(y) / n
    return out
