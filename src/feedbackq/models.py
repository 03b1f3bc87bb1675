"""Hamiltonian families and control sets used by the experiments.

All builders return canonicalized hermitian PauliSums.  The external
labels Z_1, Z_2, ... are one-based; internally Z_1 acts on qubit 0 (the
leftmost tensor factor).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources
from typing import List, Sequence, Tuple

import numpy as np

from .pauli import PauliSum
from .sampling import make_rng

_H2_COLUMNS = ("h0", "h1", "h2", "h3", "h4", "h5")


def _op_string(n: int, letters: dict) -> str:
    return "".join(letters.get(q, "I") for q in range(n))


@dataclass(frozen=True)
class IsingSpec:
    """Fully general Ising instance: symmetric ZZ couplings plus Z fields."""

    n: int
    couplings: Tuple[Tuple[float, ...], ...]
    fields: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("IsingSpec needs n >= 1")
        rows = tuple(tuple(float(x) for x in row) for row in self.couplings)
        flds = tuple(float(x) for x in self.fields)
        if len(rows) != self.n or any(len(row) != self.n for row in rows):
            raise ValueError("couplings must be an n x n table")
        if len(flds) != self.n:
            raise ValueError("fields must have length n")
        for q in range(self.n):
            if rows[q][q] != 0.0:
                raise ValueError("diagonal couplings are not allowed")
            for j in range(q + 1, self.n):
                if rows[q][j] != rows[j][q]:
                    raise ValueError(f"couplings must be symmetric (entry {q},{j})")
        object.__setattr__(self, "couplings", rows)
        object.__setattr__(self, "fields", flds)


def build_ising(spec: IsingSpec) -> PauliSum:
    """H = sum_{q<j} J_qj Z_q Z_j + sum_q J_q Z_q (diagonal by construction)."""
    terms = []
    for q in range(spec.n):
        if spec.fields[q]:
            terms.append((_op_string(spec.n, {q: "Z"}), spec.fields[q]))
        for j in range(q + 1, spec.n):
            if spec.couplings[q][j]:
                terms.append((_op_string(spec.n, {q: "Z", j: "Z"}), spec.couplings[q][j]))
    return PauliSum(terms, n=spec.n)


@dataclass(frozen=True)
class MfiSpec:
    """Mixed-field Ising ring: J ZZ couplings, h X fields, g Z fields."""

    n: int
    J: float
    h: float
    g: float

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("MfiSpec needs n >= 3 for a meaningful ring")


def build_mfi(spec: MfiSpec) -> PauliSum:
    """H = J sum Z_q Z_{q+1} + h sum X_q + g sum Z_q with the wrap-around bond."""
    terms = []
    for q in range(spec.n):
        nxt = (q + 1) % spec.n
        if spec.J:
            terms.append((_op_string(spec.n, {q: "Z", nxt: "Z"}), spec.J))
        if spec.h:
            terms.append((_op_string(spec.n, {q: "X"}), spec.h))
        if spec.g:
            terms.append((_op_string(spec.n, {q: "Z"}), spec.g))
    return PauliSum(terms, n=spec.n)


class RowNotTabulatedError(LookupError):
    """The coefficient table has no row for the requested bond length."""


@dataclass(frozen=True)
class H2Spec:
    """Two-qubit hydrogen Hamiltonian at one bond length.

    Coefficients multiply (I, Z_1, Z_2, Z_1 Z_2, Y_1 Y_2, X_1 X_2) in
    hartree and come from a CSV table keyed by the bond length R.
    """

    R: float
    coefficients: Tuple[float, float, float, float, float, float]

    def __post_init__(self) -> None:
        coeffs = tuple(float(x) for x in self.coefficients)
        if len(coeffs) != 6:
            raise ValueError("H2Spec needs exactly six coefficients h0..h5")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_table(cls, R: float, path=None) -> "H2Spec":
        """Look up the coefficient row for R; the bundled table has R=1.05 only."""
        if path is None:
            source = resources.files("feedbackq").joinpath("data/h2_coefficients.csv")
            text = source.read_text(encoding="utf-8")
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        available = []
        for row in csv.DictReader(text.splitlines()):
            row_r = float(row["R"])
            available.append(row_r)
            if abs(row_r - R) <= 1e-9:
                return cls(row_r, tuple(float(row[c]) for c in _H2_COLUMNS))
        raise RowNotTabulatedError(
            f"no coefficient row for R={R}; available: {sorted(available)}"
        )


def build_h2(spec: H2Spec) -> PauliSum:
    """H = h0 I + h1 Z_1 + h2 Z_2 + h3 Z_1 Z_2 + h4 Y_1 Y_2 + h5 X_1 X_2."""
    h0, h1, h2, h3, h4, h5 = spec.coefficients
    terms = [
        ("II", h0), ("ZI", h1), ("IZ", h2), ("ZZ", h3), ("YY", h4), ("XX", h5),
    ]
    return PauliSum([(ops, c) for ops, c in terms if c], n=2)


def random_ising(n: int, seed: int) -> IsingSpec:
    """Fully connected instance with couplings and fields uniform on [-2, 2].

    Draw order is fixed (upper-triangle couplings row by row, then the
    fields) so a seed pins the instance exactly.
    """
    if n < 2:
        raise ValueError("random_ising needs n >= 2")
    rng = make_rng(seed, "ising")
    couplings = np.zeros((n, n))
    for q in range(n):
        for j in range(q + 1, n):
            couplings[q, j] = couplings[j, q] = rng.uniform(-2.0, 2.0)
    fields = rng.uniform(-2.0, 2.0, size=n)
    return IsingSpec(n, tuple(map(tuple, couplings)), tuple(fields))


def random_mfi(n: int = 12, seed: int = 0) -> MfiSpec:
    """Random ring with J = -1, h ~ U(0.4, 1) and g ~ U(0.1, 0.6)."""
    rng = make_rng(seed, "mfi")
    return MfiSpec(n=n, J=-1.0, h=rng.uniform(0.4, 1.0), g=rng.uniform(0.1, 0.6))


CONTROL_KINDS = ("y_per_qubit", "z_per_qubit", "global_xyz", "x_mixer")


def standard_controls(kind: str, n: int) -> List[PauliSum]:
    """Named control-Hamiltonian families.

    y_per_qubit: one channel Y_q per qubit.  z_per_qubit: likewise with
    Z_q.  global_xyz: three channels sum X, sum Y, sum Z.  x_mixer: the
    single channel sum_j X_j.
    """
    if kind == "y_per_qubit":
        return [PauliSum([(_op_string(n, {q: "Y"}), 1.0)]) for q in range(n)]
    if kind == "z_per_qubit":
        return [PauliSum([(_op_string(n, {q: "Z"}), 1.0)]) for q in range(n)]
    if kind == "global_xyz":
        return [
            PauliSum([(_op_string(n, {q: letter}), 1.0) for q in range(n)])
            for letter in ("X", "Y", "Z")
        ]
    if kind == "x_mixer":
        return [PauliSum([(_op_string(n, {q: "X"}), 1.0) for q in range(n)])]
    raise ValueError(f"unknown control kind {kind!r}; valid kinds: {CONTROL_KINDS}")
