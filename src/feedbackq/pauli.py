"""Symbolic algebra over n-qubit Pauli strings.

Operators are represented as sums of Pauli strings with complex
coefficients.  A term is an `(ops, coeff)` pair: `PauliSum` is built
from such pairs and `items()` yields them back.  Qubit 0 is the leftmost factor of the tensor product and
the most significant bit of basis-state labels, so the string "ZI" acts
as Z on qubit 0 and identity on qubit 1.

Products, commutators and the statevector kernels all read one map from
letters to bits, `_string_masks` (Aaronson and Gottesman, PRA 70, 052328).

Canonical form: within a sum, no two terms share an ops string,
coefficients below 1e-14 in magnitude are pruned, and terms are ordered
lexicographically with I < X < Y < Z (plain string order does this).
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import Iterable, Iterator, Tuple

PRUNE_TOL = 1e-14
HERMITIAN_TOL = 1e-12

_LETTERS = frozenset("IXYZ")
_FLIP_BITS = str.maketrans("IXYZ", "0110")
_PHASE_BITS = str.maketrans("IXYZ", "0011")
_DIGIT_LETTERS = str.maketrans("0123", "IXZY")  # digit flip + 2 * phase
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)  # i**k at index k


def _check_ops(ops: str) -> str:
    if not ops:
        raise ValueError("Pauli string must cover at least one qubit")
    bad = set(ops) - _LETTERS
    if bad:
        raise ValueError(f"invalid Pauli letters {sorted(bad)} in {ops!r}")
    return ops


@lru_cache(maxsize=None)
def _string_masks(ops: str) -> Tuple[int, int, int]:
    """(flip mask, phase mask, number of Y letters) for one valid Pauli string.

    Qubit 0 is the most significant bit.  X and Y set the flip bit, Z and
    Y the phase bit, so the string is i**n_Y * X^flip * Z^phase.
    """
    return int(ops.translate(_FLIP_BITS), 2), int(ops.translate(_PHASE_BITS), 2), ops.count("Y")


@lru_cache(maxsize=None)
def _mask_string(n: int, xmask: int, zmask: int) -> str:
    """The n-qubit string with these flip and phase masks (inverse of `_string_masks`)."""
    # The masks' binary digits read as decimal numbers add without a carry,
    # so each decimal digit of flip + 2 * phase is one qubit's letter.
    return f"{int(f'{xmask:b}') + 2 * int(f'{zmask:b}'):0{n}d}".translate(_DIGIT_LETTERS)


def _term_products(a: PauliSum, b: PauliSum, anticommuting: bool = False) -> Iterator[Tuple[str, complex]]:
    """(string, ca * cb * phase) of each term pair's product, a's terms outer.

    With masks x, z and Y count y per string, the product's masks are the
    xors and its phase is i**(y_a + y_b - y_ab) * (-1)**popcount(z_a & x_b).
    A pair anticommutes exactly when popcount(x_a & z_b ^ z_a & x_b) is odd;
    `anticommuting` skips every other pair before its product is formed.
    """
    b_terms = [(cb, _string_masks(ops)) for ops, cb in b.items()]
    for ops, ca in a.items():
        xa, za, ya = _string_masks(ops)
        for cb, (xb, zb, yb) in b_terms:
            if anticommuting and not ((xa & zb) ^ (za & xb)).bit_count() & 1:
                continue
            x, z = xa ^ xb, za ^ zb
            k = ya + yb - (x & z).bit_count() + 2 * (za & xb).bit_count()
            yield _mask_string(a.n, x, z), ca * cb * _I_POWERS[k % 4]


class PauliSum:
    """Canonicalized sum of Pauli terms on a fixed qubit count."""

    __slots__ = ("_coeffs", "_n")

    def __init__(self, terms: Iterable[Tuple[str, complex]] = (), n: int | None = None):
        coeffs: dict[str, complex] = {}
        for ops, c in terms:
            _check_ops(ops)
            c = complex(c)
            if n is None:
                n = len(ops)
            elif len(ops) != n:
                raise ValueError(f"qubit count mismatch: {len(ops)} vs {n}")
            coeffs[ops] = coeffs.get(ops, 0j) + c
        if n is None:
            raise ValueError("empty PauliSum needs an explicit qubit count n")
        # A sum of coefficients is finite only when each one is, and NaN
        # would otherwise be pruned (`abs(nan) > PRUNE_TOL` is false).
        if not all(map(cmath.isfinite, coeffs.values())):
            ops = next(ops for ops, c in coeffs.items() if not cmath.isfinite(c))
            raise ValueError(f"coefficient of {ops} is not finite: {coeffs[ops]}")
        self._n = int(n)
        self._coeffs = {
            ops: c for ops, c in sorted(coeffs.items()) if abs(c) > PRUNE_TOL
        }

    @property
    def n(self) -> int:
        return self._n

    @property
    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= HERMITIAN_TOL for c in self._coeffs.values())

    @property
    def is_diagonal(self) -> bool:
        """True when every term uses only I and Z letters."""
        return not any("X" in ops or "Y" in ops for ops in self._coeffs)

    def coefficient(self, ops: str) -> complex:
        return self._coeffs.get(ops, 0j)

    @property
    def identity_coefficient(self) -> complex:
        return self._coeffs.get("I" * self._n, 0j)

    def items(self) -> Iterator[Tuple[str, complex]]:
        return iter(self._coeffs.items())

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self._n == other._n and self._coeffs == other._coeffs

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        return PauliSum(list(self.items()) + list(other.items()), n=self._n)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum([(ops, c * scalar) for ops, c in self._coeffs.items()], n=self._n)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        # The constructor call, so any sum has one (format_sum takes only real ones).
        return f"PauliSum({list(self.items())!r}, n={self._n})"

    def __str__(self) -> str:
        return format_sum(self)


def product(a: PauliSum, b: PauliSum) -> PauliSum:
    """Full operator product a*b expanded back into a canonical sum."""
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} vs {b.n}")
    return PauliSum(_term_products(a, b), n=a.n)


def commutator_i(a: PauliSum, b: PauliSum) -> PauliSum:
    """Canonicalized expansion of i[a, b] = i(ab - ba) for hermitian sums.

    Pairs of commuting strings cancel exactly and are skipped; for an
    anticommuting pair i(ab - ba) = 2i*ab, so each surviving pair
    contributes a single product term.  The result is hermitian: each
    term keeps the real part of 2i*ab, dropping the imaginary parts up to
    `HERMITIAN_TOL` of the inputs' coefficients would carry into it.
    """
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} vs {b.n}")
    if not (a.is_hermitian and b.is_hermitian):
        raise ValueError("commutator_i expects hermitian inputs")
    return PauliSum([(ops, (2j * c).real) for ops, c in _term_products(a, b, True)], n=a.n)


def one_norm(h: PauliSum) -> float:
    """Sum of absolute coefficients, excluding the all-identity term."""
    ident = "I" * h.n
    return float(sum(abs(c) for ops, c in h.items() if ops != ident))


def format_sum(h: PauliSum) -> str:
    """Render a sum as `+1.0*ZI +2.0*IZ +0.5*ZZ` (terms in canonical order)."""
    parts = []
    for ops, c in h.items():
        if abs(c.imag) > HERMITIAN_TOL:
            raise ValueError(f"cannot format non-real coefficient {c} for {ops}")
        v = c.real
        sign = "-" if v < 0 else "+"
        parts.append(f"{sign}{abs(v)!r}*{ops}")
    return " ".join(parts) if parts else "0"

def parse_sum(text: str, n: int | None = None) -> PauliSum:
    """Inverse of format_sum.  The qubit count is taken from the first term
    unless the text is the empty sum "0", in which case n is required."""
    stripped = text.strip()
    if stripped == "0" or not stripped:
        if n is None:
            raise ValueError("parsing an empty sum requires an explicit n")
        return PauliSum((), n=n)
    terms = []
    for token in stripped.split():
        if "*" not in token:
            raise ValueError(f"malformed term {token!r} (expected COEFF*OPS)")
        coeff_text, ops = token.rsplit("*", 1)
        terms.append((_check_ops(ops), float(coeff_text)))
    return PauliSum(terms, n=n)
