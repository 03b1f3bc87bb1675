"""Dense matrix oracles built straight from Kronecker products.

Everything here is deliberately independent of the package internals:
operators are assembled letter by letter with ``np.kron`` and evolved
through eigendecompositions, so any agreement with the fast masked
kernels is a genuine cross-check rather than a shared-code tautology.
The one masked kernel here, `reference_pauli_action`, pins the package
kernel's floating-point bits, not its algebra.
"""

from __future__ import annotations

import numpy as np

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def dense_string(ops: str) -> np.ndarray:
    """Kronecker product with qubit 0 as the leftmost (most significant) factor."""
    out = np.array([[1.0 + 0.0j]])
    for letter in ops:
        out = np.kron(out, SINGLE[letter])
    return out


def dense_sum(terms) -> np.ndarray:
    """Dense matrix of a list of (pauli string, coefficient) pairs."""
    first = terms[0][0]
    dim = 2 ** len(first)
    out = np.zeros((dim, dim), dtype=complex)
    for ops, coeff in terms:
        out = out + complex(coeff) * dense_string(ops)
    return out


def dense_commutator_i(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 1.0j * (a @ b - b @ a)


def dense_expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) for hermitian H via eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1.0j * t * vals)) @ vecs.conj().T


def dense_evolve(amps: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    return dense_expm_unitary(h, t) @ amps


def random_pauli_terms(rng: np.random.Generator, n: int, count: int, real: bool = True):
    """Distinct random strings with coefficients suitable for a hermitian sum."""
    seen = {}
    count = min(count, 4 ** n)
    while len(seen) < count:
        ops = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        coeff = float(rng.uniform(-2.0, 2.0))
        if not real:
            coeff = complex(coeff, float(rng.uniform(-2.0, 2.0)))
        seen[ops] = coeff
    return list(seen.items())


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1.0j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def dense_controller(state, h_ctrl, h0, shifts, gain: float) -> float:
    """-K <psi| i[H_q, H0 + sum_j alpha_j |q_j><q_j|] |psi> from dense matrices.

    ``h_ctrl`` and ``h0`` are iterables of (pauli string, coefficient)
    pairs, ``shifts`` holds (alpha, reference amplitudes) pairs and
    ``state`` is an amplitude vector.
    """
    p = dense_sum(list(h0))
    for alpha, ref in shifts:
        p = p + alpha * np.outer(ref, np.conj(ref))
    comm = dense_commutator_i(dense_sum(list(h_ctrl)), p)
    return float(-gain * np.vdot(state, comm @ state).real)


def seed_sequence(seed: int, path) -> np.random.SeedSequence:
    """numpy's own keying of a (seed, split path) pair, the stream reference."""
    return np.random.SeedSequence(seed, spawn_key=path)


def philox_stream(seed: int, path) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_sequence(seed, path)))


def reference_pauli_action(amps: np.ndarray, ops: str) -> np.ndarray:
    """O|psi> in the arithmetic of the earlier two-pass kernel.

    Gather the flipped amplitudes, multiply by the int8 +/-1 signs, then
    multiply by 1j for an odd Y count.  A faster kernel must reproduce
    these bits exactly, not only to rounding.
    """
    n = len(ops)
    idx = np.arange(1 << n)
    xmask = sum(1 << (n - 1 - q) for q, letter in enumerate(ops) if letter in "XY")
    zmask = sum(1 << (n - 1 - q) for q, letter in enumerate(ops) if letter in "ZY")
    ny = ops.count("Y")
    parity = np.array([bin(v).count("1") & 1 for v in ((idx ^ xmask) & zmask).tolist()])
    sign = ((1 - 2 * parity) * (-1 if ny % 4 >= 2 else 1)).astype(np.int8)
    if xmask:
        out = amps[idx ^ xmask]
        if zmask:
            out *= sign
    elif zmask:
        out = amps * sign
    else:
        out = amps.copy()
    if ny % 2:
        out *= 1j
    return out


def reference_pauli_exp(amps: np.ndarray, ops: str, angle: float) -> np.ndarray:
    """exp(-i*angle*O)|psi> as c*psi - 1j*s*(O psi), on the reference action."""
    c, s = np.cos(angle), np.sin(angle)
    return c * amps - 1j * s * reference_pauli_action(amps, ops)
