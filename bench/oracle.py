"""Independent dense reference for the first layers of a feedback run.

Nothing here calls the package's Pauli algebra or statevector engine.
Operators are built from 2x2 matrices with np.kron, spectra come from
np.linalg.eigh (or a sort, for diagonal drifts), and the layer is
re-derived from its definition:

    psi <- exp(-i dt H0) psi, then exp(-i u_q dt H_q) psi per channel,
    V = <psi|P|psi>,  P = H0 + sum_j alpha_j |q_j><q_j|,
    u_q = -K_q <psi| i[H_q, P] |psi> = 2 K_q Im <H_q psi | P psi>.

A non-diagonal drift is applied as the same first-order product formula
the package uses: one exp(-i c dt O) factor per term, in sorted term
order.  Control channels in the benchmark are sums of commuting
single-qubit letters, so their exponential is a kron of 2x2 rotations.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(ops):
    """Dense matrix of one Pauli string, qubit 0 leftmost."""
    return reduce(np.kron, [_PAULI[c] for c in ops])


class Monomial:
    """A Pauli string kept as its column -> (row, value) map.

    Built from the dense kron matrix, which has exactly one nonzero per
    column, so the 2**n x 2**n array need not be kept.
    """

    def __init__(self, ops):
        mat = dense_pauli(ops)
        cols = np.arange(mat.shape[0])
        self.rows = np.argmax(np.abs(mat), axis=0)
        self.vals = mat[self.rows, cols]
        self.ops = ops

    def apply(self, psi):
        out = np.empty_like(psi)
        out[self.rows] = self.vals * psi
        return out


class TermSum:
    """Real-coefficient sum of Pauli strings acting by matrix-vector products."""

    def __init__(self, terms):
        self.terms = [(float(c), Monomial(ops)) for ops, c in sorted(terms)]

    def apply(self, psi):
        out = np.zeros_like(psi)
        for c, mono in self.terms:
            out += c * mono.apply(psi)
        return out

    def dense(self):
        dim = self.terms[0][1].rows.size
        mat = np.zeros((dim, dim), dtype=complex)
        cols = np.arange(dim)
        for c, mono in self.terms:
            mat[mono.rows, cols] += c * mono.vals
        return mat

    def product_step(self, psi, dt):
        """First-order product formula over the sorted terms."""
        for c, mono in self.terms:
            theta = c * dt
            psi = np.cos(theta) * psi - 1j * np.sin(theta) * mono.apply(psi)
        return psi


def ising_terms(couplings, fields):
    n = len(fields)
    terms = []
    for q in range(n):
        if fields[q]:
            terms.append(("".join("Z" if k == q else "I" for k in range(n)), fields[q]))
        for j in range(q + 1, n):
            if couplings[q][j]:
                ops = "".join("Z" if k in (q, j) else "I" for k in range(n))
                terms.append((ops, couplings[q][j]))
    return terms


def mfi_terms(n, J, h, g):
    terms = []
    for q in range(n):
        nxt = (q + 1) % n
        if J:
            terms.append(("".join("Z" if k in (q, nxt) else "I" for k in range(n)), J))
        if h:
            terms.append(("".join("X" if k == q else "I" for k in range(n)), h))
        if g:
            terms.append(("".join("Z" if k == q else "I" for k in range(n)), g))
    return terms


def control_letters(kind, n):
    """Per channel, the letter it puts on each qubit it touches."""
    if kind == "x_mixer":
        return [{q: "X" for q in range(n)}]
    if kind == "y_per_qubit":
        return [{q: "Y"} for q in range(n)]
    if kind == "z_per_qubit":
        return [{q: "Z"} for q in range(n)]
    if kind == "global_xyz":
        return [{q: a for q in range(n)} for a in "XYZ"]
    raise ValueError(f"oracle has no control family {kind!r}")


def channel_unitary(letters, n, theta):
    """exp(-i theta sum_q sigma_q) for commuting single-qubit letters."""
    factors = []
    for q in range(n):
        if q in letters:
            sigma = _PAULI[letters[q]]
            factors.append(np.cos(theta) * _PAULI["I"] - 1j * np.sin(theta) * sigma)
        else:
            factors.append(_PAULI["I"])
    return reduce(np.kron, factors)


class Problem:
    """Drift, controls, one projector shift and a tracked target, densely."""

    def __init__(self, n, drift_terms, diagonal, control_kind, alpha, dt, gains):
        self.n = n
        self.dt = dt
        self.gains = tuple(gains)
        self.alpha = alpha
        self.h0 = TermSum(drift_terms)
        self.letters = control_letters(control_kind, n)
        self.ctrls = [
            TermSum([("".join(a if k == q else "I" for k in range(n)), 1.0) for q, a in ch.items()])
            for ch in self.letters
        ]
        if diagonal:
            self.diag = self.h0.apply(np.ones(1 << n, dtype=complex)).real
            order = np.argsort(self.diag, kind="stable")
            self.levels = self.diag[order[:3]]
            self.ground = np.zeros(1 << n, dtype=complex)
            self.ground[order[0]] = 1.0
            self.target = np.zeros(1 << n, dtype=complex)
            self.target[order[1]] = 1.0
        else:
            self.diag = None
            evals, evecs = np.linalg.eigh(self.h0.dense())
            self.levels = evals[:3]
            self.ground = evecs[:, 0]
            self.target = evecs[:, 1]
        gaps = np.diff(self.levels)
        if np.min(gaps) < 1e-8:
            raise ValueError(f"oracle needs non-degenerate low levels, gaps {gaps}")

    def drift(self, psi):
        if self.diag is not None:
            return np.exp(-1j * self.dt * self.diag) * psi
        return self.h0.product_step(psi, self.dt)

    def p_apply(self, psi):
        return self.h0.apply(psi) + self.alpha * self.ground * np.vdot(self.ground, psi)

    def diagnostics(self, psi):
        v = float(np.vdot(psi, self.p_apply(psi)).real)
        e = float(np.vdot(psi, self.h0.apply(psi)).real)
        f = float(abs(np.vdot(self.target, psi)) ** 2)
        return v, e, f

    def law(self, psi):
        p_psi = self.p_apply(psi)
        return [
            2.0 * k * float(np.vdot(h.apply(psi), p_psi).imag)
            for k, h in zip(self.gains, self.ctrls)
        ]

    def replay(self, layers, applied=None):
        """Rows (controls, V, energy, fidelity) for the first `layers` layers.

        With `applied` given, the state follows those controls (used for
        sampled controllers) and `law` still reports the exact controls
        each state implies; otherwise the oracle feeds its own law back.
        Returns (controls_applied, laws, diagnostics) with laws[k] the
        exact controls computed from the state after layer k+1.
        """
        dim = 1 << self.n
        psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
        controls = [0.0] * len(self.ctrls)
        used, laws, diags = [], [], []
        for k in range(layers):
            if applied is not None:
                controls = list(applied[k])
            psi = self.drift(psi)
            for q, u in enumerate(controls):
                if u != 0.0:
                    psi = channel_unitary(self.letters[q], self.n, u * self.dt) @ psi
            used.append(list(controls))
            diags.append(self.diagnostics(psi))
            laws.append(self.law(psi))
            controls = laws[-1]
        return np.array(used), np.array(laws), np.array(diags)

    def shot_sigma(self, backend, shots):
        """Upper bound on each sampled control's standard deviation.

        Every sampled scalar is a mean of +/-1 outcomes (variance <= 1
        per shot, 1/4 for a zero fraction); the bound adds the standard
        deviations of all sampled pieces, weighted by their coefficients.
        """
        c0 = np.array([c for c, mono in self.h0.terms if set(mono.ops) != {"I"}])
        out = []
        for k, h in zip(self.gains, self.ctrls):
            cq = np.array([c for c, _ in h.terms])
            if backend == "grad_psr":
                lam = np.sqrt(np.sum(cq**2))
                sigma_v = np.sqrt(np.sum(c0**2) + self.alpha**2 / 4.0)
                out.append(k * lam * np.sqrt(2.0) * sigma_v / np.sqrt(shots))
            elif backend == "overlap_hadamard":
                comm = 2.0 * np.sum(np.abs(cq)) * np.sum(np.abs(c0))
                cross = 2.0 * self.alpha * np.sqrt(2.0) * (
                    np.sqrt(np.sum(cq**2)) + np.sum(np.abs(cq))
                )
                out.append(k * (comm + cross) / np.sqrt(shots))
            else:
                raise ValueError(f"no shot-noise bound for backend {backend!r}")
        return np.array(out)
