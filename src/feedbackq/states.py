"""Dense statevector engine.

Amplitude index convention matches the Pauli-string convention: qubit 0
is the most significant bit, so for two qubits the amplitudes are
ordered |00>, |01>, |10>, |11>.

Pauli strings never become dense matrices here.  Each string acts as an
index permutation plus a phase, read from `pauli._string_masks`: X and
Y flip the bits of the flip mask, while Z and Y contribute (-1) phases
read off the input index through the phase mask.  Exponentials use
the closed form exp(-i*t*O) = cos(t)*1 - i*sin(t)*O, valid because every
Pauli string squares to the identity.

The permutation and the phases are built once per string and kept as
one read-only `_Kernel` record, the only kind of entry in `_KERNELS`: a
gather index (int64, 8 bytes per amplitude) and a complex128 phase
vector (16 bytes per amplitude), the signs times 1j for an odd number
of Y letters.  Strings with the same flip mask share one gather array,
built by their X-only string (that flip mask, no phase bits).  Applying
a string is one lookup, one gather and one multiply.
`KERNEL_CACHE_BYTES` bounds what is kept: a 10-qubit Ising run with the
sum-X mixer keeps 166 records, counted as 3360 KiB for 2560 KiB of
distinct arrays.

A `TrotterPlan` applied again at the same step folds its factors for
that step: each factor's cosine and the exact vector -1j*sin(angle) *
phase, when all of the plan's folded vectors fit in `KERNEL_CACHE_BYTES`.
A folded factor is still one `_pauli_action`, given the folded vector for
the phase, plus the cosine term: three array passes for an I/Z string
instead of four.

A whole sum compiles from the phases into one `CompiledSum`: one
coefficient row per flip mask, with the flip gathers built on its first
`matvec`.  `dense_matrix` and `diagonal_values` read it, and so do
`matrix_element_blocks` and the matrix-free Lanczos route of
`reference_spectrum`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .pauli import HERMITIAN_TOL, PauliSum, _check_ops, _mask_string, _string_masks

NORM_TOL = 1e-9
DENSE_QUBIT_LIMIT = 12
DIAGONAL_QUBIT_LIMIT = 26
KERNEL_CACHE_BYTES = 64 << 20
DEGENERACY_TOL = 1e-9
# `matrix_element_blocks` splits the columns into this many blocks, so
# each temporary holds 1/16 of a 2**n x 2**n matrix.
_ELEMENT_BLOCKS = 16

# Lanczos reference spectra: stop when every wanted Ritz residual is at
# most _LANCZOS_TOL * one_norm(h) and refuse a returned pair whose true
# residual exceeds _RESIDUAL_CHECK times that.  A count-bounded spectrum
# takes Lanczos when 2**n >= max(_LANCZOS_MIN_DIM, _LANCZOS_LEVELS_PER_PAIR
# * count), the measured crossover with dense_eigh (README "Reference
# spectra").  A Lanczos run holds at most _LANCZOS_BASIS vectors beyond
# the locked ones and restarts from its lowest _LANCZOS_KEEP Ritz vectors.
_LANCZOS_TOL = 1e-13
_RESIDUAL_CHECK = 10.0
_LANCZOS_MIN_DIM = 256
_LANCZOS_LEVELS_PER_PAIR = 32
_LANCZOS_BASIS = 24
_LANCZOS_KEEP = 10
_LANCZOS_MAX_STEPS = 1000
_LANCZOS_SEED = 0x5EED


class _Kernel(NamedTuple):
    """One string's action: out[i] = amps[gather[i]] * phase[i], either part optional."""

    gather: Optional[np.ndarray]
    phase: Optional[np.ndarray]

    @property
    def nbytes(self) -> int:
        # A gather shared with other kernels counts once per holder, so the
        # cache's byte total bounds everything it keeps alive.
        return sum(arr.nbytes for arr in self if arr is not None)


class _KernelCache:
    """One read-only `_Kernel` per Pauli string under a byte budget, oldest evicted first.

    Lookups take no lock; inserting takes one, so concurrent callers keep
    the byte count exact.  A kernel larger than the whole budget is built
    on every request and never kept.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._arrays: Dict[str, _Kernel] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, ops: str, build: Callable[[str], _Kernel]) -> _Kernel:
        kernel = self._arrays.get(ops)
        if kernel is not None:
            return kernel
        kernel = build(ops)
        for arr in kernel:
            if arr is not None:
                arr.flags.writeable = False
        if kernel.nbytes <= self.max_bytes:
            with self._lock:
                if ops not in self._arrays:
                    self._arrays[ops] = kernel
                    self._bytes += kernel.nbytes
                while self._bytes > self.max_bytes:
                    self._bytes -= self._arrays.pop(next(iter(self._arrays))).nbytes
        return kernel


_KERNELS = _KernelCache(KERNEL_CACHE_BYTES)


def _build_kernel(ops: str) -> _Kernel:
    _check_ops(ops)
    xmask, zmask, ny = _string_masks(ops)
    idx = np.arange(1 << len(ops), dtype=np.int64)
    idx ^= xmask  # output i reads amps[i ^ xmask]
    if not zmask:  # I and X letters only
        return _Kernel(idx if xmask else None, None)
    # The phase of output i is i**n_Y * (-1)**popcount((i ^ xmask) & zmask).
    idx &= zmask
    odd = np.bitwise_count(idx)
    odd &= 1
    sign = -1.0 if ny % 4 >= 2 else 1.0
    # complex128 even for real signs: numpy has no complex x int8 multiply,
    # so an int8 phase would be cast to these same values on every use.
    phase = np.zeros(1 << len(ops), dtype=np.complex128)
    part = phase.imag if ny % 2 else phase.real
    np.multiply(odd, -2.0 * sign, out=part)  # sign * (1 - 2 * odd), in place
    part += sign
    # Every string with this flip mask shares the gather of its X-only
    # string, the one with no phase bits.
    gather = _kernel(_mask_string(len(ops), xmask, 0)).gather if xmask else None
    return _Kernel(gather, phase)


def _kernel(ops: str) -> _Kernel:
    """The string's gather index (None without X/Y) and phase (None for X-only).

    The phase is complex128: the +/-1 signs, times 1j for an odd Y count.
    Only a valid string gets a kernel, so a kept one marks `ops` as
    checked.
    """
    return _KERNELS.get(ops, _build_kernel)


def _pauli_action(amps: np.ndarray, ops: str, phase: Optional[np.ndarray] = None) -> np.ndarray:
    """Return O|psi> as a fresh amplitude array.

    A given `phase` stands in for the string's own: a repeated
    `TrotterPlan` passes its folded -1j*sin(angle)*phase.  An I/Z string
    then reads no kernel record at all.
    """
    # A hit is one dict read; `_kernel` builds and keeps on a miss.
    if phase is None:
        gather, phase = _KERNELS._arrays.get(ops) or _kernel(ops)
    elif _string_masks(ops)[0]:
        gather = (_KERNELS._arrays.get(ops) or _kernel(ops)).gather
    else:
        return amps * phase
    if gather is None:
        return amps.copy() if phase is None else amps * phase
    out = amps[gather]
    if phase is not None:
        out *= phase
    return out


class StateVector:
    """Unit-norm amplitude vector over 2**n basis states."""

    __slots__ = ("amps", "n")

    def __init__(self, amps: Sequence[complex], copy: bool = True):
        arr = np.array(amps, dtype=np.complex128, copy=copy)
        if arr.ndim != 1 or arr.size == 0 or arr.size & (arr.size - 1):
            raise ValueError("amplitude count must be a power of two")
        norm_sq = float(np.vdot(arr, arr).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm^2 = {norm_sq!r} is not 1 within {NORM_TOL}")
        self.amps = arr
        self.n = arr.size.bit_length() - 1

    @classmethod
    def from_amplitudes(cls, amps: Sequence[complex]) -> "StateVector":
        """Construct from an unnormalized vector, rescaling to unit norm."""
        arr = np.asarray(amps, dtype=np.complex128)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / norm, copy=False)

    @classmethod
    def basis(cls, n: int, label) -> "StateVector":
        """Computational basis state from an integer index or a bit string like "01"."""
        if isinstance(label, str):
            if len(label) != n or set(label) - {"0", "1"}:
                raise ValueError(f"bit string {label!r} does not address {n} qubits")
            index = int(label, 2)
        else:
            index = int(label)
        if not 0 <= index < (1 << n):
            raise ValueError(f"basis index {index} out of range for {n} qubits")
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps, copy=False)

    @classmethod
    def plus(cls, n: int) -> "StateVector":
        """|+>^n, the uniform superposition."""
        dim = 1 << n
        return cls(np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128), copy=False)

    def copy(self) -> "StateVector":
        return StateVector(self.amps, copy=True)

    def __repr__(self) -> str:
        return f"StateVector(n={self.n})"


def _check_same_n(a_n: int, b_n: int) -> None:
    if a_n != b_n:
        raise ValueError(f"qubit count mismatch: {a_n} vs {b_n}")


def _check_count(name: str, value) -> None:
    """Refuse anything but a Python or numpy integer >= 1; a bool is refused too."""
    # Exact type tests: an isinstance check against numbers.Integral costs
    # about 1 us, and this runs on every plan application.
    if (type(value) is not int and not isinstance(value, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def apply_pauli(state: StateVector, ops: str) -> np.ndarray:
    """O|psi> as a raw amplitude array (not unit norm in general contexts)."""
    if not isinstance(ops, str) or ops not in _KERNELS._arrays:
        _check_ops(ops)
    _check_same_n(len(ops), state.n)
    return _pauli_action(state.amps, ops)


def _exp_amps(amps: np.ndarray, ops: str, angle: float) -> np.ndarray:
    # math's trig on a Python float gives np.cos/np.sin's bits at a third of the cost.
    c, s = math.cos(angle), math.sin(angle)
    # Bit for bit c*amps - 1j*s*(O psi): each component of -1j*s*(O psi)
    # pairs one real product with an exact zero.  Only an exactly zero part
    # of amps may come back as a zero of the other sign.
    out = _pauli_action(amps, ops)
    out *= -1j * s
    out += c * amps
    return out


def apply_pauli_exp(state: StateVector, ops: str, angle: float) -> StateVector:
    """exp(-i*angle*O)|psi> for a single Pauli string O."""
    _check_ops(ops)
    _check_same_n(len(ops), state.n)
    if not np.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    return StateVector(_exp_amps(state.amps, ops, float(angle)), copy=False)


@dataclass(frozen=True)
class TrotterPlan:
    """Frozen factor order for first-order product-formula steps.

    One application advances by dt (times an optional scale folded into
    every factor angle, used for control unitaries exp(-i*u*dt*H)).

    A plan applied again at the step it was last applied at (or once
    with slices > 1) folds its factors for that step: per factor the
    cosine and, for a string with a phase, the vector -1j*sin(angle) *
    phase, when all of them fit in `KERNEL_CACHE_BYTES`.  A
    folded factor is one `_pauli_action` with the folded vector plus
    cos * psi, the same bits as `_exp_amps` in one pass fewer; X-only
    and unfolded factors take `_exp_amps`.
    """

    factors: Tuple[Tuple[str, float], ...]
    dt: float
    # (step, folded factors or None) of the last application.
    _fold: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    @classmethod
    def from_sum(cls, h: PauliSum, dt: float) -> "TrotterPlan":
        if not h.is_hermitian:
            raise ValueError("Trotter plans require a hermitian sum")
        return cls(tuple((ops, c.real) for ops, c in h.items()), float(dt))

    def apply(self, state: StateVector, scale: float = 1.0, slices: int = 1) -> StateVector:
        _check_count("slices", slices)
        amps = state.amps
        step = self.dt * scale / slices
        last, folded = self._fold
        if last != step:
            folded = self._folded(step) if slices > 1 else None
        elif folded is None:
            folded = self._folded(step)
        object.__setattr__(self, "_fold", (step, folded))
        factors = folded or [(ops, coeff * step, None, None) for ops, coeff in self.factors]
        for _ in range(slices):
            for ops, angle, c, vec in factors:
                if vec is None:
                    amps = _exp_amps(amps, ops, angle)
                else:
                    out = _pauli_action(amps, ops, vec)
                    out += c * amps
                    amps = out
        return StateVector(amps, copy=False)

    def _folded(self, step: float) -> Tuple[Tuple[str, float, complex, Optional[np.ndarray]], ...]:
        """(ops, angle, cos(angle), -1j*sin(angle) * phase) per factor.

        The vector is None for an X-only string, and for every factor when
        the plan's folded vectors would not all fit in `KERNEL_CACHE_BYTES`.
        Every phase entry is +/-1 or +/-1j, so the vector is exact and the
        one multiply by it gives the bits of `_exp_amps`'s two.
        """
        phases = [_kernel(ops).phase for ops, _ in self.factors]
        fits = sum(p.nbytes for p in phases if p is not None) <= KERNEL_CACHE_BYTES
        folded = []
        for (ops, coeff), phase in zip(self.factors, phases):
            angle = coeff * step
            if phase is None or not fits:
                folded.append((ops, angle, None, None))
                continue
            # A complex cosine multiplies as the float one does (numpy casts the
            # float to complex first) with less per-call work.
            c = complex(math.cos(angle))
            folded.append((ops, angle, c, phase * (-1j * math.sin(angle))))
        return tuple(folded)


def apply_sum_trotter(state: StateVector, h: PauliSum, t: float, slices: int = 1) -> StateVector:
    """First-order Trotter step exp(-i*c_1*t*O_1)...exp(-i*c_m*t*O_m)|psi>.

    Factors run in the canonical term order of h; exact whenever all
    terms commute (diagonal sums in particular).
    """
    _check_same_n(h.n, state.n)
    return TrotterPlan.from_sum(h, t).apply(state, slices=slices)


def pauli_expectation(state: StateVector, ops: str) -> float:
    """<psi|O|psi> for one Pauli string (real by hermiticity)."""
    return float(np.vdot(state.amps, apply_pauli(state, ops)).real)


def pauli_matrix_element(a: StateVector, ops: str, b: StateVector) -> complex:
    """<a|O|b> for one Pauli string."""
    _check_same_n(a.n, b.n)
    return complex(np.vdot(a.amps, apply_pauli(b, ops)))


def expectation(state: StateVector, h: PauliSum) -> float:
    """<psi|H|psi> for a hermitian sum; the imaginary residue must vanish.

    The residue may reach 1e-10 of rounding plus `HERMITIAN_TOL` per term,
    the imaginary part `PauliSum.is_hermitian` allows each coefficient.
    """
    _check_same_n(h.n, state.n)
    total = 0j
    for ops, coeff in h.items():
        total += coeff * np.vdot(state.amps, _pauli_action(state.amps, ops))
    if abs(total.imag) > 1e-10 + HERMITIAN_TOL * len(h):
        raise ValueError(f"imaginary residue {total.imag} in expectation of a hermitian sum")
    return float(total.real)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>."""
    _check_same_n(a.n, b.n)
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|**2."""
    return abs(inner(a, b)) ** 2


class CompiledSum:
    """A Pauli sum as one coefficient row per X/Y flip mask.

    (H psi)[i] = scale * sum over r of rows[r, i] * psi[i ^ masks[r]].
    Masks keep their first appearance in the canonical term order, and
    strings sharing a mask are added in that order, so each entry is the
    same floating-point sum as the matrix element it stands for.  Rows are
    float64 for a real sum (real coefficients, an even Y count in every
    string), else complex128 with an odd Y count's 1j taken from the
    phase.  Purely imaginary rows (single-Y strings, say) are kept as
    their float64 imaginary parts with `scale` 1j.
    """

    def __init__(self, h: PauliSum):
        terms = [(ops, coeff, *_string_masks(ops)) for ops, coeff in h.items()]
        self.real = all(coeff.imag == 0 and ny % 2 == 0 for _, coeff, _, _, ny in terms)
        self.masks = list(dict.fromkeys(xmask for _, _, xmask, _, _ in terms))
        rows = np.zeros((len(self.masks), 1 << h.n), dtype=np.float64 if self.real else np.complex128)
        row_of = dict(zip(self.masks, rows))
        for ops, coeff, xmask, _, _ in terms:
            phase = _kernel(ops).phase
            if self.real:
                coeff, phase = coeff.real, None if phase is None else phase.real
            row_of[xmask] += coeff if phase is None else coeff * phase  # in place: a view of rows
        self.scale = 1.0 if self.real or rows.real.any() else 1j
        self.rows = rows if self.scale == 1 else np.ascontiguousarray(rows.imag)
        self._gathers: Optional[np.ndarray] = None  # built by the first matvec

    def dense(self) -> np.ndarray:
        """H as a 2**n x 2**n array: float64 for a real sum, complex128 otherwise."""
        idx = np.arange(self.rows.shape[1], dtype=np.int64)
        mat = np.zeros((idx.size, idx.size), dtype=np.float64 if self.real else np.complex128)
        part = mat if self.scale == 1 else mat.imag
        for xmask, row in zip(self.masks, self.rows):
            part[idx, idx ^ xmask] += row
        return mat

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """(H / scale) v for a vector (one einsum) or a (2**n, w) block (one gather per mask)."""
        if self._gathers is None:
            idx = np.arange(self.rows.shape[1], dtype=np.int64)
            self._gathers = idx ^ np.array(self.masks, dtype=np.int64)[:, None]
        if v.ndim == 1:
            return np.einsum("ri,ri->i", self.rows, v[self._gathers])
        out = np.zeros(v.shape, dtype=np.result_type(v, self.rows))
        for gather, row in zip(self._gathers, self.rows):
            out += row[:, None] * v[gather]
        return out


def diagonal_values(h: PauliSum) -> np.ndarray:
    """Dense diagonal of a sum containing only I and Z letters: its real part, float64."""
    if not h.is_diagonal:
        raise ValueError("diagonal_values requires an I/Z-only sum")
    return _diagonal(h)


def _diagonal(h: PauliSum) -> np.ndarray:
    """`diagonal_values` for a sum already known to be I/Z-only."""
    if h.n > DIAGONAL_QUBIT_LIMIT:
        raise ValueError(f"diagonal path supports n <= {DIAGONAL_QUBIT_LIMIT}")
    compiled = CompiledSum(h)
    if not compiled.masks or compiled.scale != 1:  # no terms, or no real part
        return np.zeros(1 << h.n, dtype=np.float64)
    return np.ascontiguousarray(compiled.rows[0].real)


def dense_matrix(h: PauliSum) -> np.ndarray:
    """Dense 2**n x 2**n matrix of a sum (n <= 12 guard for memory).

    float64 for a real sum (real coefficients and an even number of Y
    letters in every string), complex128 otherwise.
    """
    if h.n > DENSE_QUBIT_LIMIT:
        raise ValueError(f"dense path supports n <= {DENSE_QUBIT_LIMIT}")
    return CompiledSum(h).dense()


def dense_eigh(h: PauliSum) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of a hermitian sum.

    The eigenvectors share the dtype of `dense_matrix(h)`: a real sum is
    diagonalized in float64, several times faster than complex128, and
    its eigenvectors are real.
    """
    if not h.is_hermitian:
        raise ValueError("dense_eigh requires a hermitian sum")
    return np.linalg.eigh(dense_matrix(h))


def matrix_element_blocks(h: PauliSum, basis: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (start, basis^H H basis[:, start:start + width]) for each column block.

    The columns split into `_ELEMENT_BLOCKS` blocks of `width` columns.
    H acts through `CompiledSum.matvec` on each column block, so no
    2**n x 2**n array other than `basis` is formed.  Neither a conjugate
    nor a complex copy of `basis` is made: a real basis meets a complex
    block's real and imaginary parts separately.  A purely imaginary sum
    (single-Y strings, say) compiles to real rows and `scale` 1j, so a
    real basis takes one real product per block.
    """
    dim = 1 << h.n
    if basis.ndim != 2 or basis.shape[0] != dim:
        raise ValueError(f"basis must have {dim} rows, got shape {basis.shape}")
    compiled = CompiledSum(h)
    columns = basis.shape[1]
    width = -(-columns // _ELEMENT_BLOCKS)
    for start in range(0, columns, width):
        hv = compiled.matvec(basis[:, start : start + width])
        if np.iscomplexobj(basis):
            block = np.conj(basis.T @ np.conj(hv))
        elif np.iscomplexobj(hv):
            block = basis.T @ hv.real + 1j * (basis.T @ hv.imag)
        else:
            block = basis.T @ hv
        yield start, block if compiled.scale == 1 else compiled.scale * block


def _krylov_lowest(apply, k: int, locked: np.ndarray, start: np.ndarray, tol: float):
    """Lowest k <= _LANCZOS_KEEP Ritz pairs of a thick-restart Lanczos run
    kept orthogonal to `locked`.

    The basis holds at most _LANCZOS_BASIS vectors after the locked rows.
    Each step is the three-term recurrence (against the restart's Ritz
    vectors right after a restart) plus one full reorthogonalization
    against the locked rows and the basis.  The projected matrix,
    tridiagonal with an arrowhead after a restart, is solved only when the
    basis is full, when the Krylov space closes or at the step limit.  The
    run stops when every wanted pair's residual |beta * s_mi| is at most
    `tol`, or when the space closes (then fewer than k pairs may come
    back, none when `locked` already spans the space).  Otherwise it
    restarts from the lowest _LANCZOS_KEEP Ritz vectors plus the residual
    direction (Wu and Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)).
    Ritz pairs come back as rows.
    """
    dim = start.size
    first = len(locked)
    room = dim - first
    size = min(room, _LANCZOS_BASIS)
    rows = np.empty((first + size, dim), dtype=start.dtype)
    rows[:first] = locked
    basis = rows[first:]
    complex_rows = np.iscomplexobj(rows)

    def orthogonalize(w: np.ndarray, upto: int) -> None:
        if upto:
            q = rows[:upto]
            if complex_rows:
                w -= np.conj(q @ np.conj(w)) @ q
            else:
                w -= (q @ w) @ q

    v = start
    for _ in range(2):
        orthogonalize(v, first)
    norm = float(np.linalg.norm(v))
    if not room or norm <= tol:
        return np.empty(0), np.empty((0, dim), dtype=start.dtype)
    basis[0] = v / norm
    t = np.zeros((size, size))
    m = kept = 0  # basis vectors whose column of t is complete; Ritz vectors kept
    for step in range(1, _LANCZOS_MAX_STEPS + 1):
        v = basis[m]
        w = apply(v)
        t[m, m] = alpha = float(np.vdot(v, w).real)
        w -= alpha * v
        lo = m - 1 if m > kept else 0
        w -= t[lo:m, m] @ basis[lo:m]
        orthogonalize(w, first + m + 1)
        beta = math.sqrt(np.vdot(w, w).real)
        m += 1
        closed = m == room or beta <= tol
        if closed or m == size or step == _LANCZOS_MAX_STEPS:
            theta, s = np.linalg.eigh(t[:m, :m])
            if closed or beta * np.abs(s[-1, :k]).max() <= tol:
                return theta[:k], s[:, :k].T @ basis[:m]
            if step == _LANCZOS_MAX_STEPS:
                break
            kept = _LANCZOS_KEEP
            basis[:kept] = s[:, :kept].T @ basis[:m]
            t[:] = 0.0
            t[range(kept), range(kept)] = theta[:kept]
            t[kept, :kept] = t[:kept, kept] = beta * s[-1, :kept]
            m = kept
        else:
            t[m - 1, m] = t[m, m - 1] = beta
        basis[m] = w / beta
    raise np.linalg.LinAlgError(f"Lanczos did not converge in {_LANCZOS_MAX_STEPS} steps")


def _lanczos_lowest(h: PauliSum, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Lowest `count` eigenpairs of a hermitian sum without a dense matrix.

    Runs Lanczos on the compiled sum, locks what it finds and restarts
    from a fresh vector orthogonal to the locked pairs: one Krylov run
    sees a single vector per eigenspace, so a restart finds the next copy
    of a degenerate level.  Restarts continue until one finds nothing
    below the last kept level - `DEGENERACY_TOL`, so no level under it is
    missing; a degenerate last level keeps the copies the count holds,
    and which vectors of it come back is arbitrary.  Each run asks for at
    most _LANCZOS_KEEP pairs.  Starts are drawn from a fixed seed, so
    repeated calls agree bit for bit.  Returns ascending eigenvalues and
    eigenvectors as rows; every pair's true residual is checked.
    """
    compiled = CompiledSum(h)

    def apply(v: np.ndarray) -> np.ndarray:
        return compiled.matvec(v) if compiled.scale == 1 else compiled.scale * compiled.matvec(v)

    dim = 1 << h.n
    tol = _LANCZOS_TOL * max(sum(abs(c) for _, c in h.items()), 1.0)
    rng = np.random.default_rng(_LANCZOS_SEED)
    values = np.empty(0)
    vectors = np.empty((0, dim))  # takes the found pairs' dtype
    while True:
        start = rng.standard_normal(dim)
        if not compiled.real:
            start = start + 1j * rng.standard_normal(dim)
        want = min(max(count - len(values), 1), _LANCZOS_KEEP)
        found_values, found = _krylov_lowest(apply, want, vectors, start, tol)
        if len(values) >= count:
            keep = found_values < values[count - 1] - DEGENERACY_TOL
            found_values, found = found_values[keep], found[keep]
        if not len(found_values):
            break
        values = np.concatenate([values, found_values])
        vectors = np.concatenate([vectors, found])
        order = np.argsort(values, kind="stable")
        values, vectors = values[order], vectors[order]
    values, vectors = values[:count], vectors[:count]
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    for value, vec in zip(values, vectors):
        residual = float(np.linalg.norm(apply(vec) - value * vec))
        if not residual <= _RESIDUAL_CHECK * tol:
            raise np.linalg.LinAlgError(
                f"Lanczos eigenpair at {value!r} has residual {residual:.3g}"
            )
    return values, vectors


def reference_spectrum(h: PauliSum, count: int | None = None) -> List[Tuple[float, StateVector]]:
    """Eigenpairs of a hermitian sum, ascending by eigenvalue.

    Diagonal sums (I/Z letters only) sort their dense diagonal and emit
    basis-state eigenvectors, which scales to n <= 26 when `count` bounds
    how many pairs are materialized.  Other sums take a matrix-free
    Lanczos solve (no qubit limit) when 2**n >= max(256, 32 * count), and
    `dense_eigh` (n <= 12) when `count` is None or below that crossover.
    """
    if not h.is_hermitian:
        raise ValueError("reference_spectrum requires a hermitian sum")
    if count is not None and count < 1:
        raise ValueError("count must be >= 1 when given")
    if h.is_diagonal:
        if count is None and h.n > DENSE_QUBIT_LIMIT:
            raise ValueError(
                f"materializing all 2**{h.n} eigenvectors is not supported; pass count"
            )
        diag = _diagonal(h)
        order = np.argsort(diag, kind="stable")
        if count is not None:
            order = order[:count]
        return [(float(diag[i]), StateVector.basis(h.n, int(i))) for i in order]
    if count is not None and 1 << h.n >= max(_LANCZOS_MIN_DIM, _LANCZOS_LEVELS_PER_PAIR * count):
        evals, rows = _lanczos_lowest(h, count)
        return [(float(e), StateVector(row, copy=True)) for e, row in zip(evals, rows)]
    evals, evecs = dense_eigh(h)
    upto = len(evals) if count is None else min(count, len(evals))
    return [
        (float(evals[i]), StateVector(evecs[:, i], copy=True)) for i in range(upto)
    ]
