"""Site-local spin-operator kernel on up to 12 qubits.

A basis state |x> of n sites is the integer x whose most significant
bit is site 0, matching the Kronecker order ``op_0 (x) op_1 (x) ...``.
A Pauli product is then a signed permutation, P|x> = phase(x) |x ^ flip>,
so Hamiltonians are assembled in O(terms * d) by scattering each term
into the output.  A 2x2 operator at one site acts on a vector or matrix
through a reshape that isolates that site's bit, at O(d) per vector and
O(d^2) per matrix; no d x d operator product is ever formed for it.

Operators, pure states and density matrices are plain numpy arrays; the
validators below enforce the class invariants (Hermiticity, unitarity,
unit trace, positivity) wherever a value crosses a public boundary.
Everything here is a pure function on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImaginaryResidueError
from .tolerances import TOL

MAX_SITES = 12  # dense 4096x4096 density matrices are the largest we allow

AXES = ("X", "Y", "Z")

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def require_hermitian(a: np.ndarray, tol: float = TOL.hermitian) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def require_unitary(u: np.ndarray, tol: float = TOL.unitary) -> np.ndarray:
    if np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])) > tol:
        raise ValueError("matrix is not unitary within tolerance")
    return u


def require_unit_vector(v: np.ndarray, tol: float = TOL.unit_norm) -> np.ndarray:
    if abs(np.linalg.norm(v) - 1.0) > tol:
        raise ValueError("vector is not normalized within tolerance")
    return v


def require_density_matrix(rho: np.ndarray) -> np.ndarray:
    require_hermitian(rho)
    if abs(np.trace(rho).real - 1.0) > TOL.trace_one:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho)[0] < -TOL.psd:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def pure_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a normalized state vector."""
    require_unit_vector(psi)
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# Pauli terms and operator assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliTerm:
    """coefficient * product of single-site Paulis, e.g. 2k X_0 X_1."""

    coefficient: float
    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        sites = [site for site, _ in self.factors]
        if len(set(sites)) != len(sites):
            raise ValueError(f"repeated site in term factors {self.factors}")
        for site, axis in self.factors:
            if axis not in AXES:
                raise ValueError(f"unknown Pauli axis {axis!r}")
            if site < 0:
                raise ValueError(f"negative site index {site}")

    def max_site(self) -> int:
        return max((site for site, _ in self.factors), default=-1)


def term(coefficient: float, *factors: tuple[int, str]) -> PauliTerm:
    """Shorthand constructor: term(2.0, (0, "X"), (1, "X"))."""
    return PauliTerm(float(coefficient), tuple(factors))


def _require_register(n_sites: int) -> None:
    if not 1 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must be in [1, {MAX_SITES}], got {n_sites}")


def _require_site(site: int, n_sites: int) -> None:
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")


def _pauli_string(factors: tuple[tuple[int, str], ...], n_sites: int,
                  ) -> tuple[int, np.ndarray]:
    """(flip mask, phases) of a Pauli product: P|x> = phases[x] |x ^ flip>.

    On its site's input bit x_s, X flips, Z multiplies by (-1)^x_s and
    Y = i X Z does both with an extra factor i.
    """
    idx = np.arange(2 ** n_sites)
    flip = 0
    phases = np.ones(idx.shape, dtype=complex)
    for site, axis in factors:
        shift = n_sites - 1 - site
        if axis != "Z":
            flip |= 1 << shift
        if axis != "X":
            phases *= 1 - 2 * ((idx >> shift) & 1)
        if axis == "Y":
            phases *= 1j
    return flip, phases


def axis_operator(vector: np.ndarray) -> np.ndarray:
    """n . sigma as a 2x2 matrix, for a real unit 3-vector n."""
    v = np.asarray(vector, dtype=float)
    require_unit_vector(v)
    return sum(v[i] * PAULI[AXES[i]] for i in range(3))


def site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """The 2x2 ``op`` at ``site`` as a dense d x d matrix, scattered in O(d)."""
    _require_register(n_sites)
    _require_site(site, n_sites)
    dim = 2 ** n_sites
    idx = np.arange(dim)
    shift = n_sites - 1 - site
    bit = (idx >> shift) & 1
    cleared = idx & ~(1 << shift)
    out = np.zeros((dim, dim), dtype=complex)
    for row_bit in (0, 1):
        out[cleared | (row_bit << shift), idx] = op[row_bit, bit]
    return out


def pauli_on_site(axis: str, site: int, n_sites: int) -> np.ndarray:
    """Single-site Pauli embedded in the n-site register."""
    if axis not in AXES:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    return site_operator(PAULI[axis], site, n_sites)


def vector_observable(vector: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """n . sigma at one site, for a real unit 3-vector n."""
    return site_operator(axis_operator(vector), site, n_sites)


def assemble(terms: list[PauliTerm] | tuple[PauliTerm, ...], n_sites: int) -> np.ndarray:
    """Coefficient-weighted sum of Pauli products; empty input gives the zero operator."""
    _require_register(n_sites)
    dim = 2 ** n_sites
    idx = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        if not isinstance(t, PauliTerm):
            raise TypeError(f"expected PauliTerm, got {type(t).__name__}")
        if t.max_site() >= n_sites:
            raise ValueError(f"term {t} does not fit {n_sites} sites")
        flip, phases = _pauli_string(t.factors, n_sites)
        # (idx ^ flip, idx) hits each entry once, so += cannot lose updates.
        out[idx ^ flip, idx] += t.coefficient * phases
    return out


# ---------------------------------------------------------------------------
# site-local application
# ---------------------------------------------------------------------------

def apply_on_site(op: np.ndarray, site: int, a: np.ndarray) -> np.ndarray:
    """(1 (x) ... (x) op (x) ... (x) 1) @ a for the 2x2 ``op`` at ``site``.

    ``a`` is a state vector or a matrix whose rows are indexed by the
    register.  ``site`` counts bits of the flattened index from the most
    significant one, so on a d x d matrix ``n_sites + s`` addresses the
    column bit of site s: that computes a @ (1 (x) ... (x) op.T (x) ... (x) 1).
    """
    t = a.reshape(2 ** site, 2, -1)
    out = np.empty(t.shape, dtype=np.result_type(op, a))
    for row in (0, 1):
        np.multiply(t[:, 0], op[row, 0], out=out[:, row])
        out[:, row] += op[row, 1] * t[:, 1]
    return out.reshape(a.shape)


def sandwich(op: np.ndarray, site: int, m: np.ndarray) -> np.ndarray:
    """A M A† for the 2x2 A = ``op`` at ``site`` and a d x d matrix M, in O(d^2).

    A state vector psi (1-d) stands for |psi><psi|, so it maps to A psi, in O(d).
    """
    n_sites = m.shape[0].bit_length() - 1
    _require_site(site, n_sites)
    if m.ndim == 1:
        return apply_on_site(op, site, m)
    return apply_on_site(op.conj(), n_sites + site,
                         apply_on_site(op, site, m))


# ---------------------------------------------------------------------------
# spectra and expectations
# ---------------------------------------------------------------------------

def eigendecompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    A matrix without imaginary part is diagonalized as a real symmetric
    one, which returns real eigenvectors.  Degenerate clusters come back
    in an arbitrary orthonormal gauge; callers must not rely on the gauge
    inside a cluster.
    """
    require_hermitian(h)
    if np.iscomplexobj(h) and not np.any(h.imag):
        h = h.real
    evals, evecs = np.linalg.eigh(h)
    return evals, evecs


def degeneracy_tolerance(evals: np.ndarray) -> float:
    """Level spacings at or below this count as degenerate.

    An eigensolver resolves gaps only relative to ||H||, so the absolute
    tolerance is scaled by the largest eigenvalue magnitude (at least 1).
    """
    return TOL.degenerate_gap * max(1.0, float(np.abs(evals).max()))


def expectation(state: np.ndarray, a: np.ndarray) -> float:
    """<A> in a pure state (1-d array) or density matrix (2-d array).

    The imaginary residue must stay below tolerance; anything larger
    signals a non-Hermitian observable or a corrupted state.
    """
    if state.ndim == 1:
        val = complex(state.conj() @ (a @ state))
    elif state.ndim == 2:
        val = complex(np.einsum("ij,ji->", state, a))
    else:
        raise ValueError(f"state must be a vector or matrix, got ndim={state.ndim}")
    if abs(val.imag) > TOL.imaginary_residue:
        raise ImaginaryResidueError(
            f"expectation has imaginary residue {val.imag:.3e}"
        )
    return val.real


def reduced_density(state: np.ndarray, sites: list[int]) -> np.ndarray:
    """Reduced density matrix on ``sites`` (ascending) of a vector or matrix.

    The kept sites stay in register order, so the first of them is the
    most significant bit of the 2^k x 2^k result.  A state vector costs
    O(d 2^k), a density matrix one O(d^2) partial trace.
    """
    n_sites = state.shape[0].bit_length() - 1
    rest = [s for s in range(n_sites) if s not in sites]
    dim, other = 2 ** len(sites), 2 ** len(rest)
    if state.ndim == 1:
        m = state.reshape((2,) * n_sites).transpose(sites + rest).reshape(dim, other)
        return m @ m.conj().T
    order = sites + rest
    t = state.reshape((2,) * (2 * n_sites)).transpose(order + [n_sites + s for s in order])
    return np.einsum("arbr->ab", t.reshape(dim, other, dim, other))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 for Hermitian a, b."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))
