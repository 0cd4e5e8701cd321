"""Site-local spin-operator kernel on up to 12 qubits.

A basis state |x> of n sites is the integer x whose most significant
bit is site 0, matching the Kronecker order ``op_0 (x) op_1 (x) ...``.
A Pauli product is then a signed permutation, P|x> = phase(x) |x ^ flip>,
so Hamiltonians are assembled in O(terms * d) by scattering each term
into the output.  Such an H never connects two basis states in different
cosets of the GF(2) span of its terms' flip masks (its flip sectors), and
commutes with every site swap that maps its terms onto themselves,
coefficients kept, and each sector onto itself.  ``solve_sectors``
scatters H straight into its sectors split by the characters of a set of
disjoint such swaps, and ``eigendecompose`` solves each stack of blocks of
one size in one batched call.  A 2x2 operator at one site
acts on a vector or matrix through a reshape that isolates that site's
bit, at O(d) per vector and O(d^2) per matrix; no d x d operator product
is ever formed for it, and ``on_support`` builds a sum of terms on the
few sites it touches.

Operators, pure states and density matrices are plain numpy arrays; the
validators below enforce the class invariants (Hermiticity, unit norm,
unit trace, positivity) wherever a value crosses a public boundary.
Everything here is a pure function on immutable inputs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ImaginaryResidueError
from .tolerances import TOL

MAX_SITES = 12  # the largest register tested; an attack's d x d states are 268 MB each here

AXES = ("X", "Y", "Z")

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def require_hermitian(a: np.ndarray) -> np.ndarray:
    """A square matrix, or a stack of them along axis 0, each Hermitian within tolerance."""
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if np.max(np.abs(a - a.conj().swapaxes(-1, -2))) > TOL.hermitian:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def require_unit_vector(v: np.ndarray) -> np.ndarray:
    if abs(np.linalg.norm(v) - 1.0) > TOL.unit_norm:
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


def assemble(terms: list[PauliTerm] | tuple[PauliTerm, ...], n_sites: int) -> np.ndarray:
    """Coefficient-weighted sum of Pauli products; empty input gives the zero operator."""
    blocks, states = assemble_sectors(terms, n_sites)
    out = np.zeros((2 ** n_sites, 2 ** n_sites), dtype=complex)
    out[states[:, :, None], states[:, None, :]] = blocks
    return out


def _flip_sectors(flips: list[int], n_sites: int) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """(sector, position, (sectors, size)) of every basis state under a set of flip masks.

    The flips span a GF(2) subspace F of rank r; a sector is a coset x ^ F.
    F is put in reduced echelon form: each basis vector owns one pivot bit
    that no other basis vector has.  Then x = rep ^ sum of the basis vectors
    whose pivot bit x has set, where rep has every pivot bit clear, so x's
    pivot bits give its position inside the coset and rep's other bits
    name the coset.
    """
    pivots: dict[int, int] = {}  # pivot bit -> basis vector
    for f in flips:
        while f:
            top = f.bit_length() - 1
            if top not in pivots:
                pivots[top] = f
                break
            f ^= pivots[top]
    for p in sorted(pivots, reverse=True):
        for q in pivots:
            if q != p and pivots[q] >> p & 1:
                pivots[q] ^= pivots[p]
    idx = np.arange(2 ** n_sites)
    rep = idx.copy()
    position = np.zeros_like(idx)
    for i, p in enumerate(sorted(pivots)):
        bit = (idx >> p) & 1
        rep ^= bit * pivots[p]
        position |= bit << i
    sector = np.zeros_like(idx)
    for i, b in enumerate(b for b in range(n_sites) if b not in pivots):
        sector |= ((rep >> b) & 1) << i
    return sector, position, (2 ** (n_sites - len(pivots)), 2 ** len(pivots))


@dataclass(frozen=True, eq=False)
class _SectorPlan:
    """H's symmetry blocks, all but the coefficients; see ``_sector_plan``."""

    swaps: tuple[tuple[int, int], ...]
    states: np.ndarray      # (sectors, size): the basis states of each flip sector
    rep: np.ndarray
    twist: np.ndarray
    unequal: np.ndarray
    pos: np.ndarray
    pair_flip: np.ndarray   # per character mask, the bits its swaps exchange
    ones: np.ndarray        # per character mask, its number of swaps
    sizes: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]  # block ids of each size, in stack order
    flat: np.ndarray
    weight: np.ndarray
    cls: np.ndarray


@functools.lru_cache(maxsize=64)
def _sector_plan(n_sites: int, factors: tuple, pattern: tuple[int, ...],
                 symmetric: bool) -> _SectorPlan:
    """H's flip sectors, split by the characters of its swaps if ``symmetric``.

    Terms of one coefficient form class ``pattern[t]``.  A swap qualifies when
    it maps the (class, factors) multiset and every flip sector onto themselves;
    k greedy disjoint ones generate G = Z2^k.  A basis state x is its orbit's
    rep, with bits (0, 1) on each swapped pair of unequal bits (bit i of
    ``unequal[x]``), under the swaps of bit mask ``twist[x]``.  Block (sector,
    chi) holds |r, chi> = sum_y chi(g_y) |y> / sqrt|O_r| for each rep r whose
    stabilizer chi fixes; x labels (rep[x], chi = twist[x]), a bijection, at
    row ``pos[x]`` of block ``sector << k | twist[x]``.  Term (c, flip, phases)
    maps |r, chi> to c phases[r] chi(g) sqrt(|O_r| / |O_s|) |r', chi> with
    s = r ^ flip = g r' (0 unless chi fixes the stabilizer of s).  Per class,
    entry ``flat`` of the size-ascending stacks sums phases[r] chi(g) |O_r| to
    a Gaussian integer M, exactly, and gets weight M / sqrt(|O_r| |O_s|); its
    mirror has conj(M) and the same root, so every block is exactly Hermitian.
    """
    idx = np.arange(2 ** n_sites)
    strings = [_pauli_string(f, n_sites) for f in factors]
    sector, position, shape = _flip_sectors([flip for flip, _ in strings], n_sites)
    bit = [1 << (n_sites - 1 - s) for s in range(n_sites)]
    def image(swap: dict[int, int]) -> list:
        return sorted((c, sorted((swap.get(s, s), ax) for s, ax in f))
                      for c, f in zip(pattern, factors))
    swaps, free, terms = [], set(range(n_sites) if symmetric else ()), image({})
    for a, b in itertools.combinations(range(n_sites), 2):
        if {a, b} <= free and sector[bit[a] | bit[b]] == 0 and image({a: b, b: a}) == terms:
            swaps.append((a, b))
            free -= {a, b}
    k = len(swaps)
    unequal, twist, pair_flip = np.zeros_like(idx), np.zeros_like(idx), np.zeros(2 ** k, int)
    for i, (a, b) in enumerate(swaps):
        on_a, on_b = (idx & bit[a]) > 0, (idx & bit[b]) > 0
        unequal |= (on_a != on_b) << i
        twist |= (on_a > on_b) << i
        pair_flip ^= (np.arange(2 ** k) >> i & 1) * (bit[a] | bit[b])
    rep = idx ^ pair_flip[twist]
    ones = np.array([bin(m).count("1") for m in range(2 ** k)])
    block = sector << k | twist
    size = np.bincount(block, minlength=shape[0] << k)
    order = np.lexsort((position[rep], block))
    pos = np.empty_like(idx)
    pos[order] = idx - (np.cumsum(size) - size)[block[order]]
    stack = np.flatnonzero(size)[np.argsort(size[size > 0], kind="stable")]
    offset = np.zeros_like(size)
    offset[stack] = np.cumsum(size[stack] ** 2) - size[stack] ** 2
    total = int(np.sum(size ** 2))
    key, phase, root = [np.empty(0, dtype=idx.dtype)], [np.empty(0)], [np.empty(0)]
    for (flip, phases), c in zip(strings, pattern):
        s = rep ^ flip
        x = idx[(twist & ~unequal[s]) == 0]
        s, b = s[x], block[x]
        key.append(c * total + offset[b] + pos[rep[s] ^ pair_flip[twist[x]]] * size[b] + pos[x])
        phase.append(phases[rep[x]] * (-1.0) ** ones[twist[x] & twist[s]] * 2.0 ** ones[unequal[x]])
        root.append(2.0 ** (-0.5 * (ones[unequal[x]] + ones[unequal[s]])))
    key, first, inverse = np.unique(np.concatenate(key), return_index=True, return_inverse=True)
    phase = np.concatenate(phase)
    weight = (np.bincount(inverse, phase.real) + 1j * np.bincount(inverse, phase.imag)
              ) * np.concatenate(root)[first]
    sizes, starts = np.unique(size[stack], return_index=True)
    states = np.empty(shape, dtype=np.intp)
    states[sector, position] = idx
    return _SectorPlan(
        tuple(swaps), states, rep, twist, unequal, pos, pair_flip, ones,
        tuple(int(m) for m in sizes), tuple(np.split(stack, starts[1:])),
        key % total, weight if np.any(weight.imag) else weight.real,
        key // total)


def _scatter(terms, n_sites: int, symmetric: bool) -> tuple[_SectorPlan, list[np.ndarray]]:
    """(cached plan, its stacks of blocks of one size, ascending), in one bincount."""
    _require_register(n_sites)
    for t in terms:
        if not isinstance(t, PauliTerm) or t.max_site() >= n_sites:
            raise ValueError(f"expected PauliTerms on {n_sites} sites, got {t!r}")
    first: dict[float, int] = {}
    pattern = tuple(first.setdefault(t.coefficient, len(first)) for t in terms)
    plan = _sector_plan(n_sites, tuple(t.factors for t in terms), pattern, symmetric)
    w = plan.weight * np.array(list(first), dtype=float)[plan.cls]
    ends = np.cumsum([len(b) * m * m for m, b in zip(plan.sizes, plan.blocks)])
    data = np.bincount(plan.flat, w.real, ends[-1])
    if np.iscomplexobj(w):
        data = data + 1j * np.bincount(plan.flat, w.imag, ends[-1])
    return plan, [part.reshape(len(b), m, m)
                  for part, m, b in zip(np.split(data, ends), plan.sizes, plan.blocks)]


def assemble_sectors(terms: list[PauliTerm] | tuple[PauliTerm, ...], n_sites: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(blocks, states): H is the direct sum of ``blocks[s]`` on the basis states
    ``states[s]`` of flip sector s, real unless a term has an odd number of Ys."""
    plan, (blocks,) = _scatter(terms, n_sites, symmetric=False)
    return blocks, plan.states


@dataclass(frozen=True, eq=False)
class Spectrum:
    """H's eigenvalues, ascending, with its eigenvectors kept block by block."""

    values: np.ndarray
    plan: _SectorPlan
    block_vectors: tuple[np.ndarray, ...]  # per size: (blocks, m, m), as columns
    where: np.ndarray       # (size group, block, column) of each ascending level

    @functools.cached_property
    def ground(self) -> np.ndarray:
        """``vectors([0])[:, 0]``, built once; read-only."""
        v = self.vectors([0])[:, 0]
        v.flags.writeable = False
        return v

    def vectors(self, levels) -> np.ndarray:
        """The eigenvectors of ``levels`` (indices into ``values``) as register-basis
        columns, each with its largest amplitude rotated real positive."""
        p = self.plan
        out = np.zeros((p.rep.size, len(levels)), dtype=np.result_type(*self.block_vectors))
        for j, (g, b, col) in enumerate(self.where[levels]):
            sector, chi = divmod(int(p.blocks[g][b]), 1 << len(p.swaps))
            y = p.states[sector][(chi & ~p.unequal[p.states[sector]]) == 0]
            out[y, j] = ((-1.0) ** p.ones[chi & p.twist[y]] * 2.0 ** (-0.5 * p.ones[p.unequal[y]])
                         * self.block_vectors[g][b, p.pos[p.rep[y] ^ p.pair_flip[chi]], col])
        phase = out[np.abs(out).argmax(axis=0), np.arange(len(levels))]
        return out * (phase / np.abs(phase)).conjugate()


def solve_sectors(terms: list[PauliTerm] | tuple[PauliTerm, ...], n_sites: int) -> Spectrum:
    """H solved exactly, every block in full, in its flip sectors split by its swap
    characters: one scatter by a plan cached on the terms' factors and which
    coefficients are equal, and one ``eigendecompose`` per block size."""
    plan, stacks = _scatter(terms, n_sites, symmetric=True)
    solved = [eigendecompose(stack) for stack in stacks]
    values = np.concatenate([v.ravel() for v, _ in solved])
    where = np.concatenate([np.c_[np.full(v.size, g), np.indices(v.shape).reshape(2, -1).T]
                            for g, (v, _) in enumerate(solved)])
    order = np.argsort(values, kind="stable")
    values = values[order]
    values.flags.writeable = False
    return Spectrum(values, plan, tuple(v for _, v in solved), where[order])


@functools.lru_cache(maxsize=None)
def site_paulis(pos: int, k: int) -> np.ndarray:
    """[1, X, Y, Z] at position ``pos`` of a k-site register; shared, read-only."""
    ops = np.array([site_operator(p, pos, k) for p in (np.eye(2), *(PAULI[a] for a in AXES))])
    ops.flags.writeable = False
    return ops


def on_support(terms, support: list[int] | tuple[int, ...]) -> np.ndarray:
    """Sum of Pauli terms as a 2^k x 2^k matrix on the k ascending sites ``support``.

    Every factor's site must be in ``support``; the first of them is the
    most significant bit, as in ``reduced_density``.
    """
    pos = {s: i for i, s in enumerate(support)}
    k = len(support)
    out = np.zeros((2 ** k, 2 ** k), dtype=complex)
    for t in terms:
        ops = [site_paulis(pos[s], k)[1 + AXES.index(ax)] for s, ax in t.factors]
        out += t.coefficient * functools.reduce(np.matmul, ops or [np.eye(2 ** k)])
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

    A stack of matrices along axis 0 (the blocks of one size of
    ``solve_sectors``) is solved in one batched call, with eigenvalues
    ascending within each block.  A matrix without imaginary part is
    diagonalized as a real symmetric one, which returns real eigenvectors.  Degenerate clusters come back
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
