"""Site-local spin-operator kernel.

A basis state |x> of n sites is the integer x whose most significant
bit is site 0, matching the Kronecker order ``op_0 (x) op_1 (x) ...``.
``solve_sectors`` solves H exactly.  When the terms form a hub and at
least three interchangeable leaves, H commutes with every permutation of
the leaves, and it is solved in one hub (x) spin-j block per total leaf
spin j, 2(2j + 1) wide, each kept once with its number of copies; the
marginal of a level on the hub and one leaf is read off its block vector,
and its register column is built only when asked for, by coupling the
leaves one at a time, on at most ``MAX_SITES`` sites.  Any other H (at
most 3 sites in the models, or a spec built by hand) is ``assemble``d and
solved as one dense block of at most ``DENSE_MAX_SITES`` sites.
``site_operator`` scatters a 2x2 operator at one site in O(d), and
``on_support`` builds a sum of terms on the few sites it touches: the
protocol and the noise channels act on a marginal there, never on a
register-wide state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelParameterError
from .tolerances import TOL

MAX_SITES = 12  # the largest register vector built; one d x d complex matrix is 268 MB here
DENSE_MAX_SITES = 8  # H solved as one d x d block; a 12-site dense eigh took 8.9 s

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


def _require_terms(terms, n_sites: int) -> None:
    if n_sites < 1:
        raise ValueError(f"n_sites must be at least 1, got {n_sites}")
    for t in terms:
        if not isinstance(t, PauliTerm) or t.max_site() >= n_sites:
            raise ValueError(f"expected PauliTerms on {n_sites} sites, got {t!r}")


def assemble(terms: list[PauliTerm] | tuple[PauliTerm, ...], n_sites: int) -> np.ndarray:
    """Coefficient-weighted sum of Pauli products as a dense d x d matrix, at
    most ``DENSE_MAX_SITES`` sites; empty input gives the zero operator."""
    _require_terms(terms, n_sites)
    if n_sites > DENSE_MAX_SITES:
        raise ValueError(f"a dense H is built on at most {DENSE_MAX_SITES} sites, "
                         f"got {n_sites}")
    return on_support(terms, range(n_sites))


def _hub_and_leaves(terms, n_sites: int) -> tuple[int, np.ndarray] | None:
    """(hub, C) when every term acts on the hub, one leaf, or both, and every
    leaf carries the same terms; None otherwise.

    A term is kept as (hub axis, leaf axis, coefficient), axis 0 for no
    factor and 1, 2, 3 for X, Y, Z, so the leaves' lists compare with the
    leaf's index relabelled.  C[a, b] sums the hub terms' and one leaf's
    coefficients per (a, b).  Three leaves at least: with fewer, H has at
    most 3 sites and its dense block is at most 8 wide.
    """
    for hub in range(n_sites if n_sites >= 4 else 0):
        per_leaf: dict[int, list] = {s: [] for s in range(n_sites) if s != hub}
        hub_terms = []
        for t in terms:
            leaves = [s for s, _ in t.factors if s != hub]
            if len(leaves) > 1:
                break
            axis = {s == hub: 1 + AXES.index(ax) for s, ax in t.factors}
            form = (axis.get(True, 0), axis.get(False, 0), t.coefficient)
            (per_leaf[leaves[0]] if leaves else hub_terms).append(form)
        else:
            first, *rest = (sorted(v) for v in per_leaf.values())
            if all(r == first for r in rest):
                c = np.zeros((4, 4))
                for a, b, coefficient in hub_terms + first:
                    c[a, b] += coefficient
                return hub, c
    return None


@functools.lru_cache(maxsize=None)
def _spin_ladder(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """(2m, u) of spin j on |j, m>, m descending from j: 2 J_z is diag(2m), and
    J_+ has u on its superdiagonal, so 2 J_x = J_+ + J_- and 2 J_y = -i (J_+ - J_-).
    O(j) numbers per spin, shared and read-only."""
    m = two_j / 2 - np.arange(two_j + 1)
    out = 2 * m, np.sqrt(two_j / 2 * (two_j / 2 + 1) - m[1:] * (m[1:] + 1))
    for a in out:
        a.flags.writeable = False
    return out


def _collective_block(parts: np.ndarray, two_j: int) -> np.ndarray:
    """H_j = sum_ab C[a, b] sigma_a (x) 2 J_b^(j), hub bit most significant.

    Hub entry (x, y) of H_j is tridiagonal in m: ``parts[:, x, y]`` holds its
    identity and 2 J_z coefficients and the factors of u above and below
    the diagonal (``_hub_plan``).
    """
    m2, u = _spin_ladder(two_j)
    w = two_j + 1
    i = np.arange(w)
    block = np.zeros((2, w, 2, w), dtype=parts.dtype)
    block[:, i, :, i] = parts[0] + m2[:, None, None] * parts[1]
    block[:, i[:-1], :, i[1:]] = u[:, None, None] * parts[2]
    block[:, i[1:], :, i[:-1]] = u[:, None, None] * parts[3]
    return block.reshape(2 * w, 2 * w)


def _hub_operators(v: np.ndarray, two_j: int) -> np.ndarray:
    """A_b = V (2 J_b)^T V†, b = 0..3 with 2 J_0 = 1, for the block vector V
    (2, 2j + 1) of one copy of spin j: A_b[x, y] = <|y><x| (x) 2 J_b>.

    With M = V J_+ V†, A_x = M + M† and A_y = i (M - M†); each costs O(j).
    """
    m2, u = _spin_ladder(two_j)
    m = (v[:, :-1] * u) @ v[:, 1:].conj().T
    return np.array([v @ v.conj().T, m + m.conj().T, 1j * (m - m.conj().T),
                     (v * m2) @ v.conj().T])


@functools.lru_cache(maxsize=None)
def _coupling_paths(n_leaves: int, two_j: int) -> tuple[tuple[int, ...], ...]:
    """Every way to reach spin j by adding the leaves one at a time: the
    doubled spins 1 = 2j_1, 2j_2, ..., 2j_N = 2j, each step +-1 and none
    below 0.  There is one path per copy of spin j in the leaves."""
    if n_leaves == 1:
        return ((1,),) if two_j == 1 else ()
    return tuple(p + (two_j,) for t in (two_j - 1, two_j + 1) if t >= 0
                 for p in _coupling_paths(n_leaves - 1, t))


def _multiplicity(n_leaves: int, two_j: int) -> int:
    """Copies of spin j among N spin-1/2 leaves, C(N, N/2 - j) - C(N, N/2 - j - 1):
    ``len(_coupling_paths(N, 2j))`` without listing the paths."""
    k = (n_leaves - two_j) // 2
    return math.comb(n_leaves, k) - (math.comb(n_leaves, k - 1) if k else 0)


def _coupled_leaves(path: tuple[int, ...]) -> np.ndarray:
    """(2^N, 2j + 1): the path's |j, m>, m descending, as columns on the
    leaves' register, the first leaf most significant.

    Each step couples spin j (doubled t) and the next leaf's spin 1/2 to
    spin j +- 1/2 with the Condon-Shortley Clebsch-Gordan coefficients;
    the leaf's bit 0 is its m = +1/2.
    """
    out = np.eye(2)
    for t, u in zip(path, path[1:]):
        m2 = u - 2 * np.arange(u + 1)  # 2m of each new column
        grow = np.sqrt((t + 1 + m2) / (2 * t + 2)), np.sqrt((t + 1 - m2) / (2 * t + 2))
        new = np.zeros((len(out), 2, u + 1))
        if u > t:
            new[:, 0, :-1] = out * grow[0][:-1]
            new[:, 1, 1:] = out * grow[1][1:]
        else:
            new[:, 0] = out[:, 1:] * -grow[1]
            new[:, 1] = out[:, :-1] * grow[0]
        out = new.reshape(-1, u + 1)
    return out


@dataclass(frozen=True, eq=False)
class _CollectivePlan:
    """H of a hub and N interchangeable leaves in hub (x) total-leaf-spin blocks.

    Block j (doubled ``spins[g]``) is 2(2j + 1) wide, with the hub's bit
    most significant, and stands for ``multiplicities[g]`` copies of
    itself, one per coupling path of the leaves.
    """

    hub: int
    n_sites: int
    spins: tuple[int, ...]
    multiplicities: tuple[int, ...]

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(2 * t + 2 for t in self.spins)

    def columns(self, block_vectors, where) -> np.ndarray:
        """Register-basis columns of the block eigenvectors at ``where``'s
        (spin block, copy, column) rows."""
        out = np.zeros((2 ** self.n_sites, len(where)), dtype=np.result_type(*block_vectors))
        leaves: dict[tuple[int, int], np.ndarray] = {}
        for j, (g, copy, col) in enumerate(where):
            if (g, copy) not in leaves:
                path = _coupling_paths(self.n_sites - 1, self.spins[g])[copy]
                leaves[g, copy] = _coupled_leaves(path)
            v = block_vectors[g][0, :, col].reshape(2, -1) @ leaves[g, copy].T
            out[:, j] = np.moveaxis(v.reshape((2,) * self.n_sites), 0, self.hub).ravel()
        return out

    def hub_leaf_marginal(self, a: np.ndarray, sites) -> np.ndarray:
        """rho on ``sites`` (the hub, one leaf or both, ascending) of a state
        unchanged by leaf permutations, from its A_b (``_hub_operators``).

        <sigma_a (x) tau_b> of one leaf is <sigma_a (x) 2 J_b> / N for b >= 1
        (Wang and Molmer, Eur. Phys. J. D 18, 385 (2002)), so rho_S is
        (1/2) sum_b A'_b (x) tau_b with A'_0 = A_0 and A'_b = A_b / N.
        """
        a = np.concatenate([a[:1], a[1:] / (self.n_sites - 1)])
        paulis = site_paulis(0, 1)
        if len(sites) == 1:
            return a[0] if sites[0] == self.hub else 0.5 * np.einsum(
                "bxx,bst->st", a, paulis)
        order = "bxy,bst->xsyt" if sites[0] == self.hub else "bxy,bst->sxty"
        return 0.5 * np.einsum(order, a, paulis).reshape(4, 4)


def _hub_plan(terms, n_sites: int) -> tuple[_CollectivePlan, np.ndarray] | None:
    """(plan, parts) of a hub plus at least three interchangeable leaves
    (``_hub_and_leaves``), else None; ``parts`` feeds ``_collective_block``.

    Summed over the leaves, leaf Pauli b is 2 J_b of the total leaf spin, so
    H_j = sum_ab C[a, b] sigma_a (x) 2 J_b^(j), with sigma_0 = 2 J_0 = 1.
    With d_b = sum_a C[a, b] sigma_a, hub entry (x, y) of H_j is
    d_0 + d_z 2m on the diagonal, (d_x - i d_y) u above it and
    (d_x + i d_y) u below it; ``parts`` is those four 2x2 factors, real
    unless some Y term makes them complex.
    """
    found = _hub_and_leaves(terms, n_sites)
    if found is None:
        return None
    hub, c = found
    spins = tuple(range(n_sites - 1, -1, -2))
    plan = _CollectivePlan(hub, n_sites, spins,
                           tuple(_multiplicity(n_sites - 1, t) for t in spins))
    d = np.einsum("axy,ab->bxy", site_paulis(0, 1), c)
    parts = np.array([d[0], d[3], d[1] - 1j * d[2], d[1] + 1j * d[2]])
    return plan, parts if np.any(parts.imag) else parts.real


class _DensePlan:
    """Any H that ``_hub_plan`` does not take, as one register-wide block."""

    multiplicities = (1,)   # one stack of one block, solved once

    def __init__(self, n_sites: int):
        self.n_sites = n_sites

    def columns(self, block_vectors, where) -> np.ndarray:
        """The block's eigenvector columns at ``where``'s (0, 0, column) rows."""
        (vectors,) = block_vectors
        return vectors[0][:, where[:, 2]]


def require_register(n_sites: int, reader: str) -> None:
    """Raise ModelParameterError when ``reader`` would need a state vector or
    matrix on more than ``MAX_SITES`` sites."""
    if n_sites > MAX_SITES:
        raise ModelParameterError(
            f"{reader} needs the register vector of {n_sites} sites, and register "
            f"vectors are built on at most {MAX_SITES} sites")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """H's levels, ascending, with its eigenvectors kept block by block: the
    collective hub (x) spin-j blocks, or H itself as one dense block.

    Each block eigenvalue is one level, which stands for one register
    eigenvector per copy of its block (``multiplicity``).  The register
    spectrum (``values``) and register columns (``vectors``, ``ground``)
    are built only when read, on at most ``MAX_SITES`` sites; ``marginal``
    serves the protocol without them.
    """

    levels: np.ndarray
    plan: _CollectivePlan | _DensePlan
    block_vectors: tuple[np.ndarray, ...]  # per stack: (blocks, m, m), as columns
    blocks: np.ndarray      # (stack, column) of each level

    def multiplicity(self, level: int) -> int:
        return self.plan.multiplicities[self.blocks[level, 0]]

    @property
    def gap(self) -> float:
        """``values[1] - values[0]`` read off the levels: 0.0 when the lowest
        level has more than one copy."""
        return 0.0 if self.multiplicity(0) > 1 else float(self.levels[1] - self.levels[0])

    @functools.cached_property
    def _register(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, where, first): each level once per copy, ascending; the
        (stack, block copy, column) of each value; the first value of each level."""
        require_register(self.plan.n_sites, "the register spectrum")
        copies = np.asarray(self.plan.multiplicities)[self.blocks[:, 0]]
        first = np.cumsum(copies) - copies
        values = np.repeat(self.levels, copies)
        where = np.repeat(self.blocks[:, [0, 0, 1]], copies, axis=0)
        where[:, 1] = np.arange(len(values)) - np.repeat(first, copies)
        values.flags.writeable = False
        return values, where, first

    @property
    def values(self) -> np.ndarray:
        """H's eigenvalues, ascending, each as often as it occurs in the register."""
        return self._register[0]

    @functools.cached_property
    def ground(self) -> np.ndarray:
        """``vectors([0])[:, 0]``, built once; read-only."""
        v = self.vectors([0])[:, 0]
        v.flags.writeable = False
        return v

    def vectors(self, levels) -> np.ndarray:
        """The eigenvectors of ``levels`` (indices into ``values``) as register-basis
        columns, each with its largest amplitude rotated real positive."""
        out = self.plan.columns(self.block_vectors, self._register[1][levels])
        phase = out[np.abs(out).argmax(axis=0), np.arange(len(levels))]
        return out * (phase / np.abs(phase)).conjugate()

    def _block_vector(self, level: int) -> np.ndarray:
        """Level's block vector as (hub, leaf spin) rows, rotated as ``vectors``
        rotates its register column: the one copy of a symmetric-block level
        has amplitude V[x, i] / sqrt(C(N, i)) on each leaf string with i ones."""
        g, col = self.blocks[level]
        v = self.block_vectors[g][0, :, col].reshape(2, -1)
        n_leaves = self.plan.n_sites - 1
        scale = np.array([math.comb(n_leaves, i) for i in range(v.shape[1])], dtype=float)
        phase = v.flat[np.argmax(np.abs(v) / np.sqrt(scale))]
        return v * (phase / abs(phase)).conjugate()

    def marginal(self, levels, sites, phases=None) -> np.ndarray:
        """Reduced density matrix on ``sites`` (ascending) of the uniform mixture
        of every eigenvector of ``levels`` (indices into ``levels``), each level
        weighted by its multiplicity; with ``phases``, of the pure state
        sum_l phases[l] |l> / sqrt(len(levels)), |l> the first column of level
        l that ``vectors`` gives.

        A hub-and-leaves plan reads it off the block vectors when ``sites`` are
        the hub, one leaf or both, and the state is unchanged by permutations
        of the leaves: a mixture over whole levels, or a pure state on levels
        of multiplicity 1, which lie in the symmetric block j = N/2
        (``_CollectivePlan.hub_leaf_marginal``).  Anything else reduces
        register columns, which refuses more than ``MAX_SITES`` sites.
        """
        plan = self.plan
        weights = [self.multiplicity(lv) for lv in levels]
        if not (isinstance(plan, _CollectivePlan) and len(set(sites) - {plan.hub}) <= 1
                and (phases is None or max(weights) == 1)):
            return self.register_marginal(levels, sites, phases)
        if phases is None:
            total = sum(weights)
            a = sum(w / total * _hub_operators(self.block_vectors[g][0, :, col].reshape(2, -1),
                                               plan.spins[g])
                    for w, (g, col) in zip(weights, self.blocks[levels]))
        else:
            v = sum(p * self._block_vector(lv) for p, lv in zip(phases, levels))
            a = _hub_operators(v / math.sqrt(len(levels)), plan.spins[0])
        return plan.hub_leaf_marginal(a, sites)

    def register_marginal(self, levels, sites, phases=None) -> np.ndarray:
        """``marginal`` by reducing register columns: it takes any plan and any
        ``sites``, and refuses more than ``MAX_SITES`` sites."""
        start = self._register[2][levels]
        if phases is not None:
            columns = self.vectors(start)
            state = sum(p * v for p, v in zip(phases, columns.T)) / math.sqrt(len(levels))
            return reduced_density(state, list(sites))
        columns = self.vectors(np.concatenate(
            [np.arange(s, s + self.multiplicity(lv)) for s, lv in zip(start, levels)]))
        return sum(reduced_density(v, list(sites)) for v in columns.T) / columns.shape[1]


def solve_sectors(terms: list[PauliTerm] | tuple[PauliTerm, ...], n_sites: int) -> Spectrum:
    """H solved exactly, every block in full, and one ``eigendecompose`` per stack.

    A hub with at least three interchangeable leaves is solved in its hub (x)
    total-leaf-spin blocks (``_hub_plan``), built and solved one at a time,
    each block's levels kept once with the number of copies of its spin.
    Any other H (chain3, the two-site model, the star with one or two
    leaves, specs built by hand) is ``assemble``d and solved as one dense
    block, which refuses more than ``DENSE_MAX_SITES`` sites with ValueError.
    """
    _require_terms(terms, n_sites)
    found = _hub_plan(terms, n_sites)
    if found is None:
        plan, stacks = _DensePlan(n_sites), [assemble(terms, n_sites)[None]]
    else:
        plan, parts = found
        stacks = (_collective_block(parts, t)[None] for t in plan.spins)
    solved = [eigendecompose(stack) for stack in stacks]
    widths = [v.shape[1] for v, _ in solved]
    levels = np.concatenate([v[0] for v, _ in solved])
    order = np.argsort(levels, kind="stable")
    blocks = np.empty((len(levels), 2), dtype=np.intp)
    blocks[:, 0] = np.repeat(np.arange(len(widths)), widths)
    blocks[:, 1] = np.arange(len(levels)) - np.repeat(np.cumsum(widths) - widths, widths)
    levels = levels[order]
    levels.flags.writeable = False
    return Spectrum(levels, plan, tuple(v for _, v in solved), blocks[order])


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
# spectra and marginals
# ---------------------------------------------------------------------------

def eigendecompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    A stack of matrices along axis 0 (each stack of ``solve_sectors``: one
    collective block, or the one dense block) is solved in one batched
    call, with eigenvalues ascending within each block.  A matrix without
    imaginary part is diagonalized as a real symmetric one, which returns
    real eigenvectors.  Degenerate clusters come back in an arbitrary
    orthonormal gauge; callers must not rely on the gauge inside a cluster.
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

