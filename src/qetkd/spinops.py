"""Site-local spin-operator kernel.

A basis state |x> of n sites is the integer x whose most significant
bit is site 0, matching the Kronecker order ``op_0 (x) op_1 (x) ...``.
A ``PauliTerm``'s coefficient is a finite real number, checked where the
term is made, so every H built here is Hermitian by construction.
``solve_sectors`` solves H exactly through one plan, whose ``solve``
returns the levels ascending and one plain (w, w) eigenvector matrix per
block.  When the terms form a hub and at least three interchangeable
leaves, H commutes with every permutation of the leaves, and it is solved
in one hub (x) spin-j block per total leaf spin j, 2(2j + 1) wide, each
kept once with its number of copies (``_CollectivePlan``).  Only four 2x2
hub parts depend on the couplings; where they go in each block, and with
which 2m and u factors, depends on the register size and the hub alone
and is built once per pair (``_collective_plan``).  The marginal of a
level on the hub and one leaf is read off its block vector, and the
register column of a level of one copy (the symmetric block j = N/2) is
its block vector spread over the leaf strings, built on at most
``MAX_SITES`` sites when asked for.  Any other H (at most 3 sites in the
models, or a spec built by hand) is ``assemble``d and solved as one dense
block of at most ``DENSE_MAX_SITES`` sites (``_DensePlan``).
``site_operator`` scatters a 2x2 operator at one site in O(d), and
``on_support`` builds a sum of terms on the few sites it touches: the
protocol and the noise channels act on a marginal there, never on a
register-wide state.
"""

from __future__ import annotations

import functools
import math
import numbers
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
    """A square matrix, Hermitian within tolerance."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.conj().T)) > TOL.hermitian:
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
        if not isinstance(self.coefficient, numbers.Real) or not math.isfinite(self.coefficient):
            raise ValueError(f"{self} needs a finite real coefficient")
        object.__setattr__(self, "coefficient", float(self.coefficient))
        sites = [site for site, _ in self.factors]
        if len(set(sites)) != len(sites):
            raise ValueError(f"repeated site in term factors {self.factors}")
        for site, axis in self.factors:
            if axis not in AXES:
                raise ValueError(f"unknown Pauli axis {axis!r}")
            if site < 0:
                raise ValueError(f"negative site index {site}")


def term(coefficient: float, *factors: tuple[int, str]) -> PauliTerm:
    """Shorthand constructor: term(2.0, (0, "X"), (1, "X"))."""
    return PauliTerm(coefficient, tuple(factors))


def max_site(terms) -> int:
    """The largest site that any of ``terms`` acts on; -1 for none."""
    return max((site for t in terms for site, _ in t.factors), default=-1)


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
    require_register(n_sites, "site_operator")
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
    if not all(isinstance(t, PauliTerm) for t in terms) or max_site(terms) >= n_sites:
        bad = next(t for t in terms if not isinstance(t, PauliTerm) or max_site([t]) >= n_sites)
        raise ValueError(f"expected PauliTerms on {n_sites} sites, got {bad!r}")


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
        forms = _leaf_forms(terms, hub, n_sites)
        if forms is None:
            continue
        hub_terms = forms.pop(hub)
        first, *rest = (sorted(v) for v in forms.values())
        if all(r == first for r in rest):
            c = np.zeros((4, 4))
            for a, b, coefficient in hub_terms + first:
                c[a, b] += coefficient
            return hub, c
    return None


_AXIS_CODE = {axis: 1 + i for i, axis in enumerate(AXES)}


def _leaf_forms(terms, hub: int, n_sites: int) -> dict[int, list] | None:
    """Per site, the (hub axis, leaf axis, coefficient) forms of the terms on
    it and the hub, the hub's own terms under the hub; None when a term acts
    on two sites besides the hub."""
    forms: dict[int, list] = {s: [] for s in range(n_sites)}
    for t in terms:
        hub_axis, leaf, leaf_axis = 0, hub, 0
        for site, axis in t.factors:
            if site == hub:
                hub_axis = _AXIS_CODE[axis]
            elif leaf != hub:
                return None
            else:
                leaf, leaf_axis = site, _AXIS_CODE[axis]
        forms[leaf].append((hub_axis, leaf_axis, t.coefficient))
    return forms


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


def _hub_operators(v: np.ndarray, two_j: int) -> np.ndarray:
    """A_b = V (2 J_b)^T V†, b = 0..3 with 2 J_0 = 1, for the block vector V
    (2, 2j + 1) of one copy of spin j: A_b[x, y] = <|y><x| (x) 2 J_b>.

    With M = V J_+ V†, A_x = M + M† and A_y = i (M - M†); each costs O(j).
    """
    m2, u = _spin_ladder(two_j)
    vh = v.conj().T
    m = (v[:, :-1] * u) @ vh[1:]
    mh = m.conj().T
    return np.array([v @ vh, m + mh, 1j * (m - mh), (v * m2) @ vh])


def _multiplicity(n_leaves: int, two_j: int) -> int:
    """Copies of spin j among N spin-1/2 leaves, C(N, N/2 - j) - C(N, N/2 - j - 1)."""
    k = (n_leaves - two_j) // 2
    return math.comb(n_leaves, k) - (math.comb(n_leaves, k - 1) if k else 0)


def _dicke_norms(n_leaves: int) -> np.ndarray:
    """sqrt(C(N, i)), i = 0..N: the one copy of a symmetric-block (j = N/2)
    level with block vector V has amplitude V[x, i] / sqrt(C(N, i)) on each
    leaf string with i ones, hub bit x (leaf bit 0 is m = +1/2)."""
    return np.sqrt(np.array([math.comb(n_leaves, i) for i in range(n_leaves + 1)], dtype=float))


@dataclass(frozen=True, eq=False)
class _CollectivePlan:
    """H of ``hub`` and N = ``n_sites`` - 1 interchangeable leaves in hub (x)
    total-leaf-spin blocks, all of it that does not depend on the couplings
    (``_collective_plan``).

    Block g (doubled spin ``spins[g]``, w = ``spins[g]`` + 1 values of m,
    descending) is 2w wide with the hub's bit most significant, and stands
    for ``multiplicities[g]`` copies of itself; the symmetric block j = N/2,
    of one copy, comes first.  Its hub entry (x, y) is tridiagonal in m
    (``_hub_plan``): parts[0] + 2m parts[1] on the diagonal, u parts[2]
    above it and u parts[3] below it.  ``m2`` and ``u`` hold 2m and u of
    every block, block after block, so three products give the entries of
    every block at once (``solve``).  ``fills[g]`` is block g's width, the
    flat indices of its entries among those products, and where they go in
    the flattened block.  ``rows`` is the (block, column) of every block
    eigenvalue in the order the blocks are solved.
    """

    hub: int
    n_sites: int
    spins: tuple[int, ...]
    multiplicities: tuple[int, ...]
    m2: np.ndarray
    u: np.ndarray
    fills: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    rows: np.ndarray

    def solve(self, parts: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
        """(levels, ascending; per block its (2w, 2w) eigenvectors; the (block,
        column) row of each level) of H_j = sum_ab C[a, b] sigma_a (x)
        2 J_b^(j) for the hub parts of ``_hub_plan``.

        The blocks are filled and solved one at a time, so only one of them
        is held beside the eigenvectors.  The parts come from a real C, so
        every block is Hermitian by construction.  Real parts make every
        block real; complex ones leave a block real when its own entries
        are (the j = 0 block, one m wide, sees parts[0] alone), which is
        then solved as a real symmetric matrix, as ``eigendecompose`` does.
        """
        products = np.concatenate([parts[0] + self.m2[:, None, None] * parts[1],
                                   self.u[:, None, None] * parts[2],
                                   self.u[:, None, None] * parts[3]]).ravel()
        complex_parts = np.iscomplexobj(parts)
        solved = []
        for width, source, target in self.fills:
            values = products[source]
            if complex_parts and not np.any(values.imag):
                values = values.real
            block = np.zeros((width, width), dtype=values.dtype)
            block.reshape(-1)[target] = values
            solved.append(np.linalg.eigh(block))
        del products  # freed before the sort, which would otherwise hold it too
        values = np.concatenate([w for w, _ in solved])
        order = np.argsort(values, kind="stable")
        return values[order], tuple(v for _, v in solved), self.rows[order]

    def columns(self, block_vectors, blocks) -> np.ndarray:
        """Register-basis columns of the block eigenvectors at ``blocks``'
        (block, column) rows, each a level of the symmetric block j = N/2
        spread over the leaf strings (``_dicke_norms``).  A level with
        several copies (j < N/2) has no canonical column: ValueError."""
        if any(self.multiplicities[g] > 1 for g in blocks[:, 0]):
            raise ValueError("a level with several copies has no canonical register vector; "
                             "Spectrum.marginal reads the mixture over its copies")
        n_leaves, k = self.n_sites - 1, len(blocks)
        ones = np.array([s.bit_count() for s in range(2 ** n_leaves)])
        v = block_vectors[0][:, blocks[:, 1]].reshape(2, n_leaves + 1, k)
        v = (v / _dicke_norms(n_leaves)[:, None])[:, ones]
        v = np.moveaxis(v.reshape((2,) * self.n_sites + (k,)), 0, self.hub)
        return v.reshape(2 ** self.n_sites, k)

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


@functools.lru_cache(maxsize=None)
def _collective_plan(n_sites: int, hub: int) -> _CollectivePlan:
    """The ``_CollectivePlan`` of ``hub`` and ``n_sites`` - 1 leaves, built once
    per register size and hub and shared, read-only: it depends on nothing else."""
    spins = tuple(range(n_sites - 1, -1, -2))
    ladders = [_spin_ladder(t) for t in spins]
    m2 = np.concatenate([m for m, _ in ladders])
    u = np.concatenate([v for _, v in ladders])
    entry = np.arange(4)  # 2x + y of hub entry (x, y), as the products order them
    x, y = np.divmod(entry, 2)
    fills, diagonal, upper = [], 0, len(m2)  # the first product row of block g's bands
    for t in spins:
        w = t + 1
        k, j = np.arange(w)[:, None], np.arange(w - 1)[:, None]
        bands = ((diagonal + k, k, k),  # (product row, m row, m column) of each entry
                 (upper + j, j, j + 1),
                 (upper + len(u) + j, j + 1, j))
        source = np.concatenate([(4 * r + entry).ravel() for r, _, _ in bands])
        target = np.concatenate([(((x * w + i) * 2 + y) * w + c).ravel() for _, i, c in bands])
        for a in (source, target):
            a.flags.writeable = False
        fills.append((2 * w, source, target))
        diagonal, upper = diagonal + w, upper + w - 1
    rows = np.array([(g, c) for g, t in enumerate(spins) for c in range(2 * t + 2)],
                    dtype=np.intp)
    for a in (m2, u, rows):
        a.flags.writeable = False
    return _CollectivePlan(hub, n_sites, spins,
                           tuple(_multiplicity(n_sites - 1, t) for t in spins),
                           m2, u, tuple(fills), rows)


def _hub_plan(terms, n_sites: int) -> tuple[_CollectivePlan, np.ndarray] | None:
    """(plan, parts) of a hub plus at least three interchangeable leaves
    (``_hub_and_leaves``), else None; ``parts`` feeds ``_CollectivePlan.solve``.

    Summed over the leaves, leaf Pauli b is 2 J_b of the total leaf spin, so
    H_j = sum_ab C[a, b] sigma_a (x) 2 J_b^(j), with sigma_0 = 2 J_0 = 1.
    With d_b = sum_a C[a, b] sigma_a, hub entry (x, y) of H_j is
    d_0 + d_z 2m on the diagonal, (d_x - i d_y) u above it and
    (d_x + i d_y) u below it; ``parts`` is those four 2x2 factors, real
    unless some Y term makes them complex.  C is real (``PauliTerm``), so
    parts[0] and parts[1] are Hermitian and parts[3] is parts[2]† exactly.
    """
    found = _hub_and_leaves(terms, n_sites)
    if found is None:
        return None
    hub, c = found
    d = np.einsum("axy,ab->bxy", site_paulis(0, 1), c)
    parts = np.array([d[0], d[3], d[1] - 1j * d[2], d[1] + 1j * d[2]])
    return _collective_plan(n_sites, hub), parts if np.any(parts.imag) else parts.real


@dataclass(frozen=True, eq=False)
class _DensePlan:
    """Any H that ``_hub_plan`` does not take, as one register-wide block."""

    n_sites: int
    multiplicities = (1,)   # one block, solved once

    def solve(self, terms) -> tuple[np.ndarray, tuple[np.ndarray], np.ndarray]:
        """H ``assemble``d and solved by ``eigendecompose``, which returns the
        levels ascending: (levels, (eigenvectors,), the (0, column) rows)."""
        levels, vectors = eigendecompose(assemble(terms, self.n_sites))
        blocks = np.zeros((len(levels), 2), dtype=np.intp)
        blocks[:, 1] = np.arange(len(levels))
        return levels, (vectors,), blocks

    def columns(self, block_vectors, blocks) -> np.ndarray:
        """The block's eigenvector columns at ``blocks``' (0, column) rows."""
        (vectors,) = block_vectors
        return vectors[:, blocks[:, 1]]


def require_register(n_sites: int, reader: str) -> None:
    """Raise ModelParameterError (a ValueError) when ``reader`` would need a
    state vector or matrix on fewer than 1 or more than ``MAX_SITES`` sites."""
    if not 1 <= n_sites <= MAX_SITES:
        raise ModelParameterError(
            f"{reader} needs the register of {n_sites} sites, and registers are "
            f"built on at least 1 and at most {MAX_SITES} sites")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """H's levels, ascending, with its eigenvectors kept block by block: the
    collective hub (x) spin-j blocks, or H itself as one dense block.

    Each block eigenvalue is one level, which stands for one register
    eigenvector per copy of its block (``multiplicity``).  The register
    columns of levels of one copy (``vectors``) are built only when read,
    on at most ``MAX_SITES`` sites; ``marginal`` serves the protocol
    without them.
    """

    levels: np.ndarray
    plan: _CollectivePlan | _DensePlan
    block_vectors: tuple[np.ndarray, ...]  # per block: (w, w), as columns
    blocks: np.ndarray      # (block, column) of each level

    def multiplicity(self, level: int) -> int:
        return self.plan.multiplicities[self.blocks[level, 0]]

    @property
    def gap(self) -> float:
        """The gap between H's two lowest eigenvalues, counted once per copy,
        read off the levels: 0.0 when the lowest level has more than one copy."""
        return 0.0 if self.multiplicity(0) > 1 else float(self.levels[1] - self.levels[0])

    def vectors(self, levels) -> np.ndarray:
        """The eigenvectors of ``levels`` (indices into ``levels``, each of one
        copy) as register-basis columns, each with its largest amplitude
        rotated real positive; more than ``MAX_SITES`` sites raise first."""
        require_register(self.plan.n_sites, "a register eigenvector")
        out = self.plan.columns(self.block_vectors, self.blocks[levels])
        phase = out[np.abs(out).argmax(axis=0), np.arange(len(levels))]
        return out * (phase / np.abs(phase)).conjugate()

    def _block_vector(self, level: int) -> np.ndarray:
        """Level's block vector as (hub, leaf spin) rows, rotated as ``vectors``
        rotates its register column (``_dicke_norms``)."""
        g, col = self.blocks[level]
        v = self.block_vectors[g][:, col].reshape(2, -1)
        phase = v.flat[np.argmax(np.abs(v) / _dicke_norms(v.shape[1] - 1))]
        return v * (phase / abs(phase)).conjugate()

    def marginal(self, levels, sites, phases=None) -> np.ndarray:
        """Reduced density matrix on ``sites`` (ascending) of the uniform mixture
        of every eigenvector of ``levels`` (indices into ``levels``), each level
        weighted by its multiplicity; with ``phases``, of the pure state
        sum_l phases[l] |l> / sqrt(len(levels)), |l> the column of level l
        that ``vectors`` gives.

        A hub-and-leaves plan reads it off the block vectors when ``sites`` are
        the hub, one leaf or both, and the state is unchanged by permutations
        of the leaves: a mixture over whole levels, or a pure state on levels
        of multiplicity 1, which lie in the symmetric block j = N/2
        (``_CollectivePlan.hub_leaf_marginal``).  Anything else reduces
        register columns (``register_marginal``), which refuses more than
        ``MAX_SITES`` sites and a level with several copies.
        """
        plan = self.plan
        weights = [self.multiplicity(lv) for lv in levels]
        if not (isinstance(plan, _CollectivePlan) and len(set(sites) - {plan.hub}) <= 1
                and (phases is None or max(weights) == 1)):
            return self.register_marginal(levels, sites, phases)
        if phases is None:
            total = sum(weights)
            a = sum(w / total * _hub_operators(self.block_vectors[g][:, col].reshape(2, -1),
                                               plan.spins[g])
                    for w, (g, col) in zip(weights, self.blocks[levels]))
        else:
            v = sum(p * self._block_vector(lv) for p, lv in zip(phases, levels))
            a = _hub_operators(v / math.sqrt(len(levels)), plan.spins[0])
        return plan.hub_leaf_marginal(a, sites)

    def register_marginal(self, levels, sites, phases=None) -> np.ndarray:
        """``marginal`` by reducing the ``vectors`` of ``levels``: any plan and
        ``sites``, at most ``MAX_SITES`` sites, and levels of one copy."""
        columns = self.vectors(levels)
        if phases is not None:
            state = sum(p * v for p, v in zip(phases, columns.T)) / math.sqrt(len(levels))
            return reduced_density(state, list(sites))
        return sum(reduced_density(v, list(sites)) for v in columns.T) / len(levels)


def solve_sectors(terms: list[PauliTerm] | tuple[PauliTerm, ...], n_sites: int) -> Spectrum:
    """H solved exactly, every block in full, by its plan.

    A hub with at least three interchangeable leaves is solved in its hub (x)
    total-leaf-spin blocks (``_hub_plan``, ``_CollectivePlan.solve``),
    each block's levels kept once with the number of copies of its spin.
    Any other H (chain3, the two-site model, the star with one or two
    leaves, specs built by hand) is ``assemble``d, which refuses more than
    ``DENSE_MAX_SITES`` sites with ValueError, and solved as one dense block
    by ``eigendecompose`` (``_DensePlan.solve``).
    """
    _require_terms(terms, n_sites)
    plan, inputs = _hub_plan(terms, n_sites) or (_DensePlan(n_sites), terms)
    levels, block_vectors, blocks = plan.solve(inputs)
    levels.flags.writeable = False
    return Spectrum(levels, plan, block_vectors, blocks)


@functools.lru_cache(maxsize=None)
def site_paulis(pos: int, k: int) -> np.ndarray:
    """[1, X, Y, Z] at position ``pos`` of a k-site register; shared, read-only."""
    ops = np.array([site_operator(p, pos, k) for p in (np.eye(2), *(PAULI[a] for a in AXES))])
    ops.flags.writeable = False
    return ops


def on_support(terms, support: list[int] | tuple[int, ...]) -> np.ndarray:
    """Sum of Pauli terms as a 2^k x 2^k matrix on the k ascending sites ``support``.

    Every factor's site must be in ``support``; the first of them is the
    most significant bit, as in ``reduced_density``.  A Pauli string has one
    entry per column: column x holds i^(number of Y) (-1)^(Z and Y bits of
    x) in row x XOR (X and Y bits), exactly 0, +-1 or +-i as the product of
    its site Paulis, so no register-sized matrix is built or kept per site.
    Each entry sums its terms in order, starting from 0.
    """
    bit = {s: len(support) - 1 - i for i, s in enumerate(support)}
    dim = 2 ** len(support)
    out = [0j] * (dim * dim)
    for t in terms:
        flip = sign = n_y = 0
        for s, ax in t.factors:
            flip |= (ax != "Z") << bit[s]
            sign |= (ax != "X") << bit[s]
            n_y += ax == "Y"
        phase = t.coefficient * _Y_PHASES[n_y % 4]
        value = (phase, -phase)  # by the parity of x & sign
        for x in range(dim):
            out[(x ^ flip) * dim + x] += value[(x & sign).bit_count() & 1]
    return np.array(out).reshape(dim, dim)


_Y_PHASES = (1.0, 1j, -1.0, -1j)  # i^(number of Y factors)


# ---------------------------------------------------------------------------
# spectra and marginals
# ---------------------------------------------------------------------------

def eigendecompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    A matrix without
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

