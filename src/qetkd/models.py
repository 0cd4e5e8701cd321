"""Model Hamiltonians and their per-party partitions.

Three families are provided:

* ``two_site``  -- H = 2k X0 X1 + h (Z0 + Z1), sender at site 0,
  receiver at site 1.
* ``star``      -- H = J sum_k X0 Xk + sum_k Zk on N+1 sites, with the
  sender at the hub and one receiver per leaf.
* ``chain3``    -- H = J (X0 X1 + X1 X2) + Z0 + Z1 + Z2, with a buffer
  site between sender (0) and receiver (2) so that any sender basis
  commutes with the receiver Hamiltonian.

Each partition carries an additive shift per part chosen so that the
shifted part has zero ground-state expectation: measured energies are
then deviations from the vacuum.  The two-site shifts have closed forms
(C1 = h^2 / sqrt(h^2 + k^2), C2 = 2 k^2 / sqrt(h^2 + k^2)); all other
shifts are fixed numerically from the ground state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGroundError, ModelParameterError
from .spinops import (
    PauliTerm,
    assemble,
    degeneracy_tolerance,
    eigendecompose,
    expectation,
    term,
)

ALICE = "A"
BOB = "B"
BUFFER = "buffer"
MAX_PARTIES = 11  # star receivers: 12 sites, the register limit


@dataclass(frozen=True)
class HamiltonianSpec:
    """Symbolic Hamiltonian: a named list of Pauli terms on n sites."""

    name: str
    n_sites: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.max_site() >= self.n_sites:
                raise ValueError(f"term {t} does not fit {self.n_sites} sites")

    def matrix(self) -> np.ndarray:
        return assemble(self.terms, self.n_sites)

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of the assembled H, solved once per object.

        The shifts of a model's partition, its ground state and its
        excited levels all read this one solve.  The arrays are read-only
        because every caller shares them.
        """
        evals, evecs = eigendecompose(self.matrix())
        evals.flags.writeable = False
        evecs.flags.writeable = False
        return evals, evecs

    def to_text(self) -> str:
        """One term per line: ``coeff site:axis [site:axis]``."""
        lines = []
        for t in self.terms:
            factors = " ".join(f"{site}:{axis}" for site, axis in t.factors)
            lines.append(f"{t.coefficient:.12g} {factors}".rstrip())
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(name: str, n_sites: int, text: str) -> "HamiltonianSpec":
        terms = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            coeff, *factors = line.split()
            parsed = []
            for f in factors:
                site, axis = f.split(":")
                parsed.append((int(site), axis))
            terms.append(PauliTerm(float(coeff), tuple(parsed)))
        return HamiltonianSpec(name, n_sites, tuple(terms))


@dataclass(frozen=True)
class PartitionPart:
    terms: tuple[PauliTerm, ...]
    shift: float

    def matrix(self, n_sites: int) -> np.ndarray:
        """Shifted part: assembled terms plus shift * identity."""
        return assemble(self.terms, n_sites) + self.shift * np.eye(2 ** n_sites)

    def bare_matrix(self, n_sites: int) -> np.ndarray:
        return assemble(self.terms, n_sites)


@dataclass(frozen=True)
class Partition:
    """Assignment of Hamiltonian terms to parties, with zeroing shifts."""

    parts: dict[str, PartitionPart]

    def labels(self) -> tuple[str, ...]:
        return tuple(self.parts)

    def all_terms(self) -> tuple[PauliTerm, ...]:
        out: list[PauliTerm] = []
        for part in self.parts.values():
            out.extend(part.terms)
        return tuple(out)


def _ground_vector(spec: HamiltonianSpec) -> np.ndarray:
    return spec.spectrum[1][:, 0]


def _zeroing_shift(terms: tuple[PauliTerm, ...], spec: HamiltonianSpec,
                   gs: np.ndarray) -> float:
    return -expectation(gs, assemble(terms, spec.n_sites))


# ---------------------------------------------------------------------------
# two-site model
# ---------------------------------------------------------------------------

def two_site(k: float, h: float) -> HamiltonianSpec:
    """H = 2k X0 X1 + h (Z0 + Z1); k and h must be positive."""
    check_model_parameters("two-site", None, k, h)
    terms = (
        term(2.0 * k, (0, "X"), (1, "X")),
        term(h, (0, "Z")),
        term(h, (1, "Z")),
    )
    return HamiltonianSpec("two-site", 2, terms)


def two_site_shift_constants(k: float, h: float) -> tuple[float, float]:
    """Closed-form shifts (C1, C2) that zero the two parts' ground expectations."""
    root = math.hypot(h, k)
    return h * h / root, 2.0 * k * k / root


def two_site_partition_standard(k: float, h: float) -> Partition:
    """Sender holds h Z0; the interaction is folded into the receiver's part."""
    c1, c2 = two_site_shift_constants(k, h)
    return Partition({
        ALICE: PartitionPart((term(h, (0, "Z")),), c1),
        BOB: PartitionPart(
            (term(2.0 * k, (0, "X"), (1, "X")), term(h, (1, "Z"))), c1 + c2
        ),
    })


def two_site_partition_alternative(k: float, h: float) -> Partition:
    """Interaction folded into the sender's part; receiver holds only h Z1."""
    spec = two_site(k, h)
    gs = _ground_vector(spec)
    a_terms = (term(2.0 * k, (0, "X"), (1, "X")), term(h, (0, "Z")))
    b_terms = (term(h, (1, "Z")),)
    return Partition({
        ALICE: PartitionPart(a_terms, _zeroing_shift(a_terms, spec, gs)),
        BOB: PartitionPart(b_terms, _zeroing_shift(b_terms, spec, gs)),
    })


# ---------------------------------------------------------------------------
# star model (N receivers around a hub)
# ---------------------------------------------------------------------------

def star(n_parties: int, coupling: float) -> tuple[HamiltonianSpec, Partition]:
    """H = J sum_{k=1..N} X0 Xk + sum_{k=0..N} Zk on N+1 sites.

    The sender sits at site 0; receiver k gets the terms {J X0 Xk, Zk}
    so that an X-basis measurement at the hub commutes with every
    receiver part.
    """
    check_model_parameters("star", coupling, n_parties=n_parties)
    n = n_parties + 1
    terms: list[PauliTerm] = []
    if coupling != 0.0:
        terms.extend(term(coupling, (0, "X"), (k, "X")) for k in range(1, n))
    terms.extend(term(1.0, (k, "Z")) for k in range(n))
    spec = HamiltonianSpec(f"star-{n_parties}", n, tuple(terms))
    gs = _ground_vector(spec)
    parts: dict[str, PartitionPart] = {}
    a_terms = (term(1.0, (0, "Z")),)
    parts[ALICE] = PartitionPart(a_terms, _zeroing_shift(a_terms, spec, gs))
    for k in range(1, n):
        if coupling != 0.0:
            k_terms = (term(coupling, (0, "X"), (k, "X")), term(1.0, (k, "Z")))
        else:
            k_terms = (term(1.0, (k, "Z")),)
        parts[f"B{k}"] = PartitionPart(k_terms, _zeroing_shift(k_terms, spec, gs))
    return spec, Partition(parts)


# ---------------------------------------------------------------------------
# three-site chain
# ---------------------------------------------------------------------------

def chain3(coupling: float) -> tuple[HamiltonianSpec, Partition]:
    """H = J (X0 X1 + X1 X2) + Z0 + Z1 + Z2.

    The receiver part is {J X1 X2, Z2}; the middle-site terms form a
    buffer part of their own so the energy bookkeeping stays total.
    """
    check_model_parameters("chain3", coupling)
    terms: list[PauliTerm] = []
    if coupling != 0.0:
        terms.append(term(coupling, (0, "X"), (1, "X")))
        terms.append(term(coupling, (1, "X"), (2, "X")))
    terms.extend(term(1.0, (k, "Z")) for k in range(3))
    spec = HamiltonianSpec("chain3", 3, tuple(terms))
    gs = _ground_vector(spec)
    a_terms = (term(1.0, (0, "Z")),)
    if coupling != 0.0:
        m_terms = (term(coupling, (0, "X"), (1, "X")), term(1.0, (1, "Z")))
        b_terms = (term(coupling, (1, "X"), (2, "X")), term(1.0, (2, "Z")))
    else:
        m_terms = (term(1.0, (1, "Z")),)
        b_terms = (term(1.0, (2, "Z")),)
    parts = {
        ALICE: PartitionPart(a_terms, _zeroing_shift(a_terms, spec, gs)),
        BUFFER: PartitionPart(m_terms, _zeroing_shift(m_terms, spec, gs)),
        BOB: PartitionPart(b_terms, _zeroing_shift(b_terms, spec, gs)),
    }
    return spec, Partition(parts)


# ---------------------------------------------------------------------------
# named models
# ---------------------------------------------------------------------------

MODELS = ("two-site", "chain3", "star")


def model_sites(model: str, n_parties: int = 1) -> int:
    """Register size of a named model, known without building it."""
    return {"two-site": 2, "chain3": 3}.get(model, n_parties + 1)


def check_model_parameters(model: str, coupling: float | None, k: float = 1.0,
                           h: float = 1.0, n_parties: int = 1) -> None:
    """Raise ModelParameterError, in one line, for parameters the named model rejects.

    ``coupling`` None stands for the model's default; ``two-site`` reads
    ``k`` and ``h`` only, ``star`` also checks its party count.
    """
    if model not in MODELS:
        raise ModelParameterError(f"unknown model {model!r}")
    if model == "two-site":
        if k <= 0 or h <= 0:
            raise ModelParameterError(f"couplings must be positive, got k={k}, h={h}")
        return
    if coupling is not None and coupling < 0:
        raise ModelParameterError(f"coupling must be non-negative, got {coupling}")
    if model == "star" and not 1 <= n_parties <= MAX_PARTIES:
        raise ModelParameterError(f"number of parties must be in [1, {MAX_PARTIES}], got {n_parties}")


def build_model(model: str, coupling: float, k: float = 1.0, h: float = 1.0,
                n_parties: int = 1) -> tuple[HamiltonianSpec, Partition, list[str]]:
    """(spec, partition, receiver labels) of a named model.

    ``two-site`` takes ``k`` and ``h`` and ignores ``coupling``; ``star``
    has one receiver per party, labelled B1..BN.
    """
    if model == "two-site":
        return two_site(k, h), two_site_partition_standard(k, h), [BOB]
    if model == "chain3":
        spec, partition = chain3(coupling)
        return spec, partition, [BOB]
    if model != "star":
        raise ValueError(f"unknown model {model!r}")
    spec, partition = star(n_parties, coupling)
    return spec, partition, [f"B{j}" for j in range(1, n_parties + 1)]


def energy_gap(spec: HamiltonianSpec) -> float:
    """First excitation energy; exactly 0.0 when the ground level is degenerate."""
    evals, _ = spec.spectrum
    gap = float(evals[1] - evals[0])
    return 0.0 if gap <= degeneracy_tolerance(evals) else gap


def first_excited_level(spec: HamiltonianSpec) -> tuple[np.ndarray, np.ndarray]:
    """(uniform mixture over the first excited level, its first eigenvector).

    The eigenvector's largest amplitude is rotated real positive.
    Raises DegenerateGroundError when the level joins the ground level.
    """
    evals, evecs = spec.spectrum
    tol = degeneracy_tolerance(evals)
    if evals[1] - evals[0] <= tol:
        raise DegenerateGroundError(
            "first excited level is degenerate with the ground level")
    cluster = np.where(np.abs(evals - evals[1]) <= tol)[0]
    mixture = sum(np.outer(evecs[:, i], evecs[:, i].conj())
                  for i in cluster) / len(cluster)
    first = evecs[:, cluster[0]].copy()
    pivot = int(np.argmax(np.abs(first)))
    first = first * (first[pivot] / abs(first[pivot])).conjugate()
    return mixture, first
