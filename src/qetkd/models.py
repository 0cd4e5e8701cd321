"""Model Hamiltonians and their per-party partitions.

Three families are provided:

* ``two_site``  -- H = 2k X0 X1 + h (Z0 + Z1), sender at site 0,
  receiver at site 1.
* ``star``      -- H = J sum_k X0 Xk + sum_k Zk on N+1 sites, with the
  sender at the hub and one receiver per leaf.
* ``chain3``    -- H = J (X0 X1 + X1 X2) + Z0 + Z1 + Z2, with a buffer
  site between sender (0) and receiver (2) so that any sender basis
  commutes with the receiver Hamiltonian.

A partition maps each party's label to its terms of H and holds nothing
else.  The paper shifts every part by a constant so that its ground-state
expectation is zero; the protocol reads each energy as the difference
Tr[rho_out H_part] - Tr[rho_in H_part], in which such a constant cancels,
so no part carries one.  The two-site constants keep their closed form
(``two_site_shift_constants``): C1 = -<g|H_A|g> and C1 + C2 = -<g|H_B|g>
in the standard partition.

Building a model is symbolic: H is solved once per spec, exactly, on the
first read of ``HamiltonianSpec.spectrum`` (``spinops.solve_sectors``;
``protocol.prepare`` is the usual first reader).  The star with N >= 3
leaves, whose H is unchanged by every permutation of the leaves, is
solved in one hub (x) spin-j block per total leaf spin j, at most
2(N + 1) wide, and kept as levels with multiplicities, so it runs up to
``MAX_PARTIES`` receivers; a reader that needs a register vector refuses
more than ``spinops.MAX_SITES`` sites.  The chain, the two-site model and
the star with one or two leaves, at most 3 sites, are solved as one dense
block, at most 8 wide.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGroundError, ModelParameterError
from .spinops import (
    PauliTerm,
    Spectrum,
    degeneracy_tolerance,
    solve_sectors,
    term,
)

ALICE = "A"
BOB = "B"
BUFFER = "buffer"
MAX_PARTIES = 100  # star receivers; run_multiparty's int8 vote holds N + 1 <= 127


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

    @functools.cached_property
    def spectrum(self) -> Spectrum:
        """H's solve, on the first read and once per object: the ground state
        and the excited levels read it, each asking for its own levels."""
        return solve_sectors(self.terms, self.n_sites)

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
class Partition:
    """Assignment of Hamiltonian terms to parties: each label maps to its terms."""

    parts: dict[str, tuple[PauliTerm, ...]]

    def labels(self) -> tuple[str, ...]:
        return tuple(self.parts)

    def all_terms(self) -> tuple[PauliTerm, ...]:
        return tuple(t for terms in self.parts.values() for t in terms)


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
    """The paper's closed-form shifts (C1, C2): C1 = -<g|H_A|g> and C1 + C2 =
    -<g|H_B|g> in the standard partition.  No partition carries them."""
    root = math.hypot(h, k)
    return h * h / root, 2.0 * k * k / root


def two_site_partition_standard(k: float, h: float) -> Partition:
    """Sender holds h Z0; the interaction is folded into the receiver's part."""
    return Partition({
        ALICE: (term(h, (0, "Z")),),
        BOB: (term(2.0 * k, (0, "X"), (1, "X")), term(h, (1, "Z"))),
    })


def two_site_partition_alternative(k: float, h: float) -> Partition:
    """Interaction folded into the sender's part; receiver holds only h Z1."""
    check_model_parameters("two-site", None, k, h)
    return Partition({
        ALICE: (term(2.0 * k, (0, "X"), (1, "X")), term(h, (0, "Z"))),
        BOB: (term(h, (1, "Z")),),
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
    fields = [term(1.0, (k, "Z")) for k in range(n)]
    bonds = [term(coupling, (0, "X"), (k, "X")) for k in range(1, n)] if coupling != 0.0 else []
    spec = HamiltonianSpec(f"star-{n_parties}", n, tuple(bonds + fields))
    parts = {ALICE: (fields[0],)}
    for k in range(1, n):
        parts[f"B{k}"] = (bonds[k - 1], fields[k]) if bonds else (fields[k],)
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
    if coupling != 0.0:
        m_terms = (term(coupling, (0, "X"), (1, "X")), term(1.0, (1, "Z")))
        b_terms = (term(coupling, (1, "X"), (2, "X")), term(1.0, (2, "Z")))
    else:
        m_terms = (term(1.0, (1, "Z")),)
        b_terms = (term(1.0, (2, "Z")),)
    return spec, Partition({ALICE: (term(1.0, (0, "Z")),), BUFFER: m_terms, BOB: b_terms})


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
    ``k`` and ``h`` only, ``star`` also checks its party count.  NaN and
    infinite values fail every check.
    """
    if model not in MODELS:
        raise ModelParameterError(f"unknown model {model!r}")
    if model == "two-site":
        if not (0 < k < math.inf and 0 < h < math.inf):
            raise ModelParameterError(f"couplings must be positive and finite, got k={k}, h={h}")
        return
    if coupling is not None and not 0 <= coupling < math.inf:
        raise ModelParameterError(f"coupling must be non-negative and finite, got {coupling}")
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
    spectrum = spec.spectrum
    gap = spectrum.gap
    return 0.0 if gap <= degeneracy_tolerance(spectrum.levels) else gap


def first_excited_levels(spec: HamiltonianSpec) -> np.ndarray:
    """The first excited level as indices into ``spec.spectrum.levels``: every
    level within the degeneracy tolerance of the lowest one above the
    ground.  Raises DegenerateGroundError when it joins the ground level."""
    spectrum = spec.spectrum
    tol = degeneracy_tolerance(spectrum.levels)
    if spectrum.gap <= tol:
        raise DegenerateGroundError(
            "first excited level is degenerate with the ground level")
    return np.flatnonzero(np.abs(spectrum.levels - spectrum.levels[1]) <= tol)


def first_excited_level(spec: HamiltonianSpec) -> np.ndarray:
    """The first excited level's eigenvectors (``first_excited_levels``, every
    copy), as register-basis columns; more than ``spinops.MAX_SITES`` sites
    raise ModelParameterError.

    In a degenerate level the columns (from the dense block, or each from
    one copy of a total leaf spin) are a gauge choice; their uniform
    mixture is not."""
    first_excited_levels(spec)
    values = spec.spectrum.values
    tol = degeneracy_tolerance(values)
    return spec.spectrum.vectors(np.flatnonzero(np.abs(values - values[1]) <= tol))
