"""Key-distribution sessions over the energy-sign channel.

One logical key bit per round: the sender measures her site, announces
the outcome for logical 1 or its complement for logical 0, and every
receiver decodes by the sign of his conditional post-feedback energy
(negative -> 1, positive -> 0, magnitude below the threshold ->
erasure).  A configurable prefix of the key is sacrificed over the
classical channel to verify the transcript; the multi-party variant on
the star model detects a cheating sender by comparing energy signs
across receivers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateObjectiveError, TooManyErasuresError
from .models import MODELS, HamiltonianSpec, Partition, build_model, model_sites
from .noise import NoiseSpec, noisy_input_state
from .protocol import (
    MeasurementBasis,
    RunContext,
    conditional_table,
    prepare,
    run_ensemble,
)
from .rng import stream
from .spinops import require_density_matrix

POLICIES = ("fixed", "two-random", "haar")


@dataclass(frozen=True)
class SessionConfig:
    model: str = "chain3"
    k: float = 1.0
    h: float = 1.0
    coupling: float = 1.0
    n_parties: int = 1
    rounds: int = 256
    basis_policy: str = "fixed"
    epsilon: float | None = None  # None: |noiseless E_B| / 10
    verify_bits: int = 64
    noise: NoiseSpec | None = None
    seed: int = 0
    erasure_abort_fraction: float = 0.10

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.basis_policy not in POLICIES:
            raise ValueError(f"unknown basis policy {self.basis_policy!r}")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if not 0 <= self.verify_bits <= self.rounds:
            raise ValueError("verification bits must fit inside the round budget")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("decode threshold must be positive")
        site = None if self.noise is None else self.noise.site
        if site is not None and not 0 <= site < model_sites(self.model, self.n_parties):
            raise ValueError(f"noise site {site} is outside the {self.model} register")


@dataclass(frozen=True)
class KeyBits:
    """Decoded key; None marks an erasure."""

    bits: tuple[int | None, ...]

    def __len__(self) -> int:
        return len(self.bits)

    def as_str(self) -> str:
        return "".join("e" if b is None else str(b) for b in self.bits)

    def erasure_fraction(self) -> float:
        if not self.bits:
            return 0.0
        return sum(b is None for b in self.bits) / len(self.bits)

    def match_rate(self, other: "KeyBits") -> float:
        """Agreement over all rounds; erasures never match."""
        if len(self.bits) != len(other.bits):
            raise ValueError("key lengths differ")
        if not self.bits:
            return 1.0
        hits = sum(
            a is not None and a == b for a, b in zip(self.bits, other.bits)
        )
        return hits / len(self.bits)


@dataclass(frozen=True)
class PartyResult:
    label: str
    key: KeyBits
    energies: tuple[float, ...]


@dataclass(frozen=True)
class VerificationVerdict:
    ok: bool
    compared: int
    mismatches: int


@dataclass(frozen=True)
class SessionResult:
    alice_key: KeyBits
    parties: dict[str, PartyResult]
    verdict: VerificationVerdict
    epsilon: float
    transcript: tuple[str, ...] = field(repr=False, default=())

    def erasure_fraction(self) -> float:
        if not self.parties:
            return 0.0
        return max(p.key.erasure_fraction() for p in self.parties.values())


@dataclass(frozen=True)
class CheatVerdict:
    cheater: str | None
    dissent_fraction: dict[str, float]


@dataclass(frozen=True)
class ResourceVerdict:
    ok: bool
    mean_energy: float
    predicted: float
    stderr: float
    rounds: int


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _decode(energy: float, epsilon: float) -> int | None:
    if energy < -epsilon:
        return 1
    if energy > epsilon:
        return 0
    return None


@dataclass(frozen=True)
class _BasisTables:
    """Per-basis sampling data: outcome odds and conditional energies."""

    basis: MeasurementBasis
    p0: float
    tables: dict[str, np.ndarray]  # label -> table[b, announced]


def _tables_for_basis(spec: HamiltonianSpec, partition: Partition,
                      basis: MeasurementBasis, labels: list[str],
                      noise: NoiseSpec | None,
                      bob_axis: MeasurementBasis | str) -> _BasisTables:
    """Decode tables: energy the feedback rotation itself extracts.

    Each entry is Tr[U rho_cond U† H_B] - Tr[rho_cond H_B], i.e. the
    receiver's energy change referenced to his own post-measurement
    conditional state (which he can compute from the announced basis).
    For the X and Y bases this equals the resource-referenced value; for
    arbitrary axes it is the quantity whose sign carries the key bit.
    Probability-weighted, both references average to the ensemble E_B.
    """
    tables: dict[str, np.ndarray] = {}
    p0 = 0.5
    for label in labels:
        ctx = prepare(spec, partition, basis, bob_label=label, bob_axis=bob_axis)
        table = conditional_table(ctx, noisy_input_state(ctx, noise)[0])
        p0 = float(table.prob[0])
        tables[label] = table.decode()
    return _BasisTables(basis=basis, p0=p0, tables=tables)


def _default_epsilon(spec: HamiltonianSpec, partition: Partition,
                     labels: list[str]) -> float:
    ctx = prepare(spec, partition, MeasurementBasis.x(0), bob_label=labels[0])
    signal = abs(run_ensemble(ctx).e_bob)
    if signal <= 0.0:
        raise ValueError(
            "noiseless receiver energy vanishes; pass an explicit decode threshold"
        )
    return signal / 10.0


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

def run_session(config: SessionConfig,
                cheat_plan: dict[str, str] | None = None,
                ) -> SessionResult:
    """Run one seeded session; identical configs give identical transcripts.

    ``cheat_plan`` maps a party label to "flip": the sender transmits
    the complemented bit to that party in every round.
    """
    spec, partition, labels = build_model(config.model, config.coupling, k=config.k,
                                          h=config.h, n_parties=config.n_parties)
    epsilon = config.epsilon if config.epsilon is not None \
        else _default_epsilon(spec, partition, labels)
    cheat_plan = cheat_plan or {}
    for label in cheat_plan:
        if label not in labels:
            raise ValueError(f"cheat plan names unknown party {label!r}")

    rng = stream(config.seed, 0)
    classical_p = config.noise.p if (config.noise is not None
                                     and config.noise.kind == "classical_flip") else 0.0

    fixed_x = MeasurementBasis.x(0)
    cache: dict[str, _BasisTables] = {}

    def tables_for(basis: MeasurementBasis, axis_mode) -> _BasisTables:
        key = f"{basis.vector}"
        if key not in cache:
            cache[key] = _tables_for_basis(spec, partition, basis, labels,
                                           config.noise, axis_mode)
        return cache[key]

    alice_bits: list[int] = []
    party_keys: dict[str, list[int | None]] = {lab: [] for lab in labels}
    party_energies: dict[str, list[float]] = {lab: [] for lab in labels}
    transcript: list[str] = []

    for rnd in range(config.rounds):
        if config.basis_policy == "fixed":
            bt = tables_for(fixed_x, "paired")
        elif config.basis_policy == "two-random":
            basis = fixed_x if rng.integers(0, 2) == 0 else MeasurementBasis.y(0)
            bt = tables_for(basis, "paired")
        else:  # haar: resample until the feedback objective is non-degenerate
            bt = None
            for _ in range(100):
                basis = MeasurementBasis.haar_random(0, rng)
                try:
                    bt = _tables_for_basis(spec, partition, basis, labels,
                                           config.noise, "optimal")
                    break
                except DegenerateObjectiveError:
                    continue
            if bt is None:
                raise DegenerateObjectiveError(
                    "no usable measurement axis found in 100 draws"
                )

        logical = int(rng.integers(0, 2))
        outcome = int(rng.random() >= bt.p0)
        announced = outcome ^ (logical ^ 1)
        alice_bits.append(logical)

        for label in labels:
            sent = announced ^ 1 if cheat_plan.get(label) == "flip" else announced
            if classical_p > 0.0 and rng.random() < classical_p:
                sent ^= 1
            energy = float(bt.tables[label][outcome, sent])
            decoded = _decode(energy, epsilon)
            party_keys[label].append(decoded)
            party_energies[label].append(energy)
            n1, n2, n3 = bt.basis.vector
            transcript.append(
                f"{rnd},{n1:.12g},{n2:.12g},{n3:.12g},{sent},{label},"
                f"{energy:.12g},{'e' if decoded is None else decoded}"
            )

    alice_key = KeyBits(tuple(alice_bits))
    parties = {
        lab: PartyResult(lab, KeyBits(tuple(party_keys[lab])),
                         tuple(party_energies[lab]))
        for lab in labels
    }

    worst_erasure = max(
        (p.key.erasure_fraction() for p in parties.values()), default=0.0
    )
    if worst_erasure > config.erasure_abort_fraction:
        raise TooManyErasuresError(
            f"erasure fraction {worst_erasure:.3f} exceeds "
            f"{config.erasure_abort_fraction:.3f}"
        )

    mismatches = 0
    compared = config.verify_bits
    for lab in labels:
        for i in range(compared):
            if parties[lab].key.bits[i] != alice_key.bits[i]:
                mismatches += 1
    verdict = VerificationVerdict(ok=mismatches == 0, compared=compared,
                                  mismatches=mismatches)
    return SessionResult(alice_key=alice_key, parties=parties, verdict=verdict,
                         epsilon=epsilon, transcript=tuple(transcript))


def run_multiparty(config: SessionConfig,
                   cheat_plan: dict[str, str] | None = None,
                   ) -> tuple[SessionResult, CheatVerdict]:
    """Star-model session with sign-vote cheater detection.

    With an honest broadcast every receiver sees the same energy sign
    each round; transmitting a complemented bit to one victim flips the
    victim's sign in every affected round, so any two parties can point
    at the third by majority vote.
    """
    if config.model != "star" or config.n_parties < 2:
        raise ValueError("multi-party sessions need the star model with >= 2 parties")
    result = run_session(config, cheat_plan=cheat_plan)

    labels = list(result.parties)
    dissent = {lab: 0 for lab in labels}
    rounds = len(result.alice_key)
    for rnd in range(rounds):
        signs = {
            lab: 1 if result.parties[lab].energies[rnd] >= 0 else -1
            for lab in labels
        }
        # The sender's claimed bit votes too: logical 1 promises negative
        # energy.  With two receivers this breaks the tie.
        alice_vote = -1 if result.alice_key.bits[rnd] == 1 else 1
        total = sum(signs.values()) + alice_vote
        if total == 0:
            continue  # no majority; nobody blamed this round
        majority = 1 if total > 0 else -1
        for lab in labels:
            if signs[lab] != majority:
                dissent[lab] += 1
    fractions = {lab: dissent[lab] / rounds if rounds else 0.0 for lab in labels}
    worst = max(fractions.values(), default=0.0)
    cheater = None
    if worst > 0.0:
        cheater = max(fractions, key=fractions.get)
    return result, CheatVerdict(cheater=cheater, dissent_fraction=fractions)


# ---------------------------------------------------------------------------
# resource-state verification
# ---------------------------------------------------------------------------

def verify_resource_state(ctx: RunContext, source, rounds: int = 2000,
                          seed: int = 0) -> ResourceVerdict:
    """Spot-check a resource-state supplier by running rounds on its output.

    ``source`` is a callable returning the density matrix for round i.
    The empirical mean conditional energy must sit within five standard
    errors of the trusted-model prediction.  Decode tables are cached by
    the state's content, never by object identity: a supplier may return
    fresh arrays, and a recycled id must not resurrect another state's
    table.
    """
    predicted = run_ensemble(ctx).e_bob
    announced = [ctx.rule.mapped(b) for b in (0, 1)]
    rng = stream(seed, 4)
    energies = np.empty(rounds)
    cache: dict[tuple, tuple[float, np.ndarray]] = {}
    for i in range(rounds):
        rho = np.ascontiguousarray(source(i))
        key = (rho.shape, rho.dtype.str, hashlib.blake2b(rho).digest())
        if key not in cache:
            table = conditional_table(ctx, require_density_matrix(rho))
            cache[key] = (table.prob[0], table.decode()[(0, 1), announced])
        p0, table = cache[key]
        b = int(rng.random() >= p0)
        energies[i] = table[b]
    mean = float(np.mean(energies))
    stderr = float(np.std(energies) / np.sqrt(rounds)) if rounds else 0.0
    ok = abs(mean - predicted) <= 5.0 * stderr + 1e-12
    return ResourceVerdict(ok=ok, mean_energy=mean, predicted=predicted,
                           stderr=stderr, rounds=rounds)


def write_transcript(result: SessionResult, path) -> None:
    """Line-oriented transcript: round,basis,announced bit,party,energy,decoded."""
    header = "round,basis_n1,basis_n2,basis_n3,announced_bit,party,cond_energy,decoded_bit"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in result.transcript:
            fh.write(row + "\n")
