"""Eavesdropper scenarios and their detection statistics.

Three adversaries against the energy-sign key protocol:

* an independent Eve who prepares her own copy of the resource state,
  measures it, and replays the broadcast feedback -- her outcomes are
  uncorrelated with the sender's, so her state and key both miss;
* a post-selecting Eve who conditions her copy on the broadcast bit
  with probability one -- the only adversary whose state reproduces the
  receiver's exactly (and the conditioning is not physically
  realizable, which is the point);
* a man-in-the-middle who replaces the shared resource state with two
  pairs (Eve-sender, Eve-receiver), destroying the correlations the
  receiver decodes from.

Every attack draws its shared rounds through ``_rounds`` and decodes a
key bit as a session does: by the sign of ``ConditionalTable.decode``,
the energy the feedback rotation extracts from the conditional state.

Every state an attack compares is sum_i w_i O_i |g><g| O_i†, each O_i a
receiver rotation U(a) times a projector P(b) (U(a) alone when Eve
waits), built from their 2x2 factors on the receiver's support S.  So
``AttackReport.eve_state`` and ``bob_reference_state`` are marginals on
S, and the trace distance between the two states is the register's,
exact, through the Gram matrix of the vectors O_i |g> (``_gram_distance``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import MeasurementBasis, RunContext, conditional_table
from .rng import SUBSTREAM, stream
from .tolerances import TOL

VERIFICATION_BITS = 64  # key prefix the parties compare in a split attack
SPLIT_CASES = ("eve_waits", "eve_measures_first_silent", "eve_measures_first_sends")


@dataclass(frozen=True)
class AttackScenario:
    kind: str  # "independent" | "postselect" | "split_entanglement"
    sub_case: str | None = None

    def __post_init__(self):
        if self.kind not in ("independent", "postselect", "split_entanglement"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.kind == "split_entanglement":
            if self.sub_case not in SPLIT_CASES:
                raise ValueError(f"split attack needs a sub-case from {SPLIT_CASES}")
        elif self.sub_case is not None:
            raise ValueError("sub_case only applies to split_entanglement")


@dataclass(frozen=True)
class AttackReport:
    scenario: AttackScenario
    eve_state: np.ndarray  # marginal on the receiver's support S
    trace_distance_to_bob: float
    key_match_rate_alice_bob: float
    key_match_rate_eve_bob: float
    detection: str
    rounds: int
    se_alice_bob: float
    se_eve_bob: float
    joint_counts: np.ndarray  # counts over (sender bit, Eve bit)

    def to_kv(self) -> str:
        """Flat key=value block for CLI output and golden tests."""
        lines = [
            f"scenario={self.scenario.kind}",
            f"sub_case={self.scenario.sub_case or '-'}",
            f"rounds={self.rounds}",
            f"trace_distance_to_bob={self.trace_distance_to_bob:.12g}",
            f"key_match_rate_alice_bob={self.key_match_rate_alice_bob:.12g}",
            f"se_alice_bob={self.se_alice_bob:.12g}",
            f"key_match_rate_eve_bob={self.key_match_rate_eve_bob:.12g}",
            f"se_eve_bob={self.se_eve_bob:.12g}",
            f"detection={self.detection}",
        ]
        return "\n".join(lines) + "\n"


def _match_stats(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Agreement rate and its binomial standard error."""
    n = len(a)
    rate = np.count_nonzero(a == b) / n
    se = float(np.sqrt(max(rate * (1.0 - rate), 1e-12) / n))
    return rate, se


def _state(ctx: RunContext, rho: np.ndarray, terms: dict) -> np.ndarray:
    """sum_i w_i O_i rho O_i† on S, for ``terms`` mapping the arguments of
    O_i = ``ctx.round_operator(a, b, basis)`` to w_i."""
    ops = {key: ctx.round_operator(*key) for key in terms}
    return sum(w * ops[key] @ rho @ ops[key].conj().T for key, w in terms.items())


def _bob_terms(ctx: RunContext) -> dict:
    """The receiver's state: U(b) P(b), each of weight 1 (identity encoding)."""
    return {(b, b, ctx.alice): 1.0 for b in (0, 1)}


def _gram_distance(ctx: RunContext, rho: np.ndarray, eve_terms: dict) -> float:
    """(1/2) ||sum_i D_i O_i |g><g| O_i†||_1 between Eve's and the receiver's states.

    Over the union of their operators, D = w_Eve - w_Bob, exactly 0 where
    the states share a term.  With V = [O_i |g>], V D V† has the nonzero
    eigenvalues of R† D R, where G = V† V (G_ij = Tr[rho_S O_i† O_j], rho_S
    = ``rho``) is R R† on its range: the eigenpairs above 1e-12 of the largest.
    """
    bob = _bob_terms(ctx)
    keys = list(dict.fromkeys([*eve_terms, *bob]))
    ops = np.array([ctx.round_operator(*key) for key in keys])
    d = np.array([eve_terms.get(key, 0.0) - bob.get(key, 0.0) for key in keys])
    values, vectors = np.linalg.eigh(np.einsum("icb,jcb->ij", ops.conj(), ops @ rho))
    keep = values > 1e-12 * values[-1]
    r = vectors[:, keep] * np.sqrt(values[keep])
    return 0.5 * float(np.abs(np.linalg.eigvalsh(r.conj().T @ (d[:, None] * r))).sum())


def bob_reference_state(ctx: RunContext) -> np.ndarray:
    """Receiver's exact post-feedback ensemble state (identity encoding), on S."""
    return _state(ctx, ctx.ground, _bob_terms(ctx))


def _rounds(ctx: RunContext, kind: str, rounds: int, seed: int):
    """The rounds every attack shares, drawn from the attack's own sub-stream.

    Returns the ground state's marginal on S, the normalized outcome odds,
    the 2x2 key-bit table key_bit[b, b'] that the session decode table
    gives for outcome b and announced bit b' (1 where its energy is
    negative), the logical bits, the sender's outcomes, the announced bits
    and the stream, from which Eve's draws follow.  Every per-round array is uint8.  A key is read from the table
    by ``_key_bits``, a 4-bit mask indexed by (b << 1) | b', never by a 2-D
    gather, which widened both bit arrays to intp.
    """
    if rounds < 1:
        raise ValueError(f"an attack needs at least one round, got {rounds}")
    rho = ctx.ground
    table = conditional_table(ctx, rho)
    prob = table.prob / table.prob.sum()
    rng = stream(seed, SUBSTREAM[f"attack_{kind}"])
    logical = rng.integers(0, 2, rounds).astype(np.uint8)
    b_alice = _sample_bits(prob[0], rounds, rng)
    announced = b_alice ^ logical  # send b for logical 1, b^1 for logical 0
    announced ^= 1
    key_bit = (table.decode() < 0).view(np.uint8)
    return rho, prob, key_bit, logical, b_alice, announced, rng


def _key_bits(key_bit: np.ndarray, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """key_bit[b, a] for a 2x2 bit table and uint8 bit arrays b and a.

    The table is packed into a 4-bit mask, entry [b, a] at bit (b << 1) | a,
    so the lookup is three uint8 passes; the gather widened both index
    arrays to intp.
    """
    mask = np.packbits(key_bit, bitorder="little")[0]
    return (mask >> ((b << 1) | a)) & 1


def _joint_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 float tally of the bit pairs (a[i], b[i])."""
    ones_a, ones_b = np.count_nonzero(a), np.count_nonzero(b)
    both = np.count_nonzero(a & b)
    return np.array([[len(a) - ones_a - ones_b + both, ones_b - both],
                     [ones_a - both, both]], dtype=float)


def _sample_bits(p0: float, n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(n) >= p0).view(np.uint8)


def _report(ctx: RunContext, scenario: AttackScenario, rho: np.ndarray, eve_terms: dict,
            logical: np.ndarray, bob_key: np.ndarray, eve_key: np.ndarray,
            joint_counts: np.ndarray, detection: str = "none") -> AttackReport:
    """Key agreement statistics and Eve's state ``eve_terms`` (see ``_state``),
    with its distance to the receiver's."""
    rate_ab, se_ab = _match_stats(logical, bob_key)
    rate_eb, se_eb = _match_stats(eve_key, bob_key)
    return AttackReport(
        scenario=scenario,
        eve_state=_state(ctx, rho, eve_terms),
        trace_distance_to_bob=_gram_distance(ctx, rho, eve_terms),
        key_match_rate_alice_bob=rate_ab,
        key_match_rate_eve_bob=rate_eb,
        detection=detection,
        rounds=len(logical),
        se_alice_bob=se_ab,
        se_eve_bob=se_eb,
        joint_counts=joint_counts,
    )


def eve_independent(ctx: RunContext, eve_basis: MeasurementBasis | None = None,
                    rounds: int = 10_000, seed: int = 0) -> AttackReport:
    """Eve measures her own copy of the resource state and replays the feedback.

    Her measurement outcomes are independent of the sender's, so her
    reconstructed state differs from the receiver's and her decoded key
    agrees with his only at chance level.  Her basis must sit on a site of
    the receiver's support S (ValueError otherwise).
    """
    eve_basis = eve_basis or ctx.alice
    rho, prob, key_bit, logical, b_alice, announced, rng = _rounds(ctx, "independent",
                                                                   rounds, seed)

    # Exact statistical state: Eve's measured ensemble, rotated by the
    # announced bit (identity encoding), weighted by the announcement odds.
    eve_terms = {(a, b, eve_basis): prob[a] for a in (0, 1) for b in (0, 1)}
    p_eve0 = float(np.trace(_state(ctx, rho, {(0, 0, eve_basis): 1.0})).real)

    b_eve = _sample_bits(p_eve0, rounds, rng)
    bob_key = _key_bits(key_bit, b_alice, announced)
    eve_key = _key_bits(key_bit, b_eve, announced)
    return _report(ctx, AttackScenario("independent"), rho, eve_terms, logical, bob_key,
                   eve_key, _joint_counts(b_alice, b_eve))


def eve_postselect(ctx: RunContext, rounds: int = 10_000, seed: int = 0) -> AttackReport:
    """Eve conditions her copy on the broadcast bit with probability one.

    Post-selection replaces her own measurement statistics with the
    sender's, so the state she assembles is identical to the receiver's
    -- and so is every key bit she decodes from it.
    """
    rho, _, key_bit, logical, b_alice, announced, _ = _rounds(ctx, "postselect", rounds, seed)
    bob_key = _key_bits(key_bit, b_alice, announced)
    eve_key = bob_key.copy()  # post-selected on b_alice: identical conditioning
    return _report(ctx, AttackScenario("postselect"), rho, _bob_terms(ctx), logical,
                   bob_key, eve_key, _joint_counts(b_alice, b_alice))


def split_attack(ctx: RunContext, sub_case: str, rounds: int = 10_000,
                 seed: int = 0) -> AttackReport:
    """Man-in-the-middle with two resource pairs instead of one.

    The sender unknowingly runs the protocol on the Eve-sender pair, the
    receiver on the Eve-receiver pair, so his conditional energies carry
    no information about her bits.  Eve herself plays the legitimate
    receiver on her sender-side pair and decodes the key perfectly.
    """
    if sub_case not in SPLIT_CASES:
        raise ValueError(f"unknown split sub-case {sub_case!r}")
    rho, prob, key_bit, logical, b_alice, announced, rng = _rounds(ctx, "split", rounds, seed)

    if sub_case == "eve_waits":
        # Receiver rotates an unmeasured pair: no projection ever happened.
        ref_b = ctx.forms.reference(rho)[1]
        energy_by_bit = np.array([ctx.forms.reference(_state(ctx, rho, {(a,): 1.0}))[1]
                                  - ref_b for a in (0, 1)])
        b_eve = np.zeros(rounds, dtype=np.uint8)  # never measured; tallied as 0
        # the receiver's key bit depends on the announced bit alone
        bob_key = _key_bits(np.tile(energy_by_bit < 0, (2, 1)), b_eve, announced)
        ones = np.count_nonzero(announced)
        q = np.array([rounds - ones, ones]) / rounds
        eve_terms = {(a,): q[a] for a in (0, 1)}
        detection = "verification_mismatch"
    else:
        b_eve = _sample_bits(prob[0], rounds, rng)  # Eve's outcomes on the EB pair
        used_bit = b_eve if sub_case == "eve_measures_first_sends" else announced
        bob_key = _key_bits(key_bit, b_eve, used_bit)
        q = _joint_counts(b_eve, used_bit) / rounds  # q[b_eve, bit the receiver used]
        eve_terms = {(a, be, ctx.alice): q[be, a] / prob[be]
                     for be in (0, 1) if prob[be] > TOL.outcome for a in (0, 1)}
        detection = ("double_message" if sub_case == "eve_measures_first_sends"
                     else "verification_mismatch")

    # Eve decodes from her side of the sender pair, where she is the
    # legitimate receiver of the teleported energy.
    eve_key = _key_bits(key_bit, b_alice, announced)

    compared = slice(VERIFICATION_BITS)
    if detection == "verification_mismatch" and np.all(logical[compared] == bob_key[compared]):
        detection = "none"  # verification happened to pass

    return _report(ctx, AttackScenario("split_entanglement", sub_case), rho, eve_terms,
                   logical, bob_key, eve_key, _joint_counts(b_alice, b_eve), detection)


def mutual_information_bits(joint_counts: np.ndarray) -> float:
    """Plug-in mutual information (bits) of a 2x2 contingency table."""
    total = joint_counts.sum()
    if total == 0:
        return 0.0
    p = joint_counts / total
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mi = 0.0
    for i in (0, 1):
        for j in (0, 1):
            if p[i, j] > 0:
                mi += p[i, j] * np.log2(p[i, j] / (px[i] * py[j]))
    return float(mi)
