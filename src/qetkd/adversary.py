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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import (
    MeasurementBasis,
    RunContext,
    conditional_table,
    local_projector,
)
from .rng import SUBSTREAM, stream
from .spinops import sandwich, trace_distance
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
    eve_state: np.ndarray
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
    rate = float(np.mean(a == b))
    se = float(np.sqrt(max(rate * (1.0 - rate), 1e-12) / n))
    return rate, se


def bob_reference_state(ctx: RunContext) -> np.ndarray:
    """Receiver's exact post-feedback ensemble state (identity encoding)."""
    return sum(ctx.rotate(b, ctx.project(b, ctx.rho_gs)) for b in (0, 1))


def _rounds(ctx: RunContext, kind: str, rounds: int, seed: int):
    """The rounds every attack shares, drawn from the attack's own sub-stream.

    Returns the normalized outcome odds, the session decode table
    decode[b, b'] (outcome b, announced bit b'), the logical bits, the
    sender's outcomes, the announced bits and the stream, from which Eve's
    draws follow.
    """
    if rounds < 1:
        raise ValueError(f"an attack needs at least one round, got {rounds}")
    table = conditional_table(ctx, ctx.gs)
    prob = table.prob / table.prob.sum()
    rng = stream(seed, SUBSTREAM[f"attack_{kind}"])
    logical = rng.integers(0, 2, rounds)
    b_alice = _sample_bits(prob[0], rounds, rng)
    announced = b_alice ^ (logical ^ 1)  # send b for logical 1, b^1 for logical 0
    return prob, table.decode(), logical, b_alice, announced, rng


def _joint_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 float tally of the bit pairs (a[i], b[i])."""
    return np.bincount(2 * a + b, minlength=4).reshape(2, 2).astype(float)


def _sample_bits(p0: float, n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(n) >= p0).astype(np.int64)


def _report(ctx: RunContext, scenario: AttackScenario, eve_state: np.ndarray,
            logical: np.ndarray, bob_key: np.ndarray, eve_key: np.ndarray,
            joint_counts: np.ndarray, detection: str = "none") -> AttackReport:
    """Key agreement statistics and Eve's distance to the receiver's state."""
    rate_ab, se_ab = _match_stats(logical, bob_key)
    rate_eb, se_eb = _match_stats(eve_key, bob_key)
    return AttackReport(
        scenario=scenario,
        eve_state=eve_state,
        trace_distance_to_bob=trace_distance(eve_state, bob_reference_state(ctx)),
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
    agrees with his only at chance level.
    """
    eve_basis = eve_basis or ctx.alice
    prob, decode, logical, b_alice, announced, rng = _rounds(ctx, "independent",
                                                             rounds, seed)

    # Exact statistical state: Eve's measured ensemble, rotated by the
    # announced bit (identity encoding), weighted by the announcement odds.
    eve_blocks = [sandwich(local_projector(eve_basis, b), eve_basis.site, ctx.rho_gs)
                  for b in (0, 1)]
    p_eve = [float(np.trace(block).real) for block in eve_blocks]
    eve_measured = eve_blocks[0] + eve_blocks[1]
    rho_e = sum(prob[a] * ctx.rotate(a, eve_measured) for a in (0, 1))

    b_eve = _sample_bits(p_eve[0], rounds, rng)
    bob_key = (decode[b_alice, announced] < 0).astype(np.int64)
    eve_key = (decode[b_eve, announced] < 0).astype(np.int64)
    return _report(ctx, AttackScenario("independent"), rho_e, logical, bob_key,
                   eve_key, _joint_counts(b_alice, b_eve))


def eve_postselect(ctx: RunContext, rounds: int = 10_000, seed: int = 0) -> AttackReport:
    """Eve conditions her copy on the broadcast bit with probability one.

    Post-selection replaces her own measurement statistics with the
    sender's, so the state she assembles is identical to the receiver's
    -- and so is every key bit she decodes from it.
    """
    _, decode, logical, b_alice, announced, _ = _rounds(ctx, "postselect", rounds, seed)
    bob_key = (decode[b_alice, announced] < 0).astype(np.int64)
    eve_key = bob_key.copy()  # post-selected on b_alice: identical conditioning
    return _report(ctx, AttackScenario("postselect"), bob_reference_state(ctx), logical,
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
    prob, decode, logical, b_alice, announced, rng = _rounds(ctx, "split", rounds, seed)

    if sub_case == "eve_waits":
        # Receiver rotates an unmeasured pair: no projection ever happened.
        rotated = [ctx.rotate(a, ctx.rho_gs) for a in (0, 1)]
        ref_b = ctx.forms.reference(ctx.gs)[1]
        energy_by_bit = np.array([ctx.forms.reference(r)[1] - ref_b for r in rotated])
        bob_energy = energy_by_bit[announced]
        q = np.bincount(announced, minlength=2) / rounds
        rho_eb = q[0] * rotated[0] + q[1] * rotated[1]
        b_eve = np.full(rounds, -1, dtype=np.int64)  # never measured
        detection = "verification_mismatch"
    else:
        b_eve = _sample_bits(prob[0], rounds, rng)  # Eve's outcomes on the EB pair
        used_bit = b_eve if sub_case == "eve_measures_first_sends" else announced
        bob_energy = decode[b_eve, used_bit]
        q = _joint_counts(b_eve, used_bit) / rounds  # q[b_eve, bit the receiver used]
        blocks = [ctx.project(be, ctx.rho_gs) for be in (0, 1)]
        weights = [float(np.trace(block).real) for block in blocks]
        rho_eb = sum(q[be, a] * ctx.rotate(a, blocks[be]) / weights[be]
                     for be in (0, 1) if weights[be] > TOL.outcome for a in (0, 1))
        detection = ("double_message" if sub_case == "eve_measures_first_sends"
                     else "verification_mismatch")

    bob_key = (bob_energy < 0).astype(np.int64)
    # Eve decodes from her side of the sender pair, where she is the
    # legitimate receiver of the teleported energy.
    eve_key = (decode[b_alice, announced] < 0).astype(np.int64)

    compared = slice(VERIFICATION_BITS)
    if detection == "verification_mismatch" and np.all(logical[compared] == bob_key[compared]):
        detection = "none"  # verification happened to pass

    return _report(ctx, AttackScenario("split_entanglement", sub_case), rho_eb,
                   logical, bob_key, eve_key,
                   _joint_counts(b_alice, np.maximum(b_eve, 0)), detection)


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
