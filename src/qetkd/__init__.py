"""Exact simulator for energy-teleportation-based key distribution."""

__version__ = "0.1.0"

from .models import (
    HamiltonianSpec,
    Partition,
    chain3,
    energy_gap,
    star,
    two_site,
    two_site_partition_alternative,
    two_site_partition_standard,
)
from .protocol import (
    FeedbackRule,
    MeasurementBasis,
    QetOutcome,
    RunContext,
    ThetaParams,
    ground_state,
    optimize_bob_basis,
    prepare,
    run_ensemble,
    run_ensemble_random_basis,
)
from .noise import (
    NoiseSpec,
    ThresholdReport,
    default_chain_coupling,
    mix_state,
    threshold_scan,
)
from .adversary import (
    AttackReport,
    AttackScenario,
    eve_independent,
    eve_postselect,
    split_attack,
)
from .qkd import (
    KeyBits,
    SessionConfig,
    SessionResult,
    run_multiparty,
    run_session,
    verify_resource_state,
)
