"""Ground-truth simulated participants.

Each participant owns an hourly receptivity curve (probability of engaging
with a prompt), a momentary-stress generator on the 1-7 scale, and a base
effect for every (attribute value, time-of-day) pair. Realized effects are
scaled by a switch-clock fatigue factor: repeated consecutive use decays
geometrically, and a rested value only regains full strength after a few
rounds of dormancy.

Engagement feedback: receiving content that keeps paying off nudges a
participant's willingness to engage upward, and disappointing content
nudges it down. The study runner tracks the multiplier per participant and
passes it into ``accept``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .agent import PERIODS, AttributeSchema, ContextBucket
from .catalog import DEFAULT_SCHEMA

HOURS = tuple(range(8, 22))  # curve slots for hours 08..21
TRAIT_BUCKETS = 2  # participant trait buckets in the learner's context

# Receptivity shape (relative, later scaled to a target mean): peaks at
# 16:00 and 19:00, dips at 08:00 and 18:00.
DEFAULT_RECEPTIVITY_SHAPE = (
    0.62, 0.80, 0.86, 0.90, 0.92, 0.84, 0.92, 0.98, 1.25, 1.06, 0.80, 1.22,
    1.06, 0.95,
)

# Hourly stress offsets (Likert points) around the personal baseline:
# morning rush, a midday lull, and an evening-routine climb.
DEFAULT_STRESS_OFFSETS = (
    0.6, 0.3, 0.0, -0.2, -0.3, 0.1, -0.1, -0.2, 0.0, 0.2, 0.5, 0.6, 0.4, 0.2,
)

DEFAULT_COMPLETION_RATE = 0.916


@dataclass(frozen=True)
class EngagementParams:
    enabled: bool = True
    rate: float = 0.5
    reference_benefit: float = 0.44
    floor: float = 0.5
    ceiling: float = 1.6


@dataclass
class ParticipantModel:
    """Frozen simulation parameters for one participant. Runtime state
    (clocks, engagement level, budget) lives with the study runner."""

    pid: str
    baseline_stress: float
    hourly_stress_offsets: tuple[float, ...]
    receptivity_curve: tuple[float, ...]
    base_effects: dict  # (attr index, value index, period index) -> Likert points
    fatigue_decay: float = 0.6
    recovery_rounds: int = 3
    noise_sigma: float = 1.0
    trait_bucket: int = 0
    seed: int = 0
    completion_rate: float = DEFAULT_COMPLETION_RATE
    control_post_drift: float = 0.15
    fatigue_enabled: bool = True
    engagement: EngagementParams = field(default_factory=EngagementParams)

    def __post_init__(self) -> None:
        if not 1.0 <= self.baseline_stress <= 7.0:
            raise ValueError("baseline stress must sit on the 1-7 scale")
        if len(self.hourly_stress_offsets) != len(HOURS):
            raise ValueError(f"need {len(HOURS)} hourly stress offsets")
        if len(self.receptivity_curve) != len(HOURS):
            raise ValueError(f"need {len(HOURS)} receptivity values")
        if not all(0.0 <= p <= 1.0 for p in self.receptivity_curve):
            raise ValueError("receptivity values must be probabilities")
        if not 0.0 < self.fatigue_decay < 1.0:
            raise ValueError("fatigue_decay must be in (0, 1)")
        if self.recovery_rounds < 1:
            raise ValueError("recovery_rounds must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if any(abs(b) > 3.0 for b in self.base_effects.values()):
            raise ValueError("base effects are capped at 3 Likert points")


def _likert(x: float) -> int:
    """Round half away from zero, then clamp to the 1-7 scale."""
    rounded = math.floor(abs(x) + 0.5) * (1 if x >= 0 else -1)
    return max(1, min(7, rounded))


def fatigue_factor(p: ParticipantModel, tau: int) -> float:
    """Clock-driven effect multiplier: mu^|tau| while being reused,
    tau/recovery_rounds (capped at 1) while resting."""
    if tau == 0:
        raise ValueError("clocks are never zero")
    if not p.fatigue_enabled:
        return 1.0
    if tau < 0:
        return p.fatigue_decay ** (-tau)
    return min(1.0, tau / p.recovery_rounds)


def accept(p: ParticipantModel, hour: int, rng: np.random.Generator,
           engagement: float = 1.0) -> bool:
    """Bernoulli engagement draw at the hour's receptivity. Covers both
    outright declines and conversations that time out unanswered."""
    if not 8 <= hour < 21:
        raise ValueError(f"hour {hour} outside the delivery window")
    prob = min(1.0, max(0.0, p.receptivity_curve[hour - 8] * engagement))
    return bool(rng.random() < prob)


def pre_stress(p: ParticipantModel, hour: int, rng: np.random.Generator) -> int:
    """Momentary stress rating: discretized Gaussian around the personal
    baseline plus the hour's offset."""
    if not 8 <= hour <= 21:
        raise ValueError(f"hour {hour} outside the rating window")
    mean = p.baseline_stress + p.hourly_stress_offsets[hour - 8]
    return _likert(mean + float(rng.normal(0.0, p.noise_sigma)))


def effect_strength(p: ParticipantModel, value_indices, taus_before,
                    ctx: ContextBucket) -> float:
    """Mean over attributes of base effect x fatigue factor for the chosen
    values, under the clocks they were chosen at."""
    if isinstance(value_indices, (int, np.integer)):
        value_indices = (int(value_indices),)
    if isinstance(taus_before, (int, np.integer)):
        taus_before = (int(taus_before),)
    if len(value_indices) != len(taus_before):
        raise ValueError("one clock per chosen value")
    period = PERIODS.index(ctx.period)
    total = 0.0
    for attr, (v, tau) in enumerate(zip(value_indices, taus_before)):
        b = p.base_effects.get((attr, int(v), period), 0.0)
        total += b * fatigue_factor(p, int(tau))
    return total / len(value_indices)


def post_stress(p: ParticipantModel, pre: int, value_indices, taus_before,
                ctx: ContextBucket, rng: np.random.Generator) -> int:
    """Stress rating ten minutes after content: the pre rating pulled down
    by the fatigue-scaled effect, plus noise, re-discretized."""
    if not 1 <= pre <= 7:
        raise ValueError("pre rating must sit on the 1-7 scale")
    effect = effect_strength(p, value_indices, taus_before, ctx)
    return _likert(pre - effect + float(rng.normal(0.0, p.noise_sigma)))


def control_post_stress(p: ParticipantModel, hour: int,
                        rng: np.random.Generator) -> int:
    """Follow-up rating for prompt-only contacts: drawn like a momentary
    rating with a small upward drift (being polled twice without any
    content to show for it reads as slightly stressful)."""
    if not 8 <= hour <= 21:
        raise ValueError(f"hour {hour} outside the rating window")
    mean = (p.baseline_stress + p.hourly_stress_offsets[hour - 8]
            + p.control_post_drift)
    return _likert(mean + float(rng.normal(0.0, p.noise_sigma)))


def update_engagement(p: ParticipantModel, engagement: float,
                      felt_benefit: float) -> float:
    """Drift the engagement multiplier by how much the last completed
    intervention actually helped (the noiseless, fatigue-scaled effect --
    what the participant felt, not the noisy rating difference) relative
    to the participant's reference point."""
    e = p.engagement
    if not e.enabled:
        return engagement
    drifted = engagement + e.rate * (felt_benefit - e.reference_benefit)
    return min(e.ceiling, max(e.floor, drifted))


def draw_preference_map(rng: np.random.Generator,
                        schema: AttributeSchema = DEFAULT_SCHEMA) -> dict:
    """Cohort-level taste structure: for every (trait bucket, attribute,
    period) pick a best and a second-best value. Participants sharing a
    trait bucket share these preferences (plus personal jitter)."""
    prefs = {}
    for trait in range(TRAIT_BUCKETS):
        for attr in range(schema.n_attributes):
            n_values = len(schema.values(attr))
            for period in range(len(PERIODS)):
                first = int(rng.integers(n_values))
                second = first
                if n_values > 1:
                    while second == first:
                        second = int(rng.integers(n_values))
                prefs[(trait, attr, period)] = (first, second)
    return prefs


def build_participant(
    pid: str,
    index: int,
    rng: np.random.Generator,
    prefs: dict,
    mean_acceptance: float = 0.50,
    schema: AttributeSchema = DEFAULT_SCHEMA,
    effect_best: float = 1.2,
    effect_second: float = 0.6,
    effect_other: float = 0.15,
    fatigue_decay: float = 0.6,
    recovery_rounds: int = 3,
    noise_sigma: float = 1.0,
    completion_rate: float = DEFAULT_COMPLETION_RATE,
    control_post_drift: float = 0.15,
    fatigue_enabled: bool = True,
    engagement: EngagementParams | None = None,
    seed: int = 0,
) -> ParticipantModel:
    """One participant drawn around the default profile. ``index`` fixes
    the trait bucket (alternating, so both buckets stay populated)."""
    trait = index % TRAIT_BUCKETS
    shape = np.asarray(DEFAULT_RECEPTIVITY_SHAPE)
    curve = shape / shape.mean() * mean_acceptance
    curve = curve + rng.normal(0.0, 0.02, size=len(HOURS))
    curve = np.clip(curve, 0.02, 0.98)
    baseline = float(np.clip(4.0 + rng.normal(0.0, 0.35), 2.5, 5.5))
    offsets = tuple(
        float(o + rng.normal(0.0, 0.1)) for o in DEFAULT_STRESS_OFFSETS
    )
    effects = {}
    for attr in range(schema.n_attributes):
        n_values = len(schema.values(attr))
        for period in range(len(PERIODS)):
            first, second = prefs[(trait, attr, period)]
            for v in range(n_values):
                base = (effect_best if v == first
                        else effect_second if v == second
                        else effect_other)
                b = base + float(rng.normal(0.0, 0.08))
                effects[(attr, v, period)] = float(np.clip(b, -3.0, 3.0))
    return ParticipantModel(
        pid=pid,
        baseline_stress=baseline,
        hourly_stress_offsets=offsets,
        receptivity_curve=tuple(float(c) for c in curve),
        base_effects=effects,
        fatigue_decay=fatigue_decay,
        recovery_rounds=recovery_rounds,
        noise_sigma=noise_sigma,
        trait_bucket=trait,
        seed=seed,
        completion_rate=completion_rate,
        control_post_drift=control_post_drift,
        fatigue_enabled=fatigue_enabled,
        engagement=engagement or EngagementParams(),
    )


def default_cohort(
    n: int,
    rng: np.random.Generator,
    mean_acceptance: float = 0.50,
    schema: AttributeSchema = DEFAULT_SCHEMA,
    **overrides,
) -> list[ParticipantModel]:
    """Draw n participants around the default profile at the configured
    group-mean acceptance."""
    if n < 1:
        raise ValueError(f"cohort size must be >= 1, got {n}")
    prefs = draw_preference_map(rng, schema)
    return [
        build_participant(
            pid=f"p{i + 1:03d}",
            index=i,
            rng=rng,
            prefs=prefs,
            mean_acceptance=mean_acceptance,
            schema=schema,
            **overrides,
        )
        for i in range(n)
    ]
