"""Ground-truth simulated participants.

A participant is what the cohort draws for one person: an hourly
receptivity curve (probability of engaging with a prompt), a stress
baseline with hourly offsets on the 1-7 scale, a base effect for every
(attribute value, time-of-day) pair, and a trait bucket. The laws every
participant shares -- rating noise, completion, the control group's drift,
the fatigue law and engagement drift -- are read from one place, the
validated ``cohort`` block of the study config, which each participant
holds. Realized effects are scaled by a switch-clock fatigue factor:
repeated consecutive use decays geometrically, and a rested value only
regains full strength after a few rounds of dormancy.

Engagement feedback: receiving content that keeps paying off nudges a
participant's willingness to engage upward, and disappointing content
nudges it down. The study runner tracks the multiplier per participant and
passes it into ``accept``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agent import PERIODS, ContextBucket
from .catalog import DEFAULT_SCHEMA

HOURS = tuple(range(8, 22))  # curve slots for hours 08..21
TRAIT_BUCKETS = 2  # participant trait buckets in the learner's context
# base effects per participant: one per (attribute value, period)
_N_EFFECTS = sum(len(vs) for _, vs in DEFAULT_SCHEMA.attributes) * len(PERIODS)

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


@dataclass
class ParticipantModel:
    """Frozen simulation parameters for one participant. Runtime state
    (clocks, engagement level, budget) lives with the study runner."""

    baseline_stress: float
    hourly_stress_offsets: tuple[float, ...]
    receptivity_curve: tuple[float, ...]
    base_effects: dict  # (attr index, value index, period index) -> Likert points
    trait_bucket: int
    laws: dict  # the validated ``cohort`` config block, shared by the cohort

    def __post_init__(self) -> None:
        if not 1.0 <= self.baseline_stress <= 7.0:
            raise ValueError("baseline stress must sit on the 1-7 scale")
        if len(self.hourly_stress_offsets) != len(HOURS):
            raise ValueError(f"need {len(HOURS)} hourly stress offsets")
        if len(self.receptivity_curve) != len(HOURS):
            raise ValueError(f"need {len(HOURS)} receptivity values")
        if not all(0.0 <= p <= 1.0 for p in self.receptivity_curve):
            raise ValueError("receptivity values must be probabilities")
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
    if not p.laws["fatigue_enabled"]:
        return 1.0
    if tau < 0:
        return p.laws["fatigue_decay"] ** (-tau)
    return min(1.0, tau / p.laws["recovery_rounds"])


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
    return _likert(mean + float(rng.normal(0.0, p.laws["noise_sigma"])))


def effect_strength(p: ParticipantModel, value_indices, taus_before,
                    ctx: ContextBucket) -> float:
    """Mean over attributes of base effect x fatigue factor for the chosen
    values, under the clocks they were chosen at."""
    if len(value_indices) != len(taus_before):
        raise ValueError("one clock per chosen value")
    period = PERIODS.index(ctx.period)
    total = 0.0
    for attr, (v, tau) in enumerate(zip(value_indices, taus_before)):
        b = p.base_effects.get((attr, int(v), period), 0.0)
        total += b * fatigue_factor(p, int(tau))
    return total / len(value_indices)


def post_stress(p: ParticipantModel, pre: int, effect: float,
                rng: np.random.Generator) -> int:
    """Stress rating ten minutes after content: the pre rating pulled down
    by the fatigue-scaled effect, plus noise, re-discretized."""
    if not 1 <= pre <= 7:
        raise ValueError("pre rating must sit on the 1-7 scale")
    return _likert(pre - effect + float(rng.normal(0.0, p.laws["noise_sigma"])))


def control_post_stress(p: ParticipantModel, hour: int,
                        rng: np.random.Generator) -> int:
    """Follow-up rating for prompt-only contacts: drawn like a momentary
    rating with a small upward drift (being polled twice without any
    content to show for it reads as slightly stressful)."""
    if not 8 <= hour <= 21:
        raise ValueError(f"hour {hour} outside the rating window")
    mean = (p.baseline_stress + p.hourly_stress_offsets[hour - 8]
            + p.laws["control_post_drift"])
    return _likert(mean + float(rng.normal(0.0, p.laws["noise_sigma"])))


def update_engagement(p: ParticipantModel, engagement: float,
                      felt_benefit: float) -> float:
    """Drift the engagement multiplier by how much the last completed
    intervention actually helped (the noiseless, fatigue-scaled effect --
    what the participant felt, not the noisy rating difference) relative
    to the participant's reference point."""
    e = p.laws["engagement"]
    if not e["enabled"]:
        return engagement
    drifted = engagement + e["rate"] * (felt_benefit - e["reference_benefit"])
    return min(e["ceiling"], max(e["floor"], drifted))


def draw_preference_map(rng: np.random.Generator) -> dict:
    """Cohort-level taste structure: for every (trait bucket, attribute,
    period) pick a best and a second-best value. Participants sharing a
    trait bucket share these preferences (plus personal jitter)."""
    prefs = {}
    for trait in range(TRAIT_BUCKETS):
        for attr in range(DEFAULT_SCHEMA.n_attributes):
            n_values = len(DEFAULT_SCHEMA.values(attr))
            for period in range(len(PERIODS)):
                first = int(rng.integers(n_values))
                second = first
                if n_values > 1:
                    while second == first:
                        second = int(rng.integers(n_values))
                prefs[(trait, attr, period)] = (first, second)
    return prefs


def build_participant(index: int, rng: np.random.Generator, prefs: dict,
                      mean_acceptance: float, block: dict) -> ParticipantModel:
    """One participant drawn around the default profile, with the effect
    sizes and shared laws of the validated ``cohort`` config ``block``.
    ``index`` fixes the trait bucket (alternating, so both buckets stay
    populated). Each group of jitters is one block draw, which a
    ``Generator`` makes as that many scalar draws in turn."""
    trait = index % TRAIT_BUCKETS
    shape = np.asarray(DEFAULT_RECEPTIVITY_SHAPE)
    curve = shape / shape.mean() * mean_acceptance
    curve = curve + rng.normal(0.0, 0.02, size=len(HOURS))
    curve = np.clip(curve, 0.02, 0.98)
    baseline = min(5.5, max(2.5, 4.0 + rng.normal(0.0, 0.35)))
    jitter = rng.normal(0.0, 0.1, size=len(DEFAULT_STRESS_OFFSETS)).tolist()
    offsets = tuple(o + j for o, j in zip(DEFAULT_STRESS_OFFSETS, jitter))
    jitter = iter(rng.normal(0.0, 0.08, size=_N_EFFECTS).tolist())
    effects = {}
    for attr in range(DEFAULT_SCHEMA.n_attributes):
        n_values = len(DEFAULT_SCHEMA.values(attr))
        for period in range(len(PERIODS)):
            first, second = prefs[(trait, attr, period)]
            for v in range(n_values):
                base = (block["effect_best"] if v == first
                        else block["effect_second"] if v == second
                        else block["effect_other"])
                effects[(attr, v, period)] = min(3.0, max(-3.0, base + next(jitter)))
    return ParticipantModel(
        baseline_stress=baseline,
        hourly_stress_offsets=offsets,
        receptivity_curve=tuple(curve.tolist()),
        base_effects=effects,
        trait_bucket=trait,
        laws=block,
    )


def default_cohort(n: int, rng: np.random.Generator, mean_acceptance: float,
                   block: dict) -> list[ParticipantModel]:
    """Draw n participants around the default profile at the configured
    group-mean acceptance, under the validated ``cohort`` config ``block``."""
    if n < 1:
        raise ValueError(f"cohort size must be >= 1, got {n}")
    prefs = draw_preference_map(rng)
    return [build_participant(i, rng, prefs, mean_acceptance, block)
            for i in range(n)]
