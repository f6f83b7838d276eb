import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcar.agent import PERIODS, ContextBucket
from pcar.catalog import DEFAULT_SCHEMA
from pcar.cohort import (
    DEFAULT_RECEPTIVITY_SHAPE,
    DEFAULT_STRESS_OFFSETS,
    HOURS,
    TRAIT_BUCKETS,
    ParticipantModel,
    accept,
    build_participant,
    control_post_stress,
    default_cohort,
    draw_preference_map,
    effect_strength,
    fatigue_factor,
    post_stress,
    pre_stress,
    update_engagement,
)
from pcar.study import DEFAULT_CONFIG, load_config

CTX = ContextBucket(period="morning", trait_bucket=0)


def make_participant(**kw):
    """Drawn quantities by keyword; any other keyword overrides a law of a
    copy of ``DEFAULT_CONFIG["cohort"]`` (noise off), checked by ``load_config``."""
    drawn = dict(
        baseline_stress=4.0,
        hourly_stress_offsets=(0.0,) * len(HOURS),
        receptivity_curve=(0.5,) * len(HOURS),
        base_effects={(0, 0, 0): 1.0},
        trait_bucket=0,
    )
    laws = {"noise_sigma": 0.0}
    for key, value in kw.items():
        (drawn if key in drawn else laws)[key] = value
    return ParticipantModel(**drawn, laws=load_config({"cohort": laws})["cohort"])


def curve_value(curve, hour):
    return curve[hour - 8]


def test_default_shape_peaks_and_dips():
    shape = DEFAULT_RECEPTIVITY_SHAPE
    assert curve_value(shape, 16) > curve_value(shape, 18)
    assert curve_value(shape, 19) > curve_value(shape, 18)
    assert curve_value(shape, 16) > curve_value(shape, 15)
    assert curve_value(shape, 8) < curve_value(shape, 9)  # 8 AM local minimum


def test_default_cohort_curves_hit_target_mean():
    rng = np.random.default_rng(0)
    cohort = default_cohort(12, rng, 0.5, DEFAULT_CONFIG["cohort"])
    means = [np.mean(p.receptivity_curve) for p in cohort]
    assert abs(np.mean(means) - 0.5) < 0.02
    rng = np.random.default_rng(0)
    control = default_cohort(12, rng, 0.77, DEFAULT_CONFIG["cohort"])
    means = [np.mean(p.receptivity_curve) for p in control]
    assert abs(np.mean(means) - 0.77) < 0.03
    for p in cohort:
        assert curve_value(p.receptivity_curve, 16) > curve_value(p.receptivity_curve, 18)


def test_default_cohort_rejects_empty():
    with pytest.raises(ValueError):
        default_cohort(0, np.random.default_rng(0), 0.5, DEFAULT_CONFIG["cohort"])


def test_effects_and_laws_come_from_the_cohort_block():
    block = load_config({"cohort": {"effect_best": 2.5, "effect_second": 0.6,
                                    "effect_other": -0.3, "noise_sigma": 0.2}})["cohort"]
    cohort = default_cohort(4, np.random.default_rng(3), 0.5, block)
    prefs = draw_preference_map(np.random.default_rng(3))  # the same first draws
    for p in cohort:
        assert p.laws is block
        for (attr, v, period), b in p.base_effects.items():
            first, second = prefs[(p.trait_bucket, attr, period)]
            want = 2.5 if v == first else 0.6 if v == second else -0.3
            assert abs(b - want) < 0.5  # personal jitter has sigma 0.08


def test_accept_extremes_and_window_guard():
    rng = np.random.default_rng(1)
    p = make_participant(receptivity_curve=(1.0,) * len(HOURS))
    assert all(accept(p, 10, rng) for _ in range(50))
    p = make_participant(receptivity_curve=(0.0,) * len(HOURS))
    assert not any(accept(p, 10, rng) for _ in range(50))
    with pytest.raises(ValueError):
        accept(p, 7, rng)
    with pytest.raises(ValueError):
        accept(p, 21, rng)  # delivery stops before 21:00


def test_accept_binomial_rate():
    rng = np.random.default_rng(7)
    p = make_participant()
    n = 10_000
    hits = sum(accept(p, 12, rng) for _ in range(n))
    assert abs(hits / n - 0.5) < 0.02


def test_pre_stress_deterministic_when_noise_off():
    rng = np.random.default_rng(0)
    p = make_participant()
    assert pre_stress(p, 10, rng) == 4
    high = make_participant(baseline_stress=7.0,
                            hourly_stress_offsets=(1.0,) * len(HOURS))
    assert pre_stress(high, 10, rng) == 7  # upper clamp


def test_pre_stress_mean_matches_monte_carlo_oracle():
    p = make_participant(noise_sigma=1.0)
    rng = np.random.default_rng(123)
    n = 10_000
    draws = [pre_stress(p, 12, rng) for _ in range(n)]

    # Independent oracle: vectorized clamp-and-round of the same Gaussian.
    oracle_rng = np.random.default_rng(9_999)
    raw = 4.0 + oracle_rng.normal(0.0, 1.0, size=200_000)
    disc = np.clip(np.floor(np.abs(raw) + 0.5) * np.sign(raw), 1, 7)
    assert abs(np.mean(draws) - disc.mean()) < 0.05


def test_post_stress_fully_rested_effect():
    p = make_participant()
    rng = np.random.default_rng(0)
    # clock +recovery_rounds means full effect of 1 point
    assert post_stress(
        p, 5, effect_strength(p, (0,), (p.laws["recovery_rounds"],), CTX), rng
    ) == 4


def test_post_stress_fatigued_effect_rounds_away():
    p = make_participant(fatigue_decay=0.6)
    rng = np.random.default_rng(0)
    # 0.6**3 = 0.216, round(5 - 0.216) = 5 -> reward 0
    assert fatigue_factor(p, -3) == pytest.approx(0.216)
    assert post_stress(p, 5, effect_strength(p, (0,), (-3,), CTX), rng) == 5


def test_fatigue_factor_monotone_grid():
    p = make_participant()
    rounds = p.laws["recovery_rounds"]
    for tau in range(-6, -1):
        assert fatigue_factor(p, tau) <= fatigue_factor(p, tau + 1)
    for tau in range(1, rounds):
        assert fatigue_factor(p, tau) <= fatigue_factor(p, tau + 1)
    assert fatigue_factor(p, rounds) == 1.0
    assert fatigue_factor(p, rounds + 2) == 1.0
    off = make_participant(fatigue_enabled=False)
    assert fatigue_factor(off, -5) == 1.0


def test_effect_strength_averages_attributes():
    p = make_participant(base_effects={(0, 0, 0): 1.0, (1, 2, 0): 0.5})
    got = effect_strength(p, (0, 2), (3, 3), CTX)
    assert got == pytest.approx((1.0 + 0.5) / 2)


def test_control_post_drift_slightly_negative_reward():
    p = make_participant(noise_sigma=1.0, control_post_drift=0.15)
    rng = np.random.default_rng(42)
    rewards = []
    for _ in range(20_000):
        pre = pre_stress(p, 12, rng)
        post = control_post_stress(p, 12, rng)
        rewards.append(pre - post)
    mean = float(np.mean(rewards))
    assert -0.3 < mean < 0.0


def test_update_engagement_drift_and_clip():
    p = make_participant(engagement=dict(rate=0.1, reference_benefit=0.4,
                                         floor=0.6, ceiling=1.3))
    e = update_engagement(p, 1.0, 1.4)
    assert e == pytest.approx(1.1)
    e = update_engagement(p, 1.29, 5.0)
    assert e == pytest.approx(1.3)
    e = update_engagement(p, 0.61, -5.0)
    assert e == pytest.approx(0.6)
    frozen = make_participant(engagement={"enabled": False})
    assert update_engagement(frozen, 1.0, 5.0) == 1.0


def test_reward_is_exact_difference():
    p = make_participant(noise_sigma=0.8)
    rng = np.random.default_rng(3)
    for _ in range(200):
        pre = pre_stress(p, 14, rng)
        post = post_stress(p, pre, effect_strength(p, (0,), (3,), CTX), rng)
        reward = pre - post
        assert reward == pre - post
        assert -6 <= reward <= 6
        assert 1 <= post <= 7


def test_preference_map_covers_all_cells():
    rng = np.random.default_rng(5)
    prefs = draw_preference_map(rng)
    assert len(prefs) == 2 * 3 * 3  # traits x attributes x periods
    for (trait, attr, period), (first, second) in prefs.items():
        assert first != second


def test_participant_validation():
    with pytest.raises(ValueError):
        make_participant(baseline_stress=0.5)
    with pytest.raises(ValueError):
        make_participant(receptivity_curve=(1.5,) * len(HOURS))
    with pytest.raises(ValueError):
        make_participant(base_effects={(0, 0, 0): 4.0})


def _per_draw_participant(index, rng, prefs, mean_acceptance, block):
    """``build_participant`` drawing each jitter on its own and clamping
    with ``np.clip``: the reference its block draws must reproduce."""
    trait = index % TRAIT_BUCKETS
    shape = np.asarray(DEFAULT_RECEPTIVITY_SHAPE)
    curve = shape / shape.mean() * mean_acceptance
    curve = curve + rng.normal(0.0, 0.02, size=len(HOURS))
    curve = np.clip(curve, 0.02, 0.98)
    baseline = float(np.clip(4.0 + rng.normal(0.0, 0.35), 2.5, 5.5))
    offsets = tuple(float(o + rng.normal(0.0, 0.1)) for o in DEFAULT_STRESS_OFFSETS)
    effects = {}
    for attr in range(DEFAULT_SCHEMA.n_attributes):
        n_values = len(DEFAULT_SCHEMA.values(attr))
        for period in range(len(PERIODS)):
            first, second = prefs[(trait, attr, period)]
            for v in range(n_values):
                base = (block["effect_best"] if v == first
                        else block["effect_second"] if v == second
                        else block["effect_other"])
                b = base + float(rng.normal(0.0, 0.08))
                effects[(attr, v, period)] = float(np.clip(b, -3.0, 3.0))
    return ParticipantModel(
        baseline_stress=baseline, hourly_stress_offsets=offsets,
        receptivity_curve=tuple(float(c) for c in curve), base_effects=effects,
        trait_bucket=trait, laws=block)


def _exact(v):
    """``v`` with each float as its type and bytes, containers in order."""
    if isinstance(v, float):
        return type(v), struct.pack("<d", v)
    if isinstance(v, dict):
        return dict, tuple((_exact(k), _exact(x)) for k, x in v.items())
    if isinstance(v, (tuple, list)):
        return type(v), tuple(map(_exact, v))
    return type(v), v


# effect sizes a validated cohort block can hold, past the +-3 clamp included
_EFFECTS = st.one_of(st.floats(-4.0, 4.0), st.integers(-4, 4),
                     st.sampled_from([3.0, -3.0, 2.95, -2.95, 1e300, -1e300]))


@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, 1000), seed=st.integers(0, 2**32 - 1),
       prefs_seed=st.integers(0, 2**32 - 1), mean_acceptance=st.floats(0.0, 1.0),
       best=_EFFECTS, second=_EFFECTS, other=_EFFECTS)
def test_block_drawn_participant_equals_the_per_draw_loop(
        index, seed, prefs_seed, mean_acceptance, best, second, other):
    """Byte for byte, every field (effects in insertion order) and the
    generator's state afterwards."""
    block = load_config({"cohort": {"effect_best": best, "effect_second": second,
                                    "effect_other": other}})["cohort"]
    prefs = draw_preference_map(np.random.default_rng(prefs_seed))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = build_participant(index, rng, prefs, mean_acceptance, block)
    want = _per_draw_participant(index, ref_rng, prefs, mean_acceptance, block)
    for f in fields(ParticipantModel):
        assert _exact(getattr(got, f.name)) == _exact(getattr(want, f.name)), f.name
    assert got.laws is block
    assert rng.bit_generator.state == ref_rng.bit_generator.state
