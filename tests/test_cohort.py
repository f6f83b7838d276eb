import numpy as np
import pytest

from pcar.agent import ContextBucket
from pcar.cohort import (
    DEFAULT_RECEPTIVITY_SHAPE,
    HOURS,
    ParticipantModel,
    accept,
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
