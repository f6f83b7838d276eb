"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The simulated-study criteria share one 20-seed batch of default-config
runs; seeds are frozen so results are reproducible bit-for-bit.
"""

import math
import time
from datetime import datetime

import mpmath
import numpy as np
import pytest

from pcar.agent import AgentBundle, AttributeSchema, ContextBucket, ghost_audit
from pcar.lsd import advance, initial_state
from pcar.scheduler import TimingHistory, TimingModel, composite_loss, train
from pcar.stats import pearson, pss_trend, welch_t
from pcar.study import (
    DEFAULT_CONFIG,
    load_config,
    oracle_check,
    run_study,
    timing_comparison,
)

mpmath.mp.dps = 50

ACCEPTANCE_SEEDS = list(range(2000, 2020))

PERIOD_CTXS = [
    ContextBucket(period=p, trait_bucket=t)
    for p in ("morning", "afternoon", "evening")
    for t in (0, 1)
]


def note(line: str) -> None:
    print(f"\n{line}")


@pytest.fixture(scope="module")
def study_batch():
    logs = []
    t0 = time.time()
    for seed in ACCEPTANCE_SEEDS:
        logs.append(run_study({"seed": seed}))
    elapsed = time.time() - t0
    return logs, elapsed


def _mean_of_means(per_pid):
    return float(np.mean([np.mean(v) for v in per_pid.values()]))


def _weekly(log, metric):
    cells = {}
    for r in log.records:
        if metric == "acceptance":
            value = 1.0 if r.accepted else 0.0
        else:
            if r.reward is None:
                continue
            value = float(r.reward)
        cells.setdefault((r.group, r.week), {}).setdefault(r.pid, []).append(value)
    return {key: _mean_of_means(per) for key, per in cells.items()}


def test_criterion_1_lsd_invariants():
    t0 = time.time()
    rng = np.random.default_rng(0xC1)
    steps = 0
    while steps < 10_000:
        k = int(rng.integers(1, 9))
        tau_max = int(rng.integers(1, 9))
        state = initial_state(k, tau_max)
        history = []
        for _ in range(int(rng.integers(1, 30))):
            arm = int(rng.integers(k))
            state = advance(state, arm)
            history.append(arm)
            steps += 1
            assert sum(1 for t in state.taus if t < 0) == 1
            assert all(t != 0 and abs(t) <= tau_max for t in state.taus)
        # magnitude law against an independent run-length counter
        for arm in range(k):
            tau = tau_max
            for a in history:
                if a == arm:
                    tau = -1 if tau > 0 else max(tau - 1, -tau_max)
                else:
                    tau = 1 if tau < 0 else min(tau + 1, tau_max)
            assert state.taus[arm] == tau
    elapsed = time.time() - t0
    assert elapsed < 5.0
    note(f"criterion 1 PASS: {steps} randomized steps, zero invariant "
         f"violations ({elapsed:.2f}s)")


def test_criterion_2_ghost_factorization():
    t0 = time.time()
    schema = AttributeSchema(
        (("flavor", ("a", "b", "c", "d")), ("spot", ("in", "out", "both")))
    )
    settings = dict(DEFAULT_CONFIG["agent"], epsilon_start=0.4, epsilon_end=0.05,
                    epsilon_decay_steps=1000, q_tau_clip=None)
    bundle = AgentBundle(schema, settings, n_trait_buckets=2, seed=0xC2)
    rng = np.random.default_rng(0xC2)
    ctx = PERIOD_CTXS[0]
    action = bundle.select_action(ctx)
    for _ in range(1000):
        nxt_ctx = PERIOD_CTXS[int(rng.integers(len(PERIOD_CTXS)))]
        action = bundle.step(ctx, action, float(rng.normal()), nxt_ctx)
        ctx = nxt_ctx
    clean = ghost_audit(bundle, samples=500)
    assert clean.passed and not clean.counterexamples

    def corrupted(agent, state, value_index, ctx_):
        other = (value_index + 1) % state.n_arms
        return (bundle.action_value(agent, state, value_index, ctx_)
                + 1e-3 * state.taus[other])

    dirty = ghost_audit(bundle, samples=500, lookup=corrupted)
    assert not dirty.passed and dirty.counterexamples
    elapsed = time.time() - t0
    assert elapsed < 5.0
    note(f"criterion 2 PASS: audit clean after 1000 updates; corrupted "
         f"lookup caught with {len(dirty.counterexamples)} counterexamples "
         f"({elapsed:.2f}s)")


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    result = oracle_check(k=2, tau_max=2, horizon=10, seeds=20, episodes=5000,
                          threshold=0.95, required=18)
    elapsed = time.time() - t0
    reached = sum(f >= 0.95 for f in result.fractions)
    assert result.optimal_total == pytest.approx(10.5)
    assert reached >= 18, result.fractions
    assert result.passed
    assert elapsed < 60.0
    note(f"criterion 3 PASS: {reached}/20 seeds at >=95% of the "
         f"brute-force optimum {result.optimal_total} ({elapsed:.1f}s)")


def test_criterion_4_ordering_reproduction(study_batch):
    logs, elapsed = study_batch
    final_p, final_r, final_c = [], [], []
    for log in logs:
        weekly = _weekly(log, "reward")
        final_week = max(week for (_, week) in weekly)
        final_p.append(weekly[("pcar", final_week)])
        final_r.append(weekly[("random", final_week)])
        final_c.append(weekly[("control", final_week)])
    mp, mr, mc = np.mean(final_p), np.mean(final_r), np.mean(final_c)
    res = welch_t(final_p, final_r)
    assert mp > mr > mc, (mp, mr, mc)
    assert res.p < 0.05, res
    assert elapsed < 300.0
    note(f"criterion 4 PASS: final-week reward pcar {mp:.3f} > random "
         f"{mr:.3f} > control {mc:.3f}; Welch p={res.p:.2e} over "
         f"{len(logs)} seeds ({elapsed:.0f}s batch)")


def test_criterion_5_engagement_trend(study_batch):
    logs, _ = study_batch
    wins = 0
    for log in logs:
        weekly = _weekly(log, "acceptance")
        weeks = sorted({week for (_, week) in weekly})
        w_last, w_prev = weeks[-1], weeks[-2]
        d_pcar = weekly[("pcar", w_last)] - weekly[("pcar", w_prev)]
        d_rand = weekly[("random", w_last)] - weekly[("random", w_prev)]
        wins += d_pcar >= d_rand
    n = len(logs)
    # exact one-sided sign test against a fair coin
    p_sign = sum(math.comb(n, i) for i in range(wins, n + 1)) / 2.0**n
    assert wins / n >= 0.70, f"{wins}/{n}"
    assert p_sign < 0.05, (wins, p_sign)
    note(f"criterion 5 PASS: pcar week-over-week acceptance change >= "
         f"random's on {wins}/{n} seeds (sign test p={p_sign:.2e})")


def test_criterion_6_budget_safety(study_batch):
    logs, _ = study_batch
    checked = 0
    for log in logs:
        per_day = {}
        for r in log.records:
            per_day.setdefault((r.pid, r.day), []).append(
                datetime.fromisoformat(r.timestamp)
            )
        for stamps in per_day.values():
            stamps.sort()
            assert len(stamps) <= 3
            for a, b in zip(stamps, stamps[1:]):
                assert (b - a).total_seconds() >= 120 * 60
            for t in stamps:
                assert t.weekday() < 5
                minute = t.hour * 60 + t.minute
                assert 8 * 60 <= minute < 21 * 60
            checked += len(stamps)
    note(f"criterion 6 PASS: zero budget violations across {checked} "
         f"initiated contacts in {len(logs)} studies")


def test_criterion_7_acceptance_calibration(study_batch):
    logs, _ = study_batch
    cfg = load_config({"seed": 0})
    target_i = cfg["cohort"]["mean_acceptance_intervention"]
    target_c = cfg["cohort"]["mean_acceptance_control"]
    rand_means, ctl_means, rand_rewards = [], [], []
    for log in logs:
        per_r, per_c, per_rw = {}, {}, {}
        for r in log.records:
            if r.phase != 1:
                continue
            bucket = per_r if r.group == "random" else per_c
            bucket.setdefault(r.pid, []).append(1.0 if r.accepted else 0.0)
            if r.group == "random" and r.reward is not None:
                per_rw.setdefault(r.pid, []).append(float(r.reward))
        rand_means.append(_mean_of_means(per_r))
        ctl_means.append(_mean_of_means(per_c))
        rand_rewards.append(_mean_of_means(per_rw))
    got_i, got_c = np.mean(rand_means), np.mean(ctl_means)
    got_rw = np.mean(rand_rewards)
    assert abs(got_i - target_i) < 0.05, got_i
    assert abs(got_c - target_c) < 0.05, got_c
    # random-content reward lands in the configured plausibility band
    assert 0.2 <= got_rw <= 0.5, got_rw
    note(f"criterion 7 PASS: two-week acceptance recovered at "
         f"{got_i:.3f} (target {target_i}) and {got_c:.3f} "
         f"(target {target_c}); random-content reward {got_rw:.3f} "
         f"within [0.2, 0.5]")


def test_criterion_8_stats_against_arbitrary_precision():
    x, y = [1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0]
    res = welch_t(x, y)

    def mp_welch(a, b):
        a = [mpmath.mpf(v) for v in a]
        b = [mpmath.mpf(v) for v in b]
        na, nb = len(a), len(b)
        ma, mb = sum(a) / na, sum(b) / nb
        va = sum((v - ma) ** 2 for v in a) / (na - 1)
        vb = sum((v - mb) ** 2 for v in b) / (nb - 1)
        se2 = va / na + vb / nb
        t = (ma - mb) / mpmath.sqrt(se2)
        df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
        p = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, df / (df + t * t),
                           regularized=True)
        return float(t), float(df), float(p)

    t_mp, df_mp, p_mp = mp_welch(x, y)
    assert abs(res.t - t_mp) <= 1e-9 * abs(t_mp)
    assert abs(res.df - df_mp) <= 1e-9 * abs(df_mp)
    assert abs(res.p - p_mp) <= 1e-9 * abs(p_mp)

    xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    ys = [2.1, 2.4, 3.1, 3.0, 4.8, 4.9, 5.5, 6.8, 6.6, 8.0]
    mx = sum(mpmath.mpf(v) for v in xs) / 10
    my = sum(mpmath.mpf(v) for v in ys) / 10
    num = sum((mpmath.mpf(a) - mx) * (mpmath.mpf(b) - my) for a, b in zip(xs, ys))
    den = mpmath.sqrt(sum((mpmath.mpf(a) - mx) ** 2 for a in xs)
                      * sum((mpmath.mpf(b) - my) ** 2 for b in ys))
    r_mp = float(num / den)
    assert abs(pearson(xs, ys) - r_mp) <= 1e-9 * abs(r_mp)

    slope = pss_trend([18.3, 17.0, 16.0])
    assert abs(slope - (-1.15)) <= 1e-12
    note("criterion 8 PASS: welch_t, pearson, pss_trend match the "
         "50-digit oracle to 1e-9 relative; trend on the questionnaire "
         f"fixture = {slope:.12f}")


def test_criterion_9_scheduler_learning():
    t0 = time.time()
    comparison = timing_comparison(seeds=20)
    assert np.mean(comparison.trained_acceptance) > np.mean(
        comparison.uniform_acceptance
    )
    assert comparison.p < 0.05, comparison
    # budgets matched within half a contact per day on average
    assert abs(np.mean(comparison.trained_daily)
               - np.mean(comparison.uniform_daily)) < 0.5

    history = TimingHistory()
    rng = np.random.default_rng(0xC9)
    for day in range(4):
        for _ in range(30):
            x = np.zeros(10)
            x[0] = float(rng.normal(3.0, 0.5)) * (1 if rng.random() < 0.5 else -1)
            history.append((x, 1.0 if x[0] > 0 else 0.0, day))
    model = TimingModel(weights=np.zeros(10))
    losses = [composite_loss(model, history, 3.0, 0.1)]
    for _ in range(100):
        model = train(model, history, daily_budget=3.0, budget_penalty=0.1, epochs=1,
                      step=0.05)
        losses.append(composite_loss(model, history, 3.0, 0.1))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    note(f"criterion 9 PASS: trained timing acceptance "
         f"{np.mean(comparison.trained_acceptance):.3f} vs uniform "
         f"{np.mean(comparison.uniform_acceptance):.3f} at matched budget "
         f"(Welch p={comparison.p:.2e}); loss non-increasing over 100 "
         f"epochs ({elapsed:.0f}s)")


def test_criterion_10_determinism(study_batch):
    logs, _ = study_batch
    fresh = run_study({"seed": ACCEPTANCE_SEEDS[0]})
    assert fresh.log_hash() == logs[0].log_hash()
    again = run_study({"seed": ACCEPTANCE_SEEDS[0]})
    assert again.log_hash() == fresh.log_hash()
    note(f"criterion 10 PASS: identical config+seed reproduces log hash "
         f"{fresh.log_hash()[:16]}…")
