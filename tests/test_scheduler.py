import math
from dataclasses import replace
from datetime import date, timedelta
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcar.scheduler
from pcar.scheduler import (
    N_FEATURES,
    BudgetState,
    ThresholdWalk,
    TimingHistory,
    TimingModel,
    calibrate_threshold,
    composite_loss,
    decide,
    eligible,
    expected_daily_triggers,
    features,
    fit,
    next_eligible,
    score,
    train,
    uniform_fires,
)
from pcar.study import DEFAULT_CONFIG

# calendar days; day 0 is a Monday
MONDAY = 0
TUESDAY = 1
WEDNESDAY = 2
SATURDAY = 5


def at(day: int, hh: int, mm: int = 0) -> int:
    """The study-minute of hh:mm on calendar day ``day``."""
    return day * 1440 + hh * 60 + mm


def test_eligible_rejects_weekend():
    assert not eligible(BudgetState(), at(SATURDAY, 10))


def test_eligible_enforces_two_hour_gap():
    b = BudgetState(delivered_today=1, last_delivery=at(TUESDAY, 9))
    assert not eligible(b, at(TUESDAY, 10))
    assert eligible(b, at(TUESDAY, 11))


def test_eligible_enforces_window():
    assert not eligible(BudgetState(), at(TUESDAY, 21, 5))
    assert not eligible(BudgetState(), at(TUESDAY, 7, 55))
    assert eligible(BudgetState(), at(TUESDAY, 8, 0))
    assert not eligible(BudgetState(), at(TUESDAY, 21, 0))


def test_eligible_daily_cap():
    b = BudgetState(delivered_today=3, last_delivery=at(TUESDAY, 8))
    assert not eligible(b, at(TUESDAY, 15))


def test_eligible_gap_spans_days():
    b = BudgetState(delivered_today=2, last_delivery=at(MONDAY, 7, 50))
    assert eligible(b, at(TUESDAY, 10))


def _plain_ticks(day, budget):
    """Reference walk, written out: every 5 minutes from 08:00 to 20:55,
    each hard rule checked by hand, the weekday read off the calendar and
    weekends always closed."""
    budget.start_day()
    weekend = (date(2024, 1, 1) + timedelta(days=day)).weekday() >= 5
    minute = 8 * 60
    while minute < 21 * 60:
        now = at(day, 0, minute)
        if (not weekend
                and budget.window_start_minute <= minute < budget.window_end_minute
                and budget.delivered_today < budget.max_per_day
                and (budget.last_delivery is None
                     or now - budget.last_delivery >= budget.min_gap_minutes)):
            yield now
        minute += 5


# budget shapes for the closed-form walks: the window start may be off the
# grid, and yesterday's count and an evening contact carry into the day
_SHAPES = dict(
    max_per_day=st.integers(0, 5),
    min_gap=st.integers(0, 300),
    window=st.tuples(st.integers(8 * 60, 21 * 60), st.integers(8 * 60, 21 * 60))
    .filter(lambda w: w[0] < w[1]),
    day=st.integers(0, 27),  # four calendar weeks, weekends included
    last_evening=st.one_of(st.none(), st.integers(17 * 60, 24 * 60 - 1)),
)


def _shape(max_per_day, min_gap, window, day, last_evening, delivered=None):
    last = None if last_evening is None else at(day - 1, 0, last_evening)
    return BudgetState(
        delivered_today=max_per_day if delivered is None else delivered,
        last_delivery=last, max_per_day=max_per_day, min_gap_minutes=min_gap,
        window_start_minute=window[0], window_end_minute=window[1])


@settings(max_examples=300, deadline=None)
@given(**_SHAPES, delivered=st.integers(0, 6), minute=st.integers(0, 24 * 60 - 1),
       today=st.one_of(st.none(), st.integers(8 * 60, 21 * 60)))
def test_next_eligible_is_the_first_eligible_grid_tick(
        max_per_day, min_gap, window, day, last_evening, delivered, minute, today):
    b = _shape(max_per_day, min_gap, window, day, last_evening, delivered)
    if today is not None:  # a contact earlier the same day
        b.last_delivery = at(day, 0, today)
    now = at(day, 0, minute)
    grid = (at(day, 0, m) for m in range(8 * 60, 21 * 60, 5))
    want = next((t for t in grid if t >= now and eligible(b, t)), None)
    assert next_eligible(b, now) == want


def _plain_fires(day, budget, rng, rate, history=None, key=None):
    """Reference trigger: one uniform per eligible tick of the plain walk.
    With ``history``, also one ``features`` row per tick: a fire yields
    its row and a passed tick is appended unlabeled."""
    for now in _plain_ticks(day, budget):
        x = None if history is None else features(now, budget)
        if rng.random() < rate:
            yield now, x
        elif history is not None:
            history.append((x, None, key))


def _contacts(fires, budget, rng, pools):
    """Drive a trigger walk without a history like a study does: deliver
    at every fire, then draw ``rng.integers``, which buffers half of a
    64-bit output between calls, as ``catalog.resolve`` does."""
    out = []
    for i, (now, x) in enumerate(fires):
        assert x is None  # no history: no features are computed
        budget.record_delivery(now)
        out.append((now, int(rng.integers(pools[i % len(pools)]))))
    return out


@settings(max_examples=300, deadline=None)
@given(**_SHAPES,
       rate=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2**32 - 1),
       pools=st.lists(st.integers(1, 16), min_size=1, max_size=4))
def test_uniform_fires_matches_one_draw_per_eligible_tick(
        max_per_day, min_gap, window, day, last_evening, rate, seed, pools):
    a = _shape(max_per_day, min_gap, window, day, last_evening)
    b = replace(a)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for d in range(day, day + 3):  # the gap and the RNG carry across days
        got = _contacts(uniform_fires(d, a, rng_a, rate), a, rng_a, pools)
        want = _contacts(_plain_fires(d, b, rng_b, rate), b, rng_b, pools)
        assert got == want
        assert a == b
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_uniform_fires_keeps_the_buffered_half_word():
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for r in (rng, ref):
        r.integers(3)  # leaves half of a 64-bit output buffered
    assert rng.bit_generator.state["has_uint32"] == 1
    a, b = BudgetState(), BudgetState()
    got = _contacts(uniform_fires(TUESDAY, a, rng, 0.05), a, rng, [16])
    want = _contacts(_plain_fires(TUESDAY, b, ref, 0.05), b, ref, [16])
    assert got == want and len(got) == 3
    assert rng.bit_generator.state == ref.bit_generator.state


def test_features_fresh_morning():
    x = features(at(MONDAY, 8), BudgetState())
    assert x[2] == 1.0 and x[3:7].sum() == 0  # Monday one-hot
    assert x[7] == 1.0  # no prior contact: gap at cap
    assert x[8] == 1.0  # full allowance
    assert x[9] == 1.0  # whole window ahead


def test_features_weekday_repeats_every_calendar_week():
    for week in range(4):
        for dow in range(7):
            x = features(at(7 * week + dow, 9), BudgetState())
            assert x[2:7].tolist() == [float(dow == i) for i in range(5)]


def test_features_window_exhausted():
    x = features(at(TUESDAY, 21), BudgetState())
    assert x[9] == 0.0


def test_window_features_and_base_rate_follow_the_budget_window():
    narrow = BudgetState(window_end_minute=13 * 60)  # 08:00-13:00, 60 ticks
    assert features(at(TUESDAY, 8), narrow)[9] == 1.0
    assert features(at(TUESDAY, 10, 30), narrow)[9] == 150 / 300
    rate = 3 / 60
    assert TimingModel.budget_init(narrow).bias == math.log(rate / (1 - rate))


def test_features_hour_trig():
    a = features(at(MONDAY, 8), BudgetState())
    b = features(at(MONDAY, 20), BudgetState())
    assert (a[0], a[1]) != (b[0], b[1])
    c = features(at(TUESDAY, 8), BudgetState())
    assert (a[0], a[1]) == (c[0], c[1])


def test_features_memo_rows_equal_features_and_are_read_only():
    memo = pcar.scheduler._tick_features
    now = at(WEDNESDAY, 13, 5)
    budgets = [BudgetState(last_delivery=last) for last in (
        None, 0, now - 5, now - 119, at(WEDNESDAY - 1, 20, 55), at(WEDNESDAY, 8))]
    budgets += [BudgetState(delivered_today=k, last_delivery=at(WEDNESDAY, 9))
                for k in (0, 1, 2, 3, 4)]
    budgets += [BudgetState(max_per_day=k, delivered_today=1) for k in (1, 2, 5)]
    budgets += [BudgetState(window_start_minute=lo, window_end_minute=hi)
                for lo, hi in ((13 * 60, 13 * 60 + 5), (12 * 60, 14 * 60),
                               (8 * 60, 8 * 60 + 30), (20 * 60, 21 * 60))]
    for budget in budgets:
        for tick in (now, at(WEDNESDAY, 8), at(WEDNESDAY, 20, 55), at(SATURDAY, 10)):
            row = memo(tick, *pcar.scheduler._state(budget))
            assert row.tobytes() == features(tick, budget).tobytes(), (tick, budget)
            assert memo(tick, *pcar.scheduler._state(budget)) is row  # a hit
            with pytest.raises(ValueError):
                row[0] = 1.0
    bound = memo.cache_info().maxsize
    assert bound is not None
    for tick in range(0, (bound + 1) * 5, 5):
        memo(tick, *pcar.scheduler._state(BudgetState()))
    assert memo.cache_info().currsize == bound


def test_score_zero_model_is_half():
    m = TimingModel(weights=np.zeros(N_FEATURES))
    assert score(m, np.zeros(N_FEATURES)) == 0.5


def test_score_limits_and_golden():
    m = TimingModel(weights=np.zeros(N_FEATURES), bias=50.0)
    assert score(m, np.zeros(N_FEATURES)) > 1 - 1e-12
    w = np.zeros(N_FEATURES)
    w[0], w[1] = 0.5, -0.25
    x = np.zeros(N_FEATURES)
    x[0], x[1] = 0.8, 0.4
    m = TimingModel(weights=w, bias=0.1)
    z = 0.5 * 0.8 - 0.25 * 0.4 + 0.1
    assert score(m, x) == pytest.approx(1.0 / (1.0 + math.exp(-z)), rel=1e-12)


def test_score_dimension_mismatch():
    with pytest.raises(ValueError):
        score(TimingModel(weights=np.zeros(N_FEATURES)), np.zeros(3))


def _history(rows):
    """A ``TimingHistory`` of ``rows``, appended one by one."""
    history = TimingHistory()
    for row in rows:
        history.append(row)
    return history


def _separable_history(n_per_class=40):
    rows = []
    for i in range(n_per_class):
        x = np.zeros(N_FEATURES)
        x[0] = 3.0
        rows.append((x, 1.0, i % 4))
        x2 = np.zeros(N_FEATURES)
        x2[0] = -3.0
        rows.append((x2, 0.0, i % 4))
    return rows


def test_train_fits_separable_set():
    rows = _separable_history()
    m = train(TimingModel(weights=np.zeros(N_FEATURES)), _history(rows),
              daily_budget=3.0, budget_penalty=0.0, epochs=500, step=0.05)
    X = np.vstack([x for x, _, _ in rows])
    y = np.asarray([lab for _, lab, _ in rows])
    p = 1.0 / (1.0 + np.exp(-(X @ m.weights + m.bias)))
    assert float(np.mean((p - y) ** 2)) < 0.05


def test_train_budget_pressure_reaches_allowance():
    rng = np.random.default_rng(0)
    rows = []
    for day in range(4):
        for _ in range(12):
            x = rng.normal(0, 0.1, size=N_FEATURES)
            rows.append((x, 1.0, day))
    history = _history(rows)
    m = train(TimingModel(weights=np.zeros(N_FEATURES)), history,
              daily_budget=3.0, budget_penalty=10.0, epochs=5000, step=0.005)
    assert abs(expected_daily_triggers(m, history) - 3.0) < 0.5


def test_train_zero_epochs_returns_unchanged():
    m = TimingModel(weights=np.zeros(N_FEATURES))
    history = _history(_separable_history(4))
    out = train(m, history, daily_budget=3.0, budget_penalty=0.1, epochs=0, step=0.05)
    assert np.array_equal(out.weights, m.weights) and out.bias == m.bias


def test_train_loss_non_increasing_per_epoch():
    history = _history(_separable_history(10))
    m = TimingModel(weights=np.zeros(N_FEATURES))
    losses = [composite_loss(m, history, 3.0, 0.1)]
    for _ in range(60):
        m = train(m, history, daily_budget=3.0, budget_penalty=0.1, epochs=1, step=0.05)
        losses.append(composite_loss(m, history, 3.0, 0.1))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_day_sums_equal_plain_loop_on_unsorted_keys():
    rng = np.random.default_rng(3)
    keys = [(pid, d) for pid in (2, 0, 1) for d in (3, 1, 2)]  # unsorted
    rows = [(rng.normal(size=N_FEATURES),
             float(rng.random() < 0.5) if i % 3 == 0 else None,
             keys[rng.integers(len(keys))]) for i in range(200)]
    m = TimingModel(weights=rng.normal(size=N_FEATURES) * 0.3, bias=-1.0)
    X = np.vstack([x for x, _, _ in rows])
    p = 1.0 / (1.0 + np.exp(-(X @ m.weights + m.bias)))
    totals = {}
    for pi, (_, _, day) in zip(p, rows):
        totals[day] = totals.get(day, 0.0) + pi
    want = float(np.mean([totals[d] for d in sorted(totals)]))
    history = _history(rows)
    assert expected_daily_triggers(m, history) == want
    y = np.asarray([np.nan if lab is None else lab for _, lab, _ in rows])
    mse = float(np.mean((p[~np.isnan(y)] - y[~np.isnan(y)]) ** 2))
    assert composite_loss(m, history, 3.0, 0.2) == mse + 0.2 * (want - 3.0) ** 2


def _reference_unpack(rows):
    """Per-row arrays of a history, one row per tick, no merging."""
    X = np.vstack([np.asarray(x, dtype=float) for x, _, _ in rows])
    y = np.asarray([np.nan if lab is None else lab for _, lab, _ in rows])
    return X, y, ~np.isnan(y), [day for _, _, day in rows]


def _reference_day_mean(p, days):
    totals = {}
    for pi, day in zip(p, days):
        totals[day] = totals.get(day, 0.0) + pi
    return sum(totals.values()) / len(totals)


def _reference_loss(model, rows, daily_budget, budget_penalty):
    X, y, labeled, days = _reference_unpack(rows)
    p = 1.0 / (1.0 + np.exp(-(X @ model.weights + model.bias)))
    mse = float(np.mean((p[labeled] - y[labeled]) ** 2))
    return mse + budget_penalty * (_reference_day_mean(p, days) - daily_budget) ** 2


def _reference_train(model, rows, daily_budget, budget_penalty, epochs, step):
    """The composite-loss gradient descent, one term per history row."""
    X, y, labeled, days = _reference_unpack(rows)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale < 1e-9] = 1.0
    X = (X - mean) / scale
    w, b = model.weights.copy(), model.bias
    n_days = len(set(days))
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        pressure = 2.0 * budget_penalty * (
            _reference_day_mean(p, days) - daily_budget)
        grad_w, grad_b = np.zeros_like(w), 0.0
        for xi, pi, yi, li in zip(X, p, y, labeled):
            g = pressure * pi * (1.0 - pi) / n_days
            if li:
                g += 2.0 * (pi - yi) * pi * (1.0 - pi) / labeled.sum()
            grad_w += g * xi
            grad_b += g
        w, b = w - step * grad_w, b - step * grad_b
    return w, b, mean, scale


def _duplicated_history():
    """Few distinct rows, each repeated, with unlabeled duplicates and
    tuple (participant, day) keys in no particular order."""
    rng = np.random.default_rng(7)
    distinct = [(rng.normal(size=N_FEATURES), lab)
                for lab in (None, None, None, 1.0, 0.0, 1.0)]
    keys = [(pid, d) for pid in (3, 0, 2) for d in (4, 1)]
    return [(distinct[i][0].copy(), distinct[i][1], keys[rng.integers(len(keys))])
            for i in rng.integers(len(distinct), size=300)]


def test_merged_rows_match_per_row_reference():
    rows = _duplicated_history()
    history = _history(rows)
    rng = np.random.default_rng(8)
    m = TimingModel(weights=rng.normal(size=N_FEATURES) * 0.3, bias=-1.0)
    X, _, _, days = _reference_unpack(rows)
    p = 1.0 / (1.0 + np.exp(-(X @ m.weights + m.bias)))
    assert math.isclose(expected_daily_triggers(m, history),
                        _reference_day_mean(p, days), rel_tol=1e-12)
    assert math.isclose(composite_loss(m, history, 3.0, 0.2),
                        _reference_loss(m, rows, 3.0, 0.2), rel_tol=1e-12)
    start = TimingModel.budget_init(BudgetState())
    got = train(start, history, daily_budget=3.0, budget_penalty=0.2, epochs=3,
                step=0.05)
    w, b, mean, scale = _reference_train(start, rows, 3.0, 0.2, epochs=3, step=0.05)
    np.testing.assert_allclose(got.feature_mean, mean, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got.feature_scale, scale, rtol=1e-10)
    np.testing.assert_allclose(got.weights, w, rtol=1e-10, atol=1e-12)
    assert math.isclose(got.bias, b, rel_tol=1e-10)


def test_timing_history_appended_row_by_row_trains_like_a_list():
    """A history appended row by row equals one fed the same list of rows
    through ``add_rows``, one call per run of rows with one label and day
    key, as the walks feed it; both train alike."""
    rows = _duplicated_history()
    history = _history(rows)
    assert len(history) == len(rows)
    assert history.n_labeled == sum(lab is not None for _, lab, _ in rows)
    batched = TimingHistory()
    for (y, day), run in groupby(rows, key=lambda row: (row[1], row[2])):
        batched.add_rows([x for x, _, _ in run], y, day)
    assert _history_rows(batched) == _history_rows(history)
    start = TimingModel.budget_init(BudgetState())
    a = train(start, history, daily_budget=3.0, budget_penalty=0.2, epochs=5, step=0.05)
    b = train(start, batched, daily_budget=3.0, budget_penalty=0.2, epochs=5, step=0.05)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    assert expected_daily_triggers(a, history) == expected_daily_triggers(a, batched)


def _allocating_train(model, history, daily_budget, budget_penalty, epochs, step):
    """Reference: ``train`` with a fresh array for every intermediate of
    every epoch, as the plain expressions evaluate them."""
    X, y, labeled, counts, n_days = pcar.scheduler._unpack_history(history)
    n_rows = counts.sum()
    if model.feature_mean is None:
        mean = counts @ X / n_rows
        scale = np.sqrt(counts @ (X - mean) ** 2 / n_rows)
        scale[scale < 1e-9] = 1.0
    else:
        mean, scale = model.feature_mean, model.feature_scale
    X = (X - mean) / scale
    w = model.weights.astype(float).copy()
    b = model.bias
    n_labeled = counts[labeled].sum()
    y_fit = np.where(labeled, y, 0.0)

    for _ in range(epochs):
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        sig_grad = p * (1.0 - p)
        # classification term over labeled rows
        g = np.where(labeled, 2.0 * (p - y_fit) * sig_grad / n_labeled, 0.0)
        # budget-pressure term over every eligible tick
        pressure = 2.0 * budget_penalty * (
            float(counts @ p) / n_days - daily_budget)
        g += pressure * sig_grad / n_days
        g *= counts
        w -= step * (X.T @ g)
        b -= step * float(np.sum(g))
    return replace(model, weights=w, bias=b, feature_mean=mean, feature_scale=scale)


@st.composite
def _fit_cases(draw):
    """A merged history with 1..all distinct rows labeled, a start model
    (with a preset standardization or without) and descent settings."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_distinct = draw(st.integers(1, 40))
    n_labeled = draw(st.integers(1, n_distinct))
    distinct = [(rng.normal(scale=draw(st.sampled_from([0.1, 1.0, 5.0])),
                            size=N_FEATURES),
                 float(rng.integers(2)) if i < n_labeled else None)
                for i in range(n_distinct)]
    n_days = draw(st.integers(1, 6))
    history = TimingHistory()
    for i in [*range(n_distinct), *rng.integers(n_distinct, size=draw(st.integers(0, 80)))]:
        x, y = distinct[i]
        history.append((x.copy(), y, (int(rng.integers(3)), int(rng.integers(n_days)))))
    model = TimingModel(weights=rng.normal(size=N_FEATURES) * draw(st.floats(0.0, 2.0)),
                        bias=draw(st.floats(-6.0, 6.0)))
    if draw(st.booleans()):
        model.feature_mean = rng.normal(size=N_FEATURES)
        model.feature_scale = rng.uniform(0.2, 3.0, size=N_FEATURES)
    return (model, history, draw(st.integers(1, 5)), draw(st.floats(0.0, 10.0)),
            draw(st.integers(0, 30)), draw(st.floats(0.0, 0.5)))


@settings(max_examples=200, deadline=None)
@given(case=_fit_cases())
def test_train_is_bit_identical_to_the_allocating_loop(case):
    model, history, daily_budget, penalty, epochs, step = case
    with np.errstate(over="ignore"):  # a steep sigmoid may saturate to 0
        got = train(model, history, daily_budget, penalty, epochs, step)
        want = _allocating_train(model, history, daily_budget, penalty, epochs, step)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
    assert got.feature_mean.tobytes() == want.feature_mean.tobytes()
    assert got.feature_scale.tobytes() == want.feature_scale.tobytes()


def _uncached_threshold(model, daily_budget=3, min_gap=120, window=(480, 1260),
                        iterations=40):
    """Bisection on the realized triggers of five weekdays, scoring every
    tick afresh."""
    week = range(5)

    def triggers_per_day(theta):
        total = 0
        for day in week:
            budget = BudgetState(max_per_day=daily_budget, min_gap_minutes=min_gap,
                                 window_start_minute=window[0],
                                 window_end_minute=window[1])
            for now in _plain_ticks(day, budget):
                if score(model, features(now, budget)) >= theta:
                    budget.record_delivery(now)
                    total += 1
        return total / len(week)

    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if triggers_per_day(mid) >= daily_budget:
            lo = mid
        else:
            hi = mid
    return min(max(lo, 1e-9), 1.0 - 1e-9)


@settings(max_examples=15, deadline=None)
@given(
    weights=st.lists(st.floats(-3.0, 3.0), min_size=N_FEATURES,
                     max_size=N_FEATURES),
    bias=st.floats(-6.0, 6.0),
    daily_budget=st.integers(1, 4),
    min_gap=st.sampled_from([30, 120]),
    window=st.sampled_from([(480, 1260), (480, 780), (600, 1020)]),
)
def test_calibrate_threshold_equals_uncached_bisection(weights, bias, daily_budget,
                                                      min_gap, window):
    m = TimingModel(weights=np.asarray(weights), bias=bias)
    shape = BudgetState(max_per_day=daily_budget, min_gap_minutes=min_gap,
                        window_start_minute=window[0], window_end_minute=window[1])
    got = calibrate_threshold(m, shape).threshold
    assert got == _uncached_threshold(m, daily_budget, min_gap, window)


@pytest.mark.parametrize("model, shape, want", [
    # every tick scores 0.5: the walk at 0.5 fires three times a day and
    # every walk above it fires nowhere
    (TimingModel(weights=np.zeros(N_FEATURES)), BudgetState(), 0.5),
    # 08:00-08:30 with a 120-minute gap holds one contact a day, never the
    # three asked for, so the search clamps at its floor
    (TimingModel(weights=np.linspace(-1.0, 1.0, N_FEATURES), bias=0.3),
     BudgetState(window_end_minute=8 * 60 + 30), 1e-9),
])
def test_calibrate_threshold_ties_and_infeasible_allowance(model, shape, want):
    got = calibrate_threshold(model, shape).threshold
    window = (shape.window_start_minute, shape.window_end_minute)
    assert got == want == _uncached_threshold(model, shape.max_per_day,
                                              shape.min_gap_minutes, window)


def test_cold_start_calibration_walks_at_most_three_passes(monkeypatch):
    """The cold model scores every tick alike, so one walk above that score
    and one at or below it decide all 40 bisection midpoints."""
    runs, days = ThresholdWalk.runs, []

    def counting_runs(self, day, budget, theta):
        days.append(day)
        return runs(self, day, budget, theta)

    monkeypatch.setattr(pcar.scheduler.ThresholdWalk, "runs", counting_runs)
    fit(None, BudgetState(), DEFAULT_CONFIG["scheduler"])
    assert 0 < len(days) <= 3 * 5


def _same_model(a, b):
    for field in ("weights", "feature_mean", "feature_scale"):
        u, v = getattr(a, field), getattr(b, field)
        assert (u is None and v is None) or np.array_equal(u, v)
    assert (a.bias, a.threshold) == (b.bias, b.threshold)


@pytest.mark.parametrize("daily_budget", [2, 3])
def test_fit_is_budget_init_train_calibrate(daily_budget):
    history = _history(_duplicated_history())
    block = dict(DEFAULT_CONFIG["scheduler"], budget_penalty=0.2, train_epochs=7,
                 train_step=0.03)
    for shape in (BudgetState(max_per_day=daily_budget),
                  BudgetState(max_per_day=daily_budget, window_end_minute=13 * 60)):
        cold = TimingModel.budget_init(shape)
        _same_model(fit(None, shape, block),
                    calibrate_threshold(cold, shape))
        trained = train(cold, history, daily_budget=daily_budget, budget_penalty=0.2,
                        epochs=7, step=0.03)
        _same_model(fit(history, shape, block),
                    calibrate_threshold(trained, shape))


def test_run_memo_keeps_budget_states_and_shapes_apart():
    m = TimingModel(weights=np.linspace(-1.0, 1.0, N_FEATURES), bias=0.3)
    walk = ThresholdWalk(m)
    now = at(TUESDAY, 12)
    base = dict(delivered_today=1, last_delivery=at(TUESDAY, 9))
    budgets = [BudgetState(**base)] + [
        BudgetState(**{**base, field: value}) for field, value in (
            ("delivered_today", 2), ("last_delivery", at(TUESDAY, 8)),
            ("max_per_day", 4), ("max_per_day", 5), ("window_end_minute", 1200),
            ("window_start_minute", 600))]

    def run_of(b):
        """The run from ``now`` to ``b``'s window end."""
        return walk.run(now, (b.window_end_minute - 12 * 60) // 5, b)

    runs = [run_of(b) for b in budgets]
    for b, run in zip(budgets, runs):
        run.first_at_least(math.inf)  # no score reaches it: the whole run
        ticks = range(now, b.window_end_minute + TUESDAY * 1440, 5)
        assert run.n == len(run.xs) == len(ticks)
        for x, tick in zip(run.xs, ticks):
            assert np.array_equal(x, features(tick, b))
        assert run.maxima[0] == score(m, features(now, b))
        assert run_of(b) is run  # a repeat is a hit
    assert len({run.maxima[0] for run in runs}) == len(budgets)
    # fresh budgets with different allowances have equal features, but
    # still never share a run
    fresh = [BudgetState(max_per_day=k) for k in (3, 4, 5)]
    assert len({id(run_of(b)) for b in fresh}) == len(fresh)


def _per_tick_fires(model, day, budget, history, key):
    """Reference: score every tick of the plain walk in turn."""
    for now in _plain_ticks(day, budget):
        x = features(now, budget)
        if score(model, x) >= model.threshold:
            yield now, x
        else:
            history.append((x, None, key))


def _per_tick_outcome(model, days, shape, theta):
    total, below, above = 0, -math.inf, math.inf
    for day in days:
        budget = replace(shape, delivered_today=0, last_delivery=None)
        for now in _plain_ticks(day, budget):
            s = score(model, features(now, budget))
            if s >= theta:
                above = min(above, s)
                budget.record_delivery(now)
                total += 1
            else:
                below = max(below, s)
    return total, below, above


def _contact_all(fires, budget, history, key):
    """Drive a fire walk like a study does: deliver at every fire and
    append its labeled row after the unlabeled ones."""
    out = []
    for now, x in fires:
        budget.record_delivery(now)
        history.append((x, float(now % 2), key))
        out.append(now)
    return out


def _history_rows(history):
    return ([(k, c) for k, (_, c) in history._rows.items()],
            len(history), history.n_labeled, history._days)


@settings(max_examples=150, deadline=None)
@given(**_SHAPES,
       weights=st.lists(st.floats(-3.0, 3.0), min_size=N_FEATURES,
                        max_size=N_FEATURES),
       bias=st.floats(-6.0, 6.0),
       thetas=st.lists(st.one_of(st.floats(0.0, 1.0), st.integers(0, 155)),
                       min_size=1, max_size=4))
def test_threshold_walk_equals_per_tick_scoring(max_per_day, min_gap, window, day,
                                                last_evening, weights, bias, thetas):
    model = TimingModel(weights=np.asarray(weights), bias=bias)
    shape = _shape(max_per_day, min_gap, window, day, last_evening)
    fresh = replace(shape, delivered_today=0, last_delivery=None)

    def theta_of(t):
        # an integer picks the score of that tick of a fresh day: an exact tie
        if isinstance(t, float):
            return t
        if not max_per_day or t * 5 >= window[1] - window[0]:
            return 0.5
        return score(model, features(at(day, 0, window[0] + t * 5), fresh))

    thetas = [theta_of(t) for t in thetas]
    walk = ThresholdWalk(model)  # one walk for every threshold: runs are reused
    days = range(day, day + 3)
    for theta in thetas:
        assert walk.outcome(days, shape, theta) == _per_tick_outcome(
            model, days, shape, theta)
    model.threshold = thetas[-1]
    a, b = replace(shape), replace(shape)
    got, want = TimingHistory(), TimingHistory()
    for d in days:  # the gap carries across days
        key = (0, d)
        fired = _contact_all(walk.fires(d, a, got, key), a, got, key)
        assert fired == _contact_all(_per_tick_fires(model, d, b, want, key), b, want, key)
        assert a == b
    assert _history_rows(got) == _history_rows(want)


@settings(max_examples=300, deadline=None)
@given(**_SHAPES,
       rate=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2**32 - 1))
def test_uniform_fires_with_a_history_matches_one_draw_and_row_per_tick(
        max_per_day, min_gap, window, day, last_evening, rate, seed):
    a = _shape(max_per_day, min_gap, window, day, last_evening)
    b = replace(a)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = TimingHistory(), TimingHistory()
    for d in range(day, day + 3):  # the gap, the RNG and the history carry over
        key = (0, d)
        fired = _contact_all(uniform_fires(d, a, rng_a, rate, got, key), a, got, key)
        assert fired == _contact_all(_plain_fires(d, b, rng_b, rate, want, key),
                                     b, want, key)
        assert a == b
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert _history_rows(got) == _history_rows(want)


def test_train_empty_history_rejected():
    with pytest.raises(ValueError):
        train(TimingModel(weights=np.zeros(N_FEATURES)), TimingHistory(),
              daily_budget=3.0, budget_penalty=0.1, epochs=500, step=0.05)


def test_decide_requires_grid_alignment():
    with pytest.raises(ValueError):
        decide(TimingModel(weights=np.zeros(N_FEATURES)), BudgetState(),
               at(TUESDAY, 10, 3))


def test_decide_ineligible_overrides_score():
    m = TimingModel(weights=np.zeros(N_FEATURES), bias=50.0)
    assert not decide(m, BudgetState(), at(SATURDAY, 10))


def test_decide_fires_on_high_score():
    m = TimingModel(weights=np.zeros(N_FEATURES), bias=2.0, threshold=0.5)
    assert decide(m, BudgetState(), at(TUESDAY, 10))


def test_full_day_sweep_never_exceeds_budget():
    m = TimingModel(weights=np.zeros(N_FEATURES), bias=10.0)  # always keen
    b = BudgetState()
    b.start_day()
    fired = []
    now = at(TUESDAY, 8)
    while now < at(TUESDAY, 21):
        if decide(m, b, now):
            b.record_delivery(now)
            fired.append(now)
        now += 5
    assert len(fired) == 3
    for x, y in zip(fired, fired[1:]):
        assert (y - x) >= 120


def test_calibrate_threshold_hits_budget_on_decision_path():
    rng = np.random.default_rng(1)
    w = rng.normal(size=N_FEATURES) * 0.2
    m = TimingModel(weights=w, bias=0.0)
    m2 = calibrate_threshold(m, BudgetState())
    b = BudgetState()
    b.start_day()
    fired = 0
    now = at(TUESDAY, 8)
    while now < at(TUESDAY, 21):
        if decide(m2, b, now):
            b.record_delivery(now)
            fired += 1
        now += 5
    assert fired == 3
