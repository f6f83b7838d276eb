import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from datetime import date, timedelta
from itertools import accumulate
from pathlib import Path

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
    features,
    fit,
    next_eligible,
    score,
    train,
    uniform_fires,
)
from pcar.study import DEFAULT_CONFIG, run_study

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


@pytest.mark.parametrize("start, end", [
    (7 * 60 + 55, 21 * 60),  # starts before 08:00
    (8 * 60, 21 * 60 + 5),  # ends after 21:00
    (7 * 60, 22 * 60),  # wider on both sides
    (12 * 60, 12 * 60),  # empty
    (13 * 60, 12 * 60),  # reversed
])
def test_budget_state_rejects_a_window_off_the_grid_or_empty(start, end):
    with pytest.raises(ValueError, match="window"):
        BudgetState(window_start_minute=start, window_end_minute=end)
    with pytest.raises(ValueError, match="window"):
        replace(BudgetState(), window_start_minute=start, window_end_minute=end)


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


def _plain_fires(day, budget, rng, rate):
    """Reference trigger: one uniform per eligible tick of the plain walk."""
    for now in _plain_ticks(day, budget):
        if rng.random() < rate:
            yield now


def _contacts(fires, budget, rng, pools):
    """Drive a uniform trigger walk like a study does: deliver at every
    fire, then draw ``rng.integers``, which buffers half of a 64-bit
    output between calls, as ``catalog.resolve`` does."""
    out = []
    for i, now in enumerate(fires):
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


@settings(max_examples=300, deadline=None)
@given(delivered=st.integers(0, 6), max_per_day=st.integers(1, 5),
       window=_SHAPES["window"], day=st.integers(0, 27),
       minute=st.integers(0, 24 * 60 - 1), data=st.data(),
       distance=st.one_of(st.none(), st.sampled_from([780, 781, 779, 0, 5]),
                          st.integers(-300, 2000)))
def test_run_rows_block_equals_features_at_every_tick(delivered, max_per_day, window,
                                                     day, minute, data, distance):
    """A run's block is byte-equal to ``features`` at each of its ticks,
    read-only and memoized by its run key: a repeat, the same run a week
    later and a gap past the cap (which reads as no delivery) are hits."""
    n = data.draw(st.integers(1, (24 * 60 - 1 - minute) // 5 + 1), label="n")
    start = at(day, 0, minute)
    budget = BudgetState(
        delivered_today=delivered, max_per_day=max_per_day,
        last_delivery=None if distance is None else start - distance,
        window_start_minute=window[0], window_end_minute=window[1])

    def block_of(start, budget):
        return pcar.scheduler._rows(pcar.scheduler._run_key(start, n, budget))

    block = block_of(start, budget)
    assert block.shape == (n, N_FEATURES)
    for i, x in enumerate(block):
        assert x.tobytes() == features(start + i * 5, budget).tobytes(), i
    with pytest.raises(ValueError):
        block[0, 0] = 1.0
    assert block_of(start, budget) is block
    assert pcar.scheduler._rows.cache_info().maxsize is not None  # bounded
    later = replace(budget, last_delivery=None if distance is None
                    else budget.last_delivery + 7 * 1440)
    assert block_of(start + 7 * 1440, later) is block
    if distance is None or distance >= 780:
        for gap in (None, 780, 10**6):
            capped = replace(budget, last_delivery=None if gap is None else start - gap)
            assert block_of(start, capped) is block


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


# floats at the edges of the double range: signed zeros, subnormals and
# magnitudes whose products overflow
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0e-310, -2.0e-310, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False))


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_EDGE_FLOATS, min_size=N_FEATURES, max_size=N_FEATURES),
                     min_size=1, max_size=6),
       weights=st.lists(st.floats(-3.0, 3.0), min_size=N_FEATURES, max_size=N_FEATURES),
       bias=st.floats(-6.0, 6.0),
       max_per_day=st.integers(1, 5),
       window=_SHAPES["window"])
def test_untrained_standardization_is_byte_exact_identity(rows, weights, bias,
                                                          max_per_day, window):
    X = np.asarray(rows, dtype=float)
    shape = BudgetState(max_per_day=max_per_day, window_start_minute=window[0],
                        window_end_minute=window[1])
    cold = TimingModel.budget_init(shape)
    for m in (cold, TimingModel(weights=np.asarray(weights), bias=bias)):
        assert (X - m.feature_mean).tobytes() == X.tobytes()
        assert ((X - m.feature_mean) / m.feature_scale).tobytes() == X.tobytes()
        with np.errstate(all="ignore"):  # w @ x may overflow to inf or nan
            for x in X:
                want = pcar.scheduler._sigmoid(float(m.weights @ x + m.bias))
                assert _bits(score(m, x)) == _bits(want)
            plain = 1.0 / (1.0 + np.exp(-(X @ m.weights + m.bias)))
            assert pcar.scheduler._probabilities(m, X).tobytes() == plain.tobytes()


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_EDGE_FLOATS, min_size=N_FEATURES, max_size=N_FEATURES),
                     min_size=1, max_size=8),
       weights=st.lists(st.floats(-3.0, 3.0), min_size=N_FEATURES, max_size=N_FEATURES),
       bias=st.floats(-6.0, 6.0),
       standardization=st.one_of(st.none(), st.tuples(
           st.lists(_EDGE_FLOATS, min_size=N_FEATURES, max_size=N_FEATURES),
           st.lists(st.floats(1e-3, 1e3), min_size=N_FEATURES, max_size=N_FEATURES))))
def test_batched_block_logits_score_like_score(rows, weights, bias, standardization):
    """A run's logits, computed for its whole block at once, give
    ``score`` byte for byte through ``_sigmoid`` on every row, for
    untrained and trained models alike."""
    X = np.asarray(rows, dtype=float)
    trained = train(TimingModel.budget_init(BudgetState()), _history(_separable_history(5)),
                    daily_budget=3.0, budget_penalty=0.2, epochs=3, step=0.05)
    for m in (_model(weights, bias, standardization), trained,
              TimingModel.budget_init(BudgetState())):
        with np.errstate(all="ignore"):  # w @ x may overflow to inf or nan
            got = [pcar.scheduler._sigmoid(z)
                   for z in pcar.scheduler._logits(m, X).tolist()]
            assert [_bits(s) for s in got] == [_bits(score(m, x)) for x in X]


@pytest.mark.parametrize("name", [f.name for f in fields(TimingModel)])
def test_timing_model_fields_cannot_be_assigned(name):
    m = TimingModel(weights=np.zeros(N_FEATURES))
    with pytest.raises(FrozenInstanceError):
        setattr(m, name, getattr(m, name))


@pytest.mark.parametrize("name", ["weights", "feature_mean", "feature_scale"])
def test_timing_model_arrays_are_read_only_copies(name):
    given = np.full(N_FEATURES, -0.0)
    m = TimingModel(**{"weights": np.zeros(N_FEATURES), name: given})
    assert getattr(m, name).tobytes() == given.tobytes()  # -0.0 kept
    with pytest.raises(ValueError):
        getattr(m, name)[0] = 1.0
    given[0] = 1.0  # the caller's array is not the model's
    assert getattr(m, name)[0] == 0.0


def test_threshold_walk_model_cannot_be_rebound():
    walk = ThresholdWalk(TimingModel(weights=np.zeros(N_FEATURES)))
    with pytest.raises(FrozenInstanceError):
        walk.model = TimingModel(weights=np.ones(N_FEATURES))


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


def _expected_daily_triggers(model, history):
    """The budget term's mean: the scores of the history's distinct rows,
    each times its count, summed and averaged over its day keys."""
    X, _, counts, n_days = pcar.scheduler._unpack_history(history)
    p = pcar.scheduler._probabilities(model, X)
    return float(np.add.reduce(counts * p)) / n_days


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
    assert abs(_expected_daily_triggers(m, history) - 3.0) < 0.5


def test_train_zero_epochs_returns_unchanged():
    m = TimingModel(weights=np.zeros(N_FEATURES))
    history = _history(_separable_history(4))
    out = train(m, history, daily_budget=3.0, budget_penalty=0.1, epochs=0, step=0.05)
    assert np.array_equal(out.weights, m.weights) and out.bias == m.bias


def test_train_refits_the_standardization_to_each_history():
    first = _history(_separable_history(10))
    second = _history(_duplicated_history())
    trained = train(TimingModel(weights=np.zeros(N_FEATURES)), first,
                    daily_budget=3.0, budget_penalty=0.1, epochs=5, step=0.05)
    again = train(trained, second, daily_budget=3.0, budget_penalty=0.1, epochs=5,
                  step=0.05)
    fresh = train(TimingModel(weights=np.zeros(N_FEATURES)), second,
                  daily_budget=3.0, budget_penalty=0.1, epochs=5, step=0.05)
    assert again.feature_mean.tobytes() == fresh.feature_mean.tobytes()
    assert again.feature_scale.tobytes() == fresh.feature_scale.tobytes()
    assert not np.array_equal(again.feature_mean, trained.feature_mean)
    X = np.vstack([x for x, _, _ in _duplicated_history()])
    np.testing.assert_allclose(again.feature_mean, X.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(again.feature_scale, X.std(axis=0), rtol=1e-12)


def test_train_loss_non_increasing_per_epoch():
    history = _history(_separable_history(10))
    m = TimingModel(weights=np.zeros(N_FEATURES))
    losses = [composite_loss(m, history, 3.0, 0.1)]
    for _ in range(60):
        m = train(m, history, daily_budget=3.0, budget_penalty=0.1, epochs=1, step=0.05)
        losses.append(composite_loss(m, history, 3.0, 0.1))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def _day_sum_rows():
    rng = np.random.default_rng(3)
    keys = [(pid, d) for pid in (2, 0, 1) for d in (3, 1, 2)]  # unsorted
    rows = [(rng.normal(size=N_FEATURES),
             float(rng.random() < 0.5) if i % 3 == 0 else float(i % 2),
             keys[rng.integers(len(keys))]) for i in range(200)]
    return rows, TimingModel(weights=rng.normal(size=N_FEATURES) * 0.3, bias=-1.0)


def test_day_sums_do_not_depend_on_append_order():
    """A history reads its rows sorted, so the same rows appended in any
    order give the same bytes."""
    rows, m = _day_sum_rows()
    history = _history(rows)
    for order in (rows[::-1], [rows[i] for i in np.random.default_rng(5).permutation(
            len(rows))]):
        other = _history(order)
        assert _expected_daily_triggers(m, other).hex() == (
            _expected_daily_triggers(m, history).hex())
        assert composite_loss(m, other, 3.0, 0.2).hex() == (
            composite_loss(m, history, 3.0, 0.2).hex())


def test_day_sums_equal_plain_loop_on_unsorted_keys():
    """Against a per-day plain loop the sums agree only up to their order.
    Any order of a sum of n positive terms is within ``(n - 1) u`` of the
    exact sum (``u = eps / 2``, the unit roundoff), so two orders, each
    divided once, differ by under ``n * eps`` relative. The loss's budget
    term squares ``mean - 3``, so its error is ``2 |mean - 3|`` times the
    mean's."""
    rows, m = _day_sum_rows()
    X = np.vstack([x for x, _, _ in rows])
    p = 1.0 / (1.0 + np.exp(-(X @ m.weights + m.bias)))
    totals = {}
    for pi, (_, _, day) in zip(p, rows):
        totals[day] = totals.get(day, 0.0) + pi
    want = float(np.mean([totals[d] for d in sorted(totals)]))
    history = _history(rows)
    rel = len(rows) * sys.float_info.epsilon
    assert math.isclose(_expected_daily_triggers(m, history), want, rel_tol=rel)
    y = np.asarray([lab for _, lab, _ in rows])
    mse = float(np.mean((p - y) ** 2))
    assert math.isclose(composite_loss(m, history, 3.0, 0.2),
                        mse + 0.2 * (want - 3.0) ** 2, rel_tol=0.0,
                        abs_tol=rel * (mse + 0.2 * 2 * abs(want - 3.0) * want))


def _reference_unpack(rows):
    """Per-row arrays of a history, one row per tick, no merging."""
    X = np.vstack([np.asarray(x, dtype=float) for x, _, _ in rows])
    y = np.asarray([lab for _, lab, _ in rows])
    return X, y, [day for _, _, day in rows]


def _reference_day_mean(p, days):
    totals = {}
    for pi, day in zip(p, days):
        totals[day] = totals.get(day, 0.0) + pi
    return sum(totals.values()) / len(totals)


def _reference_loss(model, rows, daily_budget, budget_penalty):
    X, y, days = _reference_unpack(rows)
    p = 1.0 / (1.0 + np.exp(-(X @ model.weights + model.bias)))
    mse = float(np.mean((p - y) ** 2))
    return mse + budget_penalty * (_reference_day_mean(p, days) - daily_budget) ** 2


def _reference_train(model, rows, daily_budget, budget_penalty, epochs, step):
    """The composite-loss gradient descent, one term per history row."""
    X, y, days = _reference_unpack(rows)
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
        for xi, pi, yi in zip(X, p, y):
            g = pressure * pi * (1.0 - pi) / n_days
            g += 2.0 * (pi - yi) * pi * (1.0 - pi) / len(X)
            grad_w += g * xi
            grad_b += g
        w, b = w - step * grad_w, b - step * grad_b
    return w, b, mean, scale


def _duplicated_history():
    """Few distinct rows, each repeated, with tuple (participant, day)
    keys in no particular order."""
    rng = np.random.default_rng(7)
    distinct = [(rng.normal(size=N_FEATURES), lab)
                for lab in (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)]
    keys = [(pid, d) for pid in (3, 0, 2) for d in (4, 1)]
    return [(distinct[i][0].copy(), distinct[i][1], keys[rng.integers(len(keys))])
            for i in rng.integers(len(distinct), size=300)]


def test_merged_rows_match_per_row_reference():
    rows = _duplicated_history()
    history = _history(rows)
    rng = np.random.default_rng(8)
    m = TimingModel(weights=rng.normal(size=N_FEATURES) * 0.3, bias=-1.0)
    X, _, days = _reference_unpack(rows)
    p = 1.0 / (1.0 + np.exp(-(X @ m.weights + m.bias)))
    assert math.isclose(_expected_daily_triggers(m, history),
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


def test_append_converts_an_integer_row_to_float():
    """A row and its label are converted to float before they key a row,
    so an integer row is kept and trained as its values, not read back
    from its int64 bytes."""
    got, want = TimingHistory(), TimingHistory()
    got.append((np.arange(10), 1, 0))
    want.append((np.arange(10.0), 1.0, 0))
    for x in np.arange(20).reshape(2, 10) % 3:
        got.append((x, 0, 0))
        want.append((x.astype(float), 0.0, 0))
    X = pcar.scheduler._unpack_history(got)[0]
    assert sorted(map(tuple, X)) == sorted(
        [tuple(range(10)), (0, 1, 2, 0, 1, 2, 0, 1, 2, 0), (1, 2, 0, 1, 2, 0, 1, 2, 0, 1)])
    assert _history_rows(got) == _history_rows(want)
    start = TimingModel.budget_init(BudgetState())
    a, b = (train(start, h, daily_budget=3.0, budget_penalty=0.2, epochs=5, step=0.05)
            for h in (got, want))
    assert _model_bytes(a) == _model_bytes(b)


@pytest.mark.parametrize("width", [9, 12, 20])
def test_append_rejects_a_row_of_another_width(width):
    """``append`` keys a row by the bytes of exactly 10 floats, so a row
    of another width raises instead of being counted as other bytes."""
    history = TimingHistory()
    with pytest.raises(ValueError):
        history.append((np.arange(float(width)), 1.0, 0))
    assert len(history) == 0 and not history._days


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from([0.0, 1.0])),
                 max_size=12),
        min_size=1, max_size=8),
)
def test_unpacked_features_equal_a_fresh_stack_of_every_distinct_row(batches):
    """Unpacking between batches of appends, repeated rows included, gives
    the bytes of one ``vstack`` over the distinct rows sorted by feature
    bytes, then label, and of labels and counts built afresh from those
    rows."""
    pool = np.random.default_rng(3).normal(size=(8, N_FEATURES))
    history = TimingHistory()
    history.append((pool[0], 1.0, 0))  # unpacking needs a row
    seen = {(0, 1.0): 1}  # (pool index, label) -> count
    for day, batch in enumerate(batches, 1):
        for i, y in batch:
            history.append((pool[i], y, day))
            seen[i, y] = seen.get((i, y), 0) + 1
        X, y, counts, _ = pcar.scheduler._unpack_history(history)
        order = sorted(seen, key=lambda k: (pool[k[0]].tobytes(), k[1]))
        fresh = np.vstack([pool[i] for i, _ in order])
        assert X.shape == fresh.shape and X.tobytes() == fresh.tobytes()
        assert not X.flags.writeable
        fresh_y = np.asarray([lab for _, lab in order])
        fresh_counts = np.asarray([seen[k] for k in order], dtype=float)
        for got, want in ((y, fresh_y), (counts, fresh_counts)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _allocating_train(model, history, daily_budget, budget_penalty, epochs, step):
    """Reference: ``train``'s epoch as its three plain expressions, with a
    fresh array for every intermediate of every epoch. The bias is the last
    weight, on a column of ones; the step and the rows' weights ``2 counts
    / n_rows`` scale the rows of the gradient product once, and the budget
    term rides on them as ``ratio * pressure``, ``ratio = n_rows / (2
    n_days)``."""
    X, y, counts, n_days = pcar.scheduler._unpack_history(history)
    n_rows = counts.sum()
    mean = counts @ X / n_rows
    scale = np.sqrt(counts @ (X - mean) ** 2 / n_rows)
    scale[scale < 1e-9] = 1.0
    Xa = np.column_stack([(X - mean) / scale, np.ones(len(X))])
    theta = np.append(model.weights, model.bias)
    W = (Xa * (step * (2.0 * counts / n_rows))[:, None]).T
    ratio = n_rows / (2 * n_days)

    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp((-Xa) @ theta))
        shift = ratio * 2 * budget_penalty * (
            float(np.add.reduce(counts * p)) / n_days - daily_budget)
        g = ((p - y) + shift) * ((1.0 - p) * p)
        theta = theta - W @ g
    return replace(model, weights=theta[:-1], bias=float(theta[-1]),
                   feature_mean=mean, feature_scale=scale)


@st.composite
def _fit_cases(draw):
    """A merged history, a start model and descent settings. A history has
    a few distinct rows or several hundred. Up to three weekday columns
    hold one value in every row, as on a night that saw one weekday:
    standardized, they are zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_distinct = draw(st.one_of(st.integers(1, 40), st.integers(300, 700)))
    rows = rng.normal(size=(n_distinct, N_FEATURES)) * rng.choice(
        [0.1, 1.0, 5.0], size=(n_distinct, 1))
    rows[:, 2:2 + draw(st.integers(0, 3))] = float(rng.integers(2))
    distinct = [(rows[i], float(rng.integers(2))) for i in range(n_distinct)]
    n_days = draw(st.integers(1, 6))
    history = TimingHistory()
    for i in [*range(n_distinct), *rng.integers(n_distinct, size=draw(st.integers(0, 80)))]:
        x, y = distinct[i]
        history.append((x.copy(), y, (int(rng.integers(3)), int(rng.integers(n_days)))))
    model = TimingModel(weights=rng.normal(size=N_FEATURES) * draw(st.floats(0.0, 2.0)),
                        bias=draw(st.floats(-6.0, 6.0)))
    return (model, history, draw(st.integers(1, 5)), draw(st.floats(0.0, 10.0)),
            draw(st.integers(0, 30)), draw(st.floats(0.0, 0.5)))


@settings(max_examples=200, deadline=None)
@given(case=_fit_cases())
def test_train_is_bit_identical_to_the_allocating_loop(case):
    _assert_train_matches_the_allocating_loop(*case)


def test_train_is_bit_identical_to_the_allocating_loop_past_10000_rows():
    """A history as large as ``timing_comparison``'s fits, whose dot
    products take BLAS's long-vector paths. Every row falls on a Monday,
    so the weekday columns standardize to zeros, and the start weights
    there are -0.0: only a sum of zeros computed as the plain loop does
    keeps their sign."""
    rng = np.random.default_rng(7)
    X = rng.normal(scale=2.0, size=(10_500, N_FEATURES))
    X[:, 2:7] = [1.0, 0.0, 0.0, 0.0, 0.0]
    history = TimingHistory()
    for i, x in enumerate(X):
        history.append((x, float(i < 5000), (0, 0)))
    for x in X[:2000:3]:  # merged into counts of 2
        history.append((x, 1.0, (0, 1)))
    assert len(history._rows) >= 10_001
    weights = rng.normal(size=N_FEATURES)
    weights[2:7] = -0.0
    model = TimingModel(weights=weights, bias=-1.5)
    _assert_train_matches_the_allocating_loop(model, history, 3, 0.1, 4, 0.05)


def _model_bytes(m):
    return (m.weights.tobytes(), np.float64(m.bias).tobytes(),
            m.feature_mean.tobytes(), m.feature_scale.tobytes())


@pytest.mark.parametrize("seed", [4, 5])
def test_train_is_bit_identical_to_the_allocating_loop_on_study_model_fits(
        seed, monkeypatch):
    """The nightly fits of the study-model benchmark's seeds: model mode at
    the default config (28 participants, 2 weeks a phase) trains 19 times,
    at the config's 500 epochs, on histories of a few to about a hundred
    distinct rows. Each fit equals the allocating loop byte for byte."""
    fitted = []

    def checking_train(model, history, **kwargs):
        got = train(model, history, **kwargs)
        want = _allocating_train(model, history, **kwargs)
        fitted.append((kwargs["epochs"], _model_bytes(got) == _model_bytes(want)))
        return got

    monkeypatch.setattr(pcar.scheduler, "train", checking_train)
    run_study({"seed": seed, "scheduler": {"mode": "model"}})
    assert fitted == [(DEFAULT_CONFIG["scheduler"]["train_epochs"], True)] * 19


def test_train_depends_only_on_the_multiset_of_rows():
    """Five arrival orders of one 2,400-row history fit to the same bytes:
    the fit reads the distinct rows in one sorted order, not as they came."""
    rng = np.random.default_rng(12)
    X = rng.normal(size=(800, N_FEATURES))
    rows = [(X[i], float(rng.integers(2)), (int(rng.integers(4)), int(rng.integers(5))))
            for i in rng.integers(800, size=2400)]
    start = TimingModel.budget_init(BudgetState())
    fitted = set()
    for _ in range(5):
        history = _history([rows[i] for i in rng.permutation(len(rows))])
        fitted.add(_model_bytes(train(start, history, daily_budget=3.0,
                                      budget_penalty=0.1, epochs=40, step=0.05)))
    assert len(fitted) == 1


# a 12,000-distinct-row fit, whose sums pass the length where OpenBLAS
# threads a dot product; prints the sha256 of the model's bytes
_THREADED_FIT = """
import hashlib
import numpy as np
from pcar.scheduler import BudgetState, TimingHistory, TimingModel, train
rng = np.random.default_rng(9)
X = rng.normal(scale=2.0, size=(12_000, 10))
history = TimingHistory()
for i, x in enumerate(X):
    history.append((x, float(i % 2), i % 3))
m = train(TimingModel.budget_init(BudgetState()), history, 3.0, 0.1, 20, 0.05)
print(hashlib.sha256(m.weights.tobytes() + np.float64(m.bias).tobytes()
                     + m.feature_mean.tobytes() + m.feature_scale.tobytes()).hexdigest())
"""


def test_train_does_not_depend_on_the_blas_thread_count():
    path = [str(Path(pcar.scheduler.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        digests.append(subprocess.run([sys.executable, "-c", _THREADED_FIT], env=env,
                                      capture_output=True, text=True, check=True,
                                      timeout=120).stdout)
    assert digests[0] == digests[1] and len(digests[0]) == 65


def _assert_train_matches_the_allocating_loop(model, history, daily_budget,
                                              penalty, epochs, step):
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


# logits a run can meet: signed zeros, exact ties, magnitudes whose exp
# underflows, the infinities and NaN
_LOGITS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats())


def _scalar_peaks(z):
    """A run's running maximum scored one logit at a time."""
    return list(accumulate(map(pcar.scheduler._sigmoid, z.tolist()), max))


def _float_bits(values):
    return [(type(v), _bits(v)) for v in values]


@settings(max_examples=300, deadline=None)
@given(z=st.lists(_LOGITS, max_size=40))
def test_run_peaks_equal_the_scalar_running_max(z):
    """Bit for bit, a NaN first, later or alone included (``max`` and
    ``np.maximum`` part ways there)."""
    z = np.asarray(z, dtype=float)
    assert _float_bits(pcar.scheduler._peaks(z)) == _float_bits(_scalar_peaks(z))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_EDGE_FLOATS, min_size=N_FEATURES, max_size=N_FEATURES),
                     min_size=1, max_size=8),
       repeat=st.integers(1, 3),
       weights=st.lists(st.one_of(st.floats(-3.0, 3.0),
                                  st.sampled_from([math.inf, -math.inf, math.nan, 1e300])),
                        min_size=N_FEATURES, max_size=N_FEATURES),
       bias=st.one_of(st.floats(-6.0, 6.0), st.sampled_from([-0.0, math.inf, math.nan])))
def test_run_peaks_of_edge_rows_equal_per_tick_scoring(rows, repeat, weights, bias):
    """A run's peaks from its block's logits equal the scalar running
    maximum of those logits bit for bit, and the running maximum of
    ``score`` on each row (NaN where it is NaN: a stacked product and
    ``w @ x`` may set a NaN's sign bit differently), for rows of +-1e300,
    repeated rows (exact ties) and weights or bias that are not finite."""
    X = np.asarray(rows * repeat, dtype=float)
    m = TimingModel(weights=np.asarray(weights), bias=bias)
    with np.errstate(all="ignore"):  # w @ x may overflow to inf or nan
        z = pcar.scheduler._logits(m, X)
        got = pcar.scheduler._peaks(z)
        per_tick = list(accumulate((score(m, x) for x in X), max))
    assert _float_bits(got) == _float_bits(_scalar_peaks(z))
    assert np.array_equal(got, per_tick, equal_nan=True)


# a trained model's feature standardization, or none (a cold model's)
_STANDARDIZATIONS = st.one_of(st.none(), st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=N_FEATURES, max_size=N_FEATURES),
    st.lists(st.floats(0.05, 3.0), min_size=N_FEATURES, max_size=N_FEATURES)))


def _model(weights, bias, standardization):
    if standardization is None:
        return TimingModel(weights=np.asarray(weights), bias=bias)
    mean, scale = map(np.asarray, standardization)
    return TimingModel(weights=np.asarray(weights), bias=bias,
                       feature_mean=mean, feature_scale=scale)


@settings(max_examples=15, deadline=None)
@given(
    weights=st.lists(st.floats(-3.0, 3.0), min_size=N_FEATURES,
                     max_size=N_FEATURES),
    bias=st.floats(-6.0, 6.0),
    standardization=_STANDARDIZATIONS,
    daily_budget=st.integers(1, 4),
    min_gap=st.sampled_from([30, 120]),
    window=st.sampled_from([(480, 1260), (480, 780), (600, 1020)]),
)
def test_calibrate_threshold_equals_uncached_bisection(weights, bias, standardization,
                                                      daily_budget, min_gap, window):
    m = _model(weights, bias, standardization)
    shape = BudgetState(max_per_day=daily_budget, min_gap_minutes=min_gap,
                        window_start_minute=window[0], window_end_minute=window[1])
    got = calibrate_threshold(m, shape).model.threshold
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
    got = calibrate_threshold(model, shape).model.threshold
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
    fit(TimingHistory(), BudgetState(), DEFAULT_CONFIG["scheduler"])
    assert 0 < len(days) <= 3 * 5


# weekday weights apart, so each weekday reaches the allowance at its own
# threshold
_WEEKDAY_MODEL = TimingModel(
    weights=np.array([0.6, -0.3, 0.9, -0.4, 0.3, -0.8, 0.1, 0.5, 0.2, -0.7]), bias=-1.0)


@pytest.mark.parametrize("model", [_WEEKDAY_MODEL, TimingModel.budget_init(BudgetState())])
def test_calibration_walks_weekdays_in_order_and_stops_at_the_first_short_one(
        monkeypatch, model):
    """Each pass asks Monday to Friday in turn, walking one weekday at a
    time, and stops at the first that fires fewer than the allowance; a
    weekday is never walked at a threshold inside an interval its earlier
    walks recorded, where its answer is known."""
    outcome, walks = ThresholdWalk.outcome, []

    def recording_outcome(self, day, shape, theta):
        got = outcome(self, day, shape, theta)
        walks.append((day, theta, got))
        return got

    monkeypatch.setattr(pcar.scheduler.ThresholdWalk, "outcome", recording_outcome)
    shape = BudgetState()
    got = calibrate_threshold(model, shape).model.threshold
    assert got == _uncached_threshold(model)
    known = {day: [] for day in range(5)}  # (below, above, fired the allowance)
    asked = {}  # theta -> the weekdays its pass has walked, with their answers
    for day, theta, (fires, below, above) in walks:
        assert not any(b < theta <= a for b, a, _ in known[day])
        answers = asked.setdefault(theta, {})
        assert all(answers.values())  # no walk after a short weekday
        for earlier in range(day):  # each earlier weekday already full at theta
            assert answers.get(earlier, False) or any(
                b < theta <= a and full for b, a, full in known[earlier])
        assert all(earlier < day for earlier in answers)
        answers[day] = fires >= shape.max_per_day
        known[day].append((below, above, answers[day]))
    if model is _WEEKDAY_MODEL:  # passes stop short at several weekdays
        short = {day for answers in asked.values() for day, full in answers.items()
                 if not full}
        assert len(short) >= 2
        assert len(walks) < 5 * len(asked)


def _same_model(a, b):
    """Byte for byte: -0.0 and 0.0 differ."""
    for field in ("weights", "feature_mean", "feature_scale"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    assert (a.bias.hex(), a.threshold.hex()) == (b.bias.hex(), b.threshold.hex())


@pytest.mark.parametrize("daily_budget", [2, 3])
def test_fit_is_budget_init_train_calibrate(daily_budget):
    history = _history(_duplicated_history())
    block = dict(DEFAULT_CONFIG["scheduler"], budget_penalty=0.2, train_epochs=7,
                 train_step=0.03)
    for shape in (BudgetState(max_per_day=daily_budget),
                  BudgetState(max_per_day=daily_budget, window_end_minute=13 * 60)):
        cold = TimingModel.budget_init(shape)
        _same_model(fit(TimingHistory(), shape, block).model,
                    calibrate_threshold(cold, shape).model)
        trained = train(cold, history, daily_budget=daily_budget, budget_penalty=0.2,
                        epochs=7, step=0.03)
        _same_model(fit(history, shape, block).model,
                    calibrate_threshold(trained, shape).model)


def test_fit_on_an_empty_history_is_the_calibrated_budget_init():
    """An empty history is the cold start: ``fit`` does not train on it
    (``train`` itself still refuses one) and returns the calibrated
    ``budget_init`` model."""
    shape = BudgetState()
    cold = TimingModel.budget_init(shape)
    _same_model(fit(TimingHistory(), shape, DEFAULT_CONFIG["scheduler"]).model,
                calibrate_threshold(cold, shape).model)
    with pytest.raises(ValueError, match="history is empty"):
        train(cold, TimingHistory(), daily_budget=3, budget_penalty=0.1, epochs=1,
              step=0.05)


def test_fit_returns_a_walk_that_fires_as_a_fresh_walk_of_its_model():
    """``fit`` returns its calibration's walk, runs already scored. Its fires
    and their rows are those of a fresh walk of the calibrated model, on a
    budget carried across two weeks and on a fresh one each day."""
    for shape in (BudgetState(), BudgetState(max_per_day=2, min_gap_minutes=90,
                                             window_start_minute=540,
                                             window_end_minute=1200)):
        for history in (TimingHistory(), _history(_duplicated_history())):
            walk = fit(history, shape, DEFAULT_CONFIG["scheduler"])
            assert walk._runs
            fresh = ThresholdWalk(walk.model)
            carried = [replace(shape), replace(shape)]
            for day in range(MONDAY, MONDAY + 14):
                for budgets in (carried, [replace(shape), replace(shape)]):
                    got, want = ([(now, x.tobytes()) for now, x in _delivered(w, day, b)]
                                 for w, b in zip((walk, fresh), budgets))
                    assert got == want
                    assert budgets[0] == budgets[1]


def _delivered(walk, day, budget):
    for now, x in walk.fires(day, budget):
        budget.record_delivery(now)
        yield now, x


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
        xs, peaks = run
        ticks = range(now, b.window_end_minute + TUESDAY * 1440, 5)
        assert len(xs) == len(ticks)
        for x, tick in zip(xs, ticks):
            assert np.array_equal(x, features(tick, b))
        assert peaks == list(accumulate((score(m, features(t, b)) for t in ticks), max))
        assert run_of(b) is run  # a repeat is a hit
    assert len({peaks[0] for _, peaks in runs}) == len(budgets)
    # fresh budgets with different allowances have equal features, but
    # still never share a run
    fresh = [BudgetState(max_per_day=k) for k in (3, 4, 5)]
    assert len({id(run_of(b)) for b in fresh}) == len(fresh)


_MEMO_NOW, _MEMO_N = at(TUESDAY, 12), (21 - 12) * 60 // 5


def _memo_walk():
    """A walk and a run of it, from noon with one delivery at 09:00."""
    walk = ThresholdWalk(TimingModel(weights=np.linspace(-1.0, 1.0, N_FEATURES),
                                     bias=0.3))
    budget = BudgetState(delivered_today=1, last_delivery=at(TUESDAY, 9))
    return walk, budget, walk.run(_MEMO_NOW, _MEMO_N, budget)


def test_run_memo_shares_a_run_a_week_later():
    """A walk keeps a run by what its rows read, not where it starts: the
    same run a week later is the same ``(xs, peaks)`` pair, and a walked
    day a week later builds no run and fires at the same times of day."""
    walk, budget, run = _memo_walk()
    week = 7 * 1440
    later = replace(budget, last_delivery=budget.last_delivery + week)
    assert walk.run(_MEMO_NOW + week, _MEMO_N, later) is run

    def fires_on(day):  # the minutes of day at which a fresh day fires
        b = BudgetState()
        ticks = _contact_all(walk.fires(day, b), b, TimingHistory(), None)
        return [t - day * 1440 for t in ticks]

    first = fires_on(TUESDAY)
    built = len(walk._runs)
    assert first and fires_on(TUESDAY + 7) == first and len(walk._runs) == built


def test_run_memo_shares_a_run_after_any_gap_at_or_past_the_cap():
    """A gap at or past the 780-minute cap reads as no delivery, so every
    such run is one ``(xs, peaks)`` pair; gaps under the cap stay apart."""
    walk, budget, run = _memo_walk()
    capped = [walk.run(_MEMO_NOW, _MEMO_N, replace(budget, last_delivery=last))
              for last in (None, *(_MEMO_NOW - gap for gap in (780, 781, 3 * 1440)))]
    assert all(r is capped[0] for r in capped) and capped[0] is not run
    under = replace(budget, last_delivery=_MEMO_NOW - 779)
    assert walk.run(_MEMO_NOW, _MEMO_N, under) is not capped[0]


def _per_tick_fires(model, day, budget):
    """Reference: score every tick of the plain walk in turn."""
    for now in _plain_ticks(day, budget):
        x = features(now, budget)
        if score(model, x) >= model.threshold:
            yield now, x


def _per_tick_outcome(model, day, shape, theta):
    total, below, above = 0, -math.inf, math.inf
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
    """Drive a threshold walk like a study does: deliver at every fire and
    append its row, labeled, to ``history``."""
    out = []
    for now, x in fires:
        budget.record_delivery(now)
        history.append((x, float(now % 2), key))
        out.append(now)
    return out


def _history_rows(history):
    return history._rows, history._days


@settings(max_examples=150, deadline=None)
@given(**_SHAPES,
       weights=st.lists(st.floats(-3.0, 3.0), min_size=N_FEATURES,
                        max_size=N_FEATURES),
       bias=st.floats(-6.0, 6.0),
       standardization=_STANDARDIZATIONS,
       thetas=st.lists(st.one_of(st.floats(0.0, 1.0), st.integers(0, 155)),
                       min_size=1, max_size=4))
def test_threshold_walk_equals_per_tick_scoring(max_per_day, min_gap, window, day,
                                                last_evening, weights, bias,
                                                standardization, thetas):
    model = _model(weights, bias, standardization)
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
    # one walk for every threshold, and then for the fires at the model's
    # own: the runs scanned by the outcomes are reused
    model = replace(model, threshold=thetas[-1])
    walk = ThresholdWalk(model)
    days = range(day, day + 3)
    for theta in thetas:
        for d in days:  # each day from a fresh copy of shape
            assert walk.outcome(d, shape, theta) == _per_tick_outcome(
                model, d, shape, theta)
    a, b = replace(shape), replace(shape)
    got, want = TimingHistory(), TimingHistory()
    for d in days:  # the gap carries across days
        key = (0, d)
        fired = _contact_all(walk.fires(d, a), a, got, key)
        assert fired == _contact_all(_per_tick_fires(model, d, b), b, want, key)
        assert a == b
    assert _history_rows(got) == _history_rows(want)


@pytest.mark.parametrize("max_per_day, min_gap, window, last_evening", [
    (3, 120, (8 * 60, 21 * 60), None),
    (2, 45, (9 * 60 + 30, 17 * 60), 20 * 60),
    (5, 0, (8 * 60, 12 * 60), 23 * 60 + 55),
])
def test_walks_with_a_history_build_rows_by_block_not_by_tick(
        monkeypatch, max_per_day, min_gap, window, last_evening):
    """Neither walk calls ``features``: the threshold walk (with its
    calibration) hands out the fires' rows for a history from run blocks,
    and the uniform walk builds no rows. Both still give the per-tick
    references' ticks, and the threshold walk their history rows."""
    calls = []
    counted = pcar.scheduler.features
    monkeypatch.setattr(pcar.scheduler, "features",
                        lambda *args: calls.append(args) or counted(*args))
    shape = _shape(max_per_day, min_gap, window, MONDAY, last_evening, delivered=0)
    m = TimingModel(weights=np.linspace(-1.0, 1.0, N_FEATURES), bias=0.3,
                    feature_mean=np.full(N_FEATURES, 0.1))
    model = calibrate_threshold(m, shape).model
    walk = ThresholdWalk(model)
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    a, b, ua, ub = (replace(shape) for _ in range(4))
    got, want = TimingHistory(), TimingHistory()
    for d in range(MONDAY, MONDAY + 7):
        key = (0, d)
        fired = _contact_all(walk.fires(d, a), a, got, key)
        assert fired == _contact_all(_per_tick_fires(model, d, b), b, want, key)
        assert a == b
        fired = _contacts(uniform_fires(d, ua, rng_a, 0.05), ua, rng_a, [16])
        assert fired == _contacts(_plain_fires(d, ub, rng_b, 0.05), ub, rng_b, [16])
        assert ua == ub
    assert _history_rows(got) == _history_rows(want)
    assert len(got) > 0
    assert calls == []


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
    m2 = calibrate_threshold(m, BudgetState()).model
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
