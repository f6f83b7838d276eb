"""Delivery timing under hard budget rules.

Hard constraints: a daily cap (default three contacts), a minimum gap
(default two hours) and a window (default 08:00-21:00, never wider), each
set by the study's ``budget`` config, and weekdays only, always.
``eligible`` checks them at one tick; ``next_eligible`` gives the first
allowed tick at or after a time in closed form, so a walk skips blocked
ticks without looking at them. There is one way to walk a day: until the
next delivery its allowed ticks are one run from ``next_eligible`` to the
window end, and ``_day_runs`` steps from run to run, each starting after
the delivery the caller recorded in the last. Both trigger policies walk
on it: ``uniform_fires`` fires where a uniform random draw falls below a
rate, drawing each run's uniforms in one block, and ``ThresholdWalk``
where a small trained model's score clears a threshold. The model -- a
linear scorer through a sigmoid -- estimates how likely a contact at the
current 5-minute tick is to be engaged with. It is fit by full-batch
gradient descent on a squared-error term plus a budget-pressure term that
pulls the expected number of daily triggers toward the allowance. ``fit``
takes the pressure weight and the descent's epochs and step from a study
config's ``scheduler`` block; the library holds no second copy of them.

Training merges identical (features, label) history rows into one row
with a count (``TimingHistory``), so a night's refit costs as much as its
distinct rows. In a study every participant shares one model and fires
deterministically, so the cohort walks few distinct budget states.
``ThresholdWalk`` scores each run once per model and budget state, and
finds the fire at a threshold by bisection over the run's prefix maxima.
Calibration, the study's model mode and the trained policy of
``timing_comparison`` share it. A tick's features do not read the model,
so runs take them from one bounded memo keyed by the tick and the budget
fields ``features`` reads: each night's calibration walks the same five
weekdays and reuses them. The memo's rows are read-only.

Time is one integer clock, the study-minute: ``day * 1440 + minute of
day``, where day 0 is a Monday, so the weekday is ``day % 7``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

WINDOW_START_MINUTE = 8 * 60
WINDOW_END_MINUTE = 21 * 60
TICK_MINUTES = 5
DAY_MINUTES = 24 * 60
# the 5-minute decision grid, in minutes after midnight; every tick walk
# finds a day's allowed ticks on it through next_eligible, in closed form
SERVICE_TICKS = range(WINDOW_START_MINUTE, WINDOW_END_MINUTE, TICK_MINUTES)
GAP_CAP_MINUTES = 780.0  # normalization cap for "minutes since last"
N_FEATURES = 10


@dataclass
class BudgetState:
    """Per-participant delivery budget; ``last_delivery`` is a study-minute.
    ``delivered_today`` counts initiated contacts; call ``start_day`` at
    each day boundary. ``eligible`` rejects weekends without a setting."""

    delivered_today: int = 0
    last_delivery: int | None = None
    max_per_day: int = 3
    min_gap_minutes: int = 120
    window_start_minute: int = WINDOW_START_MINUTE
    window_end_minute: int = WINDOW_END_MINUTE

    def start_day(self) -> None:
        self.delivered_today = 0

    def record_delivery(self, now: int) -> None:
        self.delivered_today += 1
        self.last_delivery = now


def eligible(budget: BudgetState, now: int) -> bool:
    """All hard rules at once: a weekday (unconditionally), inside the
    window, daily allowance left, and enough distance from the previous
    contact."""
    day, minute = divmod(now, DAY_MINUTES)
    if day % 7 >= 5:
        return False
    if not budget.window_start_minute <= minute < budget.window_end_minute:
        return False
    if budget.delivered_today >= budget.max_per_day:
        return False
    return (budget.last_delivery is None
            or now - budget.last_delivery >= budget.min_gap_minutes)


def _day_end(day: int, budget: BudgetState) -> int:
    """The study-minute at which calendar day ``day``'s allowed ticks
    stop: the window end, never past the grid's."""
    return day * DAY_MINUTES + min(budget.window_end_minute, WINDOW_END_MINUTE)


def next_eligible(budget: BudgetState, now: int) -> int | None:
    """The first grid tick of ``now``'s calendar day at or after ``now``
    at which the hard rules allow a contact, or None. In closed form: the
    later of ``now``, the window start and ``last_delivery +
    min_gap_minutes`` (the gap spans days), rounded up to the 5-minute
    grid; None on a weekend, with the daily cap spent, or past the window
    end."""
    day, minute = divmod(now, DAY_MINUTES)
    if day % 7 >= 5 or budget.delivered_today >= budget.max_per_day:
        return None
    midnight = now - minute
    start = max(now, midnight + max(budget.window_start_minute, WINDOW_START_MINUTE))
    if budget.last_delivery is not None:
        start = max(start, budget.last_delivery + budget.min_gap_minutes)
    tick = -(-start // TICK_MINUTES) * TICK_MINUTES
    return None if tick >= _day_end(day, budget) else tick


def _day_runs(day: int, budget: BudgetState) -> Iterator[tuple[int, int]]:
    """Start the budget's day and yield ``(start, n)`` for each run of
    calendar day ``day``: the ``n`` allowed ticks from ``start`` to the
    window end while the budget's state holds. The caller records the
    delivery at a tick of the run, if any; the next run starts at the
    first allowed tick after it, and a run with no delivery ends the day."""
    budget.start_day()
    end = _day_end(day, budget)
    now = next_eligible(budget, day * DAY_MINUTES)
    while now is not None:
        delivered = budget.delivered_today
        yield now, (end - now - 1) // TICK_MINUTES + 1
        if budget.delivered_today == delivered:
            return
        now = next_eligible(budget, budget.last_delivery + TICK_MINUTES)


def uniform_fires(day: int, budget: BudgetState, rng: np.random.Generator,
                  rate: float, history=None,
                  key=None) -> Iterator[tuple[int, np.ndarray | None]]:
    """Start the budget's day and yield ``(tick, features)`` at each tick
    of calendar day ``day`` where a uniform trigger fires: the allowed
    ticks where ``rng.random() < rate``. The ticks and ``rng``'s stream
    are exactly those of drawing one uniform per allowed tick; the caller
    records each delivery. With ``history``, each tick passed without a
    fire is appended to it as an unlabeled ``(features, None, key)`` row
    before the next fire is yielded; without it, features are None and
    none are computed.

    Each run of allowed ticks draws its uniforms in one block. When one
    fires, the state saved before the block is restored and only the draws
    up to the fire are redrawn. Restoring the whole state keeps the 32-bit
    half-word that ``integers`` buffers between calls, which
    ``bit_generator.advance`` would clear."""
    bit_generator = rng.bit_generator
    for start, n in _day_runs(day, budget):
        saved = bit_generator.state
        fired = rng.random(n) < rate
        k = int(fired.argmax())  # the first fire, or 0 when none fires
        if fired[k]:
            bit_generator.state = saved
            rng.random(k + 1)
        else:
            k = n  # none fires: every tick of the run passes
        if history is not None:
            history.add_rows([features(start + i * TICK_MINUTES, budget)
                              for i in range(k)], None, key)
        if k < n:
            now = start + k * TICK_MINUTES
            yield now, None if history is None else features(now, budget)


def features(now: int, budget: BudgetState) -> np.ndarray:
    """Deterministic 10-vector for the timing model:
    [sin hour, cos hour, Mon..Fri one-hot, minutes-since-last (capped,
    normalized), allowance remaining / max, window minutes remaining /
    window length]."""
    x = np.zeros(N_FEATURES)
    day, minute = divmod(now, DAY_MINUTES)
    angle = 2.0 * math.pi * minute / DAY_MINUTES
    x[0] = math.sin(angle)
    x[1] = math.cos(angle)
    dow = day % 7
    if dow < 5:
        x[2 + dow] = 1.0
    if budget.last_delivery is None:
        gap = GAP_CAP_MINUTES
    else:
        gap = min(max(now - budget.last_delivery, 0), GAP_CAP_MINUTES)
    x[7] = gap / GAP_CAP_MINUTES
    x[8] = max(0, budget.max_per_day - budget.delivered_today) / budget.max_per_day
    remaining = max(0, budget.window_end_minute - minute)
    window = budget.window_end_minute - budget.window_start_minute
    x[9] = min(remaining, window) / window
    return x


@dataclass
class TimingModel:
    """Linear scorer with a decision threshold.

    ``feature_mean``/``feature_scale`` hold the standardization fitted at
    training time (identity until trained); scoring applies it, so the
    model is self-contained."""

    weights: np.ndarray
    bias: float = 0.0
    threshold: float = 0.5
    feature_mean: np.ndarray | None = None
    feature_scale: np.ndarray | None = None

    @classmethod
    def budget_init(cls, budget: BudgetState) -> "TimingModel":
        """Zero weights with the bias at the base-rate logit -- the
        budget's allowance over its window's ticks -- so the budget-pressure
        term starts near its stationary point instead of blowing the first
        gradient step through the sigmoid."""
        ticks = (budget.window_end_minute - budget.window_start_minute) / TICK_MINUTES
        rate = min(max(budget.max_per_day / ticks, 1e-6), 1 - 1e-6)
        return cls(weights=np.zeros(N_FEATURES), bias=math.log(rate / (1.0 - rate)))


def _standardized(model: TimingModel, X: np.ndarray) -> np.ndarray:
    if model.feature_mean is None:
        return X
    return (X - model.feature_mean) / model.feature_scale


def score(model: TimingModel, x: np.ndarray) -> float:
    """sigmoid(w . x + b) on the (standardized) features: the engagement
    likelihood at this tick."""
    x = np.asarray(x, dtype=float)
    if x.shape != model.weights.shape:
        raise ValueError(
            f"feature dimension {x.shape} does not match model {model.weights.shape}"
        )
    z = float(model.weights @ _standardized(model, x) + model.bias)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


class TimingHistory:
    """Training rows of the timing model, merged as they arrive.

    A row is (features, label, day key) for an eligible tick. The label
    is 1/0 engagement feedback for ticks where a contact went out and None
    for the rest; unlabeled ticks still count toward the expected-daily-
    triggers budget term. Identical (features, label) rows merge into one
    row with a count, so a history costs what its distinct rows cost, and
    appending keeps a nightly refit from re-reading old rows. ``len``
    counts the rows appended."""

    def __init__(self):
        self._rows: dict = {}  # (feature bytes, label) -> [features, count]
        self._days: set = set()
        self._n_rows = 0
        self.n_labeled = 0

    def __len__(self) -> int:
        return self._n_rows

    def append(self, row) -> None:
        x, y, day = row
        self.add_rows((np.asarray(x, dtype=float),), y, day)

    def add_rows(self, xs, y, day) -> None:
        """Append the row ``(x, y, day)`` for each float array ``x`` of
        ``xs``, in order: one call for a run of unlabeled ticks."""
        if not len(xs):
            return
        rows = self._rows
        for x in xs:
            key = (x.tobytes(), y)
            entry = rows.get(key)
            if entry is None:
                rows[key] = [x, 1]
            else:
                entry[1] += 1
        self._days.add(day)
        self._n_rows += len(xs)
        if y is not None:
            self.n_labeled += len(xs)


def _unpack_history(history: TimingHistory):
    """The distinct feature rows of a history, their labels (NaN for
    unlabeled), the labeled mask, the row counts and the number of
    distinct day keys."""
    if not history:
        raise ValueError("history is empty")
    if not history.n_labeled:
        raise ValueError("history has no labeled rows")
    merged = history._rows
    y = np.asarray([np.nan if lab is None else lab for _, lab in merged], dtype=float)
    return (np.vstack([x for x, _ in merged.values()]), y, ~np.isnan(y),
            np.asarray([c for _, c in merged.values()], dtype=float),
            len(history._days))


def _probabilities(model: TimingModel, X: np.ndarray) -> np.ndarray:
    z = _standardized(model, X) @ model.weights + model.bias
    return 1.0 / (1.0 + np.exp(-z))


def composite_loss(model: TimingModel, history: TimingHistory,
                   daily_budget: float, budget_penalty: float) -> float:
    """mean squared error over labeled rows + budget_penalty * (mean
    expected daily triggers - allowance)^2, where a day's expected triggers
    is the sum of its ticks' probabilities."""
    X, y, labeled, counts, n_days = _unpack_history(history)
    p = _probabilities(model, X)
    c = counts[labeled]
    mse = float(c @ (p[labeled] - y[labeled]) ** 2 / c.sum())
    mean_triggers = float(counts @ p) / n_days
    return mse + budget_penalty * (mean_triggers - daily_budget) ** 2


def train(
    model: TimingModel,
    history: TimingHistory,
    daily_budget: float,
    budget_penalty: float,
    epochs: int,
    step: float,
) -> TimingModel:
    """``epochs`` steps of size ``step`` of full-batch gradient descent on
    ``composite_loss`` with budget-pressure weight ``budget_penalty``.
    Features are standardized over the history first (per feature axis,
    like the sensing pipeline's preprocessing); the fitted transform ships
    inside the returned model. Deterministic; leaves the input untouched.

    Each epoch costs as much as the distinct (features, label) rows: a
    merged row is weighted by its count. The budget term averages the
    expected triggers over the distinct day keys of the history, so a
    study keys its rows by participant-day. The epochs allocate nothing:
    each writes its intermediates into buffers made once per call, with
    the same operations in the same order as the expressions in the
    comments (at most the two operands of one product or sum trade places,
    which is exact), so the fit is bit-identical to evaluating them."""
    X, y, labeled, counts, n_days = _unpack_history(history)
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
    unlabeled = ~labeled
    # one buffer per intermediate, reused by every epoch
    z, p, sig_grad, g, tmp = (np.empty(len(X)) for _ in range(5))
    dw = np.empty_like(w)

    for _ in range(epochs):
        np.matmul(X, w, out=z)
        z += b
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=p)  # p = 1 / (1 + exp(-(X @ w + b)))
        np.subtract(1.0, p, out=sig_grad)
        sig_grad *= p  # p * (1 - p)
        # classification term over labeled rows: 2 (p - y) p (1 - p) / n_labeled
        np.subtract(p, y_fit, out=g)
        g *= 2.0
        g *= sig_grad
        g /= n_labeled
        np.copyto(g, 0.0, where=unlabeled)
        # budget-pressure term over every eligible tick
        pressure = 2.0 * budget_penalty * (
            float(counts @ p) / n_days - daily_budget)
        np.multiply(sig_grad, pressure, out=tmp)
        tmp /= n_days
        g += tmp  # g += pressure * sig_grad / n_days
        g *= counts
        np.matmul(X.T, g, out=dw)
        dw *= step
        w -= dw  # w -= step * (X.T @ g)
        b -= step * float(g.sum())
    return replace(model, weights=w, bias=b, feature_mean=mean, feature_scale=scale)


def expected_daily_triggers(model: TimingModel, history: TimingHistory) -> float:
    X, _, _, counts, n_days = _unpack_history(history)
    return float(counts @ _probabilities(model, X)) / n_days


def _state(budget: BudgetState) -> tuple:
    """Every budget field that ``features`` reads."""
    return (budget.last_delivery, budget.delivered_today, budget.max_per_day,
            budget.window_start_minute, budget.window_end_minute)


@lru_cache(maxsize=1024)
def _tick_features(now: int, last_delivery: int | None, delivered_today: int,
                   max_per_day: int, window_start_minute: int,
                   window_end_minute: int) -> np.ndarray:
    """``features(now, budget)`` for a budget in this state, computed once
    and shared read-only: it does not depend on the model, so every
    night's calibration and walk reads the same rows."""
    x = features(now, BudgetState(
        delivered_today=delivered_today, last_delivery=last_delivery,
        max_per_day=max_per_day, window_start_minute=window_start_minute,
        window_end_minute=window_end_minute))
    x.flags.writeable = False
    return x


class _Run:
    """The allowed ticks of one day from ``start`` to the window end while
    a budget state holds, scanned lazily: the features of the ticks scanned
    so far and the strict prefix maxima of their scores with the tick
    indices where they occur."""

    __slots__ = ("model", "state", "start", "n", "xs", "maxima", "at")

    def __init__(self, model: TimingModel, start: int, n: int, budget: BudgetState):
        self.model = model
        self.state = _state(budget)  # the features of every tick read it
        self.start = start
        self.n = n
        self.xs: list[np.ndarray] = []
        self.maxima: list[float] = []
        self.at: list[int] = []

    def first_at_least(self, theta: float) -> int:
        """The index into ``maxima`` of the run's first score >= ``theta``,
        or ``len(maxima)`` when none is. That score exceeds every score
        before it, so it is a strict prefix maximum and bisection finds it
        among those scanned; else the scan goes on only until one reaches
        ``theta``."""
        maxima = self.maxima
        k = bisect_left(maxima, theta)
        if k < len(maxima):
            return k
        xs = self.xs
        top = maxima[-1] if maxima else -math.inf
        while len(xs) < self.n:
            i = len(xs)
            x = _tick_features(self.start + i * TICK_MINUTES, *self.state)
            s = score(self.model, x)
            xs.append(x)
            if s > top:
                top = s
                maxima.append(s)
                self.at.append(i)
                if s >= theta:
                    return len(maxima) - 1
        return len(maxima)

    def tick(self, k: int) -> int:
        """The study-minute of the run's ``k``-th prefix maximum."""
        return self.start + self.at[k] * TICK_MINUTES


class ThresholdWalk:
    """Walks days of ticks under the budget rules by runs, firing where
    ``model``'s score clears a threshold.

    Until the next fire a day's allowed ticks are one run from
    ``next_eligible`` to the window end, and their features depend only on
    the tick and the budget state and shape. So each run is kept once per
    state, shared by every walk over it (the passes of a calibration, the
    participants of a study) and scanned only as far as a threshold needs.
    Each tick is scored through ``features`` (by way of the module's
    features memo, so a tick's row is computed once per budget state
    across every model) and ``score``, so fires and history rows are those
    of scoring every allowed tick in turn. The feature arrays handed out
    are shared and read-only."""

    def __init__(self, model: TimingModel):
        self.model = model
        self._runs: dict = {}

    def run(self, now: int, n: int, budget: BudgetState) -> _Run:
        """The run of the ``n`` allowed ticks from ``now`` under
        ``budget``'s state, as ``_day_runs`` yields it; ``n`` follows from
        ``now`` and the state's window end."""
        key = (now, *_state(budget))
        run = self._runs.get(key)
        if run is None:
            run = self._runs[key] = _Run(self.model, now, n, budget)
        return run

    def runs(self, day: int, budget: BudgetState,
             theta: float) -> Iterator[tuple[_Run, int]]:
        """Start the budget's day and yield ``(run, k)`` for each run of
        calendar day ``day`` at threshold ``theta``: the run fires at its
        ``k``-th prefix maximum, or not at all when ``k == len(run.maxima)``,
        which ends the day. The caller records the delivery at each fire;
        the budget is re-read after each yield."""
        for start, n in _day_runs(day, budget):
            run = self.run(start, n, budget)
            yield run, run.first_at_least(theta)

    def fires(self, day: int, budget: BudgetState, history=None,
              key=None) -> Iterator[tuple[int, np.ndarray]]:
        """Start the budget's day and yield ``(tick, features)`` at each
        tick of calendar day ``day`` where the model's score clears its
        threshold; the caller records each delivery. Each tick passed
        without a fire is appended to ``history``, if given, as an
        unlabeled ``(features, None, key)`` row before the next fire is
        yielded: it still counts toward the budget term."""
        for run, k in self.runs(day, budget, self.model.threshold):
            fired = k < len(run.maxima)
            i = run.at[k] if fired else run.n
            if history is not None:
                history.add_rows(run.xs[:i], None, key)
            if fired:
                yield run.tick(k), run.xs[i]

    def outcome(self, days, shape: BudgetState,
                theta: float) -> tuple[int, float, float]:
        """``(fires, below, above)`` of walking each of ``days`` from a
        fresh copy of ``shape`` at threshold ``theta``: the number of fires,
        the highest score that did not fire and the lowest that did
        (-inf and inf when there is none)."""
        total, below, above = 0, -math.inf, math.inf
        for day in days:
            budget = replace(shape, delivered_today=0, last_delivery=None)
            for run, k in self.runs(day, budget, theta):
                if k:
                    below = max(below, run.maxima[k - 1])
                if k < len(run.maxima):
                    above = min(above, run.maxima[k])
                    budget.record_delivery(run.tick(k))
                    total += 1
        return total, below, above


def calibrate_threshold(model: TimingModel, shape: BudgetState) -> TimingModel:
    """Post-processor step: pick the decision threshold by 40 passes of
    bisection so that, on five synthetic weekdays under the budget rules
    of ``shape`` (allowance, gap and window), the realized triggers per
    day reach the allowance. Each pass walks the days on a fresh copy of
    ``shape`` and fires where the score clears the candidate threshold;
    scores evolve with the budget state as triggers fire, as they do in a
    study. The passes share one ``ThresholdWalk``.

    A pass whose outcome is already known is not walked. A walk at
    threshold t compares the scores S of the ticks it visits against t.
    Every t' in ``(max{s in S: s < t}, min{s in S: s >= t}]`` makes the
    same fire/no-fire choice at each of those ticks, and the ticks a walk
    visits depend only on its earlier choices, so by induction a walk at
    t' visits the same ticks, fires at the same ones and realizes the same
    triggers per day. Each walk records that interval with its rate; a
    later midpoint inside a recorded interval takes the rate from it. The
    bisection keeps its midpoints and its final ``lo``, so the threshold
    is bit-identical to walking all 40 passes."""
    week = range(5)  # Monday to Friday
    walk = ThresholdWalk(model)
    daily_budget = shape.max_per_day
    known: list[tuple[float, float, float]] = []  # (below, above, rate)

    def triggers_per_day(theta: float) -> float:
        for below, above, rate in known:
            if below < theta <= above:
                return rate
        total, below, above = walk.outcome(week, shape, theta)
        rate = total / len(week)
        known.append((below, above, rate))
        return rate

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if triggers_per_day(mid) >= daily_budget:
            lo = mid
        else:
            hi = mid
    theta = min(max(lo, 1e-9), 1.0 - 1e-9)
    return replace(model, threshold=theta)


def fit(history: TimingHistory | None, shape: BudgetState,
        settings: dict) -> TimingModel:
    """The timing model's whole fit under the budget rules of ``shape``:
    start from ``TimingModel.budget_init``, ``train`` it on ``history``
    (skipped when ``history`` is None, the cold start of a study with no
    feedback yet), then ``calibrate_threshold`` so the model fires
    ``shape.max_per_day`` times a day. ``settings`` is a study config's
    ``scheduler`` block: training reads its ``budget_penalty``,
    ``train_epochs`` and ``train_step``. The threshold is always
    calibrated, never configured."""
    model = TimingModel.budget_init(shape)
    if history is not None:
        model = train(model, history, daily_budget=shape.max_per_day,
                      budget_penalty=settings["budget_penalty"],
                      epochs=settings["train_epochs"], step=settings["train_step"])
    return calibrate_threshold(model, shape)


def decide(model: TimingModel, budget: BudgetState, now: int) -> bool:
    """Trigger decision at one tick: hard rules first, then the scorer
    against the threshold. Only valid on the 5-minute grid."""
    if now % TICK_MINUTES:
        raise ValueError(f"study-minute {now} is not on the 5-minute decision grid")
    if not eligible(budget, now):
        return False
    return score(model, features(now, budget)) >= model.threshold
