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
current 5-minute tick is to be engaged with. It is fit on the feedback
of the contacts that went out, by full-batch gradient descent on a
squared-error term plus a budget-pressure term that pulls the contacts'
summed scores per day toward the allowance; the threshold is calibrated
afterwards so that the model fires the allowance each day. ``fit``
takes the pressure weight and the descent's epochs and step from a study
config's ``scheduler`` block; the library holds no second copy of them.

Training counts identical (features, label) contact rows as one row
(``TimingHistory``) and reads them sorted, summing 1-D products with
``np.add.reduce``: a refit costs as much as its distinct rows, and its
bits depend only on their multiset, under any arrival order or thread
count. In a study every participant shares one model and starts each
day from the same budget state, so the cohort walks each day once.
``ThresholdWalk`` scores each run once per model and run key, as
``score`` does, keeps the running maximum of its scores and bisects that
for a threshold; ``fit`` returns the walk its calibration scored, so a
run is scored once per model across calibration and the day, in a study
as in ``timing_comparison``. Runs are built and scored as blocks keyed
by what their rows read (``_run_key``): ``_rows`` memoizes a run's rows,
equal to ``features`` at each tick, so each night's calibration and the
study's days share them, and a walk keeps a run per key, which scores
its block at once and hands out a fire's row from it.

Time is one integer clock, the study-minute: ``day * 1440 + minute of
day``, where day 0 is a Monday, so the weekday is ``day % 7``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate

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
_ROW_BYTES = np.dtype((np.void, N_FEATURES * 8))  # one float64 feature row


@dataclass
class BudgetState:
    """Per-participant delivery budget; ``last_delivery`` is a study-minute.
    ``delivered_today`` counts initiated contacts; call ``start_day`` at
    each day boundary. ``eligible`` rejects weekends without a setting.
    A window outside 08:00-21:00, or one not starting before it ends,
    raises ValueError: every tick the window allows is on the walks' grid."""

    delivered_today: int = 0
    last_delivery: int | None = None
    max_per_day: int = 3
    min_gap_minutes: int = 120
    window_start_minute: int = WINDOW_START_MINUTE
    window_end_minute: int = WINDOW_END_MINUTE

    def __post_init__(self) -> None:
        if not (WINDOW_START_MINUTE <= self.window_start_minute
                < self.window_end_minute <= WINDOW_END_MINUTE):
            raise ValueError(
                f"window {self.window_start_minute}-{self.window_end_minute} must "
                f"hold {WINDOW_START_MINUTE} <= start < end <= {WINDOW_END_MINUTE}")

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
    start = max(now, midnight + budget.window_start_minute)
    if budget.last_delivery is not None:
        start = max(start, budget.last_delivery + budget.min_gap_minutes)
    tick = -(-start // TICK_MINUTES) * TICK_MINUTES
    return None if tick >= midnight + budget.window_end_minute else tick


def _day_runs(day: int, budget: BudgetState) -> Iterator[tuple[int, int]]:
    """Start the budget's day and yield ``(start, n)`` for each run of
    calendar day ``day``: the ``n`` allowed ticks from ``start`` to the
    window end while the budget's state holds. The caller records the
    delivery at a tick of the run, if any; the next run starts at the
    first allowed tick after it, and a run with no delivery ends the day."""
    budget.start_day()
    end = day * DAY_MINUTES + budget.window_end_minute
    now = next_eligible(budget, day * DAY_MINUTES)
    while now is not None:
        delivered = budget.delivered_today
        yield now, (end - now - 1) // TICK_MINUTES + 1
        if budget.delivered_today == delivered:
            return
        now = next_eligible(budget, budget.last_delivery + TICK_MINUTES)


def uniform_fires(day: int, budget: BudgetState, rng: np.random.Generator,
                  rate: float) -> Iterator[int]:
    """Start the budget's day and yield each tick of calendar day ``day``
    where a uniform trigger fires: the allowed ticks where ``rng.random()
    < rate``. The ticks and ``rng``'s stream are exactly those of drawing
    one uniform per allowed tick; the caller records each delivery.

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
        if fired[k]:  # otherwise none fires, which ends the day
            bit_generator.state = saved
            rng.random(k + 1)
            yield start + k * TICK_MINUTES


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


# sin and cos hour of each minute of the day, on features' own expressions
_TRIG = np.array([(math.sin(a), math.cos(a)) for a in (
    2.0 * math.pi * minute / DAY_MINUTES for minute in range(DAY_MINUTES))])


def _run_key(start: int, n: int, budget: BudgetState) -> tuple:
    """What the rows of the ``n`` ticks from ``start`` under ``budget``'s
    state read: weekday, minute of day, ``n``, the gap since the last
    delivery (None when there was none or it is at least the gap cap: both
    give a gap column of 1.0), contacts today, allowance and window."""
    day, minute = divmod(start, DAY_MINUTES)
    gap = None if budget.last_delivery is None else start - budget.last_delivery
    return (day % 7, minute, n, None if gap is None or gap >= GAP_CAP_MINUTES else gap,
            budget.delivered_today, budget.max_per_day,
            budget.window_start_minute, budget.window_end_minute)


@lru_cache(maxsize=2048)  # model seeds 4 and 5 read 483 run keys
def _rows(key: tuple) -> np.ndarray:
    """``features`` at each tick of the run ``key`` names, as one read-only
    ``(n, 10)`` block, in vector steps that round as ``features``' do."""
    weekday, minute, n, gap, delivered, allowance, window_start, window_end = key
    minutes = np.arange(minute, minute + n * TICK_MINUTES, TICK_MINUTES)
    x = np.zeros((n, N_FEATURES))
    x[:, :2] = _TRIG[minutes]
    if weekday < 5:
        x[:, 2 + weekday] = 1.0
    gaps = GAP_CAP_MINUTES if gap is None else np.maximum(minutes - minute + gap, 0)
    x[:, 7] = np.minimum(gaps, GAP_CAP_MINUTES) / GAP_CAP_MINUTES
    x[:, 8] = max(0, allowance - delivered) / allowance
    window = window_end - window_start
    x[:, 9] = np.minimum(np.maximum(window_end - minutes, 0), window) / window
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class TimingModel:
    """Linear scorer with a decision threshold.

    ``feature_mean``/``feature_scale`` hold the standardization fitted at
    training time; scoring applies it, so the model is self-contained.
    Untrained, they are zeros and ones: ``x - 0.0`` and ``x / 1.0`` keep
    every bit of ``x``, -0.0 included. Frozen, its arrays read-only copies:
    nothing changes under a ``ThresholdWalk``'s runs; ``replace`` copies."""

    weights: np.ndarray
    bias: float = 0.0
    threshold: float = 0.5
    feature_mean: np.ndarray = field(default_factory=lambda: np.zeros(N_FEATURES))
    feature_scale: np.ndarray = field(default_factory=lambda: np.ones(N_FEATURES))

    def __post_init__(self) -> None:
        for name in ("weights", "feature_mean", "feature_scale"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def budget_init(cls, budget: BudgetState) -> "TimingModel":
        """Zero weights with the bias at the base-rate logit -- the
        budget's allowance over its window's ticks -- so the budget-pressure
        term starts near its stationary point instead of blowing the first
        gradient step through the sigmoid."""
        ticks = (budget.window_end_minute - budget.window_start_minute) / TICK_MINUTES
        rate = min(max(budget.max_per_day / ticks, 1e-6), 1 - 1e-6)
        return cls(weights=np.zeros(N_FEATURES), bias=math.log(rate / (1.0 - rate)))


def score(model: TimingModel, x: np.ndarray) -> float:
    """sigmoid(w . x + b) on the (standardized) features: the engagement
    likelihood at this tick."""
    x = np.asarray(x, dtype=float)
    if x.shape != model.weights.shape:
        raise ValueError(
            f"feature dimension {x.shape} does not match model {model.weights.shape}"
        )
    x = (x - model.feature_mean) / model.feature_scale
    return _sigmoid(float(model.weights @ x + model.bias))


def _logits(model: TimingModel, xs: np.ndarray) -> np.ndarray:
    """``score``'s logit of each row of ``xs``, bit for bit, a NaN's sign
    aside: standardized elementwise, then a stacked product, one dot per
    row as ``w @ x`` (a plain ``xs @ w`` rounds differently)."""
    xs = (xs - model.feature_mean) / model.feature_scale
    return (xs[:, None, :] @ model.weights).ravel() + model.bias


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _peaks(z: np.ndarray) -> list[float]:
    """``list(accumulate(map(_sigmoid, z.tolist()), max))``, bit for bit:
    only ``math.exp`` of ``-|z|`` is a call per element; ``1 + e``, the
    division by sign and the running maximum are numpy's. ``max`` keeps a
    leading NaN and skips a later one where ``np.maximum`` takes it, so a
    run with a NaN score is scored the scalar way."""
    e = np.fromiter(map(math.exp, (-np.abs(z)).tolist()), float, len(z))
    p = np.where(z >= 0, 1.0, e) / (1.0 + e)
    if np.isnan(p).any():
        return list(accumulate(map(_sigmoid, z.tolist()), max))
    return np.maximum.accumulate(p).tolist()


class TimingHistory:
    """Training rows of the timing model, counted as they arrive.

    A row is (features, label, day key) for a tick where a contact went
    out, labeled with its 1/0 engagement feedback; only those ticks carry
    feedback. Identical (features, label) rows are one count, so a history
    costs what its distinct rows cost and keeps no arrival order. ``len``
    counts the rows appended."""

    def __init__(self):
        self._rows: Counter = Counter()  # (feature bytes, label) -> count
        self._days: set = set()

    def __len__(self) -> int:
        return self._rows.total()

    def append(self, row) -> None:
        x, y, day = row
        self.add(row_key(x), y, day)

    def add(self, key: bytes, y, day) -> None:
        """``append`` of a row by its ``row_key``, which one fire's rows share."""
        self._rows[key, float(y)] += 1
        self._days.add(day)


def row_key(x) -> bytes:
    """A row's key in a ``TimingHistory``: its float64 bytes; another width raises."""
    return np.ascontiguousarray(x, dtype=float).view(_ROW_BYTES).item()


def _unpack_history(history: TimingHistory):
    """The distinct feature rows of a history (read-only), their labels,
    the row counts and the number of distinct day keys, built afresh in
    the keys' natural order: by feature bytes, then label."""
    if not history:
        raise ValueError("history is empty")
    keys = sorted(history._rows)
    X = np.frombuffer(b"".join(x for x, _ in keys)).reshape(len(keys), -1)
    y = np.array([lab for _, lab in keys], dtype=float)
    counts = np.array([history._rows[k] for k in keys], dtype=float)
    return X, y, counts, len(history._days)


def _probabilities(model: TimingModel, X: np.ndarray) -> np.ndarray:
    z = ((X - model.feature_mean) / model.feature_scale) @ model.weights + model.bias
    return 1.0 / (1.0 + np.exp(-z))


def composite_loss(model: TimingModel, history: TimingHistory,
                   daily_budget: float, budget_penalty: float) -> float:
    """mean squared error + budget_penalty * (mean expected daily triggers
    - allowance)^2, where a day's expected triggers is the sum of its
    contacts' probabilities, averaged over the day keys that had one."""
    X, y, counts, n_days = _unpack_history(history)
    p = _probabilities(model, X)
    mse = float(np.add.reduce(counts * (p - y) ** 2) / counts.sum())
    mean_triggers = float(np.add.reduce(counts * p)) / n_days
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
    inside the returned model in place of ``model``'s. Deterministic;
    leaves the input untouched.

    Each epoch costs as much as the distinct (features, label) rows: a
    merged row is weighted by its count. The budget term averages the
    expected triggers of the history's contacts over its distinct day
    keys, so a study keys its rows by participant-day and the term averages
    over the participant-days that had a contact. With the bias as the
    last weight, ``theta = [w; b]`` on rows ``Xa = [X | 1]``, an epoch is
    ``p = ones / (ones + exp((-Xa) @ theta))``, ``g = ((p - y) + shift)
    (ones - p) p`` and ``theta -= W @ g``: 13 numpy calls into buffers made
    once per call, none with a Python-float operand, bit-identical to those
    expressions, where ``W = (Xa (step c2n)).T``, ``c2n = 2 counts /
    n_rows``, ``shift = ratio pressure``, ``ratio = n_rows / (2 n_days)``
    and ``pressure = 2 budget_penalty (add.reduce(counts p) / n_days -
    daily_budget)``, a sum no BLAS thread count regroups. As ``counts /
    n_days = c2n ratio``, that is exactly, in real arithmetic, ``theta -=
    step Xa.T @ (((p - y) c2n + pressure counts / n_days) (1 - p) p)``.
    ``(-Xa) @ theta`` is ``-(Xa @ theta)`` (rounding is symmetric in sign,
    ``exp`` erases the sign of a zero). ``W`` scales ``Xa``, not ``-Xa``: a
    sum of zeros does not negate exactly (``+0 + -0`` is +0), and with
    ``step`` 0 that sign reaches the weights.

    The 13 calls are ufuncs and the two matrices' ``ndarray.dot``, bound
    once per call, each output passed positionally (in-place updates too):
    no call goes through ``np.dot``'s ``__array_function__`` dispatcher or
    parses an ``out=`` keyword, which on a history of a few dozen rows is a
    visible share of every call. ``ndarray.dot`` is the C routine under
    ``np.dot``, so every bit is the same."""
    X, y, counts, n_days = _unpack_history(history)
    n_rows = counts.sum()
    mean = counts @ X / n_rows
    scale = np.sqrt(counts @ (X - mean) ** 2 / n_rows)
    scale[scale < 1e-9] = 1.0
    Xa = np.ones((len(X), N_FEATURES + 1))
    Xa[:, :-1] = (X - mean) / scale
    Xn = -Xa
    W = (Xa * (step * (2.0 * counts / n_rows))[:, None]).T
    pull = n_rows / n_days * budget_penalty  # ratio * 2 * budget_penalty, exactly
    theta = np.append(model.weights, model.bias)
    ones = np.ones(len(X))
    # one buffer per intermediate, reused by every epoch
    p, g, tmp = (np.empty(len(X)) for _ in range(3))
    dtheta, shift = np.empty_like(theta), np.empty(1)
    # bound once: no np.dot dispatcher, no out= keyword parsed per call
    exp, add, subtract, multiply, divide = (
        np.exp, np.add, np.subtract, np.multiply, np.divide)
    total, xn_dot, w_dot = np.add.reduce, Xn.dot, W.dot

    for _ in range(epochs):
        xn_dot(theta, p)
        exp(p, p)
        add(ones, p, p)
        divide(ones, p, p)
        multiply(counts, p, tmp)
        shift[0] = pull * (float(total(tmp)) / n_days - daily_budget)
        subtract(p, y, g)
        add(g, shift, g)
        subtract(ones, p, tmp)
        multiply(tmp, p, tmp)
        multiply(g, tmp, g)
        w_dot(g, dtheta)
        subtract(theta, dtheta, theta)
    return replace(model, weights=theta[:-1], bias=float(theta[-1]),
                   feature_mean=mean, feature_scale=scale)


@dataclass(frozen=True)
class ThresholdWalk:
    """Walks days of ticks under the budget rules by runs, firing where
    ``model``'s score clears a threshold.

    Until the next fire a day's allowed ticks are one run from
    ``next_eligible`` to the window end, and their features depend only on
    what ``_run_key`` reads. So each run is kept once per key, shared by
    every walk over it (the passes of a calibration, the participants of a
    study, a week later, after any gap past the cap), as its rows and the
    running maximum of their scores. A run's rows are ``_rows``' block
    (shared across every model) and its scores those of ``score``, so fires
    and their rows are those of ``score`` on every allowed tick in turn. No
    score reads the threshold, so walks at other thresholds may share ``_runs``.
    Frozen, so its runs hold; the feature arrays it hands out are read-only."""

    model: TimingModel
    _runs: dict = field(default_factory=dict, repr=False, compare=False)

    def run(self, now: int, n: int,
            budget: BudgetState) -> tuple[np.ndarray, list[float]]:
        """``(xs, peaks)`` of the run of the ``n`` allowed ticks from ``now``
        under ``budget``'s state, as ``_day_runs`` yields it (``n`` follows
        from ``now`` and the state's window end): its rows and, at each
        tick, the highest score up to and including it."""
        key = _run_key(now, n, budget)
        run = self._runs.get(key)
        if run is None:
            xs = _rows(key)
            run = self._runs[key] = xs, _peaks(_logits(self.model, xs))
        return run

    def runs(self, day: int, budget: BudgetState, theta: float
             ) -> Iterator[tuple[int, np.ndarray, list[float], int]]:
        """Start the budget's day and yield ``(start, xs, peaks, i)`` for
        each run of calendar day ``day`` at threshold ``theta``: the run
        from tick ``start`` fires at its tick ``i``, the first whose score
        is at least ``theta`` (``peaks`` never falls, so bisection finds
        it), or not at all when ``i == len(xs)``, which ends the day. The
        caller records the delivery at each fire; the budget is re-read
        after each yield."""
        for start, n in _day_runs(day, budget):
            xs, peaks = self.run(start, n, budget)
            yield start, xs, peaks, bisect_left(peaks, theta)

    def fires(self, day: int, budget: BudgetState) -> Iterator[tuple[int, np.ndarray]]:
        """Start the budget's day and yield ``(tick, features)`` at each
        tick of calendar day ``day`` where the model's score clears its
        threshold, the fire's row taken from its run's block; the caller
        records each delivery."""
        for start, xs, _, i in self.runs(day, budget, self.model.threshold):
            if i < len(xs):
                yield start + i * TICK_MINUTES, xs[i]

    def outcome(self, day: int, shape: BudgetState,
                theta: float) -> tuple[int, float, float]:
        """``(fires, below, above)`` of walking calendar day ``day`` from a
        fresh copy of ``shape`` at threshold ``theta``: the number of fires,
        the highest score that did not fire and the lowest that did
        (-inf and inf when there is none)."""
        total, below, above = 0, -math.inf, math.inf
        budget = BudgetState(0, None, shape.max_per_day, shape.min_gap_minutes,
                             shape.window_start_minute, shape.window_end_minute)
        for start, _, peaks, i in self.runs(day, budget, theta):
            if i:
                below = max(below, peaks[i - 1])
            if i < len(peaks):
                above = min(above, peaks[i])
                budget.record_delivery(start + i * TICK_MINUTES)
                total += 1
        return total, below, above


def calibrate_threshold(model: TimingModel, shape: BudgetState) -> ThresholdWalk:
    """Post-processor step: pick the decision threshold by 40 passes of
    bisection so that, on five synthetic weekdays under the budget rules
    of ``shape`` (allowance, gap and window), the realized triggers per
    day reach the allowance. Each weekday is walked on a fresh copy of
    ``shape``, firing where the score clears the candidate threshold;
    scores evolve with the budget state as triggers fire, as they do in a
    study. The passes share one ``ThresholdWalk``, returned calibrated.

    No day fires more than the allowance, so five days average it exactly
    when each fires it: a pass asks the weekdays in order and stops at the
    first that falls short. A weekday whose answer is known is not walked.
    A day's walk at threshold t compares the scores S of the ticks it
    visits against t. Every t' in ``(max{s in S: s < t}, min{s in S: s >=
    t}]`` makes the same fire/no-fire choice at each of those ticks, and
    the ticks a walk visits depend only on its earlier choices, so by
    induction a walk at t' visits the same ticks and fires at the same
    ones. Each walk records that interval for its weekday with whether the
    day fired the allowance; a later midpoint inside it takes the answer.
    The bisection keeps its midpoints and its final ``lo``, so the
    threshold is bit-identical to walking all five days on all 40 passes."""
    walk = ThresholdWalk(model)
    known: list[list[tuple[float, float, bool]]] = [[] for _ in range(5)]

    def full(day: int, theta: float) -> bool:  # day 0 to 4: Monday to Friday
        for below, above, answer in known[day]:
            if below < theta <= above:
                return answer
        fires, below, above = walk.outcome(day, shape, theta)
        known[day].append((below, above, fires >= shape.max_per_day))
        return fires >= shape.max_per_day

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if all(full(day, mid) for day in range(5)):
            lo = mid
        else:
            hi = mid
    return ThresholdWalk(replace(model, threshold=min(max(lo, 1e-9), 1.0 - 1e-9)),
                         walk._runs)


def fit(history: TimingHistory, shape: BudgetState, settings: dict) -> ThresholdWalk:
    """The timing model's whole fit under the budget rules of ``shape``:
    start from ``TimingModel.budget_init``, ``train`` it on ``history``
    when it holds a row (an empty history, a study's cold start with no
    feedback yet, is not trained), and return ``calibrate_threshold``'s
    walk, which fires ``shape.max_per_day`` times a day. ``settings`` is a study
    config's ``scheduler`` block: training reads its ``budget_penalty``,
    ``train_epochs`` and ``train_step``. The threshold is always
    calibrated, never configured."""
    model = TimingModel.budget_init(shape)
    if history:
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
