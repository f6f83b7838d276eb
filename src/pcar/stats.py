"""Self-contained statistics used by the analysis pipeline.

The Student-t tail probability is evaluated through the regularized
incomplete beta function (continued fraction, relative tolerance well
below 1e-10), so p-values and confidence multipliers reproduce to ~1e-12
without depending on scipy. Everything here is a pure function.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, itemgetter
from typing import NamedTuple

_BETACF_EPS = 1e-14
_BETACF_FPMIN = 1e-300
_BETACF_MAX_ITER = 400


def _off_zero(v: float) -> float:
    """``v``, or ``_BETACF_FPMIN`` when ``|v|`` is below it: Lentz's guard
    against dividing by a near-zero."""
    return _BETACF_FPMIN if abs(v) < _BETACF_FPMIN else v


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for T ~ Student-t with df degrees of freedom."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if t == 0.0:
        return 1.0
    return reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))


@lru_cache
def student_t_quantile(q: float, df: float) -> float:
    """Inverse CDF for q in (0.5, 1): the positive t with CDF(t) = q,
    found by bisection on the two-sided tail (monotone in t). Cached (128
    entries): a report asks for the same few (q, df) in every cell."""
    if not 0.5 < q < 1.0:
        raise ValueError("quantile implemented for q in (0.5, 1)")
    target = 2.0 * (1.0 - q)  # two-sided tail mass at the answer
    lo, hi = 0.0, 1.0
    while student_t_two_sided_p(hi, df) > target:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("quantile bracket failed")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if student_t_two_sided_p(mid, df) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def left_sum(xs) -> float:
    """The float sum of ``xs``, added left to right with one rounding per
    term, on every Python: from 3.12 on builtin ``sum`` compensates a float
    sum, which moves its last bits between interpreters."""
    return reduce(add, xs, 0.0)


def _mean(xs) -> float:
    return left_sum(xs) / len(xs)


def _sample_var(xs) -> float:
    m = _mean(xs)
    return left_sum((x - m) ** 2 for x in xs) / (len(xs) - 1)


@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p: float


def welch_t(x, y) -> WelchResult:
    """Two-sample t statistic with unpooled variances, Welch-Satterthwaite
    degrees of freedom, and the two-sided p-value."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    if len(x) < 2 or len(y) < 2:
        raise ValueError("both samples need at least two observations")
    vx, vy = _sample_var(x), _sample_var(y)
    if vx == 0.0 and vy == 0.0:
        raise ValueError("both samples are constant; t is undefined")
    nx, ny = len(x), len(y)
    se2 = vx / nx + vy / ny
    t = (_mean(x) - _mean(y)) / math.sqrt(se2)
    df = se2**2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    return WelchResult(t=t, df=df, p=student_t_two_sided_p(t, df))


def pearson(x, y) -> float:
    """Product-moment correlation."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    if len(x) != len(y):
        raise ValueError("samples must have equal length")
    if len(x) < 2:
        raise ValueError("need at least two points")
    mx, my = _mean(x), _mean(y)
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sxx = left_sum(d * d for d in dx)
    syy = left_sum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for a constant sample")
    r = left_sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


class SummaryRow(NamedTuple):
    """One aggregation cell: participant means first, then the mean and a
    95% t-interval across participants. ``degenerate`` flags single-
    participant cells, reported as [mean, mean]. The fields, in order, are
    the columns of ``weekly_summary.csv``."""

    group: str
    phase: int
    week: int
    metric: str
    mean: float
    ci_low: float
    ci_high: float
    n_participants: int
    degenerate: bool = False


def participant_means(records, group_by) -> dict[tuple, list[float]]:
    """Group records (mappings with at least ``pid``, ``value`` and the
    group_by fields) into cells keyed by their group_by values, and give
    each cell its per-participant means, participants in first-seen order.
    Cells with no records do not appear."""
    group_by = tuple(group_by)
    # itemgetter of two or more fields gives their tuple, of one a scalar
    key_of = (itemgetter(*group_by) if len(group_by) > 1
              else lambda rec: tuple(rec[field] for field in group_by))
    cells: dict[tuple, dict[str, list[float]]] = {}
    for rec in records:
        cells.setdefault(key_of(rec), {}).setdefault(rec["pid"], []).append(float(rec["value"]))
    return {key: [_mean(vals) for vals in per_pid.values()]
            for key, per_pid in cells.items()}


def mean_of_means(records) -> list[SummaryRow]:
    """Aggregate records participant-first (see ``participant_means``), one
    row per (group, phase, week, metric) cell; a warning is emitted when
    there are no records."""
    cells = participant_means(records, SummaryRow._fields[:4])
    if not cells:
        warnings.warn("no records to summarize", stacklevel=2)
        return []
    rows = []
    for key, means in cells.items():
        n = len(means)
        center = _mean(means)
        if n == 1:
            rows.append(SummaryRow(*key, center, center, center, n, degenerate=True))
            continue
        se = math.sqrt(_sample_var(means) / n)
        tq = student_t_quantile(0.975, n - 1)
        rows.append(SummaryRow(*key, center, center - tq * se, center + tq * se, n))
    return rows


def table_cells(values) -> list:
    """The cell rule of every output table: a float to 10 significant
    digits and a flag as 0/1; ``write_table`` writes None as an empty cell
    and an int as str."""
    return [f"{v:.10g}" if isinstance(v, float) else int(v) if isinstance(v, bool) else v
            for v in values]


def write_table(fh, columns, rows) -> None:
    """Write a header of ``columns``, then ``rows``: each a sequence of
    cells in that order, written by csv (None as an empty cell)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def write_summary_csv(rows: list[SummaryRow], fh) -> None:
    """Columns: ``SummaryRow``'s fields, in order."""
    write_table(fh, SummaryRow._fields, map(table_cells, rows))


def pss_trend(scores, indices=None) -> float:
    """Least-squares slope of questionnaire scores over their measurement
    indices (0 = intake). Negative means stress went down."""
    scores = [float(s) for s in scores]
    if len(scores) < 2:
        raise ValueError("need at least two scores for a trend")
    if indices is None:
        indices = list(range(len(scores)))
    else:
        indices = [float(i) for i in indices]
        if len(indices) != len(scores):
            raise ValueError("one index per score")
    mx, my = _mean(indices), _mean(scores)
    sxx = left_sum((i - mx) ** 2 for i in indices)
    if sxx == 0.0:
        raise ValueError("indices are all identical")
    return left_sum((i - mx) * (s - my) for i, s in zip(indices, scores)) / sxx
