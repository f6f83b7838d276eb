import math
import random
import sys

import mpmath
import pytest

from pcar.stats import (
    _mean,
    _sample_var,
    left_sum,
    mean_of_means,
    participant_means,
    pearson,
    pss_trend,
    reg_inc_beta,
    student_t_quantile,
    student_t_two_sided_p,
    welch_t,
)

mpmath.mp.dps = 50


def mp_reg_inc_beta(a, b, x):
    return float(mpmath.betainc(a, b, 0, x, regularized=True))


def mp_t_two_sided(t, df):
    t, df = mpmath.mpf(t), mpmath.mpf(df)
    return float(mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, df / (df + t * t),
                                regularized=True))


def mp_welch(x, y):
    x = [mpmath.mpf(v) for v in x]
    y = [mpmath.mpf(v) for v in y]
    nx, ny = len(x), len(y)
    mx = sum(x) / nx
    my = sum(y) / ny
    vx = sum((v - mx) ** 2 for v in x) / (nx - 1)
    vy = sum((v - my) ** 2 for v in y) / (ny - 1)
    se2 = vx / nx + vy / ny
    t = (mx - my) / mpmath.sqrt(se2)
    df = se2**2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    p = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, df / (df + t * t),
                       regularized=True)
    return float(t), float(df), float(p)


def test_incomplete_beta_against_mpmath_grid():
    for a, b in [(0.5, 0.5), (1.0, 3.0), (2.5, 0.5), (7.0, 7.0), (20.0, 0.5)]:
        for x in (0.0, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-6, 1.0):
            got = reg_inc_beta(a, b, x)
            want = mp_reg_inc_beta(a, b, x)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_t_two_sided_against_mpmath():
    for t in (0.0, 0.3, 1.0, 2.5, 10.0, -4.2):
        for df in (1.0, 2.0, 5.7, 30.0, 200.0):
            got = student_t_two_sided_p(t, df)
            want = mp_t_two_sided(t, df)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_t_quantile_known_constants():
    # classic table values
    assert student_t_quantile(0.975, 4) == pytest.approx(2.7764451052, abs=1e-9)
    assert student_t_quantile(0.975, 1) == pytest.approx(12.7062047362, abs=1e-8)
    assert student_t_quantile(0.975, 30) == pytest.approx(2.0422724563, abs=1e-9)


def test_welch_identical_samples():
    res = welch_t([1, 2, 3], [1, 2, 3])
    assert res.t == 0.0
    assert res.p == pytest.approx(1.0)


def test_welch_matches_pooled_formula_for_equal_variance_shift():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [v + 1.5 for v in x]
    res = welch_t(x, y)
    # equal sizes, equal variances: Welch t equals the pooled-variance t
    n = len(x)
    sp2 = (_var(x) + _var(y)) / 2
    t_pooled = (sum(x) / n - sum(y) / n) / math.sqrt(sp2 * 2 / n)
    assert res.t == pytest.approx(t_pooled, rel=1e-12)
    assert res.df == pytest.approx(2 * n - 2, rel=1e-12)


def _var(xs):
    m = sum(xs) / len(xs)
    return sum((x - m) ** 2 for x in xs) / (len(xs) - 1)


# Golden fixture frozen from a 50-digit arbitrary-precision evaluation of
# the closed forms (values below), re-verified against mpmath at test time.
GOLDEN_X = [1.0, 2.0, 3.0, 4.0]
GOLDEN_Y = [3.0, 4.0, 5.0, 6.0]
GOLDEN_T = -2.1908902300206645
GOLDEN_DF = 6.0
GOLDEN_P = 0.070987654320987654


def test_welch_golden_fixture():
    res = welch_t(GOLDEN_X, GOLDEN_Y)
    assert res.t == pytest.approx(GOLDEN_T, rel=1e-12)
    assert res.df == pytest.approx(GOLDEN_DF, rel=1e-12)
    assert res.p == pytest.approx(GOLDEN_P, rel=1e-9)
    t_mp, df_mp, p_mp = mp_welch(GOLDEN_X, GOLDEN_Y)
    assert res.t == pytest.approx(t_mp, rel=1e-12)
    assert res.df == pytest.approx(df_mp, rel=1e-12)
    assert res.p == pytest.approx(p_mp, rel=1e-9)


def test_welch_antisymmetry_and_swap_invariance():
    x = [0.1, 1.4, 2.2, 3.3, 4.1]
    y = [2.0, 2.5, 2.7, 4.4]
    a = welch_t(x, y)
    b = welch_t(y, x)
    assert a.t == pytest.approx(-b.t, rel=1e-12)
    assert a.df == pytest.approx(b.df, rel=1e-12)
    assert a.p == pytest.approx(b.p, rel=1e-12)


def test_welch_degenerate_rejected():
    with pytest.raises(ValueError):
        welch_t([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        welch_t([2.0, 2.0], [3.0, 3.0])


def test_pearson_exact_lines():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)


def test_pearson_golden_ten_points():
    x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    y = [2.1, 2.4, 3.1, 3.0, 4.8, 4.9, 5.5, 6.8, 6.6, 8.0]
    # frozen from an independent high-precision evaluation of the formula
    assert pearson(x, y) == pytest.approx(0.98154296314907162, rel=1e-12)
    mx = mpmath.mpf(sum(x)) / len(x)
    my = mpmath.mpf(sum(y)) / len(y)
    num = sum((mpmath.mpf(a) - mx) * (mpmath.mpf(b) - my) for a, b in zip(x, y))
    den = mpmath.sqrt(
        sum((mpmath.mpf(a) - mx) ** 2 for a in x)
        * sum((mpmath.mpf(b) - my) ** 2 for b in y)
    )
    assert pearson(x, y) == pytest.approx(float(num / den), rel=1e-12)


def test_pearson_affine_invariance_and_sign_flip():
    x = [0.3, 1.7, 2.9, 4.2, 5.0]
    y = [2.0, 1.1, 3.3, 4.9, 4.1]
    base = pearson(x, y)
    assert pearson([3.0 * v + 7 for v in x], y) == pytest.approx(base, rel=1e-12)
    assert pearson(x, [0.5 * v - 2 for v in y]) == pytest.approx(base, rel=1e-12)
    assert pearson([-v for v in x], y) == pytest.approx(-base, rel=1e-12)


def test_pearson_degenerate_rejected():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([2, 2, 2], [1, 2, 3])


def _rec(group, pid, value, phase=1, week=1, metric="reward"):
    return {"group": group, "phase": phase, "week": week, "metric": metric,
            "pid": pid, "value": value}


def test_mean_of_means_single_participant_degenerate():
    rows = mean_of_means([_rec("a", "p1", 2.0), _rec("a", "p1", 4.0)])
    assert len(rows) == 1
    row = rows[0]
    assert row.mean == pytest.approx(3.0)
    assert row.ci_low == row.ci_high == row.mean
    assert row.degenerate and row.n_participants == 1


def test_mean_of_means_two_participants():
    rows = mean_of_means([_rec("a", "p1", 0.0), _rec("a", "p2", 1.0)])
    assert rows[0].mean == pytest.approx(0.5)
    assert rows[0].n_participants == 2


def test_mean_of_means_golden_five_participants():
    data = {
        "p1": [1.0, 2.0, 3.0],
        "p2": [2.0, 2.0],
        "p3": [0.0, 1.0, 2.0, 3.0],
        "p4": [4.0],
        "p5": [1.0, 1.5],
    }
    records = [
        _rec("g", pid, v) for pid, values in data.items() for v in values
    ]
    rows = mean_of_means(records)
    row = rows[0]
    # spreadsheet-style independent recomputation
    means = [2.0, 2.0, 1.5, 4.0, 1.25]
    center = sum(means) / 5
    var = sum((m - center) ** 2 for m in means) / 4
    se = math.sqrt(var / 5)
    tq = 2.7764451052  # t_{0.975, 4}
    assert row.mean == pytest.approx(center, rel=1e-12)
    assert row.ci_low == pytest.approx(center - tq * se, rel=1e-9)
    assert row.ci_high == pytest.approx(center + tq * se, rel=1e-9)
    assert row.n_participants == 5


def test_mean_of_means_invariant_to_duplicating_a_participant():
    records = [_rec("a", "p1", 1.0), _rec("a", "p2", 3.0)]
    base = mean_of_means(records)[0]
    doubled = mean_of_means(records + [_rec("a", "p1", 1.0)])[0]
    assert doubled.mean == pytest.approx(base.mean)
    assert doubled.ci_low == pytest.approx(base.ci_low)


def _left_to_right(xs):
    """The float sum in list order, one rounding per term."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _tuple_key_means(records, group_by):
    cells = {}
    for rec in records:
        key = tuple(rec[field] for field in group_by)
        cells.setdefault(key, {}).setdefault(rec["pid"], []).append(float(rec["value"]))
    return {key: [_left_to_right(vals) / len(vals) for vals in per_pid.values()]
            for key, per_pid in cells.items()}


@pytest.mark.parametrize("group_by", [
    (), ("group",), ("group", "metric"), ("metric", "phase", "group"),
    ("group", "phase", "week", "metric")])
def test_participant_means_equals_a_tuple_key_reference(group_by):
    """Cells keyed by the tuple of their group_by values, a 1-tuple for one
    field, in first-seen order, from a list or a one-pass iterator."""
    rnd = random.Random(7)
    records = [_rec(rnd.choice("abc"), f"p{rnd.randrange(9)}", rnd.uniform(-6, 6),
                    phase=rnd.choice([1, 2]), week=rnd.randrange(1, 5),
                    metric=rnd.choice(["reward", "acceptance"]))
               for _ in range(400)]
    want = _tuple_key_means(records, group_by)
    for source in (records, iter(records)):
        got = participant_means(source, group_by)
        assert list(got.items()) == list(want.items())
        assert all(type(key) is tuple and len(key) == len(group_by) for key in got)


def test_mean_of_means_empty_warns():
    with pytest.warns(UserWarning):
        assert mean_of_means([]) == []


def test_pss_trend_paper_endpoints():
    assert pss_trend([18.3, 17.0, 16.0]) == pytest.approx(-1.15, abs=1e-12)


def test_pss_trend_edges():
    assert pss_trend([5.0, 5.0, 5.0]) == pytest.approx(0.0)
    assert pss_trend([3.0, 7.5]) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        pss_trend([4.0])
    with pytest.raises(ValueError):
        pss_trend([1.0, 2.0], indices=[2, 2])


def test_sums_run_left_to_right():
    """1e16 + 1.0 rounds back to 1e16, so the left-to-right sum is 0.0; a
    compensated sum (builtin ``sum`` from Python 3.12 on) gives 1.0."""
    xs = [1e16, 1.0, -1e16]
    assert left_sum(xs) == left_sum(iter(xs)) == 0.0
    assert _mean(xs) == 0.0
    assert math.fsum(xs) == 1.0


def _drawn(seed, n=40):
    rnd = random.Random(seed)
    return [rnd.uniform(-1, 1) * 10.0 ** rnd.randrange(-3, 9) for _ in range(n)]


@pytest.mark.parametrize("seed", range(5))
def test_each_statistic_sums_its_terms_in_order(seed):
    """Every sum behind the statistics equals the plain left-to-right loop,
    bit for bit, on floats whose compensated sum differs."""
    x, y = _drawn(seed), _drawn(seed + 100)
    n = len(x)
    mx, my = _left_to_right(x) / n, _left_to_right(y) / n
    vx = _left_to_right((v - mx) ** 2 for v in x) / (n - 1)
    vy = _left_to_right((v - my) ** 2 for v in y) / (n - 1)
    assert (_mean(x), _sample_var(x)) == (mx, vx)
    assert welch_t(x, y).t == (mx - my) / math.sqrt(vx / n + vy / n)
    dx, dy = [v - mx for v in x], [v - my for v in y]
    r = _left_to_right(a * b for a, b in zip(dx, dy)) / math.sqrt(
        _left_to_right(d * d for d in dx) * _left_to_right(d * d for d in dy))
    assert pearson(x, y) == max(-1.0, min(1.0, r))
    mi = _left_to_right(range(n)) / n
    slope = (_left_to_right((i - mi) * (s - my) for i, s in zip(range(n), y))
             / _left_to_right((i - mi) ** 2 for i in range(n)))
    assert pss_trend(y) == slope
    assert any(math.fsum(xs) != _left_to_right(xs) for xs in (x, y, dx, dy))


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="builtin sum compensates float sums from Python 3.12 on")
@pytest.mark.parametrize("seed", range(5))
def test_left_sum_is_builtin_sum_before_python_3_12(seed):
    xs = _drawn(seed)
    assert left_sum(xs) == sum(xs)
    assert left_sum(range(9)) == sum(range(9))
