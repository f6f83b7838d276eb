"""The per-layer metric table: which functions of each ``pcar`` module the
traced run wraps, the counters and ratios taken at those boundaries, and
for each metric the prediction written down before any optimisation: the
end-to-end metric and workload it should move, and the workloads where it
should not move.

Per-layer values are reported per unit of the workload, so runs that fit a
different number of units in their time still compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

UNIFORM, MODEL, ORACLE = "study-uniform", "study-model", "oracle-learn"


def _truthy(args, result) -> int:
    return 1 if result else 0


def _records(args, result) -> int:
    return len(result.records)


def _history_rows(args, result) -> int:
    return len(args[1])


@dataclass(frozen=True)
class Target:
    """One wrapped function. ``owner`` is a module, or ``module:Class`` for
    a method. A span target keeps one record per call; the others fold
    their calls per caller."""

    name: str
    owner: str
    attr: str
    moves: tuple = ()
    steady: tuple = ()
    span: bool = False
    count: Callable | None = None


_STUDY_MOVES = (("work_per_ref_s", UNIFORM),)
_TIMING_MOVES = (("work_per_ref_s", MODEL), ("unit_ref_s_p50", MODEL))
_LEARN_MOVES = (("work_per_ref_s", ORACLE),)


def _agent(attr, span=False):
    return Target(f"agent.{attr}", "pcar.agent:AgentBundle", attr,
                  _LEARN_MOVES, (MODEL,), span)


def _cohort(attr, count=None):
    return Target(f"cohort.{attr}", "pcar.cohort", attr,
                  (("work_per_ref_s", UNIFORM),), (ORACLE,), count=count)


TARGETS = (
    Target("cli.main", "pcar.cli", "main", span=True),
    Target("study.run_study", "pcar.study", "run_study", _STUDY_MOVES,
           span=True, count=_records),
    Target("study.save", "pcar.study:StudyLog", "save", _STUDY_MOVES, span=True),
    Target("study.report", "pcar.study", "report", _STUDY_MOVES, span=True),
    Target("study.train_on_instance", "pcar.study", "train_on_instance",
           _LEARN_MOVES, span=True),
    Target("scheduler.eligible", "pcar.scheduler", "eligible",
           (("work_per_ref_s", UNIFORM),), (ORACLE,), count=_truthy),
    Target("scheduler.features", "pcar.scheduler", "features",
           _TIMING_MOVES, (ORACLE,)),
    Target("scheduler.score", "pcar.scheduler", "score", _TIMING_MOVES, (ORACLE,)),
    Target("scheduler.decide", "pcar.scheduler", "decide", _TIMING_MOVES,
           (ORACLE,), count=_truthy),
    Target("scheduler.train", "pcar.scheduler", "train", _TIMING_MOVES,
           (UNIFORM, ORACLE), span=True, count=_history_rows),
    Target("scheduler.calibrate_threshold", "pcar.scheduler",
           "calibrate_threshold", _TIMING_MOVES, (UNIFORM, ORACLE), span=True),
    _agent("select_action"),
    _agent("snapshot_selection"),
    _agent("td_step"),
    _agent("step"),
    _agent("update"),
    _agent("finish_episode"),
    _agent("end_episode"),
    _agent("greedy_action"),
    _agent("apply_action"),
    Target("agent.random_policy", "pcar.agent", "random_policy",
           (("work_per_ref_s", UNIFORM),), (ORACLE,)),
    Target("agent.plan_oracle", "pcar.agent", "plan_oracle",
           (("setup_s", ORACLE),), (UNIFORM, MODEL), span=True),
    Target("lsd.advance", "pcar.lsd", "advance", _LEARN_MOVES, (MODEL,)),
    Target("lsd.initial_state", "pcar.lsd", "initial_state", _LEARN_MOVES, (MODEL,)),
    _cohort("accept", _truthy),
    _cohort("pre_stress"),
    _cohort("post_stress"),
    _cohort("control_post_stress"),
    _cohort("effect_strength"),
    _cohort("update_engagement"),
    _cohort("build_participant"),
    _cohort("draw_preference_map"),
    Target("catalog.load_catalog", "pcar.catalog", "load_catalog",
           (("setup_s", UNIFORM), ("unit_ref_s_p50", UNIFORM)), (ORACLE,), span=True),
    Target("catalog.resolve", "pcar.catalog", "resolve",
           (("work_per_ref_s", UNIFORM),), (ORACLE,)),
    Target("stats.mean_of_means", "pcar.stats", "mean_of_means",
           (("unit_ref_s_p50", UNIFORM),), (ORACLE,)),
    Target("stats.welch_t", "pcar.stats", "welch_t",
           (("unit_ref_s_p50", UNIFORM),), (ORACLE,)),
    Target("stats.write_summary_csv", "pcar.stats", "write_summary_csv",
           (("unit_ref_s_p50", UNIFORM),), (ORACLE,)),
)


@dataclass(frozen=True)
class Derived:
    """A counter or ratio read off one target. A ratio divides the target's
    counter by its calls (the base printed with it); a count is the
    counter itself."""

    name: str
    target: str
    ratio: bool
    unit: str
    better: str
    moves: tuple = ()
    steady: tuple = ()


DERIVED = (
    Derived("study.records", "study.run_study", False, "count/unit", "higher",
            (), (UNIFORM, MODEL)),
    Derived("scheduler.train.rows", "scheduler.train", False, "count/unit",
            "lower", _TIMING_MOVES, (UNIFORM, ORACLE)),
    Derived("scheduler.eligible.pass_ratio", "scheduler.eligible", True,
            "ratio", "higher", (("work_per_ref_s", UNIFORM),), (ORACLE,)),
    Derived("scheduler.decide.fire_ratio", "scheduler.decide", True, "ratio",
            "higher", _TIMING_MOVES, (ORACLE,)),
    Derived("cohort.accept.true_ratio", "cohort.accept", True, "ratio",
            "higher", (), (UNIFORM, MODEL)),
)

# Traced run against the untraced run of the same units, and the share of
# traced unit time taken by the layers each workload was chosen to stress.
TRACE_METRICS = (
    ("trace.untraced_unit_s", "s/unit", "lower"),
    ("trace.traced_unit_s", "s/unit", "lower"),
    ("trace.overhead_s", "s/unit", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.dominant_share", "ratio", "higher"),
)


def metric_specs() -> list[dict]:
    """Every per-layer metric as it appears in BENCHMARK.json."""
    specs = []
    for t in TARGETS:
        specs.append({"name": f"{t.name}.calls", "unit": "calls/unit", "better": "lower"})
        specs.append({"name": f"{t.name}.self_s", "unit": "s/unit", "better": "lower"})
    for d in DERIVED:
        specs.append({"name": d.name, "unit": d.unit, "better": d.better})
    for name, unit, better in TRACE_METRICS:
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


def predictions() -> dict[str, dict]:
    """Metric name -> {"moves": [[end-to-end metric, workload], ...],
    "steady": [workload, ...]} for every function and derived metric."""
    table = {}
    for t in TARGETS:
        for suffix in ("calls", "self_s"):
            table[f"{t.name}.{suffix}"] = {"moves": [list(m) for m in t.moves],
                                           "steady": list(t.steady)}
    for d in DERIVED:
        table[d.name] = {"moves": [list(m) for m in d.moves], "steady": list(d.steady)}
    return table
