import copy
import csv
import dataclasses
import inspect
import json
from collections import Counter
from datetime import datetime, time, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pcar.agent
import pcar.scheduler
import pcar.study
from pcar.agent import AgentBundle, ContextBucket, period_of_hour
from pcar.scheduler import (
    DAY_MINUTES,
    BudgetState,
    ThresholdWalk,
    TimingModel,
    composite_loss,
    fit,
    train,
)
from pcar.study import (
    DEFAULT_CONFIG,
    STUDY_START,
    ConfigError,
    benchmark_reward_fn,
    config_hash,
    hash64,
    load_config,
    load_log,
    metric_rows,
    oracle_check,
    phase_deltas,
    report,
    run_study,
    split_counts,
    sweep,
    timing_comparison,
    train_on_instance,
    weekly_summary,
    write_sweep_csv,
)

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parents[1] / "configs"

SMALL = {"seed": 11, "n_participants": 6, "weeks_per_phase": 1}


@pytest.fixture(scope="module")
def small_log():
    return run_study(dict(SMALL))


def test_load_config_defaults_and_merge():
    cfg = load_config({"seed": 5})
    assert cfg["seed"] == 5
    assert cfg["n_participants"] == 28
    assert cfg["budget"]["max_per_day"] == 3
    for user in ({}, copy.deepcopy(DEFAULT_CONFIG)):
        # same values and the same key order, so _split and config_hash agree
        assert json.dumps(load_config(user)) == json.dumps(DEFAULT_CONFIG)


def test_load_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key: typo"):
        load_config({"typo": 1})
    with pytest.raises(ConfigError, match="agent.typo"):
        load_config({"agent": {"typo": 1}})
    # removed knobs: the threshold is always calibrated, the ghost rollout
    # was never implemented
    with pytest.raises(ConfigError, match="scheduler.threshold"):
        load_config({"scheduler": {"threshold": 0.5}})
    with pytest.raises(ConfigError, match="agent.ghost_rollout_depth"):
        load_config({"agent": {"ghost_rollout_depth": 0}})


def test_load_config_rejects_bad_allocations():
    with pytest.raises(ConfigError, match="phase1_allocation"):
        load_config({"phase1_allocation": {"control": 0.5, "random": 0.2}})


def test_allocation_block_replaces_the_default():
    cfg = load_config({"phase2_allocation": {"pcar": 1.0}})
    assert cfg["phase2_allocation"] == {"random": 0.0, "pcar": 1.0}
    cfg = load_config({"phase1_allocation": {"random": 1.0, "control": 0.0}})
    assert list(cfg["phase1_allocation"]) == ["control", "random"]
    with pytest.raises(ConfigError, match="unknown config key: phase2_allocation.x"):
        load_config({"phase2_allocation": {"pcar": 1.0, "x": 0.0}})


def _numeric_leaves(node: dict, path: str = ""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _numeric_leaves(value, f"{path}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + key, value


def _nested(dotted: str, value) -> dict:
    *parents, leaf = dotted.split(".")
    user = {leaf: value}
    for part in reversed(parents):
        user = {part: user}
    return user


def test_every_numeric_leaf_rejects_strings_and_non_finite_numbers():
    leaves = dict(_numeric_leaves(DEFAULT_CONFIG))
    assert len(leaves) > 30 and "cohort.engagement.ceiling" in leaves
    for dotted, default in leaves.items():
        # an int leaf takes no float; a float leaf no int beyond float range
        extra = 10**400 if isinstance(default, float) else 2.0
        for bad in ("1", float("nan"), float("inf"), -float("inf"), extra):
            with pytest.raises(ConfigError) as exc:
                load_config(_nested(dotted, bad))
            assert dotted in str(exc.value), (dotted, bad)


BAD_CONFIGS = [
    ({"n_participants": "28"}, "n_participants must be an integer"),
    ({"weeks_per_phase": 1.5}, "weeks_per_phase must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"n_participants": 0}, "n_participants must be >= 1"),
    ({"budget": {"max_per_day": "3"}}, "budget.max_per_day must be an integer"),
    ({"budget": {"max_per_day": 0}}, "budget.max_per_day must be >= 1"),
    ({"budget": {"min_gap_minutes": -5}}, "budget.min_gap_minutes must be >= 0"),
    ({"budget": {"window_start": "8am"}}, "budget.window_start must be an 'hh:mm'"),
    ({"budget": {"window_end": "21:60"}}, "budget.window_end must be an 'hh:mm'"),
    ({"budget": {"window_end": 2100}}, "budget.window_end must be an 'hh:mm'"),
    ({"budget": {"window_start": "07:00"}}, "08:00 <= start < end <= 21:00"),
    ({"budget": {"window_end": "22:00"}}, "08:00 <= start < end <= 21:00"),
    ({"budget": {"window_start": "12:00", "window_end": "12:00"}},
     "08:00 <= start < end <= 21:00"),
    ({"scheduler": {"trigger_rate": -1.0}}, r"trigger_rate must be in \[0, 1\]"),
    ({"scheduler": {"trigger_rate": 1.5}}, r"trigger_rate must be in \[0, 1\]"),
    ({"scheduler": {"trigger_rate": "0.1"}}, r"trigger_rate must be in \[0, 1\]"),
    ({"agent": {"q_tau_clip": 9}}, r"agent.q_tau_clip must be in 1\.\.6"),
    ({"agent": {"q_tau_clip": 0}}, "agent.q_tau_clip must be >= 1"),
    ({"agent": {"tau_max": 2}}, r"agent.q_tau_clip must be in 1\.\.2"),
    ({"agent": {"tau_max": "6"}}, "agent.tau_max must be an integer"),
    ({"agent": {"alpha": "0.1"}}, r"agent.alpha must be in \[0, 1\]"),
    ({"agent": {"epsilon_decay_steps": -1}}, "agent.epsilon_decay_steps must be >= 0"),
    ({"agent": {"epsilon_decay_steps": "x"}},
     "agent.epsilon_decay_steps must be an integer"),
    ({"agent": {"pretrain_on_phase1": 1}}, "agent.pretrain_on_phase1 must be a boolean"),
    ({"scheduler": {"train_epochs": -1}}, "scheduler.train_epochs must be >= 0"),
    ({"scheduler": {"mode": "bogus"}}, "scheduler.mode must be one of"),
    ({"cohort": {"completion_rate": 1.5}}, r"cohort.completion_rate must be in \[0, 1\]"),
    ({"cohort": {"noise_sigma": float("inf")}}, "cohort.noise_sigma must be a finite"),
    ({"cohort": {"engagement": 1}}, "cohort.engagement must be an object"),
    ({"output_dir": 3}, "output_dir must be a string"),
    ({"budget": {"window_start": "08:03"}},
     "budget.window_start must be an 'hh:mm' time on the 5-minute grid"),
    ({"budget": {"window_end": "24:00"}}, "budget.window_end must be an 'hh:mm'"),
    ({"cohort": {"fatigue_decay": 1.0}}, r"cohort.fatigue_decay must be in \(0, 1\)"),
    ({"cohort": {"fatigue_decay": 1.5}}, r"cohort.fatigue_decay must be in \(0, 1\)"),
    ({"cohort": {"fatigue_decay": 0}}, r"cohort.fatigue_decay must be in \(0, 1\)"),
    ({"cohort": {"recovery_rounds": 0}}, "cohort.recovery_rounds must be >= 1"),
    ({"cohort": {"noise_sigma": -1}}, "cohort.noise_sigma must be >= 0"),
    ({"cohort": {"engagement": {"floor": 2.0, "ceiling": 1.0}}},
     "cohort.engagement.floor must be <= cohort.engagement.ceiling"),
    ({"budget": {"weekdays_only": False}}, "budget.weekdays_only must be one of"),
    ({"scheduler": {"train_step": -0.05}}, "scheduler.train_step must be >= 0"),
    ({"scheduler": {"budget_penalty": -5.0}}, "scheduler.budget_penalty must be >= 0"),
]


@pytest.mark.parametrize("user,message", BAD_CONFIGS)
def test_load_config_rejects_bad_types_and_windows(user, message):
    with pytest.raises(ConfigError, match=message):
        load_config(user)


def test_load_config_accepts_edge_rates_and_unset_clip():
    for rate in (0, 1.0):
        assert load_config({"scheduler": {"trigger_rate": rate}})
    cfg = load_config({"agent": {"tau_max": 2, "q_tau_clip": None}})
    assert cfg["agent"]["q_tau_clip"] is None


def test_load_config_accepts_window_inside_grid():
    cfg = load_config({"budget": {"window_start": "09:30", "window_end": "21:00"}})
    assert cfg["budget"]["window_start"] == "09:30"


def test_shipped_configs_load():
    paths = sorted(CONFIGS.glob("*.json"))
    assert paths
    for path in paths:
        assert load_config(path)["schema_version"] == 1


def test_load_config_rejects_missing_catalog():
    with pytest.raises(ConfigError, match="catalog"):
        load_config({"catalog_path": "/nonexistent/cat.tsv"})


def test_split_counts_matches_published_allocation():
    counts = split_counts(28, {"control": 0.25, "random": 0.75})
    assert counts == {"control": 7, "random": 21}
    counts = split_counts(21, {"random": 0.4, "pcar": 0.6})
    assert counts["random"] + counts["pcar"] == 21


def test_phase1_group_sizes():
    log = run_study({"seed": 3, "weeks_per_phase": 1})
    phase1_groups = {}
    for r in log.records:
        if r.phase == 1:
            phase1_groups.setdefault(r.group, set()).add(r.pid)
    assert len(phase1_groups["control"]) == 7
    assert len(phase1_groups["random"]) == 21


def test_control_gets_prompts_but_never_content(small_log):
    control = [r for r in small_log.records if r.group == "control"]
    assert control, "control group produced no prompt records"
    assert all(r.attribute_values is None for r in control)
    assert all(r.intervention_id is None for r in control)
    accepted = [r for r in control if r.accepted]
    assert accepted and all(r.pre_stress is not None for r in accepted)
    completed = [r for r in control if r.completed]
    assert completed and all(r.reward == r.pre_stress - r.post_stress for r in completed)


def test_budget_arithmetic_bound(small_log):
    weekdays = small_log.meta["weeks_per_phase"] * 2 * 5
    per_pid = {}
    for r in small_log.records:
        per_pid[r.pid] = per_pid.get(r.pid, 0) + 1
    for pid, n in per_pid.items():
        assert n <= 3 * weekdays


def test_budget_recheck_counts_the_gap_across_days():
    """The gap rule spans days, as ``eligible`` does: contacts at 20:55 and
    at 08:00 the next morning are 665 minutes apart, too close under a
    780-minute gap, though each day alone holds one contact."""
    cfg = load_config({"budget": {"min_gap_minutes": 780}})

    def contact(day, timestamp):
        return pcar.study.InterventionRecord(
            seed=0, pid="p000", group="pcar", phase=1, week=1, day=day,
            timestamp=timestamp, accepted=False, completed=False)

    log = pcar.study.StudyLog(
        records=[contact(1, "2024-01-01T20:55:00"),
                 contact(2, "2024-01-02T08:00:00")],
        meta={"config": cfg}, schema=None)
    with pytest.raises(AssertionError, match="p000 day 2: gap rule violated"):
        pcar.study._assert_budget_safety(log)
    cfg["budget"]["min_gap_minutes"] = 665
    pcar.study._assert_budget_safety(log)


def test_no_learned_content_before_phase_two(small_log):
    boundary_week = small_log.meta["weeks_per_phase"]
    for r in small_log.records:
        if r.group == "pcar":
            assert r.week > boundary_week
            assert r.phase == 2


def test_opportunity_conservation(small_log):
    initiated = len(small_log.records)
    accepted = sum(1 for r in small_log.records if r.accepted)
    declined = sum(1 for r in small_log.records if not r.accepted)
    completed = sum(1 for r in small_log.records if r.completed)
    assert initiated == accepted + declined
    assert completed <= accepted
    for r in small_log.records:
        if r.completed:
            assert r.accepted
            assert r.reward == r.pre_stress - r.post_stress
        if not r.accepted:
            assert r.pre_stress is None and r.reward is None


def test_rewards_within_likert_bounds(small_log):
    for r in small_log.records:
        if r.reward is not None:
            assert -6 <= r.reward <= 6
            assert 1 <= r.pre_stress <= 7
            assert 1 <= r.post_stress <= 7


def test_timestamps_nondecreasing_per_participant(small_log):
    last = {}
    for r in small_log.records:
        if r.pid in last:
            assert r.timestamp >= last[r.pid]
        last[r.pid] = r.timestamp


def test_every_contact_timestamp_renders_its_study_minute(monkeypatch):
    """Over a 4-week study, each record's timestamp is its fire's
    study-minute rendered afresh, whichever participant first fired there."""
    cfg = dict(SMALL, weeks_per_phase=2)
    fired = []  # the fired minutes of each uniform_fires call: day by day, pid by pid

    def recording_fires(*args):
        nows = []
        fired.append(nows)
        for now in pcar.scheduler.uniform_fires(*args):
            nows.append(now)
            yield now

    monkeypatch.setattr(pcar.study, "uniform_fires", recording_fires)
    log = run_study(cfg)
    n = cfg["n_participants"]
    epoch = datetime.combine(STUDY_START, time())
    want = sorted((f"p{call % n + 1:03d}", call // n + 1,
                   (epoch + timedelta(minutes=now)).isoformat())
                  for call, nows in enumerate(fired) for now in nows)
    assert len(fired) == n * 4 * 5
    assert [(r.pid, r.day, r.timestamp) for r in log.records] == want
    assert len({ts for _, _, ts in want}) < len(want)  # some minute fired twice


@pytest.mark.parametrize("hour", [7, 22])
def test_context_from_hour_outside_the_window_still_raises(hour):
    for _ in range(2):  # a failed call leaves nothing behind to return
        for trait in (0, 1):
            with pytest.raises(ValueError, match="outside"):
                ContextBucket.from_hour(hour, trait)


def test_context_from_hour_is_the_fresh_bucket():
    for hour in range(8, 22):
        for trait in (0, 1):
            ctx = ContextBucket.from_hour(hour, trait)
            assert ctx == ContextBucket(period=period_of_hour(hour), trait_bucket=trait)
            assert type(ctx.trait_bucket) is int
            assert ContextBucket.from_hour(hour, trait) is ctx


def test_determinism_same_seed_same_hash():
    a = run_study(dict(SMALL))
    b = run_study(dict(SMALL))
    assert a.log_hash() == b.log_hash()
    c = run_study(dict(SMALL, seed=12))
    assert c.log_hash() != a.log_hash()


def test_hash64_stable():
    assert hash64(1, "p001") == hash64(1, "p001")
    assert hash64(1, "p001") != hash64(1, "p002")
    assert hash64(1, "p001") != hash64(2, "p001")


def test_config_hash_sensitivity():
    a = load_config({"seed": 1})
    b = load_config({"seed": 2})
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(load_config({"seed": 1}))


def test_log_save_and_load_round_trip(tmp_path, small_log):
    """Every record comes back equal, field by field: content and clocks,
    the EMAs, a declined contact's empty cells and a study with none."""
    logs = {
        "uniform": small_log,
        "model": run_study({"seed": 17, "n_participants": 4, "weeks_per_phase": 1,
                            "scheduler": {"mode": "model"}}),
        "advance_on_decline": run_study({"seed": 23, "n_participants": 6,
                                         "weeks_per_phase": 1,
                                         "advance_on_decline": True}),
        "no_contact": run_study({"n_participants": 2, "weeks_per_phase": 1,
                                 "scheduler": {"trigger_rate": 0.0}}),
    }
    assert not logs["no_contact"].records
    for name, log in logs.items():
        log.save(tmp_path / name)
        again = load_log(tmp_path / name)
        assert again.records == log.records, name
        assert again.log_hash() == log.log_hash(), name


@pytest.mark.parametrize("blank", [
    ("location",),
    ("tau_therapy_group",),
    ("intervention_id",),
    ("tau_emotional_regulation", "tau_therapy_group", "tau_location"),
    ("intervention_id", "emotional_regulation", "therapy_group", "location"),
])
def test_load_log_rejects_content_cells_not_all_set_or_all_empty(tmp_path, small_log,
                                                                 blank):
    """A content record's ``intervention_id``, attribute values and clocks
    are all set or all empty: a half-filled per-attribute field, or one of
    the three blanked without the others, raises ValueError naming the
    line; blanking all of them reads back as a record without content."""
    small_log.save(tmp_path)
    records = tmp_path / "records.csv"
    rows = list(csv.reader(records.read_text().splitlines()))
    col = {name: i for i, name in enumerate(rows[0])}
    i = next(i for i, r in enumerate(rows[1:], 1) if r[col["intervention_id"]])
    for name in blank:
        rows[i][col[name]] = ""
    records.write_text("".join(",".join(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=f"records.csv line {i + 1}: intervention_id, "
                       "attribute values and clocks are not all set or all empty"):
        load_log(tmp_path)
    content = slice(col["intervention_id"], col["tau_location"] + 1)
    rows[i][content] = [""] * len(rows[i][content])
    records.write_text("".join(",".join(r) + "\n" for r in rows))
    rec = load_log(tmp_path).records[i - 1]
    assert (rec.intervention_id, rec.attribute_values, rec.taus_before) == (None,) * 3


def test_report_outputs(tmp_path, small_log):
    paths = report(small_log, tmp_path / "rep")
    # the four documented files and nothing else; records.csv is save()'s
    assert set(paths) == {"weekly_summary", "phase_deltas", "welch_tests", "plot_data"}
    assert sorted(tmp_path.joinpath("rep").iterdir()) == sorted(paths.values())
    doc = json.loads(paths["plot_data"].read_text())
    assert doc["schema_version"] == 1
    assert doc["series"]
    header = paths["weekly_summary"].read_text().splitlines()[0]
    assert header == "group,phase,week,metric,mean,ci_low,ci_high,n_participants,degenerate"


def test_summary_row_count_structure(small_log):
    rows = weekly_summary(metric_rows(small_log))
    # every (group, phase, week, metric) cell that has data appears once
    keys = [(r.group, r.phase, r.week, r.metric) for r in rows]
    assert len(keys) == len(set(keys))
    weeks_per_phase = small_log.meta["weeks_per_phase"]
    for r in rows:
        expected_phase = 1 if r.week <= weeks_per_phase else 2
        assert r.phase == expected_phase


def test_phase_deltas_are_last_minus_first(small_log):
    log2 = run_study({"seed": 21, "n_participants": 8, "weeks_per_phase": 2})
    rows = weekly_summary(metric_rows(log2))
    deltas = phase_deltas(rows)
    by_cell = {(r.group, r.phase, r.week, r.metric): r.mean for r in rows}
    for d in deltas:
        first = by_cell[(d["group"], d["phase"], d["first_week"], d["metric"])]
        last = by_cell[(d["group"], d["phase"], d["last_week"], d["metric"])]
        assert d["delta"] == pytest.approx(last - first)


def test_report_golden_weekly_summary_is_byte_stable(tmp_path):
    log = run_study({"seed": 11, "n_participants": 6, "weeks_per_phase": 1})
    paths = report(log, tmp_path)
    golden = DATA / "golden_weekly_summary.csv"
    assert paths["weekly_summary"].read_bytes() == golden.read_bytes()


def test_pretrain_flag_changes_learning():
    warm = run_study(dict(SMALL))
    cold = run_study(dict(SMALL, agent={"pretrain_on_phase1": False}))
    assert warm.log_hash() != cold.log_hash()


def test_oracle_check_single_arm_is_perfect():
    res = oracle_check(k=1, tau_max=2, horizon=4, seeds=2, episodes=30)
    assert all(f == pytest.approx(1.0) for f in res.fractions)
    assert res.passed


def test_oracle_check_guard_refusal():
    with pytest.raises(ValueError, match="guard"):
        oracle_check(k=10, tau_max=2, horizon=8, seeds=1, episodes=1)


@pytest.mark.parametrize("change, match", [
    ({"k": 0}, "k, tau_max and horizon"), ({"tau_max": 0}, "k, tau_max and horizon"),
    ({"horizon": 0}, "k, tau_max and horizon"), ({"horizon": -3}, "k, tau_max and horizon"),
    ({"episodes": 0}, "episodes must be >= 1"), ({"episodes": -1}, "episodes must be >= 1"),
], ids=["k-0", "tau_max-0", "horizon-0", "horizon-negative", "episodes-0", "episodes-negative"])
def test_train_on_instance_rejects_sizes_below_one_before_training(change, match):
    args = dict(k=2, tau_max=2, horizon=4, episodes=3, seed=0,
                reward_fn=benchmark_reward_fn()) | change
    with mock.patch.object(pcar.study, "AgentBundle", side_effect=AssertionError):
        with pytest.raises(ValueError, match=match):
            train_on_instance(**args)


def test_benchmark_reward_fn():
    fn = benchmark_reward_fn()
    assert fn(0, 2) == pytest.approx(1.0)
    assert fn(1, -1) == pytest.approx(0.3)


def test_sweep_rows_and_errors(tmp_path):
    rows = sweep(dict(SMALL), "agent.lambda", [0.0, 0.6, 0.9])
    values = {r["value"] for r in rows}
    assert values == {0.0, 0.6, 0.9}
    groups_per_value = len(rows) / 3
    assert groups_per_value == len({r["group"] for r in rows})
    with pytest.raises(ConfigError):
        sweep(dict(SMALL), "agent.lambda", [])
    with pytest.raises(ConfigError):
        sweep(dict(SMALL), "agent.nonsense", [1])


def test_sweep_csv_writes_the_swept_value_as_given(tmp_path):
    """The 10-significant-digit rule is for computed floats only: a swept
    value is the user's own and keeps its spelling."""
    rows = [{"parameter": "p", "value": value, "seed": 3, "group": "pcar",
             "mean_acceptance": 0.5, "mean_reward": 1 / 3,
             "final_week_reward": float("nan")}
            for value in (1.0, True, None, "model", 0.1234567890123)]
    write_sweep_csv(rows, tmp_path / "sweep.csv")
    tail = ",3,pcar,0.5,0.3333333333,nan\n"
    assert (tmp_path / "sweep.csv").read_bytes() == (
        "parameter,value,seed,group,mean_acceptance,mean_reward,final_week_reward\n"
        + "".join(f"p,{v}{tail}" for v in ("1.0", "True", "", "model", "0.1234567890123"))
    ).encode()


def test_sweep_keys_an_object_by_its_json_in_any_key_order(tmp_path):
    """An allocation spelled in two key orders is one study, with one
    sub-seed, and its CSV cell is JSON that reads back as the value. A
    number keeps the sub-seed its ``repr`` gave, as JSON spells it alike."""
    values = [{"random": 0.4, "pcar": 0.6}, {"pcar": 0.6, "random": 0.4}]
    rows = sweep(dict(SMALL), "phase2_allocation", values)
    assert len({r["seed"] for r in rows}) == 1
    write_sweep_csv(rows, tmp_path / "sweep.csv")
    with (tmp_path / "sweep.csv").open(newline="") as fh:
        cells = [row["value"] for row in csv.DictReader(fh)]
    assert cells and {json.dumps(v) for v in values} == set(cells)
    assert all(json.loads(cell) in values for cell in cells)
    numeric = sweep(dict(SMALL), "agent.lambda", [0.6])
    assert {r["seed"] for r in numeric} == {
        hash64(SMALL["seed"], "sweep", "agent.lambda", repr(0.6))}


def test_sweep_checks_every_value_before_simulating(monkeypatch):
    runs = []

    def counting_run_study(cfg):
        runs.append(cfg)
        return run_study(cfg)

    monkeypatch.setattr(pcar.study, "run_study", counting_run_study)
    for parameter, values in (("agent.lambda", [0.6, "x"]),
                              ("cohort.fatigue_decay", [0.5, 1.5]),
                              ("agent.tau_max", [4, np.int64(3)])):  # not JSON either
        with pytest.raises(ConfigError, match=parameter):
            sweep(dict(SMALL), parameter, values)
    assert runs == []


def test_sweep_seed_parameter_uses_given_seeds():
    rows = sweep(dict(SMALL), "seed", [5, 6])
    assert {r["seed"] for r in rows} == {5, 6}


def test_model_scheduler_mode_runs_and_respects_budget():
    log = run_study({"seed": 17, "n_participants": 4, "weeks_per_phase": 1,
                     "scheduler": {"mode": "model"}})
    assert log.records  # the cold model starts at the base-rate logit and fires
    per_day = {}
    for r in log.records:
        per_day.setdefault((r.pid, r.day), 0)
        per_day[(r.pid, r.day)] += 1
    assert max(per_day.values()) <= 3


@pytest.mark.parametrize("seed", [4, 5])
def test_model_mode_budget_term_counts_participant_days(monkeypatch, seed):
    """The nightly fit reads the contacts' feedback only, keyed by
    participant-day, the unit its budget term averages over. No fit reads
    the last day's rows, but the history the fits share receives them: it
    ends holding one row per record, labeled with that record's
    ``accepted``, its day keys are the records' participant-days, and each
    of those gets exactly ``max_per_day`` contacts."""
    train, fits, appended = pcar.scheduler.train, [], {}
    add = pcar.scheduler.TimingHistory.add  # every row, appended or keyed, goes in here

    def recording_train(model, history, **kwargs):
        fits.append(history)
        return train(model, history, **kwargs)

    def recording_add(history, key, y, day):
        appended.setdefault(day, []).append(float(y))
        add(history, key, y, day)

    monkeypatch.setattr(pcar.scheduler, "train", recording_train)
    monkeypatch.setattr(pcar.scheduler.TimingHistory, "add", recording_add)
    log = run_study({"seed": seed, "scheduler": {"mode": "model"}})
    history = fits[-1]
    accepted = {}  # (pid, day key) -> accepted flags in time order
    for r in log.records:
        accepted.setdefault((r.pid, r.day - 1), []).append(float(r.accepted))
    assert len(history) == len(log.records)
    assert appended == accepted
    assert history._days == set(accepted)
    per_day = Counter((r.pid, r.day) for r in log.records)
    days = DEFAULT_CONFIG["n_participants"] * 2 * 5 * DEFAULT_CONFIG["weeks_per_phase"]
    assert len(per_day) == days
    assert set(per_day.values()) == {DEFAULT_CONFIG["budget"]["max_per_day"]}


def test_model_mode_fits_once_before_each_study_day(monkeypatch):
    """One fit before each day on the rows of the days before it, the first
    day's on the empty history (the cold start); none after the last day,
    which no walk would read. Every fit reads the study's one history."""
    fitted, histories = [], set()  # the rows each fit read; the histories

    def recording_fit(history, shape, settings):
        fitted.append(len(history))
        histories.add(id(history))
        return fit(history, shape, settings)

    monkeypatch.setattr(pcar.study, "fit", recording_fit)
    cfg = dict(SMALL, scheduler={"mode": "model"})
    log = run_study(cfg)
    days_total = 2 * 5 * cfg["weeks_per_phase"]
    before = Counter(r.day for r in log.records)
    assert fitted == [sum(before[d] for d in range(1, day + 1))
                      for day in range(days_total)]
    assert fitted[0] == 0 and len(histories) == 1


@pytest.mark.parametrize("seed, budget", [
    (4, {}), (5, {}),
    (4, {"max_per_day": 2, "min_gap_minutes": 90, "window_start": "09:00",
         "window_end": "20:00"}),
    # a contact after 19:00 leaves the next morning's first run a gap under
    # the 780-minute cap, so a budget not carried overnight walks otherwise
    (5, {"max_per_day": 2, "min_gap_minutes": 90})])
def test_model_mode_contacts_are_each_participants_own_walk(seed, budget, monkeypatch):
    """The cohort walks each model-mode day once. That holds because every
    participant would fire alike: on each study day every participant's
    contacts fall at the same minutes, those that the night's walk fires on
    a budget of that participant's own, carried from day to day."""
    walks = []

    def recording_fit(history, shape, settings):
        walks.append(fit(history, shape, settings))
        return walks[-1]

    monkeypatch.setattr(pcar.study, "fit", recording_fit)
    log = run_study({"seed": seed, "budget": budget, "scheduler": {"mode": "model"}})
    cfg = log.meta["config"]
    minutes = {}  # (pid, study day) -> contact minutes of day
    for r in log.records:
        hour, minute = map(int, r.timestamp[11:16].split(":"))
        minutes.setdefault((r.pid, r.day), []).append(hour * 60 + minute)
    for pid in log.meta["phase2_groups"]:
        own = BudgetState(
            max_per_day=cfg["budget"]["max_per_day"],
            min_gap_minutes=cfg["budget"]["min_gap_minutes"],
            window_start_minute=pcar.study._parse_hhmm(cfg["budget"]["window_start"]),
            window_end_minute=pcar.study._parse_hhmm(cfg["budget"]["window_end"]))
        for day_idx, walk in enumerate(walks):
            fired = [now % DAY_MINUTES for now, _ in
                     walk.fires(pcar.study._calendar_day(day_idx), own)]
            assert minutes.get((pid, day_idx + 1), []) == fired
    per_day = {}
    for (_, day), day_minutes in minutes.items():
        per_day.setdefault(day, set()).add(tuple(day_minutes))
    assert len(walks) == 20 and all(len(v) == 1 for v in per_day.values())
    assert len(minutes) == 28 * 20


@pytest.mark.parametrize("mode", ["model", "uniform_random"])
def test_only_uniform_mode_walks_a_budget_per_participant(mode, monkeypatch):
    """Model mode walks each day once on the cohort's budget, so no
    participant's own budget records a contact: it is absent or as fresh
    as it started. In uniform mode each participant walks their own, which
    ends at their last contact."""
    made, state = [], pcar.study._ParticipantState

    def recording_state(**kwargs):
        made.append(state(**kwargs))
        return made[-1]

    monkeypatch.setattr(pcar.study, "_ParticipantState", recording_state)
    log = run_study(dict(SMALL, scheduler={"mode": mode}))
    assert len(made) == SMALL["n_participants"] and log.records
    budgets = [st.budget for st in made]
    if mode == "model":
        assert all(b is None or (b.delivered_today, b.last_delivery) == (0, None)
                   for b in budgets)
    else:  # states are made in pid order, and records sort by pid and time
        last = {}
        for r in log.records:
            stamp = datetime.fromisoformat(r.timestamp)
            last[r.pid] = ((stamp.date() - STUDY_START).days * DAY_MINUTES
                           + stamp.hour * 60 + stamp.minute)
        assert [b.last_delivery for b in budgets] == [last[pid] for pid in sorted(last)]


@pytest.mark.parametrize("seed", [4, 5])
def test_model_mode_calibrates_to_the_study_window(seed):
    """The timing model is fit and calibrated under the study's own budget
    rules: on a 08:00-13:00 window with the 120-minute gap, three contacts
    a day are feasible (08:00, 10:00, 12:00) and the model delivers close
    to that."""
    log = run_study({"seed": seed, "n_participants": 8, "weeks_per_phase": 1,
                     "budget": {"window_end": "13:00"},
                     "scheduler": {"mode": "model"}})
    assert len(log.records) / (8 * 10) >= 2.5


@pytest.mark.parametrize("daily_budget", [1, 2])
def test_timing_comparison_enforces_its_daily_budget(daily_budget):
    """History, evaluation and the matched baseline all walk the given
    allowance, not the default cap of 3."""
    res = timing_comparison(seeds=2, n_participants=4, history_days=5,
                            eval_days=3, daily_budget=daily_budget)
    assert max(res.trained_daily + res.uniform_daily) <= daily_budget


def test_timing_comparison_walks_each_eval_weekday_once():
    """Eval days ``d`` and ``d + 5`` fall on one weekday and start from a
    fresh budget, so they fire alike: 10 eval days walk the trained policy
    on 5 days per seed, one per weekday."""
    days, fires = [], ThresholdWalk.fires

    def recording(walk, day, budget):
        days.append(day)
        return fires(walk, day, budget)

    with mock.patch.object(ThresholdWalk, "fires", recording):
        timing_comparison(seeds=2, n_participants=4, history_days=5, eval_days=10)
    assert len(days) == 10
    assert sorted(day % 7 for day in days) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


@pytest.mark.parametrize("name, value", [
    ("seeds", 1), ("n_participants", 0), ("history_days", 0), ("eval_days", 0),
    ("daily_budget", 0)])
def test_timing_comparison_rejects_bad_sizes_before_simulating(monkeypatch, name,
                                                               value):
    def no_cohort(*args):
        raise AssertionError("simulated before checking its inputs")

    monkeypatch.setattr(pcar.study, "default_cohort", no_cohort)
    with pytest.raises(ValueError, match=name):
        timing_comparison(**{name: value})


def test_learner_and_timing_settings_come_only_from_config_blocks():
    """The agent and scheduler blocks of DEFAULT_CONFIG are the one source
    of the learner's and the timing fit's settings: the library declares no
    defaults that repeat them."""
    empty = inspect.Parameter.empty
    assert not hasattr(pcar.agent, "Hyperparams")
    bundle = inspect.signature(AgentBundle).parameters
    assert "tau_max" not in bundle and "params" not in bundle
    assert bundle["n_trait_buckets"].default is empty
    assert list(inspect.signature(fit).parameters) == ["history", "shape", "settings"]
    for fn in (train, composite_loss, TimingModel.budget_init):
        params = inspect.signature(fn).parameters.values()
        assert all(p.default is empty for p in params), fn.__name__
    assert "budget_penalty" not in {f.name for f in dataclasses.fields(TimingModel)}
    assert not hasattr(TimingModel, "zeros")
