import csv
import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pcar.cli
import pcar.study
from pcar.cli import main
from pcar.scheduler import SERVICE_TICKS

SMALL_CFG = {"seed": 9, "n_participants": 6, "weeks_per_phase": 1}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(SMALL_CFG))
    return path


def test_run_writes_log_and_report(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"] > 0
    assert set(doc["files"]) == {"records", "meta", "weekly_summary",
                                 "phase_deltas", "welch_tests", "plot_data"}
    assert sorted(p.name for p in out.iterdir()) == [
        "meta.json", "phase_deltas.csv", "plot_data.json", "records.csv",
        "weekly_summary.csv", "welch_tests.csv"]


def test_run_is_reproducible(tmp_path, config_path, capsys):
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "a"),
          "--no-report"])
    first = json.loads(capsys.readouterr().out)["log_hash"]
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "b"),
          "--no-report"])
    second = json.loads(capsys.readouterr().out)["log_hash"]
    assert first == second


def test_report_from_saved_log(tmp_path, config_path, capsys):
    run_dir = tmp_path / "run"
    main(["run", "--config", str(config_path), "--out", str(run_dir), "--no-report"])
    capsys.readouterr()
    code = main(["report", "--log", str(run_dir), "--out", str(tmp_path / "rep")])
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "rep").iterdir()) == [
        "phase_deltas.csv", "plot_data.json", "weekly_summary.csv", "welch_tests.csv"]


def test_run_and_report_a_study_without_contacts(tmp_path, capsys):
    """A valid study that delivers nothing still writes the four report
    files, header-only CSVs and a plot document without series, exits 0
    and prints nothing on stderr."""
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps({"n_participants": 2, "weeks_per_phase": 1,
                                "scheduler": {"trigger_rate": 0}}))
    run_dir, rep_dir = tmp_path / "run", tmp_path / "rep"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(path), "--out", str(run_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["records"] == 0
        assert main(["report", "--log", str(run_dir), "--out", str(rep_dir)]) == 0
        assert capsys.readouterr().err == ""
    for out in (run_dir, rep_dir):
        for name in ("weekly_summary", "phase_deltas", "welch_tests"):
            assert len((out / f"{name}.csv").read_text().splitlines()) == 1
        assert json.loads((out / "plot_data.json").read_text())["series"] == []


@pytest.mark.parametrize("damage", ["empty_meta", "no_reward_column", "word_flags",
                                    "word_stress", "short_record",
                                    "completed_declined", "declined_with_stress",
                                    "accepted_without_pre_stress",
                                    "unfinished_with_reward", "wrong_reward",
                                    "value_outside_schema"])
def test_report_on_malformed_log_prints_one_json_line(tmp_path, config_path,
                                                      capsys, damage):
    run_dir = tmp_path / "run"
    main(["run", "--config", str(config_path), "--out", str(run_dir), "--no-report"])
    capsys.readouterr()
    records = run_dir / "records.csv"
    rows = list(csv.reader(records.read_text().splitlines()))
    if damage == "empty_meta":
        (run_dir / "meta.json").write_text("{}")
        expected = "attribute_schema"
    elif damage == "no_reward_column":
        keep = [i for i, col in enumerate(rows[0]) if col != "reward"]
        records.write_text("\n".join(",".join(r[i] for i in keep) for r in rows))
        expected = "header"
    elif damage not in ("word_flags", "word_stress", "short_record"):
        # one record, well-formed cell by cell, that no study could write
        col = {name: i for i, name in enumerate(rows[0])}
        i = next(i for i, r in enumerate(rows[1:], 1) if {
            "completed_declined": r[col["accepted"]] == "0",
            "declined_with_stress": r[col["accepted"]] == "0",
            "accepted_without_pre_stress": r[col["accepted"]] == "1" and r[col["completed"]] == "0",
            "unfinished_with_reward": r[col["accepted"]] == "1" and r[col["completed"]] == "0",
            "wrong_reward": r[col["completed"]] == "1",
            "value_outside_schema": r[col["intervention_id"]] != "",
        }[damage])
        row = rows[i]
        if damage == "completed_declined":
            row[col["completed"]] = "1"
            problem = "completed but not accepted"
        elif damage == "declined_with_stress":
            row[col["pre_stress"]] = "3"
            problem = "declined but has a stress, reward or intervention"
        elif damage == "accepted_without_pre_stress":
            row[col["pre_stress"]] = ""
            problem = "accepted but has no pre_stress"
        elif damage == "unfinished_with_reward":
            row[col["reward"]] = "0"
            problem = "post_stress and reward must be set exactly when completed"
        elif damage == "wrong_reward":
            row[col["reward"]] = str(int(row[col["reward"]]) + 1)
            problem = "reward is not pre_stress - post_stress"
        else:  # the first attribute's column follows intervention_id
            row[col["intervention_id"] + 1] = "bogus"
            problem = "'bogus' is not a value of attribute"
        records.write_text("".join(",".join(r) + "\n" for r in rows))
        expected = f"records.csv line {i + 1}: {problem}"
    else:
        # the third record gets a flag other than 0/1, a word in an int
        # column or one cell too few
        if damage == "word_flags":
            rows[3][rows[0].index("accepted")] = "yes"
            rows[3][rows[0].index("completed")] = "true"
            expected = "records.csv line 4: accepted is 'yes'"
        elif damage == "word_stress":
            rows[3][rows[0].index("pre_stress")] = "high"
            expected = "records.csv line 4: pre_stress is 'high'"
        else:
            rows[3].pop()
            expected = f"records.csv line 4: {len(rows[0]) - 1} cells"
        records.write_text("".join(",".join(r) + "\n" for r in rows))
    code = main(["report", "--log", str(run_dir), "--out", str(tmp_path / "rep")])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert expected in json.loads(lines[0])["error"]
    assert not (tmp_path / "rep").exists()


def test_report_on_a_half_filled_attribute_field_prints_one_json_line(
        tmp_path, config_path, capsys):
    """A content record with one attribute cell blanked is one no study
    writes: ``pcar report`` prints one JSON error line naming its line and
    exits 2 before writing a report."""
    run_dir = tmp_path / "run"
    main(["run", "--config", str(config_path), "--out", str(run_dir), "--no-report"])
    capsys.readouterr()
    records = run_dir / "records.csv"
    rows = list(csv.reader(records.read_text().splitlines()))
    col = {name: i for i, name in enumerate(rows[0])}
    i = next(i for i, r in enumerate(rows[1:], 1) if r[col["intervention_id"]])
    rows[i][col["location"]] = ""
    records.write_text("".join(",".join(r) + "\n" for r in rows))
    code = main(["report", "--log", str(run_dir), "--out", str(tmp_path / "rep")])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert (f"records.csv line {i + 1}: intervention_id, attribute values and clocks "
            "are not all set or all empty") in json.loads(lines[0])["error"]
    assert not (tmp_path / "rep").exists()


def test_bad_config_fails_with_json_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # the last two are removed knobs: the threshold is always calibrated and
    # the ghost rollout was never implemented
    for user, key in [
        ({"bogus_key": 1}, "bogus_key"),
        ({"scheduler": {"threshold": 0.5}}, "scheduler.threshold"),
        ({"agent": {"ghost_rollout_depth": 0}}, "agent.ghost_rollout_depth"),
    ]:
        path.write_text(json.dumps(user))
        code = main(["run", "--config", str(path)])
        assert code != 0
        err = capsys.readouterr().err.strip()
        doc = json.loads(err)
        assert key in doc["error"]


@pytest.mark.parametrize("user", [
    {"n_participants": "28"},
    {"budget": {"max_per_day": "3"}},
    {"budget": {"window_start": "8am"}},
    {"budget": {"window_start": "07:00"}},
    {"budget": {"window_end": "22:00"}},
    {"scheduler": {"trigger_rate": -1.0}},
    {"agent": {"q_tau_clip": 9}},
    {"agent": {"alpha": "0.1"}},
    {"cohort": {"noise_sigma": float("inf")}},
    {"budget": {"window_start": "08:03"}},
])
def test_bad_config_values_fail_before_simulating(tmp_path, capsys, user):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(user))
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}
    assert not out.exists()


def _run_fails_with_one_json_line(tmp_path, capsys, user):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(user))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    return json.loads(lines[0])["error"]


def test_type_error_during_run_prints_one_json_line(tmp_path, capsys,
                                                   monkeypatch):
    def broken_accept(*args, **kwargs):  # fails inside the simulation
        raise TypeError("broken accept")

    monkeypatch.setattr(pcar.study, "accept", broken_accept)
    user = {"n_participants": 2, "weeks_per_phase": 1,
            "scheduler": {"trigger_rate": 1.0}}
    assert _run_fails_with_one_json_line(tmp_path, capsys, user) == "broken accept"


def test_budget_recheck_failure_prints_one_json_line(tmp_path, capsys,
                                                     monkeypatch):
    def every_tick(day, budget, rng, rate):  # fires ignoring the hard rules
        budget.start_day()
        for minute in SERVICE_TICKS:
            yield day * 1440 + minute

    monkeypatch.setattr(pcar.study, "uniform_fires", every_tick)
    user = {"n_participants": 1, "weeks_per_phase": 1,
            "scheduler": {"trigger_rate": 1.0}}
    assert "contacts" in _run_fails_with_one_json_line(tmp_path, capsys, user)


def test_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code != 0
    assert "error" in json.loads(capsys.readouterr().err.strip())


def test_oracle_command_small_instance(capsys):
    code = main([
        "oracle", "--k", "1", "--tau-max", "2", "--horizon", "4",
        "--seeds", "2", "--episodes", "20",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["optimal_sequence"] == [0, 0, 0, 0]


@pytest.mark.parametrize("args, name", [
    (["--required", "0", "--seeds", "1", "--episodes", "1"], "required"),
    (["--required", "3", "--seeds", "2", "--episodes", "1"], "required"),
    (["--seeds", "0"], "seeds"),
    (["--seeds", "-2"], "seeds"),
    (["--episodes", "0", "--seeds", "1"], "episodes"),
    (["--threshold", "0", "--seeds", "1", "--episodes", "1"], "threshold"),
    (["--threshold", "1.5", "--seeds", "1", "--episodes", "1"], "threshold"),
    (["--threshold", "nan", "--seeds", "1", "--episodes", "1"], "threshold"),
    (["--horizon", "0", "--seeds", "1", "--episodes", "1"], "horizon"),
], ids=["required-0", "required-above-seeds", "seeds-0", "seeds-negative",
        "episodes-0", "threshold-0", "threshold-above-1", "threshold-nan", "horizon-0"])
def test_oracle_command_rejects_meaningless_checks(capsys, args, name):
    code = main(["oracle", "--k", "2", "--tau-max", "2", "--horizon", "4", *args])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert name in json.loads(lines[0])["error"]


@pytest.mark.parametrize("where", ["config_is_directory", "out_under_file"])
def test_os_errors_print_one_json_line(tmp_path, config_path, capsys, where):
    if where == "config_is_directory":
        argv = ["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")]
    else:
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["run", "--config", str(config_path), "--out", str(blocker / "x")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}


def test_oracle_command_guard(capsys):
    code = main([
        "oracle", "--k", "10", "--tau-max", "2", "--horizon", "9",
        "--seeds", "1", "--episodes", "1",
    ])
    assert code == 2
    assert "guard" in json.loads(capsys.readouterr().err.strip())["error"]


def test_oracle_command_plans_a_deep_single_arm_horizon(capsys):
    # one arm passes the sequence guard at any horizon, so the planner's
    # depth must not be bounded by the interpreter's recursion limit
    code = main([
        "oracle", "--k", "1", "--tau-max", "1", "--horizon", "3000",
        "--seeds", "1", "--episodes", "1",
    ])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["optimal_sequence"] == [0] * 3000
    assert doc["passed"] is True


def test_sweep_command(tmp_path, config_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", str(config_path), "--param", "agent.lambda",
        "--values", "0,0.6", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("parameter,value,seed,group")
    assert len(lines) > 2


def test_sweep_carries_values_that_hold_commas(tmp_path, config_path, monkeypatch,
                                              capsys):
    """--values reads as one JSON list, so an allocation object keeps its
    commas, and a plain list reads as it always did."""
    swept, sweep = [], pcar.study.sweep

    def recording_sweep(cfg, param, values):
        swept.append((param, values))
        return sweep(cfg, param, values)

    monkeypatch.setattr(pcar.cli, "sweep", recording_sweep)
    out = tmp_path / "sweep.csv"
    allocations = [{"control": 0.5, "random": 0.5}, {"control": 0.25, "random": 0.75}]
    code = main(["sweep", "--config", str(config_path), "--param", "phase1_allocation",
                 "--values", ",".join(json.dumps(a) for a in allocations),
                 "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert swept == [("phase1_allocation", allocations)]
    with out.open(newline="") as fh:
        values = {row["value"] for row in csv.DictReader(fh)}
    assert len(values) == 2  # one study per allocation
    for spelled in ("0,0.6", "0, 0.6", " 0 ,0.6 "):
        assert main(["sweep", "--config", str(config_path), "--param", "agent.lambda",
                     "--values", spelled, "--out", str(out)]) == 0
    assert swept[1:] == [("agent.lambda", [0, 0.6])] * 3


def test_sweep_of_a_study_without_contacts_writes_the_header(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_participants": 2, "weeks_per_phase": 1,
                                "scheduler": {"trigger_rate": 0}}))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(path), "--param", "seed",
                 "--values", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert json.loads(captured.out)["rows"] == 0
    assert out.read_text().splitlines() == [
        "parameter,value,seed,group,mean_acceptance,mean_reward,final_week_reward"]


_WINDOWS = [("08:00", "21:00"), ("09:30", "12:00"), ("20:55", "21:00")]
# (dotted key, value) pairs that load_config or the run must reject
_BAD_VALUES = [
    ("n_participants", 0), ("n_participants", "2"), ("weeks_per_phase", 1.5),
    ("seed", True), ("scheduler.mode", "bogus"),
    ("scheduler.trigger_rate", float("nan")), ("scheduler.trigger_rate", -0.1),
    ("scheduler.trigger_rate", "0.1"), ("scheduler.train_epochs", "5"),
    ("scheduler.budget_penalty", "x"), ("scheduler.budget_penalty", -5.0),
    ("scheduler.train_step", -0.05), ("budget", 3),
    ("budget.max_per_day", 0), ("budget.max_per_day", 2.5),
    ("budget.min_gap_minutes", -5), ("budget.window_start", "8am"),
    ("budget.window_start", "07:59"), ("budget.window_start", "21:00"),
    ("budget.window_end", "22:00"), ("budget.window_end", 800),
    ("phase1_allocation", {"control": 0.5, "random": 0.2}),
    ("phase2_allocation", {"random": -0.5, "pcar": 1.5}),
    ("phase1_allocation", {"random": "1"}), ("agent.tau_max", 0),
    ("agent.q_tau_clip", 9), ("agent.epsilon_decay_steps", "x"),
    ("agent.alpha", "0.1"), ("cohort.noise_sigma", -1.0),
    ("cohort.noise_sigma", "0.7"), ("cohort.completion_rate", "x"),
    ("cohort.engagement.rate", None), ("catalog_path", "/nonexistent.tsv"),
    ("unknown_knob", 1), ("scheduler.threshold", 0.5),
    ("agent.ghost_rollout_depth", 0), ("cohort.noise_sigma", float("inf")),
    ("budget.window_start", "08:03"), ("budget.weekdays_only", False),
    ("cohort.fatigue_decay", 1.0), ("cohort.recovery_rounds", 0),
]


def _swap_in(user: dict, key: str, value) -> None:
    """Set the dotted ``key`` of a user config to ``value``."""
    *parents, leaf = key.split(".")
    node = user
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value


@pytest.mark.parametrize("key, value", _BAD_VALUES)
def test_every_bad_value_is_rejected_with_one_json_line(tmp_path, capsys, key, value):
    user = {"n_participants": 1, "weeks_per_phase": 1}
    _swap_in(user, key, value)
    _run_fails_with_one_json_line(tmp_path, capsys, user)


@st.composite
def fuzz_configs(draw):
    """A valid config of a tiny study and a (dotted key, bad value) pair
    to swap into it."""
    probability = st.floats(0, 1)
    window = draw(st.sampled_from(_WINDOWS))
    tau_max = draw(st.integers(1, 6))
    user = {
        "seed": draw(st.integers(0, 10**6)),
        # tiny shapes keep a run in the tens of milliseconds
        "n_participants": draw(st.integers(1, 3)),
        "weeks_per_phase": 1,
        # an allocation block replaces the default: a group left out gets 0
        "phase1_allocation": draw(st.sampled_from(
            [{"control": 0.25, "random": 0.75}, {"control": 0.0, "random": 1.0},
             {"control": 1.0, "random": 0.0}])),
        "phase2_allocation": draw(st.sampled_from(
            [{"random": 0.4, "pcar": 0.6}, {"random": 0.0, "pcar": 1.0},
             {"pcar": 1.0}])),
        "budget": {
            "max_per_day": draw(st.integers(1, 4)),
            "min_gap_minutes": draw(st.integers(0, 300)),
            "window_start": window[0],
            "window_end": window[1],
            "weekdays_only": True,  # the only accepted value
        },
        "scheduler": {
            "mode": draw(st.sampled_from(["uniform_random", "model"])),
            "trigger_rate": draw(probability),
            "budget_penalty": draw(probability),
            # a short fit keeps model-mode runs cheap
            "train_epochs": draw(st.integers(0, 5)),
            "train_step": draw(st.floats(0, 0.1)),
        },
        "agent": {
            "tau_max": tau_max,
            "q_tau_clip": draw(st.none() | st.integers(1, tau_max)),
            "epsilon_decay_steps": draw(st.none() | st.integers(0, 50)),
            "alpha": draw(probability),
            "pretrain_on_phase1": draw(st.booleans()),
        },
        "cohort": {
            "noise_sigma": draw(st.floats(0, 2)),
            "completion_rate": draw(probability),
            "recovery_rounds": draw(st.integers(1, 5)),
            "engagement": {"enabled": draw(st.booleans()), "rate": draw(probability)},
        },
        "advance_on_decline": draw(st.booleans()),
    }
    return user, draw(st.sampled_from(_BAD_VALUES))


def _run_config(user: dict) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(user))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["run", "--config", str(path), "--out",
                         str(Path(tmp) / "out"), "--no-report"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=fuzz_configs())
def test_fuzzed_configs_exit_zero_or_print_one_json_error(case):
    """A valid tiny config runs and exits 0. With one bad value swapped in,
    ``pcar run`` exits nonzero with nothing on stdout and exactly one JSON
    error line on stderr; it never raises. Every entry of ``_BAD_VALUES``
    is one that ``load_config`` rejects."""
    user, (key, value) = case
    code, out, err = _run_config(user)
    assert code == 0 and err == "", err
    assert json.loads(out)["records"] >= 0
    _swap_in(user, key, value)
    code, out, err = _run_config(user)
    lines = err.splitlines()
    assert code != 0, (key, value)
    assert out == "" and len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}
