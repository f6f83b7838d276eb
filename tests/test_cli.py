import json
from datetime import datetime, time, timedelta

import pytest

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
    assert (out / "records.csv").exists()
    assert (out / "meta.json").exists()
    assert (out / "weekly_summary.csv").exists()


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
    assert (tmp_path / "rep" / "plot_data.json").exists()


def test_bad_config_fails_with_json_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bogus_key": 1}))
    code = main(["run", "--config", str(path)])
    assert code != 0
    err = capsys.readouterr().err.strip()
    doc = json.loads(err)
    assert "bogus_key" in doc["error"]


@pytest.mark.parametrize("user", [
    {"n_participants": "28"},
    {"budget": {"max_per_day": "3"}},
    {"budget": {"window_start": "8am"}},
    {"budget": {"window_start": "07:00"}},
    {"budget": {"window_end": "22:00"}},
    {"scheduler": {"trigger_rate": -1.0}},
    {"agent": {"q_tau_clip": 9}},
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


def test_type_error_during_run_prints_one_json_line(tmp_path, capsys):
    user = {"n_participants": 2, "weeks_per_phase": 1,
            "cohort": {"noise_sigma": "0.7"}}
    assert _run_fails_with_one_json_line(tmp_path, capsys, user)


def test_budget_recheck_failure_prints_one_json_line(tmp_path, capsys,
                                                     monkeypatch):
    def every_tick(day, budget):  # a walker that ignores the hard rules
        budget.start_day()
        for minute in SERVICE_TICKS:
            yield datetime.combine(day, time()) + timedelta(minutes=minute)

    monkeypatch.setattr(pcar.study, "eligible_ticks", every_tick)
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


def test_oracle_command_guard(capsys):
    code = main([
        "oracle", "--k", "10", "--tau-max", "2", "--horizon", "9",
        "--seeds", "1", "--episodes", "1",
    ])
    assert code == 2
    assert "guard" in json.loads(capsys.readouterr().err.strip())["error"]


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
