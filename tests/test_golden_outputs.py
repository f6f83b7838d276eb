"""Pinned outputs of the simulation paths that the weekly-summary golden
file does not cover: the full record CSV of a uniform and of a model-mode
study, of a study that advances clocks on declined content and of one
whose learner starts without the phase-1 replay, the four per-seed lists
of ``timing_comparison``, the minutes of day at which its trained walk
fires on each eval day, the other three ``report`` files of a default
study, the CSV of a small sweep and the per-seed fractions of two short
``oracle_check`` runs (the episodic learner's greedy totals over the
optimum): one the learner solves outright and one it does not, whose
fractions below 1 move with the learner's values. The learner's own
values are pinned too: the Q tables of a two-attribute bundle driven over
a fixed set of trajectories, with a clock clip below the cap so that
clocks share table entries. Three keys digest the session fixtures of
``conftest.py``: the log hashes of the 20-seed acceptance batch, the
fractions of criterion 3's oracle check and the ``repr`` of criterion 9's
``timing_comparison(seeds=20)``.

The values in ``data/golden_outputs.json`` were recorded once; a refactor
that claims to keep behaviour must leave every one of them unchanged.
Regenerate only for an intended change of outputs, with

    PYTHONPATH=src python tests/test_golden_outputs.py --record
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import (acceptance_batch, default_oracle_check,
                      default_timing_comparison)
from pcar.agent import PERIODS, AgentBundle, AttributeSchema, ContextBucket
from pcar.lsd import advance, initial_state
from pcar.scheduler import DAY_MINUTES, ThresholdWalk
from pcar.study import (
    oracle_check,
    report,
    run_study,
    sweep,
    timing_comparison,
    write_sweep_csv,
)

GOLDEN = Path(__file__).parent / "data" / "golden_outputs.json"

STUDIES = {
    "records_uniform": {"seed": 11, "n_participants": 6, "weeks_per_phase": 1},
    "records_model": {"seed": 17, "n_participants": 4, "weeks_per_phase": 1,
                      "scheduler": {"mode": "model"}},
    "records_advance_on_decline": {"seed": 23, "n_participants": 6,
                                   "weeks_per_phase": 1,
                                   "advance_on_decline": True},
    "records_no_pretrain": {"seed": 29, "n_participants": 6,
                            "weeks_per_phase": 1,
                            "agent": {"pretrain_on_phase1": False}},
}
# the study-model benchmark workload's shape and its two study seeds
MODEL_WORKLOAD = [{"seed": seed, "n_participants": 28, "weeks_per_phase": 2,
                   "scheduler": {"mode": "model"}} for seed in (4, 5)]
TIMING = dict(seeds=2, n_participants=4, history_days=5, eval_days=3)
# TIMING's trained walk fires at 8:00, 10:00 and 12:00 every day; at this
# size the eval days fall on every weekday, fire off the hour and differ
FIRE_MINUTES = dict(seeds=2, eval_days=5)
# a default study with Welch rows in both phases
REPORT_STUDY = {"seed": 2000}
REPORT_FILES = {"report_phase_deltas": "phase_deltas",
                "report_welch_tests": "welch_tests",
                "report_plot_data": "plot_data"}
SWEEP = ({"seed": 7, "n_participants": 12}, "agent.lambda", [0, 0.6, 0.9])
ORACLE = {
    "oracle_fractions": dict(k=2, tau_max=2, horizon=10, seeds=3, episodes=500),
    # reads about [0.87, 0.96, 0.85]
    "oracle_fractions_unsolved": dict(k=3, tau_max=3, horizon=8, seeds=3,
                                      episodes=100),
}

LEARNER_SCHEMA = AttributeSchema((("flavor", ("calm", "focus", "move")),
                                  ("place", ("indoor", "outdoor"))))
# 3 periods x 2 trait buckets = 6 context buckets; clocks beyond +/-3 clip
LEARNER = dict(n_trait_buckets=2, seed=5)
LEARNER_SETTINGS = {"alpha": 0.1, "gamma": 0.9, "lambda": 0.6, "tau_max": 6,
                    "q_tau_clip": 3, "epsilon_start": 0.5, "epsilon_end": 0.05,
                    "epsilon_decay_steps": 300}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _records_digest(name: str) -> str:
    return _sha256(run_study(dict(STUDIES[name])).records_csv())


def _model_workload_digest() -> str:
    return _sha256("".join(run_study(dict(cfg)).records_csv()
                           for cfg in MODEL_WORKLOAD))


def _timing_digest() -> str:
    res = timing_comparison(**TIMING)
    lists = [res.trained_acceptance, res.uniform_acceptance,
             res.trained_daily, res.uniform_daily]
    # json writes floats with repr, which round-trips exactly
    return _sha256(json.dumps(lists))


def _fire_minutes_digest() -> str:
    """The minute of day of each fire ``ThresholdWalk.fires`` yields
    during ``timing_comparison(**FIRE_MINUTES)``, one list per walked day:
    ``accept`` reads only the hour, so no other pin sees a fire's minute."""
    days, fires = [], ThresholdWalk.fires

    def recording(walk, day, budget):
        minutes = []
        days.append(minutes)
        for now, x in fires(walk, day, budget):
            minutes.append(now % DAY_MINUTES)
            yield now, x

    with mock.patch.object(ThresholdWalk, "fires", recording):
        timing_comparison(**FIRE_MINUTES)
    return _sha256(json.dumps(days))


def _report_digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        paths = report(run_study(dict(REPORT_STUDY)), tmp)
        return {name: _sha256(paths[key].read_text(encoding="utf-8"))
                for name, key in REPORT_FILES.items()}


def _sweep_digest() -> str:
    cfg, parameter, values = SWEEP
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        write_sweep_csv(sweep(dict(cfg), parameter, values), path)
        return _sha256(path.read_text(encoding="utf-8"))


def _oracle_digest(name: str) -> str:
    return _fractions_digest(oracle_check(**ORACLE[name]))


def _fractions_digest(result) -> str:
    return _sha256(json.dumps(result.fractions))


def _log_hashes_digest(logs) -> str:
    return _sha256("".join(log.log_hash() for log in logs))


def _learner_digest() -> str:
    """Q tables after 60 trajectories of 1-8 choices on clocks that carry
    over from one trajectory to the next, as a participant's do across
    days; contexts and rewards come from a fixed stream."""
    bundle = AgentBundle(LEARNER_SCHEMA, LEARNER_SETTINGS, **LEARNER)
    rng = np.random.default_rng(41)
    clocks = [initial_state(len(values), LEARNER_SETTINGS["tau_max"])
              for _, values in LEARNER_SCHEMA.attributes]
    for _ in range(60):
        pending = None
        for _ in range(int(rng.integers(1, 9))):
            ctx = ContextBucket(PERIODS[int(rng.integers(len(PERIODS)))],
                                int(rng.integers(LEARNER["n_trait_buckets"])))
            sel = bundle.select_action(ctx, clocks)
            if pending is not None:
                bundle.td_step(*pending, sel)
            pending = (sel, float(rng.normal()))
            clocks = [advance(c, i) for c, i in zip(clocks, sel.value_indices)]
        bundle.td_step(*pending, None)
        bundle.end_episode()
    return _sha256(json.dumps(bundle.q_snapshot()))


def _compute() -> dict:
    out = {name: _records_digest(name) for name in STUDIES}
    out["records_model_workload"] = _model_workload_digest()
    out["timing_comparison"] = _timing_digest()
    out["timing_comparison_fire_minutes"] = _fire_minutes_digest()
    out.update(_report_digests())
    out["sweep_csv"] = _sweep_digest()
    out.update({name: _oracle_digest(name) for name in ORACLE})
    out["learner_q"] = _learner_digest()
    out["acceptance_log_hashes"] = _log_hashes_digest(acceptance_batch())
    out["oracle_fractions_default"] = _fractions_digest(default_oracle_check())
    out["timing_comparison_default"] = _sha256(repr(default_timing_comparison()))
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_records_csv_matches_golden(golden, name):
    assert _records_digest(name) == golden[name]


def test_records_model_workload_matches_golden(golden):
    assert _model_workload_digest() == golden["records_model_workload"]


def test_timing_comparison_matches_golden(golden):
    assert _timing_digest() == golden["timing_comparison"]


def test_timing_comparison_fire_minutes_match_golden(golden):
    assert _fire_minutes_digest() == golden["timing_comparison_fire_minutes"]


def test_report_files_match_golden(golden):
    digests = _report_digests()
    for name in REPORT_FILES:
        assert digests[name] == golden[name], name


def test_sweep_csv_matches_golden(golden):
    assert _sweep_digest() == golden["sweep_csv"]


def test_oracle_fractions_match_golden(golden):
    assert _oracle_digest("oracle_fractions") == golden["oracle_fractions"]


def test_oracle_fractions_unsolved_match_golden(golden):
    name = "oracle_fractions_unsolved"
    assert _oracle_digest(name) == golden[name]


def test_learner_q_matches_golden(golden):
    assert _learner_digest() == golden["learner_q"]


def test_acceptance_log_hashes_match_golden(golden, study_batch):
    logs, _ = study_batch
    assert _log_hashes_digest(logs) == golden["acceptance_log_hashes"]


def test_oracle_fractions_default_match_golden(golden, oracle_default):
    result, _ = oracle_default
    assert _fractions_digest(result) == golden["oracle_fractions_default"]


def test_timing_comparison_default_matches_golden(golden, timing_default):
    comparison, _ = timing_default
    assert _sha256(repr(comparison)) == golden["timing_comparison_default"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(_compute(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
