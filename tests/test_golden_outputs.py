"""Pinned outputs of the simulation paths that the weekly-summary golden
file does not cover: the full record CSV of a uniform and of a model-mode
study, of a study that advances clocks on declined content and of one
whose learner starts without the phase-1 replay, and the four per-seed
lists of ``timing_comparison``.

The values in ``data/golden_outputs.json`` were recorded once; a refactor
that claims to keep behaviour must leave every one of them unchanged.
Regenerate only for an intended change of outputs, with

    PYTHONPATH=src python tests/test_golden_outputs.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from pcar.study import run_study, timing_comparison

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
TIMING = dict(seeds=2, n_participants=4, history_days=5, eval_days=3)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _records_digest(name: str) -> str:
    return _sha256(run_study(dict(STUDIES[name])).records_csv())


def _timing_digest() -> str:
    res = timing_comparison(**TIMING)
    lists = [res.trained_acceptance, res.uniform_acceptance,
             res.trained_daily, res.uniform_daily]
    # json writes floats with repr, which round-trips exactly
    return _sha256(json.dumps(lists))


def _compute() -> dict:
    out = {name: _records_digest(name) for name in STUDIES}
    out["timing_comparison"] = _timing_digest()
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_records_csv_matches_golden(golden, name):
    assert _records_digest(name) == golden[name]


def test_timing_comparison_matches_golden(golden):
    assert _timing_digest() == golden["timing_comparison"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(_compute(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
