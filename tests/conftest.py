"""Session fixtures for the results that more than one test module reads:
the 20-seed acceptance batch, criterion 3's oracle check and criterion
9's timing comparison. Each is
computed once per session, together with its wall time, so the acceptance
criteria and the golden digests share one run of each."""

import time

import pytest

from pcar.study import oracle_check, run_study, timing_comparison

ACCEPTANCE_SEEDS = list(range(2000, 2020))
# criterion 3's call: the benchmark instance at its default depth
ORACLE_DEFAULT = dict(k=2, tau_max=2, horizon=10, seeds=20, episodes=5000,
                      threshold=0.95, required=18)


def acceptance_batch() -> list:
    """Default-config studies of the acceptance seeds, in seed order."""
    return [run_study({"seed": seed}) for seed in ACCEPTANCE_SEEDS]


def default_oracle_check():
    return oracle_check(**ORACLE_DEFAULT)


def default_timing_comparison():
    """Criterion 9's call: trained against uniform triggering on 20 seeds."""
    return timing_comparison(seeds=20)


def _timed(fn):
    t0 = time.time()
    result = fn()
    return result, time.time() - t0


@pytest.fixture(scope="session")
def study_batch():
    """(logs, elapsed seconds) of the acceptance batch."""
    return _timed(acceptance_batch)


@pytest.fixture(scope="session")
def oracle_default():
    """(OracleCheckResult, elapsed seconds) of criterion 3's oracle check."""
    return _timed(default_oracle_check)


@pytest.fixture(scope="session")
def timing_default():
    """(TimingComparison, elapsed seconds) of criterion 9's timing comparison."""
    return _timed(default_timing_comparison)
