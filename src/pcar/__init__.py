"""Switch-clock-aware micro-intervention recommender and study simulator.

Modules:
  lsd        -- signed per-arm switch clocks and their transition
  agent      -- factorized SARSA(lambda) learner, baselines, planning oracle
  catalog    -- intervention content pool and attribute resolution
  cohort     -- simulated participants (receptivity, stress, fatigue)
  scheduler  -- delivery budget rules and the trained timing classifier
  stats      -- Welch t, Pearson r, mean-of-means summaries, trend slope
  study      -- phase-structured study runner, reporting, sweeps
  cli        -- command line entry points
"""

__version__ = "0.1.0"
