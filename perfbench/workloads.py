"""The benchmark's workloads: the inputs of each unit, one timed unit, and
the checks on its outputs, which run outside the timed region.

``study-uniform`` and ``study-model`` time one in-process ``pcar run`` on
the default study shape (28 participants, two weeks per phase) in the two
scheduler modes. ``oracle-learn`` times one episodic training run on the
k=2, tau_max=2, horizon=10 instance and scores it against the planner's
optimum. The program only sees the generated config files and seeds.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

N_PARTICIPANTS = 28
WEEKS_PER_PHASE = 2
BUDGET = {
    "max_per_day": 3,
    "min_gap_minutes": 120,
    "window_start": "08:00",
    "window_end": "21:00",
    "weekdays_only": True,
}
# Model-mode cost follows the history rows handed to the nightly train,
# and those vary about 3x by study seed (seed 5: 152k rows; seed 4: 472k).
# A run that drew its study seeds from the workload seed would measure the
# seeds, not the code, so every study-model run covers this same pair, each
# seed twice (the second run of each is the determinism check), and the
# workload seed only picks which of the two runs first. The heavy seed
# stays in: its long history is where the nightly refit's cost shows.
MODEL_SEEDS = (4, 5)
ORACLE = {"k": 2, "tau_max": 2, "horizon": 10, "episodes": 5000}
ORACLE_OPTIMUM = 10.5
ORACLE_REACH = 0.95
# A learned total can exceed the planner's by rounding when it sums an
# equally good sequence in another order.
FRACTION_SLACK = 1e-9


class ProgramMissing(RuntimeError):
    pass


class UnitFailure(Exception):
    pass


def load_program(root: Path):
    """Import ``pcar`` from ``root/src`` and return the package; refuse any
    other copy, so the benchmark always measures the checkout it sits in."""
    src = (root / "src").resolve()
    if not (src / "pcar" / "__init__.py").is_file():
        raise ProgramMissing(f"no pcar package under {src}")
    sys.path.insert(0, str(src))
    import pcar
    import pcar.cli
    import pcar.study

    if Path(pcar.__file__).resolve().parent != src / "pcar":
        raise ProgramMissing(f"imported pcar from {pcar.__file__}, not {src}")
    return pcar


def derive_seed(*parts) -> int:
    digest = hashlib.sha256("\x1f".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Unit:
    index: int
    seed: int

    @property
    def key(self) -> str:
        return f"seed={self.seed}"


@dataclass
class Outcome:
    """One attempted unit. ``seconds`` is None when the unit raised;
    ``ref_s`` is its time in reference seconds, set by the timed loop."""

    unit: Unit
    seconds: float | None
    digest: str | None = None
    error: str | None = None
    quality: dict = field(default_factory=dict)
    ref_s: float | None = None


def _hhmm(text: str) -> int:
    h, m = text.split(":")
    return int(h) * 60 + int(m)


def budget_violations(records, budget: dict) -> list[str]:
    """The hard delivery rules, checked on a reloaded log independently of
    the program's own guard: daily cap, minimum gap, window, weekdays."""
    lo, hi = _hhmm(budget["window_start"]), _hhmm(budget["window_end"])
    per_day: dict = {}
    for r in records:
        per_day.setdefault((r.pid, r.day), []).append(datetime.fromisoformat(r.timestamp))
    problems = []
    for (pid, day), stamps in sorted(per_day.items()):
        stamps.sort()
        if len(stamps) > budget["max_per_day"]:
            problems.append(f"{pid} day {day}: {len(stamps)} contacts")
        for a, b in zip(stamps, stamps[1:]):
            if (b - a).total_seconds() < budget["min_gap_minutes"] * 60:
                problems.append(f"{pid} day {day}: {a:%H:%M} and {b:%H:%M} too close")
        for t in stamps:
            if not lo <= t.hour * 60 + t.minute < hi:
                problems.append(f"{pid} day {day}: {t:%H:%M} outside the window")
            if budget["weekdays_only"] and t.weekday() >= 5:
                problems.append(f"{pid} day {day}: contact on a weekend")
    return problems


def final_week_reward_gap(records) -> float | None:
    """Mean-of-participant-means reward in the last week, pcar minus random."""
    last = max(r.week for r in records)
    per_pid: dict = {"pcar": {}, "random": {}}
    for r in records:
        if r.week == last and r.group in per_pid and r.reward is not None:
            per_pid[r.group].setdefault(r.pid, []).append(r.reward)
    means = {}
    for group, cells in per_pid.items():
        if not cells:
            return None
        means[group] = sum(sum(v) / len(v) for v in cells.values()) / len(cells)
    return means["pcar"] - means["random"]


class Workload:
    """Units are numbered from 0; a run covers whole cycles of ``cycle``
    unit runs and at least ``min_runs`` of them (a traced run runs each unit
    twice). ``repeats_first`` says a cycle runs unit 0's inputs twice, so
    no untimed warm-up run is needed to check determinism.
    ``work_per_unit`` is what ``work_per_ref_s`` counts."""

    name: str
    cycle = 1
    min_runs = 1
    repeats_first = False
    work_per_unit: float
    work_name: str
    # (metric, "self" or "total") pairs whose sum should be most of the
    # traced unit time on this workload.
    dominant: tuple = ()

    def __init__(self, pcar, seed: int, work_dir: Path):
        self.pcar = pcar
        self.seed = seed
        self.work_dir = work_dir

    def unit(self, index: int) -> Unit:
        return Unit(index, derive_seed(self.name, self.seed, index))

    def attempt(self, unit: Unit, tag: str = "") -> Outcome:
        """Run and check one unit. Any exception fails the unit; the
        benchmark keeps going and reports it."""
        try:
            return self.run(unit, tag)
        except Exception as exc:  # a unit boundary: record and go on
            return Outcome(unit, None, error=f"{type(exc).__name__}: {exc}")

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, unit: Unit, tag: str) -> Outcome:
        raise NotImplementedError

    @staticmethod
    def summarize_quality(outcomes: list[Outcome]) -> list[str]:
        raise NotImplementedError


class StudyWorkload(Workload):
    work_name = "participant_days"
    work_per_unit = N_PARTICIPANTS * 10 * WEEKS_PER_PHASE
    mode: str

    def config(self, unit: Unit) -> dict:
        return {
            "schema_version": 1,
            "seed": unit.seed,
            "n_participants": N_PARTICIPANTS,
            "weeks_per_phase": WEEKS_PER_PHASE,
            "budget": dict(BUDGET),
            "scheduler": {"mode": self.mode},
        }

    def _write_config(self, unit: Unit, tag: str) -> Path:
        path = self.work_dir / f"config-{unit.index}{tag}.json"
        path.write_text(json.dumps(self.config(unit)), encoding="utf-8")
        return path

    def setup(self) -> None:
        study = self.pcar.study
        path = self._write_config(self.unit(0), "")
        study.load_config(path)
        study.load_starter_catalog()

    def run(self, unit: Unit, tag: str) -> Outcome:
        cfg_path = self._write_config(unit, tag)
        out_dir = self.work_dir / f"unit-{unit.index}{tag}"
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            t0 = time.perf_counter()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = self.pcar.cli.main(
                    ["run", "--config", str(cfg_path), "--out", str(out_dir)])
            seconds = time.perf_counter() - t0
            try:
                digest, quality = self.check(code, stdout.getvalue(),
                                             stderr.getvalue(), out_dir)
            except UnitFailure as exc:
                return Outcome(unit, seconds, error=str(exc))
            return Outcome(unit, seconds, digest, quality=quality)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            cfg_path.unlink(missing_ok=True)

    def check(self, code: int, out: str, err: str, out_dir: Path):
        if code != 0:
            raise UnitFailure(f"pcar run exited {code}: {err.strip()[:200]}")
        lines = out.splitlines()
        if len(lines) != 1 or err:
            raise UnitFailure(
                f"expected one JSON line, got {len(lines)} lines on stdout "
                f"and {len(err)} characters on stderr")
        try:
            result = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise UnitFailure(f"result line is not JSON: {exc}") from None
        if not isinstance(result, dict) or not result.get("records"):
            raise UnitFailure(f"no records written: {lines[0][:200]}")
        log = self.pcar.study.load_log(out_dir)
        if len(log.records) != result["records"]:
            raise UnitFailure(
                f"records.csv holds {len(log.records)} records, "
                f"the result line says {result['records']}")
        if log.log_hash() != result["log_hash"]:
            raise UnitFailure("reloaded log hashes differently from the result line")
        problems = budget_violations(log.records, BUDGET)
        if problems:
            raise UnitFailure(
                f"{len(problems)} budget violations, first: {problems[0]}")
        accepted = sum(r.accepted for r in log.records)
        return result["log_hash"], {
            "acceptance": accepted / len(log.records),
            "reward_gap": final_week_reward_gap(log.records),
        }

    @staticmethod
    def summarize_quality(outcomes: list[Outcome]) -> list[str]:
        acc = [o.quality["acceptance"] for o in outcomes if o.quality]
        gaps = [o.quality["reward_gap"] for o in outcomes
                if o.quality and o.quality["reward_gap"] is not None]
        lines = []
        if acc:
            lines.append(f"acceptance_rate {sum(acc) / len(acc):.4f} "
                         f"(mean over {len(acc)} studies)")
        if gaps:
            lines.append(f"final_week_reward_gap {sum(gaps) / len(gaps):+.4f} "
                         f"(pcar minus random, mean over {len(gaps)} studies)")
        return lines


class UniformStudy(StudyWorkload):
    name = "study-uniform"
    mode = "uniform_random"
    dominant = (("study.run_study", "self"), ("scheduler.eligible", "self"))


class ModelStudy(StudyWorkload):
    name = "study-model"
    mode = "model"
    cycle = 2 * len(MODEL_SEEDS)
    repeats_first = True
    dominant = (("scheduler.train", "total"),
                ("scheduler.calibrate_threshold", "total"))

    def unit(self, index: int) -> Unit:
        return Unit(index, MODEL_SEEDS[(index + self.seed) % len(MODEL_SEEDS)])


class OracleLearn(Workload):
    name = "oracle-learn"
    # Units take over a second, so a run needs a floor on the count to keep
    # unit_ref_s_tail off the maximum of a few: 21 runs put it at the 11th
    # largest of 21 (p52), or cover 11 units run untraced and traced.
    min_runs = 21
    work_name = "learn_steps"
    work_per_unit = ORACLE["episodes"] * ORACLE["horizon"]
    dominant = (("agent.*", "self"), ("lsd.*", "self"))

    def setup(self) -> None:
        study, agent = self.pcar.study, self.pcar.agent
        self.reward_fn = study.benchmark_reward_fn()
        _, self.optimum = agent.plan_oracle(
            self.reward_fn, ORACLE["k"], ORACLE["tau_max"], ORACLE["horizon"])

    def run(self, unit: Unit, tag: str) -> Outcome:
        t0 = time.perf_counter()
        total = self.pcar.study.train_on_instance(
            seed=unit.seed, reward_fn=self.reward_fn, **ORACLE)
        seconds = time.perf_counter() - t0
        if self.optimum != ORACLE_OPTIMUM:
            return Outcome(unit, seconds,
                           error=f"optimum {self.optimum!r}, expected {ORACLE_OPTIMUM}")
        fraction = total / self.optimum
        if not (math.isfinite(fraction) and 0 < fraction <= 1 + FRACTION_SLACK):
            return Outcome(unit, seconds, error=f"fraction {fraction!r} outside (0, 1]")
        digest = hashlib.sha256(repr(fraction).encode()).hexdigest()[:16]
        return Outcome(unit, seconds, digest, quality={"fraction": fraction})

    @staticmethod
    def summarize_quality(outcomes: list[Outcome]) -> list[str]:
        fractions = [o.quality["fraction"] for o in outcomes if o.quality]
        if not fractions:
            return []
        reached = sum(f >= ORACLE_REACH for f in fractions)
        return [f"reached_{ORACLE_REACH} {reached}/{len(fractions)} units "
                f"(mean fraction of optimum {sum(fractions) / len(fractions):.4f})"]


WORKLOADS = {w.name: w for w in (UniformStudy, ModelStudy, OracleLearn)}
