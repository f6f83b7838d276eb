"""Phase-structured simulated study.

Phase 1 splits the cohort into a prompt-only control group and a random-
content group; at the phase boundary the random group is re-split into a
random arm and a learned-recommendation arm. The simulation walks a
5-minute decision grid across weekdays, enforces the delivery budget,
draws engagement and stress responses from the participant models, and
feeds completed-intervention rewards back into the learner.

Everything is deterministic under the study seed: per-participant streams
are derived by hashing (seed, pid), so enlarging the cohort never perturbs
existing participants.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import date, datetime, time, timedelta
from itertools import repeat
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .agent import (
    AgentBundle,
    AttributeSchema,
    ContextBucket,
    plan_oracle,
    random_policy,
)
from .catalog import DEFAULT_SCHEMA, load_catalog, load_starter_catalog, resolve
from .cohort import (
    TRAIT_BUCKETS,
    ParticipantModel,
    accept,
    build_participant,
    control_post_stress,
    default_cohort,
    draw_preference_map,
    effect_strength,
    post_stress,
    pre_stress,
    update_engagement,
)
from .lsd import LsdState, advance, initial_state
from .scheduler import (
    DAY_MINUTES,
    SERVICE_TICKS,
    TICK_MINUTES,
    WINDOW_END_MINUTE,
    WINDOW_START_MINUTE,
    BudgetState,
    TimingHistory,
    features,
    fit,
    row_key,
    uniform_fires,
)
from .stats import (
    SummaryRow,
    mean_of_means,
    participant_means,
    table_cells,
    welch_t,
    write_summary_csv,
    write_table,
)

SCHEMA_VERSION = 1
STUDY_START = date(2024, 1, 1)  # a Monday; weeks align with calendar weeks
POST_EMA_DELAY_MINUTES = 10
# a contact's timestamp is its day's "YYYY-MM-DDT" and this "HH:MM:SS" of
# its minute of day, the text of the datetime's isoformat()
_CLOCK = [time(*divmod(minute, 60)).isoformat() for minute in range(DAY_MINUTES)]

DEFAULT_CONFIG: dict = {
    "schema_version": SCHEMA_VERSION,
    "seed": 1,
    "n_participants": 28,
    "weeks_per_phase": 2,
    "phase1_allocation": {"control": 0.25, "random": 0.75},
    "phase2_allocation": {"random": 0.4, "pcar": 0.6},
    "budget": {
        "max_per_day": 3,
        "min_gap_minutes": 120,
        "window_start": "08:00",
        "window_end": "21:00",
        "weekdays_only": True,
    },
    "scheduler": {
        "mode": "uniform_random",  # or "model"
        "trigger_rate": 0.028,
        "budget_penalty": 0.1,
        "train_epochs": 500,
        "train_step": 0.05,
    },
    "agent": {
        "alpha": 0.1,
        "gamma": 0.9,
        "lambda": 0.6,
        "epsilon_start": 0.2,
        "epsilon_end": 0.02,
        "epsilon_decay_steps": None,  # None: sized to the expected feedback volume
        "tau_max": 6,
        "q_tau_clip": 3,
        "pretrain_on_phase1": True,  # replay logged phase-1 feedback offline
    },
    "cohort": {
        "mean_acceptance_intervention": 0.50,
        "mean_acceptance_control": 0.77,
        "completion_rate": 0.916,
        "fatigue_decay": 0.6,
        "recovery_rounds": 3,
        "noise_sigma": 0.7,
        "fatigue_enabled": True,
        "control_post_drift": 0.15,
        "effect_best": 1.4,
        "effect_second": 0.6,
        "effect_other": 0.12,
        "engagement": {
            "enabled": True,
            "rate": 0.50,
            "reference_benefit": 0.44,
            "floor": 0.50,
            "ceiling": 1.60,
        },
    },
    "advance_on_decline": False,
    "catalog_path": None,
    "output_dir": None,
}


class ConfigError(ValueError):
    """Configuration rejected before any simulation runs."""


# DEFAULT_CONFIG is the schema: each leaf takes the type of its default. These
# tables, by dotted path, say what a default cannot.
_ALLOCATIONS = ("phase1_allocation", "phase2_allocation")
_NULLABLE = {"agent.epsilon_decay_steps": int, "agent.q_tau_clip": int,
             "catalog_path": str, "output_dir": str}
_MINIMUM = {"n_participants": 1, "weeks_per_phase": 1, "budget.max_per_day": 1,
            "budget.min_gap_minutes": 0, "scheduler.train_epochs": 0,
            "scheduler.train_step": 0, "scheduler.budget_penalty": 0,
            "agent.epsilon_decay_steps": 0, "agent.tau_max": 1, "agent.q_tau_clip": 1,
            "cohort.recovery_rounds": 1, "cohort.noise_sigma": 0}
_UNIT_INTERVAL = {
    "scheduler.trigger_rate", "agent.alpha", "agent.gamma", "agent.lambda",
    "agent.epsilon_start", "agent.epsilon_end", "cohort.completion_rate",
    "cohort.mean_acceptance_intervention", "cohort.mean_acceptance_control",
    *(f"{block}.{group}" for block in _ALLOCATIONS for group in DEFAULT_CONFIG[block])}
_OPEN_UNIT_INTERVAL = {"cohort.fatigue_decay"}
# the study walks Monday to Friday only; the key stays so config hashes hold
_CHOICES = {"schema_version": (SCHEMA_VERSION,), "budget.weekdays_only": (True,),
            "scheduler.mode": ("uniform_random", "model")}
_TIMES = ("budget.window_start", "budget.window_end")
_HHMM = re.compile(r"([01][0-9]|2[0-3]):([0-5][05])")  # on the 5-minute grid
_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


def _is(kind: type, value) -> bool:
    """An int for int, a number within float range for float, a bool only for bool."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:  # rejects NaN, the infinities and ints too large for a float
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _leaf(name: str, default, value):
    """``value`` if it passes the rules of the leaf ``name``."""
    if name in _TIMES:
        _parse_hhmm(value, name)
    elif name in _UNIT_INTERVAL:
        if not (_is(float, value) and 0 <= value <= 1):
            raise ConfigError(f"{name} must be in [0, 1], got {value!r}")
    elif name in _OPEN_UNIT_INTERVAL:
        if not (_is(float, value) and 0 < value < 1):
            raise ConfigError(f"{name} must be in (0, 1), got {value!r}")
    elif not (value is None and name in _NULLABLE):
        kind = _NULLABLE.get(name, type(default))
        if not _is(kind, value):
            raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
        if name in _MINIMUM and value < _MINIMUM[name]:
            raise ConfigError(f"{name} must be >= {_MINIMUM[name]}")
        if name in _CHOICES and value not in _CHOICES[name]:
            raise ConfigError(f"{name} must be one of {_CHOICES[name]}, got {value!r}")
    return value


def _walk(defaults: dict, user: dict, path: str = "") -> dict:
    """``user`` merged over ``defaults``, each leaf checked. An allocation
    block replaces its default: a group left out gets 0.0."""
    unknown = [key for key in user if key not in defaults]
    if unknown:
        raise ConfigError(f"unknown config key: {path}{unknown[0]}")
    out = {}
    for key, default in defaults.items():
        value = user.get(key, default)
        if not isinstance(default, dict):
            out[key] = _leaf(path + key, default, value)
        elif not isinstance(value, dict):
            raise ConfigError(f"{path}{key} must be an object")
        else:
            block = dict.fromkeys(default, 0.0) if key in _ALLOCATIONS else default
            out[key] = _walk(block, value, f"{path}{key}.")
    return out


def _hhmm(minute: int) -> str:
    return f"{minute // 60:02d}:{minute % 60:02d}"


def _parse_hhmm(text, name: str = "time") -> int:
    """Minutes after midnight of a 24-hour ``hh:mm`` time on the grid."""
    match = isinstance(text, str) and _HHMM.fullmatch(text)
    if not match:
        raise ConfigError(f"{name} must be an 'hh:mm' time on the "
                          f"{TICK_MINUTES}-minute grid, got {text!r}")
    return int(match[1]) * 60 + int(match[2])


def load_config(source: dict | str | Path) -> dict:
    """Merge a config (a mapping or JSON file) over DEFAULT_CONFIG and check it."""
    if isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text(encoding="utf-8"))
    if not isinstance(source, dict):
        raise ConfigError("config must be a JSON object")
    cfg = _walk(DEFAULT_CONFIG, source)
    start, end = (_parse_hhmm(cfg["budget"][k]) for k in ("window_start", "window_end"))
    if not WINDOW_START_MINUTE <= start < end <= WINDOW_END_MINUTE:
        raise ConfigError(f"budget window {_hhmm(start)}-{_hhmm(end)} must satisfy "
                          f"{_hhmm(WINDOW_START_MINUTE)} <= start < end <= "
                          f"{_hhmm(WINDOW_END_MINUTE)}")
    clip, cap = cfg["agent"]["q_tau_clip"], cfg["agent"]["tau_max"]
    if clip is not None and clip > cap:
        raise ConfigError(f"agent.q_tau_clip must be in 1..{cap} (agent.tau_max)")
    engagement = cfg["cohort"]["engagement"]
    if engagement["floor"] > engagement["ceiling"]:
        raise ConfigError("cohort.engagement.floor must be <= "
                          "cohort.engagement.ceiling")
    for name in _ALLOCATIONS:
        total = sum(cfg[name].values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"{name} fractions sum to {total}, expected 1")
    if cfg["catalog_path"] is not None and not Path(cfg["catalog_path"]).exists():
        raise ConfigError(f"catalog file not found: {cfg['catalog_path']}")
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def hash64(*parts) -> int:
    """Stable 64-bit stream id from arbitrary parts (documented: sha256 of
    the parts joined by unit separators, top 8 bytes, big-endian)."""
    blob = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def split_counts(n: int, fractions: dict[str, float]) -> dict[str, int]:
    """Largest-remainder rounding of n into the declared fractions; ties
    go to the earlier key."""
    raw = {k: n * f for k, f in fractions.items()}
    counts = {k: int(math.floor(v)) for k, v in raw.items()}
    leftover = n - sum(counts.values())
    order = sorted(
        fractions.keys(),
        key=lambda k: (-(raw[k] - counts[k]), list(fractions).index(k)),
    )
    for k in order[:leftover]:
        counts[k] += 1
    return counts


@dataclass
class InterventionRecord:
    """One initiated contact opportunity and everything that came of it."""

    seed: int
    pid: str
    group: str
    phase: int
    week: int
    day: int
    timestamp: str
    accepted: bool
    completed: bool
    intervention_id: str | None = None
    attribute_values: tuple[str, ...] | None = None
    taus_before: tuple[int, ...] | None = None
    pre_stress: int | None = None
    post_stress: int | None = None
    reward: int | None = None


_FLAG = {"0": False, "1": True}


def _record_columns(schema: AttributeSchema) -> list[tuple[str, type]]:
    """``records.csv``'s columns: a record's fields in order, each with the
    type of its cells, and the two per-attribute fields spread over one
    column per attribute. From ``intervention_id`` on, a field may be None:
    no content or no EMA."""
    names = [name for name, _ in schema.attributes]
    return ([("seed", int), ("pid", str), ("group", str), ("phase", int),
             ("week", int), ("day", int), ("timestamp", str),
             ("accepted", bool), ("completed", bool), ("intervention_id", str)]
            + [(name, str) for name in names] + [(f"tau_{name}", int) for name in names]
            + [("pre_stress", int), ("post_stress", int), ("reward", int)])


@dataclass
class StudyLog:
    """Append-only event log plus run metadata."""

    records: list[InterventionRecord]
    meta: dict
    schema: AttributeSchema

    def records_csv(self) -> str:
        """Each record's raw values in ``_record_columns`` order, its flags
        as int; csv writes None as an empty cell and an int as str."""
        buf = io.StringIO()
        none = (None,) * self.schema.n_attributes
        write_table(
            buf, [name for name, _ in _record_columns(self.schema)],
            ((r.seed, r.pid, r.group, r.phase, r.week, r.day, r.timestamp,
              int(r.accepted), int(r.completed), r.intervention_id,
              *(r.attribute_values or none), *(r.taus_before or none),
              r.pre_stress, r.post_stress, r.reward) for r in self.records),
        )
        return buf.getvalue()

    def log_hash(self) -> str:
        return _log_hash(self.records_csv(), self.meta)

    def save(self, out_dir: str | Path) -> dict[str, Path]:
        """Render the records once, write them and ``meta.json``, and keep
        their hash in ``meta["log_hash"]``, as a loaded log has it."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        text = self.records_csv()
        records_path = out / "records.csv"
        records_path.write_text(text, encoding="utf-8")
        self.meta["log_hash"] = _log_hash(text, self.meta)
        meta_path = out / "meta.json"
        meta_path.write_text(json.dumps(self.meta, sort_keys=True, indent=2) + "\n",
                             encoding="utf-8")
        return {"records": records_path, "meta": meta_path}


def _log_hash(records_csv: str, meta: dict) -> str:
    return hashlib.sha256((records_csv + meta["config_hash"]).encode()).hexdigest()


def _read_cell(kind: type, optional: bool, cell: str):
    if kind is bool:
        return _FLAG[cell]
    return None if optional and cell == "" else kind(cell)


def _impossible(rec: InterventionRecord, schema: AttributeSchema) -> str | None:
    """Why no study could have written ``rec``, or None when one could."""
    if rec.completed and not rec.accepted:
        return "completed but not accepted"
    if not rec.accepted and any(
            v is not None for v in (rec.intervention_id, rec.attribute_values,
                                    rec.taus_before, rec.pre_stress,
                                    rec.post_stress, rec.reward)):
        return "declined but has a stress, reward or intervention"
    if (rec.reward is not None, rec.post_stress is not None) != (rec.completed,) * 2:
        return "post_stress and reward must be set exactly when completed"
    if rec.completed and (rec.pre_stress is None
                          or rec.reward != rec.pre_stress - rec.post_stress):
        return "reward is not pre_stress - post_stress"
    if rec.attribute_values is not None:
        try:
            schema.validate_vector(rec.attribute_values)
        except ValueError as err:
            return str(err)
    return None


def load_log(path: str | Path) -> StudyLog:
    """Read a saved log; ``path`` is the run directory or its records.csv.
    Each cell is read back by its column in ``_record_columns``: a flag is
    0 or 1, an empty cell of a field that may be None is None, and an int
    column is parsed with ``int``. Raises ValueError unless the meta names
    an attribute schema, the header is exactly the columns ``save`` writes
    for it, every cell follows that rule and every record is one a study
    could write: ``intervention_id``, the attribute values and the clocks
    are all set or all empty, completed implies accepted, a declined
    contact has no stress, reward or intervention, ``post_stress`` and
    ``reward`` are set exactly when the contact was completed, ``reward``
    is ``pre_stress - post_stress`` and attribute values are the schema's."""
    path = Path(path)
    if path.is_dir():
        records_path, meta_path = path / "records.csv", path / "meta.json"
    else:
        records_path, meta_path = path, path.parent / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if not isinstance(meta, dict) or "attribute_schema" not in meta:
        raise ValueError(f"{meta_path} has no attribute_schema")
    schema = AttributeSchema(
        tuple((n, tuple(vs)) for n, vs in meta["attribute_schema"])
    )
    columns = _record_columns(schema)
    header = [name for name, _ in columns]
    optional = header.index("intervention_id")  # from here on a cell may be empty
    first, n = optional + 1, schema.n_attributes  # the attribute columns start at first
    records = []
    with records_path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ValueError(f"{records_path} header is {found}, expected {header}")
        for row in filter(None, reader):  # blank lines hold no record
            if len(row) != len(header):
                raise ValueError(f"{records_path} line {reader.line_num}: "
                                 f"{len(row)} cells, expected {len(header)}")
            cells = []
            for i, ((name, kind), cell) in enumerate(zip(columns, row)):
                try:
                    cells.append(_read_cell(kind, i >= optional, cell))
                except (KeyError, ValueError):
                    raise ValueError(f"{records_path} line {reader.line_num}: "
                                     f"{name} is {cell!r}") from None
            if len({cell is None for cell in cells[optional:first + 2 * n]}) > 1:
                raise ValueError(f"{records_path} line {reader.line_num}: "
                                 "intervention_id, attribute values and clocks "
                                 "are not all set or all empty")
            values, taus = cells[first:first + n], cells[first + n:first + 2 * n]
            rec = InterventionRecord(
                *cells[:first],
                tuple(values) if None not in values else None,
                tuple(taus) if None not in taus else None,
                *cells[first + 2 * n:],
            )
            problem = _impossible(rec, schema)
            if problem:
                raise ValueError(f"{records_path} line {reader.line_num}: {problem}")
            records.append(rec)
    return StudyLog(records=records, meta=meta, schema=schema)


@dataclass
class _ParticipantState:
    """One participant's run state. ``pending`` holds a pcar contact's
    (Selection, reward) until its successor is chosen; ``replay`` holds the
    random group's phase-1 chains in day order: day index -> [(Selection, reward)]."""

    model: ParticipantModel
    group: str
    rng: np.random.Generator
    clocks: list[LsdState]
    budget: BudgetState | None  # uniform mode only; model mode walks the cohort's
    engagement: float = 1.0
    pending: tuple | None = None
    replay: dict = field(default_factory=dict)


def _calendar_day(day_idx: int) -> int:
    """Calendar day (0 is ``STUDY_START``) of study day ``day_idx``, a weekday."""
    return day_idx // 5 * 7 + day_idx % 5


def _split(order: list[str], fractions: dict[str, float]) -> dict[str, str]:
    """Assign ``order`` to the groups of ``fractions`` in declared order,
    sized by ``split_counts``."""
    counts = split_counts(len(order), fractions)
    return dict(zip(order, (g for g in fractions for _ in range(counts[g]))))


def run_study(cfg: dict | str | Path) -> StudyLog:
    """Simulate the full two-phase study described by the config."""
    cfg = load_config(cfg)  # idempotent for already-validated configs
    seed = cfg["seed"]
    n = cfg["n_participants"]
    weeks = cfg["weeks_per_phase"]
    days_total = weeks * 2 * 5
    phase2_first_day = weeks * 5

    catalog = (load_catalog(cfg["catalog_path"]) if cfg["catalog_path"]
               else load_starter_catalog())
    schema = DEFAULT_SCHEMA
    ccfg, acfg = cfg["cohort"], cfg["agent"]

    pids = [f"p{i + 1:03d}" for i in range(n)]
    alloc_rng = np.random.default_rng(hash64(seed, "alloc"))
    shuffled = [pids[i] for i in alloc_rng.permutation(n)]
    group_of = _split(shuffled, cfg["phase1_allocation"])

    prefs = draw_preference_map(np.random.default_rng(hash64(seed, "prefs")))
    bcfg = cfg["budget"]
    scfg = cfg["scheduler"]
    model_mode = scfg["mode"] == "model"
    # the study's budget rules; in uniform mode each participant walks a
    # copy, in model mode the cohort walks one
    shape = BudgetState(
        max_per_day=bcfg["max_per_day"],
        min_gap_minutes=bcfg["min_gap_minutes"],
        window_start_minute=_parse_hhmm(bcfg["window_start"]),
        window_end_minute=_parse_hhmm(bcfg["window_end"]),
    )
    states: dict[str, _ParticipantState] = {}
    for i, pid in enumerate(pids):
        target = ccfg["mean_acceptance_control" if group_of[pid] == "control"
                      else "mean_acceptance_intervention"]
        model_rng = np.random.default_rng(hash64(seed, pid, "model"))
        model = build_participant(i, model_rng, prefs, target, ccfg)
        states[pid] = _ParticipantState(
            model=model,
            group=group_of[pid],
            rng=np.random.default_rng(hash64(seed, pid, "sim")),
            clocks=[initial_state(len(vs), acfg["tau_max"])
                    for _, vs in schema.attributes],
            budget=None if model_mode else replace(shape),
        )

    bundle: AgentBundle | None = None

    # a contact's (features, accepted, (pid, day_idx)): the budget term
    # counts per participant-day, the unit the allowance is set in
    timing_history = TimingHistory()
    cohort_budget = replace(shape)  # model mode walks each day once, for all

    records: list[InterventionRecord] = []

    def reallocate_phase2() -> AgentBundle:
        random_pids = [pid for pid in pids if states[pid].group == "random"]
        order = [random_pids[i] for i in alloc_rng.permutation(len(random_pids))]
        for pid, name in _split(order, cfg["phase2_allocation"]).items():
            states[pid].group = name
        decay = acfg["epsilon_decay_steps"]
        if decay is None:
            # size the schedule to replayed plus expected live feedback
            n_pcar = sum(1 for st in states.values() if st.group == "pcar")
            replay_n = sum(len(c) for st in states.values() for c in st.replay.values())
            expected_live = (
                n_pcar * weeks * 5 * bcfg["max_per_day"]
                * ccfg["mean_acceptance_intervention"] * ccfg["completion_rate"]
            )
            decay = max(1, replay_n + int(expected_live))
        new_bundle = AgentBundle(schema, dict(acfg, epsilon_decay_steps=decay),
                                 TRAIT_BUCKETS, seed=hash64(seed, "bundle"))
        for st in states.values():  # pid order keeps the run reproducible
            for chain in st.replay.values():
                for j, (sel, r) in enumerate(chain):
                    nxt = chain[j + 1][0] if j + 1 < len(chain) else None
                    new_bundle.td_step(sel, r, nxt)
                new_bundle.end_episode()
        return new_bundle

    for day_idx in range(days_total):
        calendar_day = _calendar_day(day_idx)
        if model_mode:
            # nightly: refit from scratch on everything seen so far, before
            # the day that reads it (none after the last); the first day's
            # empty history is the cold start, whose untrained scorer's bar
            # is set so it still delivers. All budgets start the day alike, so
            # the cohort walks it once and keys each fire's row once
            walk = fit(timing_history, shape, scfg).fires(calendar_day, cohort_budget)
            day_fires = [(now, row_key(x)) for now, x in walk]
        if day_idx == phase2_first_day:
            bundle = reallocate_phase2()
        phase = 1 if day_idx < phase2_first_day else 2
        week = day_idx // 5 + 1

        date_stamp = f"{STUDY_START + timedelta(calendar_day)}T"
        for pid in pids:
            st = states[pid]
            p = st.model
            if model_mode:
                fires = day_fires
            else:
                fires = zip(uniform_fires(calendar_day, st.budget, st.rng,
                                          scfg["trigger_rate"]), repeat(None))
            for now, key in fires:  # key: the fire's history key in model mode
                minute = now % DAY_MINUTES
                hour = minute // 60
                engaged = accept(p, hour, st.rng, engagement=st.engagement)
                if model_mode:
                    timing_history.add(key, engaged, (pid, day_idx))
                # one contact: its record is filled in as the contact proceeds
                rec = InterventionRecord(
                    seed=seed, pid=pid, group=st.group, phase=phase, week=week,
                    day=day_idx + 1, timestamp=date_stamp + _CLOCK[minute],
                    accepted=engaged, completed=False,
                )
                records.append(rec)
                if not engaged:
                    continue
                rec.pre_stress = pre_stress(p, hour, st.rng)
                if st.group == "control":  # prompt only: no content, no learning
                    rec.completed = st.rng.random() < ccfg["completion_rate"]
                    if rec.completed:
                        post_hour = (now + POST_EMA_DELAY_MINUTES) % DAY_MINUTES // 60
                        post = control_post_stress(p, post_hour, st.rng)
                        rec.post_stress, rec.reward = post, rec.pre_stress - post
                    continue
                ctx = ContextBucket.from_hour(hour, p.trait_bucket)
                sel = (bundle.select_action(ctx, st.clocks) if st.group == "pcar" else
                       random_policy(schema, st.rng, ctx.index(TRAIT_BUCKETS), st.clocks))
                action = schema.value_names(sel.value_indices)
                rec.attribute_values, rec.taus_before = action, sel.taus
                rec.intervention_id = resolve(catalog, action, st.rng).id
                rec.completed = st.rng.random() < ccfg["completion_rate"]
                if rec.completed:
                    felt = effect_strength(p, sel.value_indices, sel.taus, ctx)
                    post = post_stress(p, rec.pre_stress, felt, st.rng)
                    rec.post_stress, rec.reward = post, rec.pre_stress - post
                    st.engagement = update_engagement(p, st.engagement, felt)
                    if st.group == "pcar":
                        if st.pending is not None:
                            bundle.td_step(*st.pending, sel)
                        st.pending = (sel, rec.reward)
                    elif phase == 1 and acfg["pretrain_on_phase1"]:
                        st.replay.setdefault(day_idx, []).append((sel, rec.reward))
                # advance_on_decline (opt-in) counts delivered-but-unfinished
                # content as a round
                if rec.completed or cfg["advance_on_decline"]:
                    st.clocks = [advance(c, i)
                                 for c, i in zip(st.clocks, sel.value_indices)]
            # participant-day end: flush the open transition, close the trajectory
            if st.pending is not None:  # only a pcar participant has one
                bundle.td_step(*st.pending, None)
                bundle.end_episode()
                st.pending = None

    records.sort(key=attrgetter("pid", "day", "timestamp"))
    meta = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "seed": seed,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "n_participants": n,
        "weeks_per_phase": weeks,
        "start_date": STUDY_START.isoformat(),
        "attribute_schema": [[n_, list(vs)] for n_, vs in schema.attributes],
        "phase2_groups": {pid: states[pid].group for pid in pids},
    }
    log = StudyLog(records=records, meta=meta, schema=schema)
    _assert_budget_safety(log)
    return log


def _assert_budget_safety(log: StudyLog) -> None:
    """Defense in depth: re-check every hard rule on the final log. The
    daily cap counts per (pid, day); the gap rule, like ``eligible``,
    spans days, so it runs over each participant's contacts in time order."""
    cfg = log.meta["config"]["budget"]
    per_pid: dict[str, list[tuple[datetime, int]]] = {}
    for r in log.records:
        per_pid.setdefault(r.pid, []).append(
            (datetime.fromisoformat(r.timestamp), r.day)
        )
    lo, hi = _parse_hhmm(cfg["window_start"]), _parse_hhmm(cfg["window_end"])
    for pid, contacts in per_pid.items():
        for day, n in Counter(day for _, day in contacts).items():
            if n > cfg["max_per_day"]:
                raise AssertionError(f"{pid} day {day}: {n} contacts")
        contacts.sort()
        for (a, _), (b, day) in zip(contacts, contacts[1:]):
            if (b - a).total_seconds() / 60.0 < cfg["min_gap_minutes"]:
                raise AssertionError(f"{pid} day {day}: gap rule violated")
        for t, day in contacts:
            minute = t.hour * 60 + t.minute
            if not lo <= minute < hi:
                raise AssertionError(f"{pid} day {day}: {t} outside window")
            if t.weekday() >= 5:
                raise AssertionError(f"{pid} day {day}: weekend contact")


# -- reporting -----------------------------------------------------------------


def metric_rows(log: StudyLog) -> list[dict]:
    """One acceptance row per contact and one reward row per completed
    contact: the rows every participant-first readout starts from."""
    rows = []
    for r in log.records:
        base = {"group": r.group, "phase": r.phase, "week": r.week, "pid": r.pid}
        rows.append(dict(base, metric="acceptance", value=1.0 if r.accepted else 0.0))
        if r.completed and r.reward is not None:
            rows.append(dict(base, metric="reward", value=float(r.reward)))
    return rows


def weekly_summary(rows: list[dict]) -> list[SummaryRow]:
    """Participant-first cells of ``metric_rows`` by group, phase, week and
    metric; none for no rows."""
    if not rows:
        return []
    return sorted(mean_of_means(rows), key=lambda s: (s.metric, s.group, s.phase, s.week))


# the columns of each readout table, in order: its header and the keys of its rows
PHASE_DELTA_COLUMNS = ("group", "phase", "metric", "first_week", "last_week",
                       "first_week_mean", "last_week_mean", "delta")
WELCH_COLUMNS = ("metric", "phase", "group_a", "group_b", "n_a", "n_b", "t", "df", "p")
SWEEP_COLUMNS = ("parameter", "value", "seed", "group",
                 "mean_acceptance", "mean_reward", "final_week_reward")


def _write_csv(path: str | Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        write_table(fh, columns, (table_cells(r[c] for c in columns) for r in rows))


def phase_deltas(summary: list[SummaryRow]) -> list[dict]:
    """Within-phase change: last week's mean minus the first week's, per
    (group, phase, metric) -- the retention panel of the weekly figures."""
    cells: dict[tuple, dict[int, float]] = {}
    for s in summary:
        cells.setdefault((s.group, s.phase, s.metric), {})[s.week] = s.mean
    out = []
    for (group, phase, metric), weeks in sorted(cells.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1])):
        first, last = min(weeks), max(weeks)
        out.append(dict(zip(PHASE_DELTA_COLUMNS, (
            group, phase, metric, first, last,
            weeks[first], weeks[last], weeks[last] - weeks[first]))))
    return out


def welch_table(rows: list[dict]) -> list[dict]:
    """Pairwise group comparisons of per-participant phase means of ``metric_rows``."""
    per = participant_means(rows, ("metric", "phase", "group"))
    out = []
    metrics = sorted({k[0] for k in per})
    phases = sorted({k[1] for k in per})
    for metric in metrics:
        for phase in phases:
            groups = sorted(g for (m, ph, g) in per if m == metric and ph == phase)
            for i, ga in enumerate(groups):
                for gb in groups[i + 1:]:
                    xa, xb = per[(metric, phase, ga)], per[(metric, phase, gb)]
                    if len(xa) < 2 or len(xb) < 2:
                        continue
                    try:
                        res = welch_t(xa, xb)
                    except ValueError:
                        continue
                    out.append(dict(zip(WELCH_COLUMNS, (
                        metric, phase, ga, gb, len(xa), len(xb), res.t, res.df, res.p))))
    return out


def report(log: StudyLog, out_dir: str | Path) -> dict[str, Path]:
    """Emit the weekly summaries, within-phase deltas, the pairwise
    comparison table and plot-ready JSON series; the record CSV is
    ``StudyLog.save``'s. A log without records gets header-only CSVs and
    no series."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    rows = metric_rows(log)
    summary = weekly_summary(rows)
    paths["weekly_summary"] = out / "weekly_summary.csv"
    with paths["weekly_summary"].open("w", encoding="utf-8", newline="") as fh:
        write_summary_csv(summary, fh)

    paths["phase_deltas"] = out / "phase_deltas.csv"
    _write_csv(paths["phase_deltas"], PHASE_DELTA_COLUMNS, phase_deltas(summary))

    paths["welch_tests"] = out / "welch_tests.csv"
    _write_csv(paths["welch_tests"], WELCH_COLUMNS, welch_table(rows))

    series: dict[tuple, dict] = {}
    for s in summary:
        key = (s.group, s.phase, s.metric)
        entry = series.setdefault(
            key,
            {"group": s.group, "phase": s.phase, "metric": s.metric,
             "weeks": [], "mean": [], "ci_low": [], "ci_high": []},
        )
        entry["weeks"].append(s.week)
        entry["mean"].append(s.mean)
        entry["ci_low"].append(s.ci_low)
        entry["ci_high"].append(s.ci_high)
    plot_doc = {
        "schema_version": SCHEMA_VERSION,
        "series": [series[k] for k in sorted(series)],
    }
    paths["plot_data"] = out / "plot_data.json"
    paths["plot_data"].write_text(
        json.dumps(plot_doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return paths


# -- learner-vs-oracle check -----------------------------------------------------


@dataclass
class OracleCheckResult:
    k: int
    tau_max: int
    horizon: int
    optimal_sequence: tuple[int, ...]
    optimal_total: float
    fractions: list[float]
    threshold: float
    required: int
    passed: bool


def benchmark_reward_fn():
    """Reward used by the standard benchmark instance: 1.0 on a rested
    clock, 0.2 on a tired one, plus 0.1 per arm index."""

    def fn(arm: int, tau: int) -> float:
        return (1.0 if tau > 0 else 0.2) + 0.1 * arm

    return fn


def train_on_instance(
    k: int,
    tau_max: int,
    horizon: int,
    episodes: int,
    seed: int,
    reward_fn,
) -> float:
    """Train a single-attribute learner episodically on the instance and
    return the greedy policy's total reward. Each episode walks its own
    clocks from the all-rested start; the greedy rollout takes the first
    arm of highest value and draws nothing."""
    schema = AttributeSchema((("arm", tuple(str(i) for i in range(k))),))
    # alpha, gamma and lambda come from the config; its clock clip would
    # merge clocks beyond +/-3, so this learner clips at the cap
    settings = dict(DEFAULT_CONFIG["agent"], tau_max=tau_max, q_tau_clip=None,
                    epsilon_start=0.2, epsilon_end=0.0,
                    epsilon_decay_steps=episodes * horizon)
    bundle = AgentBundle(schema, settings, n_trait_buckets=1, seed=seed)
    ctx = ContextBucket(period="morning", trait_bucket=0)
    start = initial_state(k, tau_max)
    for _ in range(episodes):
        state = start
        sel = bundle.select_action(ctx, [state])
        for t in range(horizon):
            arm = sel.value_indices[0]
            r = reward_fn(arm, sel.taus[0])
            state = advance(state, arm)
            # the follow-up is chosen before the update, at the old epsilon
            nxt = bundle.select_action(ctx, [state]) if t < horizon - 1 else None
            bundle.td_step(sel, r, nxt)
            sel = nxt
        bundle.end_episode()
    state, total = start, 0.0
    for _ in range(horizon):
        arm = max(range(k), key=lambda v: bundle.action_value(0, state, v, ctx))
        total += reward_fn(arm, state.taus[arm])
        state = advance(state, arm)
    return total


def oracle_check(
    k: int,
    tau_max: int,
    horizon: int,
    seeds: int = 20,
    episodes: int = 5000,
    threshold: float = 0.95,
    required: int | None = None,
) -> OracleCheckResult:
    """Compare episodic training against the brute-force planner on one
    instance; passes when enough seeds reach the threshold fraction of the
    optimal total. Inputs that make the check meaningless are rejected
    before planning."""
    if required is None:
        required = max(1, int(math.ceil(seeds * 0.9)))
    if seeds < 1 or episodes < 1:
        raise ValueError(f"seeds and episodes must be >= 1, got {seeds}, {episodes}")
    if not 1 <= required <= seeds:
        raise ValueError(f"required must be in 1..{seeds}, got {required}")
    if not 0.0 < threshold <= 1.0:  # NaN fails too
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    reward_fn = benchmark_reward_fn()
    # every play earns at least 0.2 and the planner needs horizon >= 1, so best > 0
    seq, best = plan_oracle(reward_fn, k, tau_max, horizon)
    fractions = []
    for s in range(seeds):
        total = train_on_instance(
            k, tau_max, horizon, episodes, hash64("oracle", s), reward_fn
        )
        fractions.append(total / best)
    passed = sum(f >= threshold for f in fractions) >= required
    return OracleCheckResult(
        k=k, tau_max=tau_max, horizon=horizon,
        optimal_sequence=seq, optimal_total=best,
        fractions=fractions, threshold=threshold, required=required,
        passed=passed,
    )


# -- trained-timing evaluation -----------------------------------------------------


@dataclass
class TimingComparison:
    trained_acceptance: list[float]
    uniform_acceptance: list[float]
    trained_daily: list[float]
    uniform_daily: list[float]
    t: float
    p: float


def timing_comparison(
    seeds: int = 20,
    n_participants: int = 20,
    history_days: int = 30,
    eval_days: int = 10,
    daily_budget: int = 3,
) -> TimingComparison:
    """Per seed: collect cohort-wide feedback under uniform-random
    triggering at 3 contacts per 84 ticks (the nightly trainer pools every
    participant's history), train the timing model with the default
    ``scheduler`` block, then compare its cohort acceptance against a
    uniform baseline matched to the trained policy's realized daily rate.
    Raises ValueError before simulating unless there are two seeds to
    compare and every size is at least 1."""
    if seeds < 2:
        raise ValueError(f"seeds must be >= 2 to compare, got {seeds}")
    sizes = {"n_participants": n_participants, "history_days": history_days,
             "eval_days": eval_days, "daily_budget": daily_budget}
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    ccfg, scfg = DEFAULT_CONFIG["cohort"], DEFAULT_CONFIG["scheduler"]
    # every walk, the fit and the matched baseline follow the same rules
    shape = BudgetState(max_per_day=daily_budget)
    trained_acc, uniform_acc, trained_daily, uniform_daily = [], [], [], []
    for s in range(seeds):
        rng = np.random.default_rng(hash64("timing", s))
        cohort = default_cohort(n_participants, rng,
                                ccfg["mean_acceptance_intervention"], ccfg)

        def walk(days, fires, history=None):
            """(acceptance, contacts per participant-day) of a walk that
            contacts every participant at the ``(tick, features)`` pairs
            ``fires(d)`` yields for their ``d``th day; with ``history``, each
            contact is appended to it as a labeled row of those features."""
            hits = n = 0
            for pi, participant in enumerate(cohort):
                for d in range(days):
                    for now, x in fires(d):
                        ok = accept(participant, now % DAY_MINUTES // 60, rng)
                        hits += ok
                        n += 1
                        if history is not None:  # pressure groups by participant-day
                            history.append((x, 1.0 if ok else 0.0, (pi, d)))
            return (hits / n if n else 0.0), n / (days * len(cohort))

        def uniform(day0, q, rows=False):
            """Fire on day ``day0 + d`` from a fresh budget at each allowed
            tick where ``rng.random() < q``; with ``rows``, each fire comes
            with its tick's features, read before the walk records it."""
            def fires(d):
                budget = replace(shape)
                for now in uniform_fires(_calendar_day(day0 + d), budget, rng, q):
                    yield now, features(now, budget) if rows else None
            return fires

        history = TimingHistory()
        walk(history_days, uniform(0, 3 / 84, rows=True), history)
        trained = fit(history, shape, scfg)
        # every participant starts each eval day alike, so each day is
        # walked once, from a fresh budget, and its fires are every participant's
        trained_days = [list(trained.fires(day, replace(shape))) for day in
                        map(_calendar_day, range(history_days, history_days + eval_days))]
        t_acc, t_rate = walk(eval_days, trained_days.__getitem__)
        trained_acc.append(t_acc)
        trained_daily.append(t_rate)

        # uniform baseline matched to the trained policy's realized budget;
        # the 1.2 factor offsets truncation by the daily cap
        blocked = shape.min_gap_minutes / TICK_MINUTES
        q_matched = 1.2 * t_rate / max(len(SERVICE_TICKS) - blocked * t_rate, 1.0)
        u_acc, u_rate = walk(eval_days, uniform(history_days + eval_days, q_matched))
        uniform_acc.append(u_acc)
        uniform_daily.append(u_rate)

    res = welch_t(trained_acc, uniform_acc)
    return TimingComparison(
        trained_acceptance=trained_acc,
        uniform_acceptance=uniform_acc,
        trained_daily=trained_daily,
        uniform_daily=uniform_daily,
        t=res.t,
        p=res.p,
    )


# -- parameter sweeps -----------------------------------------------------------


def _set_path(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown config parameter: {dotted}")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"unknown config parameter: {dotted}")
    node[parts[-1]] = value


def sweep(cfg: dict | str | Path, parameter: str, values: list) -> list[dict]:
    """Run the study once per parameter value (derived sub-seeds unless the
    swept parameter is the seed itself) and tabulate headline metrics.
    Every variant is checked before the first one runs."""
    base = load_config(cfg)
    if not values:
        raise ConfigError("sweep needs at least one value")
    variants = []
    for value in values:
        variant = copy.deepcopy(base)
        _set_path(variant, parameter, value)
        variants.append(load_config(variant))  # checked before its JSON is hashed
        if parameter != "seed":  # sorted keys: one value in any key order is one seed
            variants[-1]["seed"] = hash64(base["seed"], "sweep", parameter,
                                          json.dumps(value, sort_keys=True))

    def mom(means):
        return sum(means) / len(means) if means else float("nan")

    rows = []
    for value, variant in zip(values, variants):
        readings = metric_rows(run_study(variant))
        # a study with no contact has no weeks and no groups: no rows
        final_week = max((m["week"] for m in readings), default=None)
        cells = participant_means(readings, ("group", "metric"))
        final = participant_means(
            (m for m in readings if m["week"] == final_week), ("group", "metric")
        )
        for group in sorted({g for g, _ in cells}):
            rows.append(dict(zip(SWEEP_COLUMNS, (
                parameter, value, variant["seed"], group,
                mom(cells[(group, "acceptance")]), mom(cells.get((group, "reward"))),
                mom(final.get((group, "reward")))))))
    return rows


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    """The swept value is the user's own: it is written as given (empty for
    None, an object or list as JSON), never to 10 significant digits."""
    cell = {dict: json.dumps, list: json.dumps, type(None): lambda _: ""}
    _write_csv(path, SWEEP_COLUMNS,
               [dict(r, value=cell.get(type(r["value"]), str)(r["value"])) for r in rows])
