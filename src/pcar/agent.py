"""Factorized SARSA(lambda) over switch-clock state.

One learner ("agent") per action attribute; every agent receives the same
scalar reward but selects over its own value set with its own clocks.
Action values are keyed by (value, clipped clock, context bucket) only, so
a single table write updates every global state sharing that key -- the
replication of equivalent ("ghost") states happens by construction rather
than by enumeration.

Also houses the uniform-random baseline policy and a brute-force planning
oracle used to benchmark the learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain
from operator import length_hint
from typing import NamedTuple

import numpy as np

from .lsd import LsdState, advance, initial_state, reward_key

PERIODS = ("morning", "afternoon", "evening")


def period_of_hour(hour: int) -> str:
    """Coarse time-of-day: 8-11 morning, 12-16 afternoon, 17-21 evening."""
    if 8 <= hour <= 11:
        return "morning"
    if 12 <= hour <= 16:
        return "afternoon"
    if 17 <= hour <= 21:
        return "evening"
    raise ValueError(f"hour {hour} outside the 8-21 service window")


@dataclass(frozen=True)
class ContextBucket:
    """Environment context the learner conditions on: time-of-day period
    plus one small personality split."""

    period: str
    trait_bucket: int = 0

    def __post_init__(self) -> None:
        if self.period not in PERIODS:
            raise ValueError(f"unknown period {self.period!r}")
        if self.trait_bucket < 0:
            raise ValueError("trait_bucket must be >= 0")

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def from_hour(cls, hour: int, trait_bucket: int = 0) -> "ContextBucket":
        """The bucket of ``hour``, one shared frozen value per argument
        list; an hour outside 8-21 raises and is not kept."""
        return cls(period=period_of_hour(hour), trait_bucket=trait_bucket)

    def index(self, n_trait_buckets: int) -> int:
        if self.trait_bucket >= n_trait_buckets:
            raise ValueError(
                f"trait_bucket {self.trait_bucket} >= configured {n_trait_buckets}"
            )
        return PERIODS.index(self.period) * n_trait_buckets + self.trait_bucket


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered action attributes, each with its finite value list."""

    attributes: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        for name, values in self.attributes:
            if not values:
                raise ValueError(f"attribute {name!r} has no values")
            if len(set(values)) != len(values):
                raise ValueError(f"attribute {name!r} has duplicate values")

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def name(self, i: int) -> str:
        return self.attributes[i][0]

    def values(self, i: int) -> tuple[str, ...]:
        return self.attributes[i][1]

    def value_index(self, i: int, value: str) -> int:
        try:
            return self.attributes[i][1].index(value)
        except ValueError:
            raise ValueError(
                f"{value!r} is not a value of attribute {self.name(i)!r}"
            ) from None

    def validate_vector(self, vector: tuple[str, ...]) -> tuple[int, ...]:
        """Return per-attribute value indices, or raise."""
        if len(vector) != self.n_attributes:
            raise ValueError(
                f"vector has {len(vector)} entries, schema has {self.n_attributes}"
            )
        return tuple(self.value_index(i, v) for i, v in enumerate(vector))

    def value_names(self, indices: tuple[int, ...]) -> tuple[str, ...]:
        """The value names at per-attribute indices: ``validate_vector``'s
        inverse."""
        return tuple(vs[i] for (_, vs), i in zip(self.attributes, indices, strict=True))


class QModel:
    """Per-agent action-value table ``q``, keyed by (value index, clipped
    clock index, context bucket index), and the eligibility trace of the one
    open trajectory.

    ``keys`` maps every valid (value, clock, bucket) -- clocks -tau_max..
    tau_max except 0, clipped as ``tau_index`` clips them -- to a position
    in the flat view ``q_flat``, which shares ``q``'s buffer: the learner's
    scalar reads and writes go through it, so the table is updated in place
    and must not be rebound. ``trace`` maps the keys the open trajectory
    has set a trace on to their trace values; every other key's is +0.0."""

    def __init__(self, n_values: int, tau_max: int, tau_clip: int, n_buckets: int):
        self.n_values = n_values
        self.tau_clip = tau_clip
        self.n_buckets = n_buckets
        self.q = np.zeros((n_values, 2 * tau_clip, n_buckets))
        self.q_flat = memoryview(self.q.reshape(-1))
        self.keys = {
            (v, tau, b): (v * 2 * tau_clip + self.tau_index(tau)) * n_buckets + b
            for v in range(n_values)
            for tau in range(-tau_max, tau_max + 1) if tau != 0
            for b in range(n_buckets)
        }
        self.trace: dict[int, float] = {}

    def row(self, taus: tuple[int, ...], bucket: int) -> tuple[int, ...]:
        """The keys of every value at clocks ``taus`` in ``bucket``."""
        return tuple([self.keys[v, t, bucket] for v, t in enumerate(taus)])

    def tau_index(self, tau: int) -> int:
        if tau == 0:
            raise ValueError("clocks are never zero")
        c = self.tau_clip
        tau = max(-c, min(c, tau))
        return tau + c if tau < 0 else c + tau - 1


class Selection(NamedTuple):
    """Snapshot of one action choice: the context it was made in, the
    chosen value indices, and each chosen value's clock at choice time.
    A NamedTuple, so it compares equal to a plain tuple of its entries."""

    bucket: int
    value_indices: tuple[int, ...]
    taus: tuple[int, ...]


# Selection((bucket, value_indices, taus)), built in C: the NamedTuple's own
# constructor is a Python-level __new__
_selection = partial(tuple.__new__, Selection)


def _greedy(q, row: tuple[int, ...]) -> int:
    """The first position in ``row`` of its highest value in ``q``; 0 if none beats -inf."""
    best, best_v = -math.inf, 0
    for v, k in enumerate(row):
        if (s := q[k]) > best:  # strict: ties keep the lowest index
            best, best_v = s, v
    return best_v


def _credit(q, trace: dict[int, float], key: int, alpha_delta: float, decay: float):
    """One SARSA(lambda) sweep with replacing traces: set ``key``'s trace to
    1, add ``alpha_delta`` times each trace to its value, decay each trace."""
    trace[key] = 1.0
    for j, ej in trace.items():  # rebinding a key keeps the dict's size
        q[j] += alpha_delta * ej
        trace[j] = ej * decay


# raw words that _ScalarDraws reads from its generator at a time
_RAW_BLOCK = 1024


class _ScalarDraws:
    """A PCG64 ``Generator``'s scalar ``random()`` and ``integers(n)``
    draws, bit for bit, replayed from blocks of its raw 64-bit words, with
    none of the calls' argument handling.

    ``random()`` is numpy's ``next_double``, one word's top 53 bits times
    2**-53. ``integers(n)`` for 1 <= n <= 2**32 is numpy's bounded draw:
    n == 1 draws nothing; otherwise 32-bit draws, each the low half of a new
    word whose high half is held for the next (the generator's
    ``has_uint32``/``uinteger``, which 64-bit draws never touch), scaled by
    Lemire's multiply-shift and redrawn while the low product falls below
    ``(2**32 - n) % n``. The generator runs ahead by up to a block; ``sync``
    leaves it in the state those scalar calls would have left."""

    def __init__(self, bit_generator):
        self._bit_generator, self._start = bit_generator, bit_generator.state
        self._has, self._high = self._start["has_uint32"], self._start["uinteger"]
        self._read, self._block = 0, iter(())
        self._word = chain.from_iterable(self._blocks()).__next__  # the next raw word

    def _blocks(self):
        while True:  # chain holds each block's iterator, so _block's length is what is left
            words = self._bit_generator.random_raw(_RAW_BLOCK).tolist()
            self._read, self._block = self._read + len(words), iter(words)
            yield self._block

    def random(self) -> float:
        return (self._word() >> 11) * 2**-53

    def _uint32(self) -> int:
        if self._has:
            self._has = 0  # uinteger keeps the spent half, as numpy's does
            return self._high
        w = self._word()
        self._has, self._high = 1, w >> 32
        return w & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        m = self._uint32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (2**32 - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._uint32() * n
        return m >> 32

    def sync(self) -> None:
        """End the replay: move the generator to where the replayed draws
        leave it, the start state advanced by the words used, with the held
        half."""
        del self._word  # frees the chain now: its block source refers back to self
        bg = self._bit_generator
        bg.state = self._start
        bg.advance(self._read - length_hint(self._block))
        state = bg.state
        state["has_uint32"], state["uinteger"] = self._has, self._high
        bg.state = state


class AgentBundle:
    """A team of independent per-attribute learners sharing one reward.

    Callers keep the clocks (e.g. one set per participant, or one per
    episode), pass them to ``select_action``, learn from the ``Selection``
    it returns (or one from ``random_policy``) through ``td_step`` and
    close trajectories with ``end_episode``. The internal clocks and the
    name-based methods that step them (``step``, ``update``,
    ``finish_episode``, ``greedy_action``, ``apply_action``,
    ``snapshot_selection``) serve only the tests and the benchmark's trace
    table; ``update``, ``step`` and ``finish_episode`` are one transition,
    ``_learn``, on ``select_action`` and ``td_step``. ``learn_episodes`` runs
    a one-attribute bundle's on-policy episodes (``train_on_instance``'s) in
    one call, with ``select_action``'s scalar draws replayed from the raw
    words of ``rng``, a PCG64 generator (``_ScalarDraws``).

    ``settings`` is a study config's ``agent`` block (see
    ``study.DEFAULT_CONFIG``) with an integer ``epsilon_decay_steps``: it
    gives the clock cap ``tau_max``, the clock clip ``q_tau_clip`` (None:
    clip at the cap), the step size ``alpha``, discount ``gamma`` and trace
    decay ``lambda``, and the epsilon schedule, which moves linearly from
    ``epsilon_start`` to ``epsilon_end`` over ``epsilon_decay_steps`` TD
    steps. They are read once, at construction. ``select_action`` records
    the table keys of the Selection it returns, for ``td_step``; it rejects
    a clock state capped above ``tau_max``, so every recorded key exists.

    One trajectory is open at a time: its ``td_step``s share one trace per
    agent, and ``end_episode`` closes it before the next one starts, so no
    trajectory credits another's choices. Single-writer: updates mutate the
    bundle and must be serialized.
    """

    def __init__(
        self,
        schema: AttributeSchema,
        settings: dict,
        n_trait_buckets: int,
        seed: int = 0,
    ):
        if not isinstance(settings["epsilon_decay_steps"], int):
            raise ValueError("settings need an integer epsilon_decay_steps")
        self.schema = schema
        self.tau_max = tau_max = settings["tau_max"]
        self.n_trait_buckets = n_trait_buckets
        self.n_buckets = len(PERIODS) * n_trait_buckets
        self.rng = np.random.default_rng(seed)
        clip = settings["q_tau_clip"]
        clip = tau_max if clip is None else clip
        if not 1 <= clip <= tau_max:
            raise ValueError(f"q_tau_clip must be in 1..{tau_max}, got {clip}")
        self.models = [
            QModel(len(schema.values(i)), tau_max, clip, self.n_buckets)
            for i in range(schema.n_attributes)
        ]
        self._arms = [m.n_values for m in self.models]
        self._clocks = [initial_state(m.n_values, tau_max) for m in self.models]
        self.rounds = 0
        self._alpha, self._gamma = settings["alpha"], settings["gamma"]
        self._decay = settings["gamma"] * settings["lambda"]
        start, end = settings["epsilon_start"], settings["epsilon_end"]
        self._eps = (start, end - start, end, settings["epsilon_decay_steps"])
        self._picked = self._picked_keys = None  # select_action's last return, its keys
        self._last_sel = self._last_keys = None  # td_step's last nxt and its keys

    # -- state access ----------------------------------------------------

    @property
    def clocks(self) -> tuple[LsdState, ...]:
        return tuple(self._clocks)

    def epsilon(self) -> float:
        start, span, end, steps = self._eps
        if steps <= 0:
            return end
        return start + span * min(1.0, self.rounds / steps)

    def action_value(
        self, agent: int, state: LsdState, value_index: int, ctx: ContextBucket
    ) -> float:
        """Q lookup for one agent given a full clock state. Depends only on
        the looked-up value's own clock -- the audit below checks this."""
        qm = self.models[agent]
        bucket = ctx.index(self.n_trait_buckets)
        try:
            return qm.q_flat[qm.keys[value_index, state.taus[value_index], bucket]]
        except KeyError as exc:
            raise self._no_entry(exc) from None

    def _no_entry(self, exc: KeyError) -> ValueError:
        """The error for a (value, clock, bucket) that has no table entry."""
        return ValueError(
            f"no table entry for (value, clock, bucket) {exc.args[0]}: clocks "
            f"are nonzero and within +/-{self.tau_max}, indices in range"
        )

    # -- action selection -------------------------------------------------

    def _bucket(self, ctx: ContextBucket, clocks: list[LsdState]) -> int:
        """``ctx``'s bucket index, once ``select_action``'s checks pass."""
        if [len(c.taus) for c in clocks] != self._arms:
            raise ValueError(f"clocks must give {self._arms} arms per agent")
        for c in clocks:  # a state's own cap bounds each of its clocks
            if c.tau_max > self.tau_max:
                raise ValueError(f"clock cap {c.tau_max} exceeds tau_max {self.tau_max}")
        return ctx.index(self.n_trait_buckets)

    def select_action(self, ctx: ContextBucket, clocks: list[LsdState]) -> Selection:
        """Epsilon-greedy choice per agent over the caller's clocks, as the
        Selection of the context's bucket, the chosen value indices and
        their clocks. Each agent draws one uniform whatever epsilon is, so
        streams stay aligned, then an integer when exploring. Clocks that
        are not one state per agent with one clock per value, a state capped
        above the bundle's ``tau_max``, or an unconfigured trait bucket
        raise ValueError before any draw."""
        bucket, eps, rng = self._bucket(ctx, clocks), self.epsilon(), self.rng
        idx, taus, keys = [], [], []
        for qm, state in zip(self.models, clocks):
            row = qm.row(state.taus, bucket)
            i = int(rng.integers(qm.n_values)) if rng.random() < eps else _greedy(qm.q_flat, row)
            idx.append(i)
            taus.append(state.taus[i])
            keys.append(row[i])
        self._picked, self._picked_keys = _selection((bucket, tuple(idx), tuple(taus))), keys
        return self._picked

    def greedy_action(self, ctx: ContextBucket) -> tuple[str, ...]:
        """Pure argmax choice over the internal clocks; consumes no
        randomness."""
        bucket = ctx.index(self.n_trait_buckets)
        return self.schema.value_names([_greedy(qm.q_flat, qm.row(c.taus, bucket))
                                        for qm, c in zip(self.models, self._clocks)])

    def snapshot_selection(
        self, ctx: ContextBucket, action: tuple[str, ...], clocks: list[LsdState]
    ) -> Selection:
        """Record an action against the clocks it was chosen under."""
        idx = self.schema.validate_vector(action)
        return _selection((ctx.index(self.n_trait_buckets), idx,
                           tuple(clocks[p].taus[i] for p, i in enumerate(idx))))

    # -- learning ----------------------------------------------------------

    def td_step(
        self, prev: Selection, reward: float, nxt: Selection | None
    ) -> None:
        """One SARSA(lambda) update with replacing traces on the open
        trajectory. ``nxt`` is the follow-up choice, or None for a terminal
        transition (no bootstrap). Finish each trajectory with
        ``end_episode`` before starting another (e.g. another participant's
        day), or the traces would credit it with the other's choices.

        Per agent this is the dense update ``q += (alpha * delta) * e;
        e *= gamma * lambda`` applied only to the keys in the trace. That is
        exact: every other key's trace is +0.0, where the dense update adds
        +/-0.0 to q and leaves the trace at +0.0, and q never holds -0.0 (it
        starts at +0.0, and x + y is -0.0 only if both are).

        Raises ValueError, before any table changes, if a selection has a
        zero clock, a clock beyond +/-tau_max, or a value or bucket index
        out of range. A ``prev`` that is the last call's ``nxt`` object reuses
        the keys found for it then, and a ``nxt`` that ``select_action`` last
        returned the keys it recorded: a Selection and its keys never change."""
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        keys = self._last_keys if prev is self._last_sel else self._keys_of(prev)
        if nxt is self._picked:  # None too, before the first select_action
            next_keys = self._picked_keys
        else:
            next_keys = None if nxt is None else self._keys_of(nxt)
        self._last_sel, self._last_keys = nxt, next_keys
        alpha, gamma, decay = self._alpha, self._gamma, self._decay
        for a, qm in enumerate(self.models):
            q, k = qm.q_flat, keys[a]
            target = reward if nxt is None else reward + gamma * q[next_keys[a]]
            _credit(q, qm.trace, k, alpha * (target - q[k]), decay)
        self.rounds += 1

    def learn_episodes(self, ctx: ContextBucket, start: LsdState, horizon: int,
                       reward_fn, episodes: int) -> None:
        """``episodes`` on-policy episodes of a one-attribute bundle, each
        from ``start``, with the draws and updates of ``select_action(ctx,
        [state])``, then per step ``reward_fn(arm, clock)``, ``advance``, the
        follow-up pick (none at the last step) at the epsilon before
        ``rounds`` moves and ``td_step``, then ``end_episode``; no recorded
        Selection is left. The draws are the generator's scalar ones,
        replayed from its raw words (``_ScalarDraws``), and the generator
        ends in the state those calls leave, on a raise too. Bad arguments
        raise ``select_action``'s ValueErrors (or ``horizon < 1``'s or
        ``episodes < 1``'s) before any draw, and a non-finite reward
        ``td_step``'s before the next pick."""
        bucket = self._bucket(ctx, [start])
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {episodes}")
        self._picked = self._picked_keys = self._last_sel = self._last_keys = None
        qm, draws = self.models[0], _ScalarDraws(self.rng.bit_generator)
        random, integers = draws.random, draws.integers
        q, trace, n, rows = qm.q_flat, qm.trace, qm.n_values, {}  # clocks -> qm.row
        eps0, span, end, steps = self._eps
        alpha, gamma, decay = self._alpha, self._gamma, self._decay
        rounds = self.rounds
        try:
            for _ in range(episodes):
                state = start
                for t in range(horizon):  # pick step t's arm, then learn step t - 1
                    taus = state.taus
                    if (row := rows.get(taus)) is None:
                        row = rows[taus] = qm.row(taus, bucket)
                    eps = end if steps <= 0 else eps0 + span * min(1.0, rounds / steps)
                    arm = integers(n) if random() < eps else _greedy(q, row)
                    if t:
                        _credit(q, trace, key, alpha * (r + gamma * q[row[arm]] - q[key]),
                                decay)
                        rounds += 1
                    key, r = row[arm], reward_fn(arm, taus[arm])
                    if not math.isfinite(r):
                        raise ValueError(f"reward must be finite, got {r}")
                    state = advance(state, arm)
                _credit(q, trace, key, alpha * (r - q[key]), decay)
                rounds += 1
                trace.clear()
        finally:
            self.rounds = rounds
            draws.sync()

    def _keys_of(self, sel: Selection) -> list[int]:
        """Each agent's flat table key for a selection."""
        values, taus, bucket = sel.value_indices, sel.taus, sel.bucket
        n = len(self.models)
        if len(values) != n or len(taus) != n:
            raise ValueError(f"selection must name {n} values and {n} clocks")
        keys = []
        try:
            for a, qm in enumerate(self.models):  # cheaper than a comprehension
                keys.append(qm.keys[values[a], taus[a], bucket])
        except KeyError as exc:
            raise self._no_entry(exc) from None
        return keys

    def _learn(self, ctx: ContextBucket, action: tuple[str, ...], reward: float,
               follow) -> Selection | None:
        """The transition ``update``, ``step`` and ``finish_episode`` share:
        ``td_step`` from ``action`` in ``ctx`` to ``follow(advanced clocks)``
        (None: terminal), checking the action and reward before ``follow``
        draws, then keep the advanced clocks. Returns the follow-up."""
        prev = self.snapshot_selection(ctx, action, self._clocks)
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        advanced = [advance(c, i) for c, i in zip(self._clocks, prev.value_indices)]
        nxt = None if follow is None else follow(advanced)
        self.td_step(prev, reward, nxt)
        self._clocks = advanced
        return nxt

    def update(self, ctx: ContextBucket, action: tuple[str, ...], reward: float,
               next_ctx: ContextBucket, next_action: tuple[str, ...]) -> None:
        """Spec transition update over the bundle's internal clocks:
        learn from (ctx, action, reward, next_ctx, next_action), then
        advance each agent's clocks on its chosen value."""
        self._learn(ctx, action, reward,
                    partial(self.snapshot_selection, next_ctx, next_action))

    def step(self, ctx: ContextBucket, action: tuple[str, ...], reward: float,
             next_ctx: ContextBucket) -> tuple[str, ...]:
        """On-policy helper: the ``update`` whose follow-up action
        is picked by ``select_action`` on the post-transition clocks, which
        advance once. Returns that action."""
        nxt = self._learn(ctx, action, reward, partial(self.select_action, next_ctx))
        return self.schema.value_names(nxt.value_indices)

    def finish_episode(self, ctx: ContextBucket, action: tuple[str, ...],
                       reward: float) -> None:
        """Terminal update (no bootstrap), advance clocks, close the
        trajectory."""
        self._learn(ctx, action, reward, None)
        self.end_episode()

    def apply_action(self, action: tuple[str, ...]) -> None:
        """Advance internal clocks without learning (evaluation rollouts)."""
        idx = self.schema.validate_vector(action)
        self._clocks = [advance(c, i) for c, i in zip(self._clocks, idx)]

    def end_episode(self) -> None:
        """Close the open trajectory: clear every agent's trace."""
        for qm in self.models:
            qm.trace.clear()

    # -- inspection ----------------------------------------------------------

    def q_snapshot(self) -> dict:
        """Nested mapping: agent name -> value -> clock -> bucket -> Q."""
        agents = {}
        clip = self.models[0].tau_clip
        taus = [t for t in range(-clip, clip + 1) if t != 0]
        buckets = [
            f"{period}/{t}"
            for period in PERIODS
            for t in range(self.n_trait_buckets)
        ]
        for a, (name, values) in enumerate(self.schema.attributes):
            qm = self.models[a]
            agents[name] = {
                value: {
                    str(tau): {
                        buckets[b]: float(qm.q[v, qm.tau_index(tau), b])
                        for b in range(self.n_buckets)
                    }
                    for tau in taus
                }
                for v, value in enumerate(values)
            }
        return {
            "schema": [[n, list(vs)] for n, vs in self.schema.attributes],
            "tau_max": self.tau_max,
            "q_tau_clip": clip,
            "n_trait_buckets": self.n_trait_buckets,
            "rounds": self.rounds,
            "agents": agents,
        }


# -- ghost audit -------------------------------------------------------------


@dataclass
class GhostAuditReport:
    passed: bool
    samples: int
    counterexamples: list = field(default_factory=list)


def ghost_audit(
    bundle: AgentBundle,
    samples: int = 200,
    lookup=None,
) -> GhostAuditReport:
    """Check that action-value lookup is a pure function of the looked-up
    value's own clock and the context bucket: any two full clock states
    agreeing at that value must produce identical lookups.

    ``lookup(agent, state, value_index, ctx) -> float`` defaults to the
    bundle's own accessor; pass a deliberately corrupted one to confirm the
    audit catches keying on other values' clocks. Samples are drawn from
    ``default_rng(0)``, so an audit is reproducible.
    """
    rng = np.random.default_rng(0)
    if lookup is None:
        lookup = bundle.action_value
    cap = bundle.tau_max
    nonzero = [t for t in range(-cap, cap + 1) if t != 0]
    report = GhostAuditReport(passed=True, samples=samples)
    for _ in range(samples):
        a = int(rng.integers(bundle.schema.n_attributes))
        n_values = bundle.models[a].n_values
        v = int(rng.integers(n_values))
        tau = nonzero[int(rng.integers(len(nonzero)))]
        ctx = ContextBucket(
            period=PERIODS[int(rng.integers(len(PERIODS)))],
            trait_bucket=int(rng.integers(bundle.n_trait_buckets)),
        )

        def random_state() -> LsdState:
            taus = [
                nonzero[int(rng.integers(len(nonzero)))] for _ in range(n_values)
            ]
            taus[v] = tau
            return LsdState(taus=tuple(taus), tau_max=cap)

        s1, s2 = random_state(), random_state()
        q1, q2 = lookup(a, s1, v, ctx), lookup(a, s2, v, ctx)
        if q1 != q2:
            report.passed = False
            report.counterexamples.append(
                {
                    "agent": a,
                    "value_index": v,
                    "tau": tau,
                    "ctx": (ctx.period, ctx.trait_bucket),
                    "states": (s1.taus, s2.taus),
                    "lookups": (q1, q2),
                }
            )
    return report


# -- baseline policy -----------------------------------------------------------


def random_policy(schema: AttributeSchema, rng: np.random.Generator, bucket: int,
                  clocks: list[LsdState]) -> Selection:
    """The Selection of one uniform integer draw per attribute, in order,
    in context bucket ``bucket``, with the chosen values' clocks."""
    idx = tuple(int(rng.integers(len(values))) for _, values in schema.attributes)
    return _selection((bucket, idx, tuple(c.taus[i] for c, i in zip(clocks, idx))))


# -- planning oracle -----------------------------------------------------------

ORACLE_GUARD = 10**7


def plan_oracle(
    reward_fn, k: int, tau_max: int, horizon: int
) -> tuple[tuple[int, ...], float]:
    """Exhaustive search over all arm sequences of the given horizon from
    the all-rested start state. ``reward_fn(arm, clock)`` is evaluated on
    the clock *before* each play. Returns the lexicographically smallest
    optimal sequence and its total reward.

    The depth-first walk keeps its path in a list rather than on the call
    stack, so a long horizon (only k=1 passes the guard past depth 23) does
    not hit the interpreter's recursion limit. Each path's total is summed
    from the first play on, in play order.

    Refuses instances with more than 10**7 sequences.
    """
    if k < 1 or tau_max < 1 or horizon < 1:
        raise ValueError("k, tau_max and horizon must all be >= 1")
    if k**horizon > ORACLE_GUARD:
        raise ValueError(
            f"instance too large: {k}**{horizon} sequences exceeds the "
            f"{ORACLE_GUARD} enumeration guard"
        )
    best_total = -math.inf
    best_seq: tuple[int, ...] = ()
    # one (arm, state before the play, total before the play) per depth
    path: list[tuple[int, LsdState, float]] = []
    state, total, arm = initial_state(k, tau_max), 0.0, 0
    while True:
        if len(path) < horizon:
            r = reward_fn(*reward_key(state, arm))
            path.append((arm, state, total))
            state, total, arm = advance(state, arm), total + r, 0
            continue
        if total > best_total:  # strict: DFS order keeps lexicographic min
            best_total = total
            best_seq = tuple(a for a, _, _ in path)
        while path and path[-1][0] == k - 1:  # siblings exhausted
            path.pop()
        if not path:
            return best_seq, best_total
        last, state, total = path.pop()
        arm = last + 1
