import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcar import lsd
from pcar.lsd import LsdState, advance, initial_state, reward_key


def test_initial_state_all_rested():
    assert initial_state(3, 6).taus == (6, 6, 6)
    assert initial_state(1, 1).taus == (1,)
    assert initial_state(2, 4).taus == (4, 4)


@pytest.mark.parametrize("k,tau_max", [(0, 6), (3, 0), (0, 0), (-1, 2)])
def test_initial_state_rejects_bad_params(k, tau_max):
    with pytest.raises(ValueError):
        initial_state(k, tau_max)


def test_state_rejects_zero_and_overflow_clocks():
    with pytest.raises(ValueError):
        LsdState(taus=(0, 3), tau_max=6)
    with pytest.raises(ValueError):
        LsdState(taus=(7,), tau_max=6)
    with pytest.raises(ValueError):
        LsdState(taus=(), tau_max=6)
    with pytest.raises(ValueError):  # a list could be neither hashed nor memoised
        LsdState(taus=[6, 6], tau_max=6)


def test_advance_examples():
    s = LsdState(taus=(3, 5), tau_max=6)
    assert advance(s, 0).taus == (-1, 6)

    s = LsdState(taus=(-2, 4), tau_max=6)
    assert advance(s, 0).taus == (-3, 5)
    assert advance(s, 1).taus == (1, -1)

    s = LsdState(taus=(6, 6), tau_max=6)
    assert advance(s, 0).taus == (-1, 6)


def test_advance_is_pure():
    s = LsdState(taus=(3, 5), tau_max=6)
    advance(s, 0)
    assert s.taus == (3, 5)


def test_advance_rejects_bad_arm():
    s = initial_state(2, 6)
    with pytest.raises(IndexError):
        advance(s, 2)
    with pytest.raises(IndexError):
        advance(s, -1)


def test_reward_key_projection():
    s = LsdState(taus=(-2, 4), tau_max=6)
    assert reward_key(s, 0) == (0, -2)
    assert reward_key(s, 1) == (1, 4)
    s3 = LsdState(taus=(1, 1, -3), tau_max=6)
    assert reward_key(s3, 2) == (2, -3)
    with pytest.raises(IndexError):
        reward_key(s, 5)


def test_reward_key_agrees_across_ghost_states():
    # States agreeing at one index project identically for that arm.
    a = LsdState(taus=(-2, 4, 1), tau_max=6)
    b = LsdState(taus=(-2, -1, 6), tau_max=6)
    assert reward_key(a, 0) == reward_key(b, 0)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=8),
    tau_max=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_exactly_one_negative_after_any_play_sequence(k, tau_max, data):
    plays = data.draw(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=40)
    )
    s = initial_state(k, tau_max)
    for a in plays:
        s = advance(s, a)
        assert sum(1 for t in s.taus if t < 0) == 1
        assert all(t != 0 and abs(t) <= tau_max for t in s.taus)


def _reference_clock(plays, arm, tau_max):
    """Independent step-by-step counter: consecutive-use run length or
    dormancy length, capped."""
    tau = tau_max
    for a in plays:
        if a == arm:
            tau = -1 if tau > 0 else max(tau - 1, -tau_max)
        else:
            tau = 1 if tau < 0 else min(tau + 1, tau_max)
    return tau


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=5),
    tau_max=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_clock_magnitudes_match_reference_counter(k, tau_max, data):
    plays = data.draw(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=30)
    )
    s = initial_state(k, tau_max)
    for a in plays:
        s = advance(s, a)
    for arm in range(k):
        assert s.taus[arm] == _reference_clock(plays, arm, tau_max)


def test_consecutive_then_dormant_magnitudes():
    # r consecutive plays then d dormant rounds from a rested start.
    tau_max = 6
    s = initial_state(2, tau_max)
    for r in range(1, 10):
        s2 = s
        for _ in range(r):
            s2 = advance(s2, 0)
        assert s2.taus[0] == -min(r, tau_max)
        for d in range(1, 10):
            s3 = s2
            for _ in range(d):
                s3 = advance(s3, 1)
            assert s3.taus[0] == min(d, tau_max)


def test_advance_deterministic():
    s = LsdState(taus=(-2, 4), tau_max=6)
    assert advance(s, 1) == advance(s, 1)


def _plain_advance(state, played):
    """Reference transition built afresh on every call, without the memo."""
    if not 0 <= played < state.n_arms:
        raise IndexError(played)
    cap = state.tau_max
    return LsdState(
        taus=tuple(
            (-1 if tau > 0 else max(tau - 1, -cap)) if arm == played
            else (1 if tau < 0 else min(tau + 1, cap))
            for arm, tau in enumerate(state.taus)
        ),
        tau_max=cap,
    )


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_memoised_advance_matches_the_plain_reference_on_every_reachable_state(
    k, cap
):
    seen, frontier = set(), [initial_state(k, cap)]
    while frontier:
        s = frontier.pop()
        if s in seen:
            continue
        seen.add(s)
        for arm in range(k):
            nxt = advance(s, arm)
            assert nxt == _plain_advance(s, arm)
            frontier.append(nxt)
    # one rested start plus, after any play, exactly one negative clock
    assert len(seen) <= k * cap**k + 1


def test_repeated_advance_returns_the_shared_successor():
    s = LsdState(taus=(-2, 4, 1), tau_max=6)
    assert advance(s, 1) is advance(s, 1)
    assert advance(LsdState(taus=(-2, 4, 1), tau_max=6), 1) is advance(s, 1)


def test_bad_arm_raises_before_and_after_a_memo_hit():
    s = LsdState(taus=(-1, 5), tau_max=5)
    with pytest.raises(IndexError):
        advance(s, 2)
    assert advance(s, 0) is advance(s, 0)  # s is now in the memo
    with pytest.raises(IndexError):
        advance(s, 2)
    with pytest.raises(IndexError):
        advance(s, -1)


def test_successor_memo_is_bounded():
    info = lsd._successor.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize <= 10_000
    for cap in range(1, info.maxsize // 4 + 2):  # more transitions than the bound
        s = initial_state(3, cap)
        for arm in (0, 0, 1, 2, 1):
            s = advance(s, arm)
    assert lsd._successor.cache_info().currsize <= info.maxsize
