import math
import random
import re
import time
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import smdrr.policies
from smdrr.cli import main
from smdrr.policies import (
    PolicyConfig,
    PolicyError,
    harmonic_mean_quantum,
    parse_policy,
    plan_cycle_smdrr,
    rr_requeue_position,
)


def exact_quantum(values):
    return math.ceil(Fraction(len(values)) / sum(Fraction(1, v) for v in values))


@pytest.mark.parametrize(
    "values,expected",
    [
        ([20, 40, 83, 90], 41),
        ([42, 49], 46),
        ([18, 23, 25], 22),
        ([1], 1),
        ([97], 97),
        ([1, 3], 2),
        # exactly-integral harmonic means must not be inflated by the ceiling
        ([2, 3, 6], 3),
        ([3, 4, 6], 4),
        ([7, 7, 7], 7),
        # 3 / (1/6 + 1/12 + 1/18) = 108/11 = 9.81..., so the ceiling is 10
        ([6, 12, 18], 10),
        # 2 / (1/3 + 1/6) = 4 exactly
        ([3, 6], 4),
        # 2**k + 1 distinct values: the pairwise sum carries an odd last
        # term up at every level but the last two; descending, that term
        # is 1/1, the largest in the sum
        (list(range(1, 2**1 + 2)), 2),
        (list(range(1, 2**5 + 2)), 9),
        (list(range(1, 2**12 + 2)), 461),
        (list(range(2**1 + 1, 0, -1)), 2),
        (list(range(2**5 + 1, 0, -1)), 9),
        (list(range(2**12 + 1, 0, -1)), 461),
        # integer means whose plain float mean lands just above the integer
        ([3] * 5, 3),
        ([14, 21, 42] * 5, 21),
        ([34, 51, 102] * 3, 51),
    ],
)
def test_harmonic_mean_quantum_values(values, expected):
    assert harmonic_mean_quantum(values) == expected
    assert harmonic_mean_quantum(values) == exact_quantum(values)


def test_harmonic_mean_quantum_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        harmonic_mean_quantum([])
    with pytest.raises(ValueError, match=">= 1"):
        harmonic_mean_quantum([5, 0, 3])


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=200))
def test_harmonic_mean_quantum_properties(values):
    q = harmonic_mean_quantum(values)
    assert min(values) <= q <= max(values)
    assert q <= math.ceil(Fraction(sum(values), len(values)))
    assert q == exact_quantum(values)


@given(st.integers(1, 10**6), st.integers(1, 500))
def test_harmonic_mean_of_equal_values_is_exact(value, count):
    assert harmonic_mean_quantum([value] * count) == value


# few distinct values drawn many times, so duplicates dominate
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)))
def test_harmonic_mean_quantum_matches_fraction_with_duplicates(values):
    assert harmonic_mean_quantum(values) == exact_quantum(values)


# Integer harmonic means, which the float path never certifies, and values
# near MAX_TIME, the widest it does: [2, 3, 6] scaled and repeated, [k] * m,
# values near 10**12, lists joining those, and wide and small values mixed.
_integer_means = st.builds(lambda k, m: [2 * k, 3 * k, 6 * k] * m,
                           st.integers(1, 10**11), st.integers(1, 40))
_equal_values = st.builds(lambda k, m: [k] * m, st.integers(1, 10**12), st.integers(1, 60))
_near_cap = st.lists(st.integers(10**12 - 10**6, 10**12), min_size=1, max_size=200)


@given(st.one_of(_integer_means, _equal_values, _near_cap,
                 st.lists(_integer_means | _equal_values | _near_cap, min_size=1, max_size=4)
                 .map(lambda parts: sum(parts, [])),
                 st.lists(st.integers(1, 10**12) | st.integers(1, 50), min_size=1, max_size=200)))
def test_both_quantum_paths_match_fraction(values):
    assert harmonic_mean_quantum(values) == exact_quantum(values)
    assert smdrr.policies._exact_quantum(values) == exact_quantum(values)


@pytest.fixture
def exact_calls(monkeypatch):
    """Count the calls of the exact fallback, which still computes the result."""
    calls = []
    exact = smdrr.policies._exact_quantum

    def counted(values):
        calls.append(len(values))
        return exact(values)

    monkeypatch.setattr(smdrr.policies, "_exact_quantum", counted)
    return calls


@pytest.mark.parametrize("values,fallbacks", [
    ([20, 40, 83, 90], 0),
    ([2, 3, 6], 1),  # an integer mean is never certified
    ([7] * 9, 1),
    ([2**53 - 1, 3, 7], 0),
    ([2**53, 3, 7], 1),  # 2**53 and up are not all exact floats
    ([3, 10**30], 1),
])
def test_quantum_takes_the_float_path_only_when_certified(exact_calls, values, fallbacks):
    assert harmonic_mean_quantum(values) == exact_quantum(values)
    assert len(exact_calls) == fallbacks


def test_wide_distinct_quantum_takes_the_float_path_in_under_a_second(exact_calls):
    # 3 * 10**5 distinct values below MAX_TIME: the exact sum takes about 15 s.
    values = random.Random(26).sample(range(1, 10**12), 3 * 10**5)
    start = time.perf_counter()
    quantum = harmonic_mean_quantum(values)
    assert time.perf_counter() - start < 1.0
    assert exact_calls == []
    assert min(values) <= quantum <= max(values)


# Ranks number the processes in (arrival, submission index) order, and
# remaining[rank] is a rank's remaining time; the engine keeps the entries
# of finished ranks, so the tests below do too.


def test_plan_cycle_case1_opening():
    order, quantum = plan_cycle_smdrr([0, 1, 2, 3], [20, 40, 83, 90])
    assert order == [0, 1, 2, 3]
    assert quantum == 41


def test_plan_cycle_case1_second_round():
    order, quantum = plan_cycle_smdrr([2, 3], [20, 40, 42, 49])
    assert order == [2, 3]
    assert quantum == 46


def test_plan_cycle_case4_third_round():
    # P5 (rank 4) arrived during cycle 2 and joined ahead of P3 and P4
    order, quantum = plan_cycle_smdrr([4, 2, 3], [18, 20, 15, 25, 68])
    assert order == [2, 3, 4]
    assert quantum == 25


@given(st.data())
def test_plan_cycle_orders_by_remaining_then_rank(data):
    # small values as well as wide ones, so equal remaining times are common
    remaining = data.draw(st.lists(st.integers(1, 5) | st.integers(1, 10**6),
                                   min_size=1, max_size=60))
    ranks = data.draw(st.permutations(range(len(remaining))))
    ready = ranks[:data.draw(st.integers(1, len(ranks)))]
    order, quantum = plan_cycle_smdrr(ready, remaining)
    assert order == sorted(ready, key=lambda rank: (remaining[rank], rank))
    assert quantum == exact_quantum([remaining[rank] for rank in ready])


def test_plan_cycle_is_deterministic():
    ready, remaining = [1, 0, 2], [7, 9, 9]
    assert plan_cycle_smdrr(ready, remaining) == plan_cycle_smdrr(tuple(ready), remaining)
    assert plan_cycle_smdrr(ready, remaining) == ([0, 1, 2], 9)
    assert ready == [1, 0, 2]


def test_plan_cycle_rejects_empty():
    with pytest.raises(ValueError):
        plan_cycle_smdrr([], [])


def test_rr_requeue_preempted_goes_last():
    # case 4 under rr: P5 (rank 4) arrives while P3 (rank 2) runs
    assert rr_requeue_position([3], 2, [4]) == [3, 4, 2]


def test_rr_requeue_case4_snapshot():
    assert rr_requeue_position([3, 4], 2, []) == [3, 4, 2]


def test_rr_requeue_empty_queue():
    assert rr_requeue_position([], 0, []) == [0]


def test_rr_requeue_sorts_arrivals():
    assert rr_requeue_position([], 0, [7, 3, 5]) == [3, 5, 7, 0]


@pytest.mark.parametrize("container", [list, deque])
def test_rr_requeue_extends_the_queue_in_place(container):
    queue = container([1, 2])
    assert rr_requeue_position(queue, 0, iter([7, 3, 5])) is queue
    assert list(queue) == [1, 2, 3, 5, 7, 0]


@pytest.mark.parametrize(
    "text,config",
    [
        ("smdrr", PolicyConfig("smdrr")),
        ("fcfs", PolicyConfig("fcfs")),
        ("sjf", PolicyConfig("sjf")),
        ("rr:20", PolicyConfig("rr", 20)),
        ("rr:1", PolicyConfig("rr", 1)),
    ],
)
def test_parse_policy(text, config):
    assert parse_policy(text) == config
    assert parse_policy(text).spelling() == text


# rr:² made int() raise and rr:٣ read as rr:3 while quanta were checked by str.isdigit
@pytest.mark.parametrize("text", ["rr", "rr:", "rr:0", "rr:-3", "rr:2.5", "mlfq", "RR:20", "",
                                  "rr:²", "rr:٣", "rr:２", "rr: 5", "rr:1_0",
                                  pytest.param("rr:" + "9" * 5000, id="rr:5000-digits"),
                                  "smdrr:", "fcfs:3", "mlfq:3", ":3"])
def test_parse_policy_rejects(text, capsys):
    with pytest.raises(PolicyError):
        parse_policy(text)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--case", "1", "--policy", text])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""


@pytest.mark.parametrize("text,message", [
    ("rr", "rr requires a positive integer quantum, e.g. rr:20"),
    ("rr:0", "rr requires a positive integer quantum, e.g. rr:20"),
    ("rr:x", "rr: quantum is not a base-10 integer: 'x'"),
    ("rr:" + "9" * 5000, "rr: quantum has too many digits (5000)"),
    ("smdrr:", "smdrr does not take a quantum"),
    ("sjf:5", "sjf does not take a quantum"),
    ("mlfq:3", "unknown policy kind: 'mlfq'"),
])
def test_parse_policy_names_the_fault(text, message):
    with pytest.raises(PolicyError, match=f"^{re.escape(message)}$"):
        parse_policy(text)


def test_policy_config_validation():
    with pytest.raises(PolicyError):
        PolicyConfig("rr")
    with pytest.raises(PolicyError):
        PolicyConfig("fcfs", 5)
    with pytest.raises(PolicyError):
        PolicyConfig("priority")
    for quantum in (True, 2.5, "20", 0):
        with pytest.raises(PolicyError, match="^rr requires a positive integer quantum"):
            PolicyConfig("rr", quantum)
    assert PolicyConfig("rr", 20).label == "RR"
    assert PolicyConfig("smdrr").label == "SMDRR"
