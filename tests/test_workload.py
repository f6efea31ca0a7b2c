import json
import re
import string
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

import smdrr.workload

from smdrr.workload import (
    MAX_PID_LENGTH,
    MAX_PROCESSES,
    MAX_TIME,
    GeneratorSpec,
    ProcessSpec,
    Workload,
    WorkloadError,
    generate_workload,
    paper_case,
    parse_workload,
    serialize_workload,
)

CASE1_CSV = "pid,arrival,burst\nP1,0,20\nP2,0,40\nP3,0,83\nP4,0,90\n"


def test_parse_csv_case1():
    w = parse_workload(CASE1_CSV, "csv")
    assert [p.pid for p in w.processes] == ["P1", "P2", "P3", "P4"]
    assert [p.burst for p in w.processes] == [20, 40, 83, 90]
    assert all(p.arrival == 0 for p in w.processes)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("pid,arrival,burst\nP1,0,0\n", "burst must be >= 1"),
        ("pid,arrival,burst\nP1,0,5\nP2,0,5\nP2,0,7\n", "duplicate pid"),
        ("pid,arrival,burst\nP1,-1,5\n", "arrival must be >= 0"),
        ("pid,arrival,burst\nP1,0,2.5\n", "not a base-10 integer"),
        ("pid,arrival,burst\nP1,0\n", "expected 3 fields"),
        ("pid,arrival,burst\n,0,5\n", "pid is empty"),
        ("pid,arrival,burst\n", "no processes"),
        ("", "empty workload file"),
        ("pid,burst,arrival\nP1,0,5\n", "header"),
        # line numbers count the file's blank lines
        ("pid,arrival,burst\n\nP1,0,x\n", "line 3: burst"),
        ("pid,arrival,burst\nP1,0,5\n  \n\nP2,0\n", "line 5: expected 3 fields"),
        ("\n\npid,burst,arrival\nP1,0,5\n", "line 3: header"),
        ("\n \npid,arrival,burst\nP1,0,5\nP1,0,5\n", "line 5: duplicate pid"),
        ("\n \n", "empty workload file"),
        ("pid,arrival,burst\nP1,0,5\na|b,0,5\n", r"line 3: pid 'a\|b' does not match"),
        ("pid,arrival,burst\n\n \n", "no processes"),
        # more digits than int() converts
        pytest.param("pid,arrival,burst\nP1,0," + "9" * 5000 + "\n",
                     r"^line 2: burst has too many digits", id="burst-of-5000-digits"),
        # a pid needs a letter or a digit, so none reads like the idle label
        ("pid,arrival,burst\n--,0,4\nB,10,4\n", r"^line 2: pid '--' does not match"),
        ("pid,arrival,burst\n-,0,4\n", r"^line 2: pid '-' does not match"),
        ("pid,arrival,burst\n.,0,4\n", r"^line 2: pid '\.' does not match"),
        # a 64-character pid passes on line 2, a 65-character one is refused by length
        pytest.param("pid,arrival,burst\n" + "A" * 64 + ",0,5\nP2,0\n",
                     r"^line 3: expected 3 fields, got 2$", id="pid-of-64-accepted"),
        pytest.param("pid,arrival,burst\n" + "A" * 65 + ",0,5\n",
                     r"^line 2: pid has 65 characters, more than 64$", id="pid-of-65"),
    ],
)
def test_parse_csv_errors(text, fragment):
    with pytest.raises(WorkloadError, match=fragment):
        parse_workload(text, "csv")


def test_csv_errors_carry_line_numbers():
    with pytest.raises(WorkloadError, match="line 3"):
        parse_workload("pid,arrival,burst\nP1,0,5\nP2,0,x\n", "csv")


def test_parse_json_case():
    text = serialize_workload(paper_case(3), "json")
    w = parse_workload(text, "json")
    assert w == paper_case(3)
    assert [p.arrival for p in w.processes] == [0, 6, 12, 22]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[]", "top level"),
        ('{"name": 3, "processes": []}', "'name'"),
        ('{"name": "w", "processes": []}', "non-empty array"),
        ('{"name": "w", "processes": [{"pid": "P1", "arrival": 0}]}', "missing field 'burst'"),
        ('{"name": "w", "processes": [{"pid": "P1", "arrival": 0, "burst": 1.5}]}',
         "burst must be an integer"),
        ('{"name": "w", "processes": [{"pid": "P1", "arrival": true, "burst": 5}]}',
         "arrival must be an integer"),
        ("{not json", "invalid JSON"),
        ('{"name": "w", "processes": [{"pid": "P1", "arrival": 0, "burst": 1},'
         ' {"pid": "P1", "arrival": 0, "burst": 2}]}', r"^processes\[1\]: duplicate pid P1$"),
        ('{"name": "w", "processes": [{"pid": "<b>&", "arrival": 0, "burst": 1}]}',
         r"^processes\[0\]: pid '<b>&' does not match"),
        pytest.param('{"name": "w", "processes": [{"pid": "P1", "arrival": 0, "burst": '
                     + "9" * 5000 + "}]}", "^invalid JSON: ", id="burst-of-5000-digits"),
        ('{"name": "w", "processes": [{"pid": "--", "arrival": 0, "burst": 1}]}',
         r"^processes\[0\]: pid '--' does not match"),
        # nesting deeper than the decoder's recursion limit
        pytest.param("[" * 100_000, "^invalid JSON: maximum recursion depth", id="deep-nesting"),
        # a 64-character pid passes in processes[0], a 65-character one is refused by length
        pytest.param('{"name": "w", "processes": [{"pid": "' + "A" * 64 + '", "arrival": 0, '
                     '"burst": 1}, {"pid": "P2", "arrival": 0}]}',
                     r"^processes\[1\]: missing field 'burst'$", id="pid-of-64-accepted"),
        pytest.param('{"name": "w", "processes": [{"pid": "' + "A" * 65 + '", "arrival": 0, '
                     '"burst": 1}]}',
                     r"^processes\[0\]: pid has 65 characters, more than 64$", id="pid-of-65"),
    ],
)
def test_parse_json_errors(text, fragment):
    with pytest.raises(WorkloadError, match=fragment):
        parse_workload(text, "json")


def test_serialize_csv_round_trips_case1():
    w = paper_case(1)
    assert parse_workload(serialize_workload(w, "csv"), "csv", name=w.name) == w


def test_serialize_single_process_has_one_data_row():
    w = Workload("solo", (ProcessSpec("P1", 0, 5),))
    lines = serialize_workload(w, "csv").strip().splitlines()
    assert lines == ["pid,arrival,burst", "P1,0,5"]


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        parse_workload(CASE1_CSV, "tsv")
    with pytest.raises(ValueError, match="format"):
        serialize_workload(paper_case(1), "yaml")


def test_workload_requires_processes_and_unique_pids():
    with pytest.raises(WorkloadError):
        Workload("empty", ())
    with pytest.raises(WorkloadError, match="duplicate"):
        Workload("dup", (ProcessSpec("P1", 0, 1), ProcessSpec("P1", 0, 2)))


def test_process_spec_validation():
    with pytest.raises(WorkloadError):
        ProcessSpec("", 0, 1)
    with pytest.raises(WorkloadError):
        ProcessSpec("P1", 0, 0)
    with pytest.raises(WorkloadError):
        ProcessSpec("P1", -3, 1)
    assert ProcessSpec("A" * MAX_PID_LENGTH, 0, 1).pid == "A" * 64
    with pytest.raises(WorkloadError, match="^pid has 65 characters, more than 64$"):
        ProcessSpec("A" * (MAX_PID_LENGTH + 1), 0, 1)


# The pid grammar, stated here independently of smdrr.workload: at least
# one ASCII letter or digit, so that no pid reads like the idle label "--".
PID = re.compile(r"[A-Za-z0-9_.:-]*[A-Za-z0-9][A-Za-z0-9_.:-]*")
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
candidate_pids = st.one_of(
    st.sampled_from(["a,b", " P1 ", "<b>&", "a|b", "", "P1", "é", "P١", "\tP2", "a b",
                     "--", "-", ".", "_:", "-P-"]),
    st.text(max_size=6),
    st.text(string.ascii_letters + string.digits + "_.:-", min_size=1, max_size=6),
)


@given(candidate_pids.filter(lambda pid: not any(c in _LINE_BREAKS for c in pid)))
def test_csv_accepts_a_pid_exactly_when_its_trimmed_cell_matches_the_grammar(pid):
    # A line break in the cell would start a new row, so it is left out here.
    text = f"pid,arrival,burst\n{pid},0,5\n"
    if PID.fullmatch(pid.strip()):
        assert parse_workload(text, "csv").processes == (ProcessSpec(pid.strip(), 0, 5),)
    else:
        with pytest.raises(WorkloadError, match=r"^line 2: "):
            parse_workload(text, "csv")


@given(st.one_of(candidate_pids, st.integers(), st.just(None)))
def test_json_accepts_a_pid_exactly_when_it_matches_the_grammar(pid):
    text = json.dumps({"name": "w", "processes": [{"pid": pid, "arrival": 0, "burst": 5}]})
    if isinstance(pid, str) and PID.fullmatch(pid):
        assert parse_workload(text, "json").processes == (ProcessSpec(pid, 0, 5),)
    else:
        with pytest.raises(WorkloadError, match=r"^processes\[0\]: "):
            parse_workload(text, "json")


pid_strategy = st.text(string.ascii_letters + string.digits + "_", min_size=1,
                       max_size=8).filter(lambda pid: pid.strip("_"))


@st.composite
def workloads(draw):
    rows = draw(
        st.lists(
            st.tuples(pid_strategy, st.integers(0, 500), st.integers(1, 500)),
            min_size=1,
            max_size=10,
            unique_by=lambda row: row[0],
        )
    )
    name = draw(pid_strategy)
    return Workload(name, tuple(ProcessSpec(*row) for row in rows))


@given(workloads())
def test_json_round_trip_is_identity(w):
    assert parse_workload(serialize_workload(w, "json"), "json") == w


@given(workloads())
def test_csv_round_trip_preserves_processes(w):
    # CSV has no name column, so the name must be passed back in.
    again = parse_workload(serialize_workload(w, "csv"), "csv", name=w.name)
    assert again == w


def test_generate_is_deterministic():
    spec = GeneratorSpec(count=6, burst_min=1, burst_max=100,
                         arrival_min=0, arrival_max=50, seed=42)
    assert generate_workload(spec) == generate_workload(spec)
    assert serialize_workload(generate_workload(spec), "json") == \
        serialize_workload(generate_workload(spec), "json")


def test_generate_degenerate_ranges():
    spec = GeneratorSpec(count=5, burst_min=7, burst_max=7,
                         arrival_min=0, arrival_max=0, seed=1)
    w = generate_workload(spec)
    assert len(w.processes) == 5
    assert all(p.burst == 7 for p in w.processes)
    assert all(p.arrival == 0 for p in w.processes)


def test_generate_respects_ranges_and_pid_order():
    spec = GeneratorSpec(count=40, burst_min=3, burst_max=9,
                         arrival_min=2, arrival_max=11, seed=1234)
    w = generate_workload(spec)
    arrivals = [p.arrival for p in w.processes]
    assert arrivals == sorted(arrivals)
    assert [p.pid for p in w.processes] == [f"P{i}" for i in range(1, 41)]
    assert all(3 <= p.burst <= 9 for p in w.processes)
    assert all(2 <= p.arrival <= 11 for p in w.processes)


@st.composite
def generator_specs(draw):
    def edge_or_any(least, most):  # either end of the range, or any value in it
        return draw(st.sampled_from([least, most]) | st.integers(least, most))
    burst_min = edge_or_any(1, MAX_TIME)
    arrival_min = edge_or_any(0, MAX_TIME)
    return GeneratorSpec(edge_or_any(1, 30), burst_min, edge_or_any(burst_min, MAX_TIME),
                         arrival_min, edge_or_any(arrival_min, MAX_TIME),
                         edge_or_any(0, 2**64 - 1))


# The generator builds its records without ProcessSpec's checks, because
# GeneratorSpec has proven their ranges and P1..Pn their pids.
@given(generator_specs())
@example(GeneratorSpec(1, 1, 1, 0, 0, 0))
@example(GeneratorSpec(3, MAX_TIME, MAX_TIME, 0, MAX_TIME, 2**64 - 1))
@example(GeneratorSpec(2, 1, MAX_TIME, MAX_TIME, MAX_TIME, 2**64 - 1))
def test_generated_records_pass_process_spec_checks(spec):
    for record in generate_workload(spec).processes:
        assert type(record) is ProcessSpec
        assert ProcessSpec(*record) == record


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(count=0, burst_min=1, burst_max=2),
        dict(count=3, burst_min=0, burst_max=2),
        dict(count=3, burst_min=5, burst_max=2),
        dict(count=3, burst_min=1, burst_max=2, arrival_min=4, arrival_max=1),
        dict(count=3, burst_min=1, burst_max=2, arrival_min=-1, arrival_max=1),
        dict(count=3, burst_min=1, burst_max=2, seed=1 << 64),
        dict(count=MAX_PROCESSES + 1, burst_min=1, burst_max=2),
        dict(count=10**12, burst_min=1, burst_max=2),
        # the one integer rule: an int that is not a bool
        dict(count=True, burst_min=1, burst_max=3),
        dict(count=2.5, burst_min=1, burst_max=3),
        dict(count=3, burst_min=1, burst_max="9"),
        dict(count=3, burst_min=1, burst_max=3, seed=1.0),
        dict(count=3, burst_min=1, burst_max=3, seed=True),
    ],
)
def test_generator_spec_validation(kwargs):
    with pytest.raises(WorkloadError):
        GeneratorSpec(**kwargs)


def test_generator_spec_accepts_the_cap():
    assert GeneratorSpec(count=MAX_PROCESSES, burst_min=1, burst_max=2).count == MAX_PROCESSES


def test_paper_cases_validate_and_match_tables():
    assert [p.burst for p in paper_case(1).processes] == [20, 40, 83, 90]
    assert [p.burst for p in paper_case(2).processes] == [17, 27, 52, 57, 59]
    assert [(p.arrival, p.burst) for p in paper_case(3).processes] == \
        [(0, 10), (6, 14), (12, 69), (22, 75)]
    assert [(p.arrival, p.burst) for p in paper_case(4).processes] == \
        [(0, 18), (3, 20), (6, 50), (11, 60), (21, 68)]


def test_paper_case_unknown_id():
    for case_id in (5, 0, True, 1.0, "1"):
        with pytest.raises(WorkloadError, match=f"^unknown case id: {case_id!r} "):
            paper_case(case_id)


@pytest.mark.parametrize("pids, first", [
    (("A", "B", "B", "A"), "B"),
    (("A", "B", "A", "B"), "A"),
])
def test_duplicate_pid_error_names_the_first_repeat(pids, first):
    processes = tuple(ProcessSpec(pid, 0, 1) for pid in pids)
    with pytest.raises(WorkloadError, match=f"^duplicate pid {first}$"):
        Workload("dup", processes)
    # the third row, on line 4, repeats a pid in both orders
    text = "pid,arrival,burst\n" + "".join(f"{pid},0,1\n" for pid in pids)
    with pytest.raises(WorkloadError, match=f"^line 4: duplicate pid {first}$"):
        parse_workload(text, "csv")


def test_process_cap_is_inclusive_for_parsed_files(monkeypatch):
    monkeypatch.setattr(smdrr.workload, "MAX_PROCESSES", 3)
    rows = [{"pid": f"P{i}", "arrival": 0, "burst": 1} for i in range(4)]
    assert len(parse_workload(json.dumps({"name": "w", "processes": rows[:3]}),
                              "json").processes) == 3
    with pytest.raises(WorkloadError, match=r"^processes\[3\]: more than 3 processes$"):
        parse_workload(json.dumps({"name": "w", "processes": rows}), "json")
    csv_text = "pid,arrival,burst\n" + "".join(f"P{i},0,1\n" for i in range(3))
    assert len(parse_workload(csv_text, "csv").processes) == 3
    with pytest.raises(WorkloadError, match="^line 5: more than 3 processes$"):
        parse_workload(csv_text + "P3,0,1\n", "csv")


# Well-formed CSV takes a fast path (one row regex, one check of the whole
# batch); any text outside its subset goes to the row-by-row parser.  Whenever
# the fast path accepts, the row-by-row parser accepts the same workload, and
# every error is the row-by-row parser's own.
def assert_csv_paths_agree(text):
    fast = smdrr.workload._parse_csv_fast(text, "w")
    try:
        slow = smdrr.workload._parse_csv_rows(text, "w")
    except WorkloadError as exc:
        assert fast is None
        with pytest.raises(WorkloadError) as caught:
            parse_workload(text, "csv", name="w")
        assert str(caught.value) == str(exc)
    else:
        assert fast is None or fast == slow
        assert parse_workload(text, "csv", name="w") == slow
    return fast


HEAD = "pid,arrival,burst\n"


@pytest.mark.parametrize("text, fast", [
    (HEAD + "P1,0,5\nP2,3,1\n", True),
    (HEAD + f"A,{MAX_TIME},{MAX_TIME}\n", True),
    (HEAD + "A,007,0012\n", True),  # leading zeros read as today
    (HEAD + "A,0,1\n" + "B" * 64 + ",0,1\n", True),
    (HEAD + "P1,0,5\r\nP2,3,1\r\n", False),
    (HEAD + "P1,0,5\n\nP2,3,1\n", False),
    (HEAD + "P1,0,5\nP2,3,1", False),  # no final newline
    (HEAD + "P1, 0,5\n", False),
    (HEAD + "P1,0,5\t\n", False),
    (" " + HEAD + "P1,0,5\n", False),
    ("pid,arrival,burst \nP1,0,5\n", False),
    (HEAD + "P1,-0,5\n", False),
    (HEAD + "P1,0," + "9" * 13 + "\n", False),
    (HEAD + "P1,0," + "1" + "0" * 13 + "\n", False),
    (HEAD + f"P1,{MAX_TIME + 1},5\n", False),
    (HEAD + "P1,0,0\n", False),
    (HEAD + "P1,١,5\n", False),
    (HEAD + "P1,0,²\n", False),
    (HEAD + "P1,0,5\nP2,0,5\nP1,0,5\n", False),
    (HEAD + "A" * 65 + ",0,5\n", False),
    (HEAD + "x y,1,2\n", False),  # the whole line, not its tail, is the row
    (HEAD + 'P"1,0,5\n', False),
    (HEAD + "--,0,5\n", False),
    (HEAD + "P1,0\n", False),
    (HEAD + "P1,0,5,7\n", False),
    (HEAD, False),
    ("", False),
])
def test_csv_fast_path_agrees_with_the_row_by_row_parser(text, fast):
    assert (assert_csv_paths_agree(text) is not None) is fast


ODD_PIDS = ["", "a" * 64, "a" * 65, "x y", 'P"1', "--", "é", "P١", "P1 ", "\tP1"]
ODD_NUMBERS = ["0", "007", "-0", "-1", "1.5", "", " 3", "4 ", "١", "²", str(MAX_TIME),
               str(MAX_TIME + 1), "9" * 13, "1" + "0" * 13, "9" * 14]


@st.composite
def mutated_csv_texts(draw):
    """A well-formed CSV text with up to three mutations of its lines."""
    rows = [[f"P{i}", str(draw(st.integers(0, 99))), str(draw(st.integers(1, 99)))]
            for i in range(draw(st.integers(1, 5)))]
    header, line_end, final = "pid,arrival,burst", "\n", True
    for mutation in draw(st.lists(st.sampled_from(
            ["crlf", "blank", "final", "space", "header", "pid", "number", "duplicate",
             "cells"]), max_size=3)):
        row = draw(st.sampled_from(rows)) if rows else None
        if mutation == "crlf":
            line_end = "\r\n"
        elif mutation == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from(["", " "]))])
        elif mutation == "final":
            final = False
        elif mutation == "header":
            header = draw(st.sampled_from([" ", "\t", ""])) + header + draw(
                st.sampled_from([" ", "\t", ""]))
        elif row is None or len(row) < 3:
            continue
        elif mutation == "space":
            cell = draw(st.integers(0, 2))
            row[cell] = draw(st.sampled_from([" ", "\t"])) + row[cell]
        elif mutation == "pid":
            row[0] = draw(st.sampled_from(ODD_PIDS))
        elif mutation == "number":
            row[draw(st.integers(1, 2))] = draw(st.sampled_from(ODD_NUMBERS))
        elif mutation == "duplicate":
            row[0] = draw(st.sampled_from(rows))[0]
        elif mutation == "cells":
            row[:] = row[:2] if draw(st.booleans()) else row + ["7"]
    text = line_end.join([header, *(",".join(row) for row in rows)])
    return text + line_end if final else text


@given(mutated_csv_texts())
def test_csv_fast_path_agrees_on_mutated_texts(text):
    assert_csv_paths_agree(text)


def test_a_large_csv_takes_the_fast_path_in_no_more_memory_than_row_by_row(monkeypatch):
    text = HEAD + "".join(f"P{i},{i * 7919 % 10**6},{i % 1000 + 1}\n" for i in range(10**5))

    def peak(parse):
        tracemalloc.start()
        try:
            workload = parse()
            return workload, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    slow, slow_peak = peak(lambda: smdrr.workload._parse_csv_rows(text, "w"))
    monkeypatch.setattr(smdrr.workload, "_parse_csv_rows", None)  # no way round the fast path
    fast, fast_peak = peak(lambda: parse_workload(text, "csv", name="w"))
    assert fast == slow
    assert fast_peak <= slow_peak


# The line ends of str.splitlines(); "\r\n" is one.  "\x1f" is not a line end.
LINE_ENDS = ["\r\n", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@given(st.lists(st.sampled_from(["a", ",", " ", "\x1f", *LINE_ENDS])).map("".join))
@example("a\r\nb\r\n")
@example("a\nb\n")
@example("a\rb\r")
@example("a\vb\v")
@example("a\fb\f")
@example("a\x1cb\x1c")
@example("a\x1db\x1d")
@example("a\x1eb\x1e")
@example("a\x85b\x85")
@example("a\u2028b\u2028")
@example("a\u2029b\u2029")
@example("a\n\nb\x1fc")  # no final line end
def test_csv_lines_are_those_of_splitlines(text):
    assert list(smdrr.workload._lines(text)) == text.splitlines()


def test_the_process_cap_stops_the_read_of_a_long_csv(monkeypatch):
    monkeypatch.setattr(smdrr.workload, "MAX_PROCESSES", 3)
    text = "pid,arrival,burst\r\n" + "".join(f"P{i},0,1\r\n" for i in range(10**5))
    tracemalloc.start()
    try:
        with pytest.raises(WorkloadError, match="^line 5: more than 3 processes$"):
            parse_workload(text, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # a few lines, not a list of 10**5
