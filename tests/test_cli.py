import csv
import io
import json

import pytest

import smdrr.cli
import smdrr.engine
import smdrr.errata
import smdrr.metrics
import smdrr.workload
from goldens import EXPECTED_ERRATA
from smdrr.cli import main
from smdrr.workload import MAX_PROCESSES, MAX_SEGMENTS, MAX_TIME, parse_workload


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    capsys.readouterr()
    return excinfo.value.code


def test_run_json_case1_smdrr_paper(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "1", "--policy", "smdrr",
                           "--convention", "paper", "--format", "json")
    assert code == 0
    (doc,) = json.loads(out)
    assert doc["policy"] == "smdrr"
    assert doc["metrics"]["att"] == "124.25"
    assert doc["metrics"]["awt"] == "66"
    assert doc["metrics"]["cs"] == 6
    assert doc["trace"]["quanta"] == [41, 46, 3]


def test_run_missing_workload_names_path(capsys):
    code, _, err = run_cli(capsys, "run", "--workload", "missing.csv", "--policy", "smdrr")
    assert code == 1
    assert "missing.csv" in err


def test_run_rr_without_quantum_is_usage_error(capsys):
    assert run_cli_usage_error(capsys, "run", "--case", "1", "--policy", "rr") == 2


def test_run_requires_a_policy(capsys):
    assert run_cli_usage_error(capsys, "run", "--case", "1") == 2


def test_run_requires_one_source(capsys):
    assert run_cli_usage_error(capsys, "run", "--policy", "smdrr") == 2
    assert run_cli_usage_error(capsys, "run", "--case", "1", "--workload", "w.csv",
                               "--policy", "smdrr") == 2


def test_run_gantt_needs_text_or_json(capsys):
    assert run_cli_usage_error(capsys, "run", "--case", "1", "--policy", "smdrr",
                               "--format", "csv", "--gantt", "ascii") == 2


def test_run_text_includes_gantt(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "1", "--policy", "smdrr",
                           "--convention", "paper", "--gantt", "ascii")
    assert code == 0
    assert "quanta: 41,46,3" in out
    assert "legend:" in out


def test_run_json_gantt_svg_field(capsys):
    code, out, _ = run_cli(capsys, "run", "--case", "1", "--policy", "fcfs",
                           "--format", "json", "--gantt", "svg")
    assert code == 0
    (doc,) = json.loads(out)
    assert doc["gantt"].startswith("<svg ")


def test_run_workload_file(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("pid,arrival,burst\nA,0,3\nB,1,2\n")
    code, out, _ = run_cli(capsys, "run", "--workload", str(path),
                           "--policy", "rr:2", "--format", "json")
    assert code == 0
    (doc,) = json.loads(out)
    assert doc["trace"]["workload"] == "two"
    assert [s.get("pid") for s in doc["trace"]["segments"]] == ["A", "B", "A"]


def test_run_invalid_workload_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("pid,arrival,burst\nA,0,0\n")
    code, _, err = run_cli(capsys, "run", "--workload", str(path), "--policy", "smdrr")
    assert code == 1
    assert "burst" in err


def test_run_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", "--case", "2", "--policy", "smdrr",
                           "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["metrics"]["cs"] == 10


def test_run_out_into_missing_directory_is_data_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "run", "--case", "1", "--policy", "smdrr",
                             "--format", "json", "--out", str(target))
    assert code == 1
    assert err.startswith("error:")
    assert out == ""
    assert not target.parent.exists()


def test_run_workload_error_leaves_no_out_file(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("pid,arrival,burst\nA,0,0\n")
    target = tmp_path / "x.json"
    code, out, _ = run_cli(capsys, "run", "--workload", str(path), "--policy", "smdrr",
                           "--format", "json", "--out", str(target))
    assert code == 1
    assert out == ""
    assert not target.exists()


def test_compare_case4(capsys):
    code, out, _ = run_cli(capsys, "compare", "--case", "4", "--policy", "rr:20",
                           "--policy", "smdrr", "--convention", "paper", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["RR", "20", "125.6", "82.4", "11"]
    assert rows[2] == ["SMDRR", "18,35,25,43", "108.6", "65.4", "7"]


def test_compare_case2(capsys):
    code, out, _ = run_cli(capsys, "compare", "--case", "2", "--policy", "rr:20",
                           "--policy", "smdrr", "--convention", "paper", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["RR", "20", "140.4", "98", "11"]
    assert rows[2] == ["SMDRR", "34,22,2,1", "129.2", "86.8", "10"]


def test_compare_needs_two_policies(capsys):
    assert run_cli_usage_error(capsys, "compare", "--case", "2", "--policy", "smdrr") == 2


def test_compare_policy_order_permutes_rows_only(capsys):
    _, forward, _ = run_cli(capsys, "compare", "--case", "3", "--policy", "rr:20",
                            "--policy", "smdrr", "--format", "csv")
    _, reverse, _ = run_cli(capsys, "compare", "--case", "3", "--policy", "smdrr",
                            "--policy", "rr:20", "--format", "csv")
    fwd = forward.splitlines()
    rev = reverse.splitlines()
    assert fwd[0] == rev[0]
    assert sorted(fwd[1:]) == sorted(rev[1:])
    assert fwd[1:] == rev[1:][::-1]


def test_compare_four_policies(capsys):
    code, out, _ = run_cli(capsys, "compare", "--case", "3", "--policy", "fcfs",
                           "--policy", "sjf", "--policy", "rr:20", "--policy", "smdrr")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == \
        ["Algorithm", "FCFS", "SJF", "RR", "SMDRR"]


@pytest.mark.parametrize("argv", [
    ("compare", "--policy", "smdrr", "--policy", "rr:20", "--policy", "fcfs",
     "--policy", "sjf", "--format", "csv"),
    ("run", "--policy", "smdrr", "--convention", "paper", "--format", "csv"),
    ("run", "--policy", "fcfs", "--format", "json", "--gantt", "svg"),
])
def test_table_and_json_outputs_build_no_per_process_record(capsys, monkeypatch, argv):
    # The aggregates are sums over the trace's columns and the JSON writer
    # fills its templates from plain tuples, so neither record tuple is built.
    def unread(self):
        raise AssertionError(f"{type(self).__name__}.processes was read")

    monkeypatch.setattr(smdrr.engine.Trace, "processes", property(unread))
    monkeypatch.setattr(smdrr.metrics.MetricsReport, "processes", property(unread))
    code, out, err = run_cli(capsys, *argv, "--n", "40", "--burst", "1..50",
                             "--arrival", "0..900", "--seed", "5")
    assert (code, err) == (0, "")
    assert out


def test_generate_csv_all_zero_arrivals(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "5", "--burst", "10..100",
                           "--arrival", "0..0", "--seed", "7", "--format", "csv")
    assert code == 0
    w = parse_workload(out, "csv")
    assert len(w.processes) == 5
    assert all(p.arrival == 0 for p in w.processes)
    assert all(10 <= p.burst <= 100 for p in w.processes)


def test_generate_is_deterministic(capsys):
    args = ("generate", "--n", "8", "--burst", "1..50", "--arrival", "0..9",
            "--seed", "99", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_generate_bad_burst_range(capsys):
    assert run_cli_usage_error(capsys, "generate", "--n", "5", "--burst", "0..10") == 2


def test_generate_rejects_n_above_cap(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--n", "1000000000000", "--burst", "1..5"])
    assert excinfo.value.code == 2
    assert f"count must be <= {MAX_PROCESSES}" in capsys.readouterr().err


def test_generate_needs_n_and_burst(capsys):
    assert run_cli_usage_error(capsys, "generate", "--burst", "1..5") == 2
    assert run_cli_usage_error(capsys, "generate", "--n", "5") == 2


def test_generate_malformed_range(capsys):
    assert run_cli_usage_error(capsys, "generate", "--n", "5", "--burst", "10") == 2


@pytest.mark.parametrize("argv", [
    ("run", "--case", "1", "--policy", "rr:²"),
    ("run", "--case", "1", "--policy", "rr:٣"),
    ("run", "--case", "１", "--policy", "smdrr"),
    ("generate", "--n", "2", "--burst", "1..٣"),
    ("generate", "--n", "2", "--burst", "1..3", "--arrival", "٠..3"),
    ("generate", "--n", "２", "--burst", "1..3"),
    ("generate", "--n", " 5", "--burst", "1..3"),
    ("generate", "--n", "1_000", "--burst", "1..3"),
    ("generate", "--n", "2", "--burst", "1..3", "--seed", "1_000"),
    ("generate", "--n", "2", "--burst", "1..3", "--seed", "٣"),
    # more digits than int() converts
    ("run", "--case", "1", "--policy", "rr:" + "9" * 5000),
    ("generate", "--n", "9" * 5000, "--burst", "1..3"),
    ("generate", "--n", "2", "--burst", "1.." + "9" * 5000),
    ("generate", "--n", "2", "--burst", "1..3", "--seed", "9" * 5000),
    ("generate", "--n", "2", "--burst", "1..3", "--arrival", "0.." + "9" * 5000),
])
def test_numbers_follow_the_ascii_integer_rule(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    # the subcommand's own usage and error line, without argparse's type names
    assert captured.err.splitlines()[-1].startswith(f"smdrr {argv[0]}: error: ")
    assert "invalid _int value" not in captured.err and "_range" not in captured.err
    if any(len(arg) > 5000 for arg in argv):
        assert "too many digits (5000)" in captured.err
        assert "9" * 100 not in captured.err


def test_undecodable_workload_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"pid,arrival,burst\nP1,0,5\xff\n")
    code, out, err = run_cli(capsys, "run", "--workload", str(path), "--policy", "smdrr")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "position 24" in err


@pytest.mark.parametrize("name,text", [
    ("huge.csv", "pid,arrival,burst\nP1,0," + "9" * 5000 + "\n"),
    ("huge.json", '{"name": "w", "processes": [{"pid": "P1", "arrival": 0, "burst": '
     + "9" * 5000 + "}]}"),
    ("idle.csv", "pid,arrival,burst\n--,0,4\nB,10,4\n"),
    ("deep.json", "[" * 100_000),
    ("long.csv", "pid,arrival,burst\n" + "A" * 65 + ",0,4\n"),
], ids=["huge-csv", "huge-json", "idle-pid", "deep-json", "pid-of-65"])
def test_bad_workload_is_one_error_line(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    for fmt in ("text", "csv", "json"):
        code, out, err = run_cli(capsys, "run", "--workload", str(path), "--policy", "fcfs",
                                 "--format", fmt)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_rr_beyond_the_segment_cap_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "run", "--n", "1", "--burst", "1000000000..1000000000",
                             "--policy", "rr:1")
    assert code == 1
    assert out == ""
    assert err == (f"error: rr:1 would dispatch 1000000000 segments, "
                   f"more than the cap of {MAX_SEGMENTS}\n")


def test_smdrr_beyond_the_segment_cap_is_one_error_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(smdrr.engine, "MAX_SEGMENTS", 100)
    target = tmp_path / "x.json"
    code, out, err = run_cli(capsys, "run", "--n", "50", "--burst", "1..1000000", "--seed", "1",
                             "--policy", "smdrr", "--format", "json", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err == "error: smdrr would dispatch more than 100 segments\n"
    assert not target.exists()


@pytest.mark.parametrize("name,rows,located", [
    ("many.csv", "pid,arrival,burst\n" + "".join(f"P{i},0,1\n" for i in range(5)),
     "line 5: more than 3 processes"),
    ("many.json", json.dumps({"name": "w", "processes": [
        {"pid": f"P{i}", "arrival": 0, "burst": 1} for i in range(5)]}),
     "processes[3]: more than 3 processes"),
], ids=["csv", "json"])
def test_a_file_over_the_process_cap_is_one_located_error_line(monkeypatch, tmp_path, capsys,
                                                              name, rows, located):
    monkeypatch.setattr(smdrr.workload, "MAX_PROCESSES", 3)
    path, target = tmp_path / name, tmp_path / "out.json"
    path.write_text(rows, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--workload", str(path), "--policy", "fcfs",
                             "--format", "json", "--out", str(target))
    assert (code, out, err) == (1, "", f"error: {located}\n")
    assert not target.exists()


@pytest.mark.parametrize("name,text,located", [
    ("late.csv", f"pid,arrival,burst\nP1,{MAX_TIME + 1},4\n",
     f"line 2: process P1: arrival must be <= {MAX_TIME}"),
    ("long.json", json.dumps({"name": "w", "processes": [
        {"pid": "P1", "arrival": 0, "burst": MAX_TIME + 1}]}),
     f"processes[0]: process P1: burst must be <= {MAX_TIME}"),
], ids=["csv-arrival", "json-burst"])
def test_a_time_above_the_cap_is_one_located_error_line(tmp_path, capsys, name, text, located):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    target = tmp_path / "x.out"
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, "run", "--workload", str(path), "--policy", "smdrr",
                                 "--format", fmt, "--out", str(target))
        assert (code, out, err) == (1, "", f"error: {located}\n")
        assert not target.exists()


@pytest.mark.parametrize("option,text,field", [
    ("--burst", f"1..{10**40}", "burst_max"),
    ("--arrival", f"0..{MAX_TIME + 1}", "arrival_max"),
])
def test_a_generated_time_above_the_cap_is_a_usage_error(tmp_path, capsys, option, text, field):
    argv = ["run", "--n", "3", "--burst", "1..5", "--policy", "smdrr", "--format", "csv"]
    target = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [option, text, "--out", str(target)])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"smdrr run: error: {field} must be <= {MAX_TIME}"]
    assert not target.exists()


@pytest.mark.parametrize("length", [64, 65])
def test_pid_length_cap(tmp_path, capsys, length):
    path = tmp_path / "w.csv"
    path.write_text("pid,arrival,burst\n" + "A" * length + ",0,4\n", encoding="utf-8")
    target = tmp_path / "x.json"
    code, out, err = run_cli(capsys, "run", "--workload", str(path), "--policy", "rr:1",
                             "--format", "json", "--out", str(target))
    assert out == ""
    if length == 64:
        assert code == 0 and err == ""
        assert json.loads(target.read_text())[0]["trace"]["processes"][0]["pid"] == "A" * 64
    else:
        assert code == 1
        assert err == "error: line 2: pid has 65 characters, more than 64\n"
        assert not target.exists()


def test_run_text_header_quotes_a_name_with_a_line_break(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"name": "a\nb|c", "processes": [
        {"pid": "P1", "arrival": 0, "burst": 4}]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", "--workload", str(path), "--policy", "fcfs")
    assert code == 0
    assert out.splitlines()[0] == '== FCFS on "a\\nb|c" (convention: standard) =='


def test_generated_source_feeds_run(capsys):
    code, out, _ = run_cli(capsys, "run", "--n", "4", "--burst", "5..9", "--seed", "3",
                           "--policy", "smdrr", "--format", "json")
    assert code == 0
    (doc,) = json.loads(out)
    assert len(doc["trace"]["processes"]) == 4


def test_paper_cases_output(capsys):
    code, out, err = run_cli(capsys, "paper-cases")
    assert code == 0
    assert err == ""
    assert out.count("algorithm,tq,tat,wt,cs") == 4
    assert "RR,20,144,85.75,12" in out
    assert 'SMDRR,"41,46,3",124.25,66,6' in out
    errata_lines = [line for line in out.splitlines() if line.startswith("case ")]
    assert len(errata_lines) == len(EXPECTED_ERRATA)
    for (case_id, algorithm, field), (published, computed) in EXPECTED_ERRATA.items():
        expected = (f"case {case_id} {algorithm} {field}: "
                    f"published {published}, computed {computed}")
        assert expected in errata_lines


def test_paper_cases_replays_each_run_once(capsys, monkeypatch):
    calls = []

    def counted(simulate):
        def wrapper(workload, policy):
            calls.append(policy)
            return simulate(workload, policy)
        return wrapper

    for module in (smdrr.cli, smdrr.errata):
        monkeypatch.setattr(module, "simulate", counted(module.simulate))
    code, _, _ = run_cli(capsys, "paper-cases")
    assert code == 0
    assert len(calls) == 8  # cases 1-4, each under RR:20 and SMDRR


def test_paper_cases_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "paper-cases")
    _, second, _ = run_cli(capsys, "paper-cases")
    assert first == second


def test_main_builds_the_parser_once(capsys, monkeypatch):
    builds = []

    def counted(build=smdrr.cli.build_parser):
        builds.append(1)
        return build()

    monkeypatch.setattr(smdrr.cli, "_parser", None, raising=False)
    monkeypatch.setattr(smdrr.cli, "build_parser", counted)
    runs = [run_cli(capsys, "run", "--case", "1", "--policy", spec, "--format", "csv")
            for spec in ("smdrr", "rr:20", "smdrr")]
    assert builds == [1]
    # --policy appends to a copy of its default, so no call sees an earlier one's
    assert runs[0] == runs[2] != runs[1]
    assert all(len(out.splitlines()) == 2 for _, out, _ in runs)  # a header, one policy


def test_unknown_command_usage_error(capsys):
    assert run_cli_usage_error(capsys, "bench") == 2
