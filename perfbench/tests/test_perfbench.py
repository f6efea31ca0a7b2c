"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from checks import Tally, check_output, check_segments, load_oracle  # noqa: E402
from spans import Tracer, command_layers, self_times, tail, union_length  # noqa: E402
from workloads import Workload, digest, invoke  # noqa: E402

TINY_TABLE = Workload("tiny-table", "compare", 40, (1, 60), (0, 300),
                      ("smdrr", "rr:20", "fcfs", "sjf"), "csv")
TINY_EXPORT = Workload("tiny-export", "run", 40, (1, 60), (0, 3000), ("fcfs",), "json",
                       from_file=True, gantt="svg")


class TailTest(unittest.TestCase):
    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(tail([1.0] * 10))

    def test_highest_percentile_with_ten_beyond(self):
        samples = [float(i) for i in range(50, 0, -1)]  # 1..50, unsorted
        got = tail(samples)
        self.assertEqual(got["value"], 40.0)
        self.assertEqual(got["percentile"], 80.0)
        self.assertEqual(got["samples"], 50)
        self.assertEqual(sum(1 for s in samples if s > got["value"]), 10)

    def test_eleven_samples_select_the_smallest(self):
        got = tail([float(i) for i in range(11)])
        self.assertEqual(got["value"], 0.0)
        self.assertAlmostEqual(got["percentile"], 100 / 11)


class SelfTimeTest(unittest.TestCase):
    # (sid, parent, name, start, end, cpu)
    SPANS = [
        (1, 0, "cli.main", 0.0, 10.0, -1.0),
        (2, 1, "engine.simulate.rr20", 1.0, 5.0, 1.5),  # two pool threads:
        (3, 1, "engine.simulate.sjf", 3.0, 7.0, 2.0),   # children overlap
        (4, 2, "policies.requeue", 2.0, 3.0, -1.0),
    ]

    def test_union_of_overlapping_children_is_subtracted(self):
        own = self_times(self.SPANS)
        self.assertEqual(own[1], 10.0 - 6.0)  # union [1, 7], not the sum 8
        self.assertEqual(own[2], 4.0 - 1.0)
        self.assertEqual(own[3], 4.0)

    def test_union_clips_to_the_parent(self):
        self.assertEqual(union_length([(-1.0, 2.0), (1.5, 3.0), (8.0, 12.0)], 0.0, 10.0), 5.0)

    def test_layer_metrics(self):
        got = command_layers(self.SPANS, {"engine.segments.rr20": 7},
                             {"engine.simulate", "policies.requeue"})
        self.assertEqual(got["cli.self_s"], 4.0)
        self.assertEqual(got["engine.self_s"], 3.0 + 4.0)
        self.assertEqual(got["engine.wait_s"], (4.0 - 1.5) + (4.0 - 2.0))
        self.assertEqual(got["engine.simulate_s.smdrr"], 0.0)
        self.assertEqual(got["engine.segments.rr20"], 7)
        self.assertEqual(got["policies.requeue_calls"], 1)

    def test_a_removed_layer_is_absent_not_zero(self):
        got = command_layers(self.SPANS, {}, {"engine.simulate"})
        self.assertNotIn("policies.requeue_calls", got)
        self.assertNotIn("policies.quantum_s", got)


class TracerTest(unittest.TestCase):
    def test_pool_thread_spans_hang_off_the_command_root(self):
        import smdrr.cli

        original = smdrr.cli.simulate
        with tempfile.TemporaryDirectory() as tmp:
            argv, out = TINY_TABLE.prepare(5, Path(tmp))
            tracer = Tracer()
            tracer.install()
            try:
                code, _, _ = invoke(lambda a: tracer.run_command(smdrr.cli.main, a), argv, out)
            finally:
                tracer.uninstall()
        self.assertEqual(code, 0)
        self.assertIs(smdrr.cli.simulate, original)
        spans = tracer.spans_from(0)
        (root,) = [s for s in spans if s[2] == "cli.main"]
        simulate = [s for s in spans if s[2].startswith("engine.simulate.")]
        self.assertEqual(len(simulate), 4)
        self.assertTrue(all(s[1] == root[0] for s in simulate))
        layers = command_layers(spans, tracer.counts[tracer.cmd], tracer.present)
        self.assertEqual(layers["engine.segments.fcfs"], 40)
        self.assertEqual(layers["workload.processes"], 40)
        self.assertEqual(layers["policies.plan_cycle_calls"], layers["engine.cycles.smdrr"])


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from smdrr.cli import main

        cls.main = staticmethod(main)
        cls.oracle = load_oracle()

    def run_cli(self, w, tmp):
        argv, out = w.prepare(9, Path(tmp))
        code, output, _ = invoke(self.main, argv, out)
        self.assertEqual(code, 0)
        return output, out

    def test_invariants_catch_a_gap_and_short_service(self):
        rows = [("A", 0, 3), ("B", 0, 2)]
        self.assertEqual(check_segments([("A", 0, 3), ("B", 3, 5)], rows), [])
        self.assertTrue(check_segments([("A", 0, 3), ("B", 4, 6)], rows))
        self.assertTrue(check_segments([("A", 0, 3), ("B", 3, 4)], rows))
        self.assertTrue(check_segments([("A", 0, 3), (None, 3, 4), ("B", 4, 6)], rows))

    def test_table_output_passes_and_a_changed_cell_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            output, _ = self.run_cli(TINY_TABLE, tmp)
        self.assertEqual(check_output(TINY_TABLE, 9, output, self.oracle), [])
        lines = output.decode().splitlines()
        cells = lines[2].split(",")
        cells[-1] = str(int(cells[-1]) + 1)  # one context switch too many
        corrupted = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
        self.assertTrue(check_output(TINY_TABLE, 9, corrupted.encode(), self.oracle))

    def test_corrupted_output_file_counts_toward_failed_ratio(self):
        with tempfile.TemporaryDirectory() as tmp:
            output, out = self.run_cli(TINY_EXPORT, tmp)
            self.assertEqual(check_output(TINY_EXPORT, 9, output, self.oracle), [])
            # the second process segment ends one ms late
            text = out.read_text()
            at = text.index('"end"', text.index('"end"') + 1)
            value_end = text.index("\n", at)
            number = text[at + 7:value_end].rstrip(",")
            text = text[:at + 7] + str(int(number) + 1) + text[at + 7 + len(number):]
            out.write_text(text)
            corrupted = out.read_bytes()
        self.assertTrue(check_output(TINY_EXPORT, 9, corrupted, self.oracle))
        tally = Tally()
        tally.add(True)  # the checked command
        tally.add_outputs({digest(output): 6, digest(corrupted): 1}, digest(output))
        self.assertEqual((tally.attempted, tally.failed), (8, 1))
        self.assertEqual(tally.ratio, 1 / 8)

    def test_no_reference_fails_every_command(self):
        tally = Tally()
        tally.add(False)
        tally.add_outputs({"abc": 3}, None)
        self.assertEqual((tally.attempted, tally.failed), (4, 4))


if __name__ == "__main__":
    unittest.main()
