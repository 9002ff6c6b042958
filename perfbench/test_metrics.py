"""Self-tests of the benchmark's own arithmetic and process handling.

    python3 perfbench/test_metrics.py
"""

import os
import shutil
import socket
import struct
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import server  # noqa: E402

# A stand-in for `resopt-cli serve`: answers every framed request on the
# Unix socket argv[1] with `ok`.  argv[2] == "ignore-term" makes it
# ignore SIGTERM.
FAKE_SERVER = r"""
import os, signal, socket, struct, sys
if len(sys.argv) > 2 and sys.argv[2] == "ignore-term":
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.bind(sys.argv[1]); s.listen(4)
while True:
    c, _ = s.accept()
    n = struct.unpack(">I", c.recv(4))[0]
    c.recv(n)
    c.sendall(struct.pack(">I", 3) + b"ok\n")
    c.close()
"""


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(metrics.percentile(xs, 50), 50)
        self.assertEqual(metrics.percentile(xs, 90), 90)
        self.assertEqual(metrics.percentile(xs, 99), 99)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)

    def test_ten_samples_beyond(self):
        self.assertEqual(metrics.beyond(1000, 99), 10)
        self.assertTrue(metrics.reportable(1000, 99))
        self.assertFalse(metrics.reportable(999, 99))
        self.assertTrue(metrics.reportable(100, 90))
        self.assertFalse(metrics.reportable(99, 90))
        self.assertTrue(metrics.reportable(20, 50))
        self.assertFalse(metrics.reportable(19, 50))

    def test_tail_omits_unsupported_percentiles(self):
        self.assertEqual(metrics.tail_percentile(5000), 99)
        self.assertEqual(metrics.tail_percentile(999), 90)  # p99 omitted
        self.assertEqual(metrics.tail_percentile(100), 90)
        self.assertEqual(metrics.tail_percentile(99), 50)  # p90 omitted too
        self.assertEqual(metrics.tail_percentile(20), 50)
        self.assertIsNone(metrics.tail_percentile(19))


class Geomean(unittest.TestCase):
    def test_over_rows(self):
        mean, used, left_out = metrics.geomean([2.0, 8.0])
        self.assertAlmostEqual(mean, 4.0)
        self.assertEqual((used, left_out), (2, 0))
        mean, _, _ = metrics.geomean([2.0, 2.0, 2.0, 16.0])
        self.assertAlmostEqual(mean, 2.0 ** 1.75)

    def test_zero_rows_left_out_and_counted(self):
        mean, used, left_out = metrics.geomean([0.0, 0.0, 5.0])
        self.assertAlmostEqual(mean, 5.0)
        self.assertEqual((used, left_out), (1, 2))

    def test_no_rows(self):
        mean, used, _ = metrics.geomean([])
        self.assertTrue(mean != mean)  # NaN
        self.assertEqual(used, 0)


class ErrorRate(unittest.TestCase):
    def test_counts_every_kind(self):
        self.assertEqual(metrics.error_rate(100), 0.0)
        self.assertAlmostEqual(
            metrics.error_rate(100, exception=1, invalid_row=2,
                               nondeterministic=3, bad_response=4,
                               start_failure=5), 0.15)

    def test_needs_attempts(self):
        with self.assertRaises(ValueError):
            metrics.error_rate(0)


class Spans(unittest.TestCase):
    # cell [0, 10] with children pipeline [1, 3] and validate [3, 9];
    # validate has a child [4, 5]
    SPANS = [
        (1, 0, 0, "pipeline", 1.0, 3.0),
        (3, 2, 0, "inner", 4.0, 5.0),
        (2, 0, 0, "validate", 3.0, 9.0),
        (0, -1, 0, "cell", 0.0, 10.0),
    ]

    def test_self_time(self):
        t = metrics.span_times(self.SPANS)
        self.assertEqual(t["cell"], (1, 10.0, 2.0))
        self.assertEqual(t["validate"], (1, 6.0, 5.0))
        self.assertEqual(t["pipeline"], (1, 2.0, 2.0))

    def test_unattributed(self):
        self.assertAlmostEqual(metrics.unattributed_share(self.SPANS, "cell"), 0.2)
        self.assertEqual(metrics.unattributed_share([], "cell"), 0.0)


class SpeedScaling(unittest.TestCase):
    # calibrations (midpoint, seconds): the kernel takes 1 s up to t=10,
    # then 2 s (the machine got twice as slow)
    CAL = [(float(t), 1.0 if t < 10 else 2.0) for t in range(0, 21)]

    def test_factor_follows_nearby_calibrations(self):
        f = metrics.speed_factors(self.CAL, [(2.0, 4.0), (15.0, 17.0)], 1.0)
        self.assertEqual(f, [1.0, 0.5])

    def test_median_ignores_one_outlier(self):
        cal = [(0.0, 1.0), (1.0, 1.0), (2.0, 9.0), (3.0, 1.0), (4.0, 1.0)]
        self.assertEqual(metrics.speed_factors(cal, [(1.5, 2.5)], 2.0), [2.0])

    def test_scaled_work_is_steady_across_speeds(self):
        # the same second of work measured at both speeds
        f = metrics.speed_factors(self.CAL, [(2.0, 3.0), (15.0, 17.0)], 1.0)
        self.assertEqual(1.0 * f[0], 2.0 * f[1])

    def test_ops_take_their_segment_factor(self):
        segs = [(0.0, 1.0, 0.0), (1.0, 2.0, 0.0)]
        self.assertEqual(metrics.scale_ops([-1.0, 0.5, 1.0, 1.5], [1.0, 1.0, 1.0, 2.0],
                                           segs, [3.0, 5.0]), [3.0, 3.0, 5.0, 10.0])

    def test_needs_calibrations(self):
        with self.assertRaises(ValueError):
            metrics.speed_factors([], [(0.0, 1.0)], 1.0)


class MetricNames(unittest.TestCase):
    def test_run_reports_what_benchmark_json_declares(self):
        import json
        import run
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(root, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            declared = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in declared["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([(m["name"], m["unit"]) for m in declared["end_to_end"]],
                         list(run.END_TO_END))


def answers(path):
    """The tests' readiness probe: the fake server answers `ok`."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(1.0)
            s.connect(path)
            s.sendall(struct.pack(">I", 4) + b"ping")
            return s.recv(7) == struct.pack(">I", 3) + b"ok\n"
    except OSError:
        return False


class ServerProcess(unittest.TestCase):
    def setUp(self):
        self.dir = os.path.join(".perfbench", f"test-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.sock = os.path.join(self.dir, "s.sock")

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_start_ping_and_sigterm(self):
        proc, ready = server.start([sys.executable, "-c", FAKE_SERVER, self.sock],
                                   self.sock, answers, timeout=10)
        self.assertGreater(ready, 0.0)
        self.assertTrue(answers(self.sock))
        code = server.stop(proc)
        self.assertIsNotNone(proc.poll())
        self.assertEqual(code, -15)

    def test_server_that_exits_is_a_start_failure(self):
        t0 = time.perf_counter()
        with self.assertRaises(server.StartFailure):
            server.start([sys.executable, "-c", "import sys; sys.exit(3)"],
                         self.sock, answers, timeout=10)
        self.assertLess(time.perf_counter() - t0, 5)

    def test_silent_server_never_hangs(self):
        t0 = time.perf_counter()
        with self.assertRaises(server.StartFailure):
            server.start([sys.executable, "-c", "import time; time.sleep(60)"],
                         self.sock, answers, timeout=0.5)
        self.assertLess(time.perf_counter() - t0, 5)

    def test_sigterm_ignored_then_killed(self):
        proc, _ = server.start(
            [sys.executable, "-c", FAKE_SERVER, self.sock, "ignore-term"],
            self.sock, answers, timeout=10)
        code = server.stop(proc, grace=0.3)
        self.assertEqual(code, -9)


if __name__ == "__main__":
    unittest.main()
