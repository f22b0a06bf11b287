#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic and output check.

    python3 perfbench/test_perfbench.py

The last test builds hnoc_perfbench (as run.py does) and runs a small
batch at 1 and at nproc pool threads.
"""

import copy
import unittest

import analysis
import run


def noc_point(host_s, cycles, saturated, tiles=64, **extra):
    p = {"ok": True, "start_s": 1.0, "end_s": 1.0 + host_s,
         "sim_cycles": cycles, "tiles": tiles, "saturated": saturated,
         "watchdog_trips": 0, "created": 100,
         "delivered": 90 if saturated else 100, "latency_ns": 12.5,
         "accepted": 0.02, "power_w": 1.25}
    p.update(extra)
    return p


def cmp_point():
    return {"ok": True, "start_s": 0.0, "end_s": 1.0, "sim_cycles": 7500,
            "tiles": 64, "watchdog_trips": 0, "latency_ns": 30.0,
            "ipc": 0.8, "power_w": 2.0, "packets": 1000, "l1_misses": 400,
            "injected": 1000, "net_delivered": 990, "in_flight": 10,
            "credit_ok": True, "setup_s": 0.25, "warm_s": 0.2}


class Stats(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [8, 1, 7, 2, 6, 3, 5, 4]
        self.assertEqual(analysis.median(values), 4.5)
        self.assertEqual(analysis.quartiles(values), (2.25, 4.5, 6.75))
        self.assertAlmostEqual(analysis.spread(values), 1.0)
        self.assertEqual(analysis.spread([3.0] * 5), 0.0)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(analysis.tail_percentile(9))
        self.assertIsNone(analysis.tail_percentile(99))
        self.assertEqual(analysis.tail_percentile(100), 90.0)
        self.assertEqual(analysis.tail_percentile(999), 90.0)
        self.assertEqual(analysis.tail_percentile(1000), 99.0)
        self.assertEqual(analysis.tail_percentile(10000), 99.9)

    def test_nearest_rank_percentile(self):
        values = list(range(100, 0, -1))
        self.assertEqual(analysis.percentile(values, 90), 90)
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile([7.0], 99), 7.0)


class Layers(unittest.TestCase):
    def test_presat_sat_split(self):
        points = [noc_point(0.5, 1000, False), noc_point(1.5, 1000, False),
                  noc_point(2.0, 500, True, tiles=16), cmp_point()]
        presat, sat = analysis.split_presat_sat(points)
        self.assertAlmostEqual(presat, 2.0e9 / (2000 * 64))
        self.assertAlmostEqual(sat, 2.0e9 / (500 * 16))
        self.assertEqual(analysis.split_presat_sat(points[:2])[1], 0.0)

    def test_pool_tail(self):
        # Two workers: the one done at 1.0 takes the last point at 1.0;
        # the other finds the queue empty at 2.0; the batch ends at 3.0.
        points = [dict(start_s=0.0, end_s=1.0), dict(start_s=0.0, end_s=2.0),
                  dict(start_s=1.0, end_s=3.0)]
        self.assertAlmostEqual(analysis.pool_tail_s(points, 3.0, 2), 1.0)
        # Fewer points than workers: idle workers see the empty queue
        # at once, so the whole batch is tail.
        self.assertEqual(analysis.pool_tail_s(points[:1], 1.0, 4), 1.0)


class OutputCheck(unittest.TestCase):
    def test_digest_covers_outputs_not_host_time(self):
        p = noc_point(0.5, 1000, False)
        q = copy.deepcopy(p)
        q["end_s"] += 1.0
        self.assertEqual(analysis.digest(p), analysis.digest(q))
        q["latency_ns"] = 12.500000000000002
        self.assertNotEqual(analysis.digest(p), analysis.digest(q))
        c = cmp_point()
        d = dict(c, ipc=0.81)
        self.assertNotEqual(analysis.digest(c), analysis.digest(d))

    def test_invariants(self):
        self.assertEqual(analysis.point_problems(noc_point(1, 10, True)), [])
        bad = noc_point(1, 10, False, delivered=99)
        self.assertTrue(analysis.point_problems(bad))
        self.assertTrue(analysis.point_problems(dict(cmp_point(),
                                                     credit_ok=False)))
        self.assertTrue(analysis.point_problems(dict(cmp_point(),
                                                     in_flight=11)))
        self.assertTrue(analysis.point_problems(
            dict(cmp_point(), watchdog_trips=1)))
        self.assertTrue(analysis.point_problems({"ok": False,
                                                 "error": "boom"}))

    def test_check_batches(self):
        points = [noc_point(1, 10, False), cmp_point()]
        b0 = {"index": 0, "points": points}
        b1 = {"index": 1, "points": copy.deepcopy(points)}
        attempted, failed, _, digests = analysis.check_batches([b0, b1])
        self.assertEqual((attempted, failed), (4, 0))
        self.assertEqual(analysis.check_batches([b0, b1], digests)[1], 0)
        self.assertEqual(analysis.check_batches(
            [b0, b1], [digests[0], "0" * 16])[1], 2)
        b1["points"][0]["power_w"] = 9.0
        self.assertEqual(analysis.check_batches([b0, b1])[1], 1)


class DigestAcrossThreads(unittest.TestCase):
    POINTS = ["noc Baseline 8 0.02 200 500 1000 5",
              "noc Diagonal+BL 8 0.068 200 500 1000 5",
              "cmp Diagonal+BL vips 500 100 300 5"]

    def test_digest_stable_across_pool_sizes(self):
        run.build()
        digests = []
        for threads in sorted({1, run.pool_threads()}):
            records = run.run_binary(self.POINTS, 0, True, threads,
                                     min_batches=1)
            batches = [r for r in records if r["kind"] == "batch"]
            self.assertEqual(len(batches), 3)  # warm-up, plain, traced
            attempted, failed, messages, d = analysis.check_batches(batches)
            self.assertEqual(failed, 0, messages)
            digests.append(d)
        self.assertEqual(digests[0], digests[-1])


if __name__ == "__main__":
    unittest.main()
