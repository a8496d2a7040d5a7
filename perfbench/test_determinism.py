#!/usr/bin/env python3
"""Determinism tests for the benchmark's deterministic counts.

    python3 perfbench/test_determinism.py

Builds the binaries as run.py does, then runs single repetitions with
--counts (small fleets, so the suite takes about a minute):

  * one seed run twice gives identical counts, allocation counts included
    (the traced binary, both engines) and paper_err_pct on paper-grid;
  * fleet-h11-dumbbell-t2 (2 threads) gives the counts of a 1-thread run at
    the same fixed shard count;
  * a different seed gives different counts on a fleet and on the grid, so
    --seed reaches the generators.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL_FLEET = "60"


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build()

    def counts(self, workload, seed, *extra, traced=True):
        binary = os.path.join(self.out, "perfbench_traced" if traced else "perfbench")
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--counts", *extra],
            capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_same_seed_repeats_exactly(self):
        for workload in ("fleet-h11-dumbbell", "fleet-h2-star",
                         "fleet-h11-dumbbell-t2"):
            with self.subTest(workload=workload):
                a = self.counts(workload, 7, "--clients", SMALL_FLEET)
                b = self.counts(workload, 7, "--clients", SMALL_FLEET)
                self.assertGreater(a["sim.events"], 0)
                self.assertGreater(a["alloc.count"], 0)
                self.assertEqual(a, b)

    def test_paper_grid_repeats_exactly(self):
        a = self.counts("paper-grid", 7, traced=False)
        b = self.counts("paper-grid", 7, traced=False)
        self.assertGreater(a["paper_err_pct"], 0)
        self.assertEqual(a, b)

    def test_two_threads_match_one_thread(self):
        t2 = self.counts("fleet-h11-dumbbell-t2", 7, "--clients", SMALL_FLEET,
                         traced=False)
        t1 = self.counts("fleet-h11-dumbbell-t2", 7, "--clients", SMALL_FLEET,
                         "--threads", "1", traced=False)
        self.assertGreater(t2["sim.events"], 0)
        self.assertEqual(t2, t1)

    def test_seed_reaches_the_generator(self):
        a = self.counts("fleet-h11-dumbbell", 7, "--clients", SMALL_FLEET)
        b = self.counts("fleet-h11-dumbbell", 8, "--clients", SMALL_FLEET)
        self.assertNotEqual(a["sim.events"], b["sim.events"])
        self.assertNotEqual(a["net.link.packets_sent"], b["net.link.packets_sent"])
        grid_a = self.counts("paper-grid", 7, traced=False)
        grid_b = self.counts("paper-grid", 8, traced=False)
        self.assertNotEqual(grid_a, grid_b)


if __name__ == "__main__":
    unittest.main()
