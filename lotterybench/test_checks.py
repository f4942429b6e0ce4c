#!/usr/bin/env python3
"""Tests of the lottery-sweep benchmark's output checks.

An intact sweep passes every check, traced or not, and a tampered best
reward or a missing dataset row is counted as a failed config.  The
sweeps are small, so the whole file runs in seconds after the build:

    python3 lotterybench/test_checks.py
"""

import os
import shutil
import subprocess
import unittest

import run

FARSI = ["--env", "farsi-edge", "--agent", "RW", "--configs", "48",
         "--samples", "20", "--seed", "5", "--check-configs", "48"]


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.work = os.path.join(run.build_dir(), "test-work")
        shutil.rmtree(cls.work, ignore_errors=True)
        os.makedirs(cls.work)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def sweep(self, args, *extra):
        report = run.run_json([self.binary, "sweep", *args,
                                "--dir", os.path.join(self.work, "sweep"),
                                *extra])
        shutil.rmtree(os.path.join(self.work, "sweep"), ignore_errors=True)
        self.assertIsNotNone(report)
        self.assertEqual(report["configs"], 48)
        return report

    def test_intact_sweep_passes(self):
        self.assertEqual(self.sweep(FARSI)["failed"], 0)

    def test_traced_sweep_matches_untraced_reruns(self):
        report = self.sweep(FARSI, "--traced")
        self.assertEqual(report["failed"], 0)
        self.assertEqual(report["layers"]["envs.steps"], 48 * 20)
        self.assertEqual(report["layers"]["trajectory.load_rows"], 48 * 20)
        self.assertEqual(report["layers"]["driver.shards"], 3)

    def test_tampered_best_reward_fails_its_config(self):
        self.assertEqual(self.sweep(FARSI, "--tamper", "best-reward")["failed"],
                         1)

    def test_missing_dataset_row_fails_its_config(self):
        self.assertEqual(self.sweep(FARSI, "--tamper", "dataset-row")["failed"],
                         1)

    def test_dram_profile_then_generate_sweep_passes(self):
        trace = os.path.join(self.work, "emb.trace")
        cdf = os.path.join(self.work, "cdf.json")
        subprocess.run([self.binary, "gen-trace", "--out", trace,
                        "--len", "20000", "--seed", "5"], check=True)
        profile = run.run_json([self.binary, "profile", "--trace-in", trace,
                                "--out", cdf, "--setup-reps", "2"])
        self.assertEqual(len(profile["profile_s"]), 2)
        report = self.sweep(["--env", "dram-cloud2", "--agent", "GA",
                             "--configs", "48", "--samples", "10",
                             "--trace-len", "256", "--cdf", cdf,
                             "--seed", "5", "--check-configs", "8"],
                            "--traced")
        self.assertEqual(report["failed"], 0)


if __name__ == "__main__":
    unittest.main()
