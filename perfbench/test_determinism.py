#!/usr/bin/env python3
"""Determinism self-test of the benchmark, at small sizes.

Run from the root of the repository:

    python3 perfbench/test_determinism.py

For every workload it checks that
  * two untraced runs of one seed print identical exact counts
    (deliveries, words, failures and the digest of every agreed output);
  * the traced run of that seed prints the same exact counts, so tracing
    is passive;
  * another seed changes them.
Runs use small n and few slots or BA instances, so the test takes seconds.
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
UNITS = {"log-bracha": 5, "log-ec": 5, "ba-faulty": 12}


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace),
         "--units", str(UNITS[workload]), "--small"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    exact = [l for l in proc.stderr.splitlines() if l.startswith("exact ")]
    result = json.loads(proc.stdout.splitlines()[-1])
    return json.loads(exact[-1][len("exact "):]), result


class Determinism(unittest.TestCase):
    def check(self, workload):
        first, result = run(workload, 11, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], first["attempted"])
        self.assertGreater(first["deliveries"], 0)
        again, _ = run(workload, 11, 0)
        self.assertEqual(first, again, "same seed, different counts")
        traced, traced_result = run(workload, 11, 1)
        self.assertTrue(traced_result["correct"])
        self.assertEqual(first, traced, "tracing changed the run")
        other, _ = run(workload, 12, 0)
        self.assertNotEqual(first, other, "seed does not reach the inputs")

    def test_log_bracha(self):
        self.check("log-bracha")

    def test_log_ec(self):
        self.check("log-ec")

    def test_ba_faulty(self):
        self.check("ba-faulty")


if __name__ == "__main__":
    unittest.main()
