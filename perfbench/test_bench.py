#!/usr/bin/env python3
"""Tests of the repository benchmark itself (not of the program).

    python3 perfbench/test_bench.py            # ~3 min on 4 cores

Runs each workload at its smallest size and checks that every metric of
BENCHMARK.json is emitted with its unit, that the deterministic counts of
the traced run repeat exactly at one seed, that the traced run keeps its
spans under .bench_build/work/<workload>/trace/, that a corrupted pinned digest
is reported as a failed operation, that --pin reproduces the pinned
digests, that every serve_mix key succeeds cold,
and that the benchmark refuses to run without the repository sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SPEC = bench.load_json(os.path.join(ROOT, "BENCHMARK.json"))
TINY_REQUESTS = "120"  # every key once plus 40 Zipf draws
# A span each traced workload must record around a layer call.
SPANS = {"cosim_ber": "uwb.run_ber_sweep[spice]",
         "netscale": "net.NetScaleEngine::run",
         "serve_mix": "serve.ScenarioService::handle_line"}


def invoke(workload, seed=1, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    if workload == "serve_mix":
        cmd += ["--requests", TINY_REQUESTS]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = res.stdout.strip().splitlines()
    return res.returncode, json.loads(lines[-1]) if lines else None, res


def deterministic(metrics):
    names = [n for n in metrics if n.startswith("spice.")
             and n not in ("spice.point_s", "spice.ns_per_step")]
    return {n: metrics[n]["value"] for n in
            names + ["net.toa_draws", "net.exchanges", "serve.computations"]}


def host_line(res):
    return json.loads(res.stdout.strip().splitlines()[-2])["host"]


class Benchmark(unittest.TestCase):
    def check_output(self, out, declared):
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(out["correct"], True, out)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(set(out["metrics"]), {d["name"] for d in declared})
        for d in declared:
            m = out["metrics"][d["name"]]
            self.assertEqual(m["unit"], d["unit"], d["name"])
            self.assertTrue(math.isfinite(m["value"]), d["name"])

    def test_end_to_end_metrics(self):
        for wl in bench.WORKLOADS:
            with self.subTest(workload=wl):
                rc, out, res = invoke(wl)
                self.assertEqual(rc, 0, res.stderr)
                self.check_output(out, SPEC["end_to_end"])
                for d in SPEC["end_to_end"]:
                    self.assertGreater(out["metrics"][d["name"]]["value"], 0,
                                       d["name"])

    def test_traced_counts_repeat(self):
        for wl in bench.WORKLOADS:
            with self.subTest(workload=wl):
                runs = []
                for _ in range(2):
                    rc, out, res = invoke(wl, trace=1)
                    self.assertEqual(rc, 0, res.stderr)
                    self.check_output(out, SPEC["per_layer"])
                    runs.append(deterministic(out["metrics"]))
                    unmeasured = host_line(res)["unmeasured"]
                    self.check_spans(wl)
                self.assertEqual(runs[0], runs[1])
                # Measured on every workload, never a default.
                for n in runs[0]:
                    if n.startswith("spice.workload."):
                        self.assertNotIn(n, unmeasured)
                if wl == "netscale":  # a spice change predicts no change here
                    self.assertEqual(runs[0]["spice.workload.steps"], 0)
                else:  # serve_mix misses run fig5_transient, mc_itd, ...
                    self.assertGreater(runs[0]["spice.workload.steps"], 0)
                if wl == "netscale":
                    self.assertGreater(runs[0]["net.toa_draws"], 0)
                if wl == "serve_mix":
                    self.assertEqual(runs[0]["serve.computations"],
                                     len(bench.SERVE_KEYS))

    def check_spans(self, wl):
        path = os.path.join(bench.WORK, wl, "trace", "spans.jsonl")
        with open(path) as f:
            spans = [json.loads(line) for line in f]
        self.assertTrue(spans, path)
        for s in spans:
            self.assertGreaterEqual(s["t1"], s["t0"], s)
        self.assertIn(SPANS[wl], {s["name"] for s in spans})
        # Nothing bulky of the run stays behind.
        self.assertEqual(os.listdir(os.path.join(bench.WORK, wl)), ["trace"])

    def test_corrupted_digest_is_a_failed_operation(self):
        pins = bench.load_json(os.path.join(HERE, "pins.json"))
        seed = bench.scenario_seed(pins, "netscale", 1)
        rel = "net/netscale_static/rounds.csv"
        digest = pins["netscale"][str(seed)][rel]
        pins["netscale"][str(seed)][rel] = ("0" if digest[0] != "0"
                                            else "1") + digest[1:]
        os.makedirs(bench.WORK, exist_ok=True)
        path = os.path.join(bench.WORK, "corrupted_pins.json")
        with open(path, "w") as f:
            json.dump(pins, f)
        try:
            rc, out, res = invoke("netscale", extra=["--pins", path])
        finally:
            os.remove(path)
        self.assertEqual(rc, 0, res.stderr)
        self.assertIs(out["correct"], False)
        # One failed operation per repetition, each the corrupted digest.
        failures = [l for l in res.stderr.splitlines()
                    if l.startswith("FAILED: ")]
        self.assertEqual(len(failures), out["failed"])
        self.assertGreaterEqual(out["failed"], 1)
        for line in failures:
            self.assertEqual(line, "FAILED: digest mismatch: " + rel)

    def test_pin_reproduces_pins(self):
        # --pin on one pinned seed per workload must rewrite the digests
        # this build already has, byte for byte.
        pins = bench.load_json(os.path.join(HERE, "pins.json"))
        one = {wl: {s: v for s, v in sorted(seeds.items())[:1]}
               for wl, seeds in pins.items()}
        os.makedirs(bench.WORK, exist_ok=True)
        path = os.path.join(bench.WORK, "repin.json")
        with open(path, "w") as f:
            json.dump({wl: {s: {} for s in seeds} for wl, seeds in one.items()},
                      f)
        try:
            res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                  "--pin", "--pins", path], cwd=ROOT,
                                 capture_output=True, text=True, timeout=900)
            self.assertEqual(res.returncode, 0, res.stderr)
            self.assertEqual(bench.load_json(path), one)
        finally:
            os.remove(path)

    def test_every_serve_key_succeeds_cold(self):
        bench.build()
        rep_dir = os.path.join(bench.WORK, "test-serve-keys")
        shutil.rmtree(rep_dir, ignore_errors=True)
        os.makedirs(rep_dir)
        lines = bench.serve_requests(1, len(bench.SERVE_KEYS))
        self.assertEqual(len(set(lines)), len(bench.SERVE_KEYS))
        try:
            s = bench.drive_server(
                {"serve_jobs": max(1, bench.nproc() - 1), "conns": 1},
                rep_dir, lines)
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        for line, rec in zip(lines, s["records"]):
            parsed = bench.parse_response(rec[1]) if rec else None
            self.assertIsNotNone(parsed, line)
            self.assertEqual(parsed[0], "miss", line)

    def test_refuses_without_sources(self):
        bare = os.path.join(bench.WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
            res = subprocess.run(
                SPEC["command"] + ["--workload", "serve_mix", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
