#!/usr/bin/env python3
"""Self-tests of the benchmark: the tail-percentile rule, hit/miss
classification, the seeded request generator, the fidelity scorer on a
synthetic CSV with a known answer, and (building bench_fig5_speedup) the
scorer against the harness's own Figure 5 geomean rows.

    python3 perfbench/test_pblib.py            # everything
    python3 perfbench/test_pblib.py PureTests  # skip the build
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pblib  # noqa: E402


def read(path):
    with open(path) as f:
        return f.read()


def synthetic_rows(ratio):
    """A fig5 grid where every scheme runs @p ratio(bench, scheme) times
    faster than in-order (in-order = 1000000 cycles)."""
    rows = []
    for bench in pblib.FIG5_BENCHES:
        rows.append({"bench": bench, "core": "in-order",
                     "cycles": "1000000"})
        for scheme in pblib.FIG5_CORES[1:]:
            rows.append({"bench": bench, "core": scheme,
                         "cycles": str(round(1000000 /
                                             ratio(bench, scheme)))})
    return rows


class PureTests(unittest.TestCase):
    def test_tail_percentile_leaves_exactly_ten_beyond(self):
        samples = list(range(100, 0, -1))  # 1..100, unsorted
        value, pct, n = pblib.tail_percentile(samples)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(n, 100)

    def test_tail_percentile_small_counts(self):
        self.assertIsNone(pblib.tail_percentile(list(range(10))))
        value, pct, n = pblib.tail_percentile(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)
        value, pct, _ = pblib.tail_percentile(list(range(48)))
        self.assertEqual(value, 37)
        self.assertAlmostEqual(pct, 100.0 * 38 / 48)

    def test_classify_uses_the_cached_field(self):
        self.assertEqual(pblib.classify({"type": "result", "cached": 1}),
                         "hit")
        self.assertEqual(pblib.classify({"type": "result", "cached": 0}),
                         "miss")
        self.assertEqual(pblib.classify({"type": "result"}), "miss")

    def test_miss_summary_falls_back_to_the_slowest_sample(self):
        self.assertEqual(pblib.miss_summary([3, 1, 2]), (2, 3, 100.0, 3))
        p50, tail, pct, n = pblib.miss_summary(list(range(1, 21)))
        self.assertEqual((p50, tail, pct, n), (10.5, 10, 50.0, 20))

    def test_cell_latencies_take_each_cells_fastest_pass(self):
        # 3 passes over 2 cells, pass-major.
        self.assertEqual(pblib.cell_latencies([2, 10, 3, 30, 1, 20], 2),
                         [1, 10])

    def test_request_generator_is_deterministic(self):
        a = pblib.service_requests(7, 100000)
        self.assertEqual(a, pblib.service_requests(7, 100000))
        self.assertNotEqual(a, pblib.service_requests(8, 100000))

    def test_request_generator_fixed_multiset(self):
        def shape(requests):
            seen, misses, hits = set(), [], 0
            for r in requests:
                key = pblib.grid_key(r)
                if key in seen:
                    hits += 1
                else:
                    seen.add(key)
                    misses.append((r["benches"], r["cores"]))
            return sorted(misses), hits

        shapes = [shape(pblib.service_requests(s, 100000))
                  for s in range(1, 6)]
        self.assertTrue(all(s == shapes[0] for s in shapes))
        misses, hits = shapes[0]
        self.assertEqual(len(misses), 3 * 14)
        self.assertEqual(hits, 9)

    def test_core_orders_are_distinct_orders_of_all_cores(self):
        orders = pblib.core_orders()
        self.assertEqual(len(set(orders)), 14)
        self.assertEqual(orders[0], ",".join(pblib.ALL_CORES))
        for order in orders:
            self.assertEqual(sorted(order.split(",")),
                             sorted(pblib.ALL_CORES))

    def test_request_generator_generates_before_replaying(self):
        first = {}
        for i, r in enumerate(pblib.service_requests(3, 100000)):
            first.setdefault(r["seed"], (i, r["cores"]))
        for _, cores in first.values():
            self.assertEqual(cores, ",".join(pblib.ALL_CORES))

    def test_fidelity_known_answer_uniform(self):
        rows = synthetic_rows(lambda b, s: 1.10)
        geo = pblib.fig5_geomeans(rows)
        for scheme in pblib.PAPER_FIG5:
            for split in ("fp", "int", "all"):
                self.assertAlmostEqual(geo[scheme][split], 10.0, places=3)
        # |10 - paper| over icfp 21/12/16, mp 15/7/11, ra 15/7/11,
        # sltp 12/5/9: (11+2+6 + 5+3+1 + 5+3+1 + 2+5+1) / 12.
        self.assertAlmostEqual(pblib.fidelity_err_pp(rows), 45 / 12,
                               places=3)

    def test_fidelity_known_answer_fp_int_split(self):
        rows = synthetic_rows(
            lambda b, s: 1.21 if b in pblib.SPEC_FP else 1.0)
        geo = pblib.fig5_geomeans(rows)
        self.assertAlmostEqual(geo["icfp"]["fp"], 21.0, places=3)
        self.assertAlmostEqual(geo["icfp"]["int"], 0.0, places=3)
        self.assertAlmostEqual(geo["icfp"]["all"], 10.0, places=3)
        # icfp 0+12+6, mp 6+7+1, ra 6+7+1, sltp 9+5+1.
        self.assertAlmostEqual(pblib.fidelity_err_pp(rows), 61 / 12,
                               places=3)

    def test_spread(self):
        med, q1, q3, rel = pblib.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(rel, (q3 - q1) / 5.5)

    def test_self_times_subtract_same_thread_children(self):
        def span(name, sid, parent, thread, dur):
            return {"name": name, "ph": "X", "pid": 1, "ts": 0,
                    "dur": dur, "args": {"id": sid, "parent": parent,
                                         "thread": thread}}
        table = pblib.self_times([span("outer", "1", "0", "0", 100),
                                  span("inner", "2", "1", "0", 30),
                                  span("worker", "3", "1", "1", 80)])
        self.assertEqual(table["outer"], (1, 100, 70))
        self.assertEqual(table["inner"], (1, 30, 30))
        self.assertEqual(table["worker"], (1, 80, 80))


class Fig5CrossCheck(unittest.TestCase):
    """fidelity_err_pp from the benchmark's own fig5 sweep equals the
    value derived from bench_fig5_speedup at the same budget, and the
    scorer reproduces the harness's printed geomean rows."""

    def test_scorer_matches_bench_fig5_speedup(self):
        import run
        run.build()
        subprocess.run(["cmake", "--build", run.BUILD, "-j", "4",
                        "--target", "bench_fig5_speedup"],
                       stdout=sys.stderr, check=True)
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            env = run.clean_env()
            env.update(ICFP_BENCH_INSTS="200000", ICFP_SWEEP_JOBS="2",
                       ICFP_BENCH_CSV=os.path.join(tmp, "bench.csv"))
            table = subprocess.run(
                [os.path.join(run.BUILD, "icfp", "bench_fig5_speedup")],
                env=env, stdout=subprocess.PIPE, text=True,
                check=True).stdout
            bench_rows = pblib.parse_sweep_csv(
                read(os.path.join(tmp, "bench.csv")))
            fig5 = run.Run("crosscheck")
            code, _ = run.driver(run.sweep_args(run.SWEEPS["fig5-cold"],
                                                fig5, 1, "fig5"))
            self.assertEqual(code, 0)
            driver_rows = pblib.parse_sweep_csv(read(fig5.path("fig5.csv")))
            shutil.rmtree(fig5.dir)
        self.assertEqual(pblib.fidelity_err_pp(driver_rows),
                         pblib.fidelity_err_pp(bench_rows))
        geo = pblib.fig5_geomeans(bench_rows)
        order = ["runahead", "multipass", "sltp", "icfp"]  # table columns
        for label, split in (("SPECfp geomean", "fp"),
                             ("SPECint geomean", "int"),
                             ("SPEC geomean", "all")):
            line = next(l for l in table.splitlines()
                        if l.startswith(label))
            printed = [float(x) for x in re.findall(r"-?\d+\.\d", line)][1:]
            self.assertEqual(printed,
                             [float(f"{geo[s][split]:.1f}") for s in order])


if __name__ == "__main__":
    unittest.main()
