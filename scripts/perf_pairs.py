#!/usr/bin/env python3
"""Alternating parent/change runs of the repository benchmark.

    python3 scripts/perf_pairs.py --parent HEAD~1 --workload paper_cold \\
        --pairs 8 --seconds 45 --seed 9001
    python3 scripts/perf_pairs.py --self-test

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
in two trees, pair after pair: the change (this checkout, or --change) and
the parent (--parent-dir, or the tree of --parent exported with
`git archive` into <work>/parent; an exported tree registers nothing in
the repository, so an interrupted run leaves no worktree behind). Each
side builds into its own CARGO_TARGET_DIR under <work>, since a build tree
is tied to its source path. Pair i runs with seed S + i, and the side that
runs first alternates. Every run's output is kept in <work>/runs.

Prints each pair's metrics and completed queries (the result line's
`attempted - failed`), then for every end-to-end metric the median
[q1, q3] per side, the change/parent ratio of the medians and the number
of pairs the change won (the direction comes from BENCHMARK.json), then
the per-query floor medians when the workload prints them. Last, it fits
`rss_mb = a + b * completed` over every run of both sides and prints each
side's median residual from that line: perfbench keeps one latency sample
per completed query, so a change that completes more queries reads a
higher `rss_mb` by about b per query, and the residuals show what memory
the change adds beside that. Exits 1 when a run fails or reports
`correct: false`. It only reads perfbench's output.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLOORS_RE = re.compile(r"^# per-query floors \(us\):((?: [0-9.]+)+)\s*$")


def parse_run(stdout):
    """The result of one perfbench run: (correct, metrics, floors,
    completed).

    `metrics` maps each metric name to its value; `floors` lists the
    per-query floors in query order, or is empty when not printed;
    `completed` is the result line's attempted - failed.
    Raises ValueError when the last line is not a result.
    """
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    metrics = {name: float(m["value"])
               for name, m in result.get("metrics", {}).items()}
    floors = []
    for line in lines:
        match = FLOORS_RE.match(line)
        if match:
            floors = [float(x) for x in match.group(1).split()]
    failed = int(result.get("failed", 0))
    correct = bool(result.get("correct")) and failed == 0
    completed = int(result.get("attempted", 0)) - failed
    return correct, metrics, floors, completed


def quartiles(values):
    """(q1, median, q3) of `values`, interpolating between ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def directions(benchmark_json):
    """Maps each end-to-end metric of BENCHMARK.json to "lower"/"higher"."""
    with open(benchmark_json) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def summarize(pairs, better):
    """Lines comparing the sides. `pairs` is a list of (parent, change)
    results as parse_run returns them; `better` is directions()."""
    out = []
    names = [n for n in pairs[0][0][1] if n in pairs[0][1][1]]
    out.append("%-24s %30s %30s %7s %5s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "ratio", "wins"))
    for name in names:
        parent = [p[1][name] for p, _ in pairs]
        change = [c[1][name] for _, c in pairs]
        pq = quartiles(parent)
        cq = quartiles(change)
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        out.append("%-24s %30s %30s %7.3f %2d/%-2d" % (
            name, "%.6g [%.6g, %.6g]" % (pq[1], pq[0], pq[2]),
            "%.6g [%.6g, %.6g]" % (cq[1], cq[0], cq[2]), ratio, wins,
            len(pairs)))
    parent_floors = [p[2] for p, _ in pairs if p[2]]
    change_floors = [c[2] for _, c in pairs if c[2]]
    if parent_floors and change_floors:
        out.append("per-query floor medians (us), parent -> change:")
        for q in range(min(len(parent_floors[0]), len(change_floors[0]))):
            before = statistics.median(f[q] for f in parent_floors)
            after = statistics.median(f[q] for f in change_floors)
            out.append("  Q%d %8.1f -> %8.1f  (%+.1f%%)" % (
                q + 1, before, after, 100.0 * (after / before - 1.0)
                if before else float("nan")))
    return out


def rss_fit(pairs):
    """Lines fitting rss_mb = a + b * completed by least squares over every
    run of both sides, with each side's median residual from the line.
    Empty when rss_mb is missing or the completed counts do not vary."""
    runs = [(side, r[3], r[1]["rss_mb"]) for pair in pairs
            for side, r in zip(("parent", "change"), pair)
            if "rss_mb" in r[1]]
    if len(runs) < 3 or len({x for _, x, _ in runs}) < 2:
        return []
    mean_x = statistics.fmean(x for _, x, _ in runs)
    mean_y = statistics.fmean(y for _, _, y in runs)
    b = (sum((x - mean_x) * (y - mean_y) for _, x, y in runs) /
         sum((x - mean_x) ** 2 for _, x, _ in runs))
    a = mean_y - b * mean_x
    residual = {side: statistics.median(y - (a + b * x)
                                        for s, x, y in runs if s == side)
                for side in ("parent", "change")}
    return [
        "rss_mb = %.4g + %.4g * completed over %d runs (%.1f B per "
        "completed query)" % (a, b, len(runs), b * 1024 * 1024),
        "  median residual (MB): parent %+.3f, change %+.3f, change - "
        "parent %+.3f" % (residual["parent"], residual["change"],
                          residual["change"] - residual["parent"])]


def pair_line(index, seed, parent_first, parent, change):
    """One pair's metrics and completed queries, parent/change."""
    cells = ["%s=%.6g/%.6g" % (name, parent[1][name], change[1][name])
             for name in parent[1] if name in change[1]]
    cells.append("completed=%d/%d" % (parent[3], change[3]))
    return "pair %d seed %d (%s first): %s" % (
        index + 1, seed, "parent" if parent_first else "change",
        " ".join(cells))


def export_parent(rev, dest):
    """Writes the tree of `rev` into `dest` with git archive."""
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % rev)


def run_side(tree, target, workload, seed, seconds, log_path):
    """Runs perfbench in `tree`; returns parse_run's result, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace",
               "0"]
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    with open(log_path, "w") as log:
        log.write(done.stdout)
    try:
        correct, metrics, floors, completed = parse_run(done.stdout)
    except (ValueError, IndexError, KeyError):
        return None
    if done.returncode != 0:
        correct = False
    return correct, metrics, floors, completed


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", help="revision to compare against")
    parser.add_argument("--parent-dir",
                        help="an existing checkout of the parent instead")
    parser.add_argument("--change", default=REPO,
                        help="the change's checkout (default: this one)")
    parser.add_argument("--workload", choices=("serve_hot", "paper_cold",
                                               "live_churn"))
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--seed", type=int, default=9001,
                        help="first pair's seed; pair i uses seed + i")
    parser.add_argument("--work", help="directory for trees, builds and "
                        "logs (default: a new temporary directory)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        suite = unittest.defaultTestLoader.loadTestsFromTestCase(SelfTest)
        ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
        return 0 if ok else 1
    if args.workload is None or (args.parent is None) == (
            args.parent_dir is None):
        parser.error("need --workload and one of --parent / --parent-dir")
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="perf_pairs"))
    os.makedirs(os.path.join(work, "runs"), exist_ok=True)
    parent_tree = args.parent_dir
    if parent_tree is None:
        parent_tree = os.path.join(work, "parent")
        if not os.path.isdir(parent_tree):
            export_parent(args.parent, parent_tree)
    trees = {"parent": os.path.abspath(parent_tree),
             "change": os.path.abspath(args.change)}
    better = directions(os.path.join(trees["change"], "BENCHMARK.json"))

    pairs = []
    all_correct = True
    for i in range(args.pairs):
        seed = args.seed + i
        parent_first = i % 2 == 0
        order = ("parent", "change") if parent_first else ("change", "parent")
        results = {}
        for side in order:
            log = os.path.join(work, "runs", "%s-%s-seed%d.out" % (
                side, args.workload, seed))
            result = run_side(trees[side], os.path.join(work, side + "_target"),
                              args.workload, seed, args.seconds, log)
            if result is None:
                print("pair %d: %s run gave no result (see %s)" % (
                    i + 1, side, log))
                return 1
            if not result[0]:
                print("pair %d: %s run INCORRECT (see %s)" % (i + 1, side,
                                                              log))
                all_correct = False
            results[side] = result
        pairs.append((results["parent"], results["change"]))
        print(pair_line(i, seed, parent_first, results["parent"],
                        results["change"]), flush=True)
    print("\n%s, %d pairs of %gs runs, seeds %d-%d; logs in %s" % (
        args.workload, args.pairs, args.seconds, args.seed,
        args.seed + args.pairs - 1, os.path.join(work, "runs")))
    for line in summarize(pairs, better) + rss_fit(pairs):
        print(line)
    return 0 if all_correct else 1


CANNED = """# correct: attempted=100 failed=0 mismatched=0 error_ratio=0.000000
# latency floors (p1 of each query): p50=44.0us p90=%(p90)s
# per-query floors (us): 46 29 %(q3)s 35 %(q5)s
{"correct": %(correct)s, "attempted": %(attempted)s, "failed": %(failed)s, \
"metrics": {"qps": {"value": %(qps)s, "unit": "1/s"}, \
"latency_floor_p90_us": {"value": %(p90)s, "unit": "us"}%(rss)s}}
"""


def canned(qps, p90, q3, q5, correct="true", attempted=100, failed=0,
           rss=None):
    return CANNED % {
        "qps": qps, "p90": p90, "q3": q3, "q5": q5, "correct": correct,
        "attempted": attempted, "failed": failed,
        "rss": "" if rss is None else
        ', "rss_mb": {"value": %s, "unit": "MB"}' % rss}


class SelfTest(unittest.TestCase):
    """Checks parsing and summaries on canned perfbench output."""

    BETTER = {"qps": "higher", "latency_floor_p90_us": "lower"}

    def test_parses_result_and_floors(self):
        correct, metrics, floors, completed = parse_run(
            canned(22000, 203.5, 141, 209, attempted=990000))
        self.assertTrue(correct)
        self.assertEqual(metrics, {"qps": 22000.0,
                                   "latency_floor_p90_us": 203.5})
        self.assertEqual(floors, [46.0, 29.0, 141.0, 35.0, 209.0])
        self.assertEqual(completed, 990000)

    def test_incorrect_run_is_flagged(self):
        correct, _, _, _ = parse_run(canned(1, 2, 3, 4, correct="false"))
        self.assertFalse(correct)

    def test_completed_excludes_failed_queries(self):
        correct, _, _, completed = parse_run(
            canned(1, 2, 3, 4, attempted=120, failed=7))
        self.assertFalse(correct)
        self.assertEqual(completed, 113)

    def test_missing_result_line_raises(self):
        with self.assertRaises(ValueError):
            parse_run("# only comments\n")

    def test_quartiles(self):
        self.assertEqual(quartiles([5.0]), (5.0, 5.0, 5.0))
        self.assertEqual(quartiles([1.0, 2.0, 3.0, 4.0, 5.0]),
                         (2.0, 3.0, 4.0))

    def test_summary_counts_wins_by_direction(self):
        runs = [(canned(20000, 210, 141, 209), canned(24000, 140, 130, 122)),
                (canned(21000, 205, 140, 205), canned(20500, 150, 131, 123)),
                (canned(22000, 200, 142, 210), canned(25000, 145, 129, 121))]
        pairs = [(parse_run(p), parse_run(c)) for p, c in runs]
        lines = summarize(pairs, self.BETTER)
        qps = next(l for l in lines if l.startswith("qps "))
        p90 = next(l for l in lines if l.startswith("latency_floor_p90_us"))
        self.assertIn("21000 [20500, 21500]", qps)
        self.assertIn("24000 [22250, 24500]", qps)
        self.assertIn("1.143", qps)
        self.assertTrue(qps.rstrip().endswith("2/3"))
        self.assertIn("205 [202.5, 207.5]", p90)
        self.assertIn("0.707", p90)
        self.assertTrue(p90.rstrip().endswith("3/3"))
        self.assertIn("  Q5    209.0 ->    122.0  (-41.6%)", lines)
        self.assertIn("  Q1     46.0 ->     46.0  (+0.0%)", lines)

    def test_pair_line(self):
        pair = (parse_run(canned(20000, 210, 1, 2, attempted=900000)),
                parse_run(canned(24000, 140, 1, 2, attempted=1080000)))
        self.assertEqual(
            pair_line(0, 9001, True, *pair),
            "pair 1 seed 9001 (parent first): qps=20000/24000 "
            "latency_floor_p90_us=210/140 completed=900000/1080000")

    def test_rss_fit_separates_samples_from_added_memory(self):
        # Both sides lie on rss_mb = 50 + 65e-6 * completed, and every
        # change run sits 2 MB above it: the fit takes the slope from the
        # spread of each side's runs, and the residuals show the 2 MB.
        def run(completed, extra):
            return parse_run(canned(1, 2, 3, 4, attempted=completed,
                                    rss=50 + 65e-6 * completed + extra))
        pairs = [(run(900000, 0), run(1100000, 2)),
                 (run(1000000, 0), run(1200000, 2)),
                 (run(950000, 0), run(1150000, 2))]
        lines = rss_fit(pairs)
        self.assertEqual(len(lines), 2)
        self.assertIn("over 6 runs", lines[0])
        slope = float(lines[0].split("+ ")[1].split(" *")[0])
        intercept = float(lines[0].split("= ")[1].split(" +")[0])
        # A 2 MB step at +200k queries leaks into the slope: two parallel
        # lines 2 MB apart, fitted as one, meet the data in the middle.
        self.assertGreater(slope, 65e-6)
        self.assertLess(intercept, 50)
        parent = float(lines[1].split("parent ")[1].split(",")[0])
        change = float(lines[1].split("change ")[1].split(",")[0])
        self.assertLess(parent, 0)
        self.assertGreater(change, 0)

    def test_rss_fit_reads_the_slope_of_one_line(self):
        pairs = [(parse_run(canned(1, 2, 3, 4, attempted=x,
                                   rss=40 + 6.2e-5 * x)),
                  parse_run(canned(1, 2, 3, 4, attempted=x + 50000,
                                   rss=40 + 6.2e-5 * (x + 50000))))
                 for x in (800000, 900000, 1000000)]
        lines = rss_fit(pairs)
        self.assertIn("rss_mb = 40 + 6.2e-05 * completed over 6 runs "
                      "(65.0 B per completed query)", lines[0])
        self.assertIn("parent +0.000, change +0.000, change - parent "
                      "+0.000", lines[1])

    def test_rss_fit_needs_varying_counts(self):
        same = parse_run(canned(1, 2, 3, 4, rss=50))
        self.assertEqual(rss_fit([(same, same), (same, same)]), [])
        no_rss = parse_run(canned(1, 2, 3, 4))
        self.assertEqual(rss_fit([(no_rss, no_rss)] * 3), [])


if __name__ == "__main__":
    sys.exit(main())
