"""Benchmark of `fedgraphrec run` on fixed offline workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark makes its input from the seed before any timing, then starts
fresh `fedgraphrec run` processes from the checkout's `src/`, one at a time,
for as many whole runs as fit in S seconds (at least one). Every run's
artifacts are checked. With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics; with --trace 1 the window starts
with one traced run (perfbench/traced.py) and the object holds its
per-layer metrics instead. The line before it records the BLAS setting and
the library versions. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED = ROOT / "data" / "synthetic-50.tsv"

# One BLAS thread: the 943 x 943 by 943 x 53,824 propagation matmul takes
# 1.66 s on one thread and 0.89 s on two of this 2-core machine's cores, but
# 1.27 s on two when one other process is busy; one thread moves by 7 %.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# ML-100K's shape: 943 users, 1682 items, ~100 ratings each, 19 genres.
ML100K_SHAPE = {"users": 943, "items": 1682, "per_user": 100, "clusters": 19}
K = 10
# HR@10 and NDCG@10 over one evaluation of 943 users vary by ~10 % between
# seeds at 99 negatives; 49 negatives (chance 20 %) and, on the small file,
# 10 repetitions bring that sampling error well under the metrics' bound.

WORKLOADS = {
    "ml100k-p50": {
        "dataset": "ml100k", "public_ratio": 0.5, "ldp_delta": 0.0, "lr": 0.01,
        "rounds": 3, "eval_every": 1, "reps": 1, "eval_negatives": 49, "beats_chance": False,
    },
    "ml100k-p100-ldp": {
        "dataset": "ml100k", "public_ratio": 1.0, "ldp_delta": 0.01, "lr": 0.01,
        "rounds": 3, "eval_every": 3, "reps": 1, "eval_negatives": 49, "beats_chance": False,
    },
    "small-reps": {
        "dataset": "bundled", "public_ratio": 0.5, "ldp_delta": 0.0, "lr": 0.01,
        "rounds": 30, "eval_every": 1, "reps": 10, "eval_negatives": 49, "beats_chance": True,
    },
}

sys.path.insert(0, str(HERE))
import checks  # noqa: E402


def child_env() -> dict:
    """The program's environment: BLAS threads pinned, package from src/."""
    env = {k: v for k, v in os.environ.items()
           if k not in THREAD_VARS and k not in ("PYTHONPATH", "FEDREC_SEED")}
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class SpeedProbe:
    """Times a fixed pure-Python loop every 50 ms on the CPU the program runs on.

    This machine's cores change speed by up to 1.6x for seconds to minutes at
    a time, invisibly to the guest (no steal time; CPU time grows with wall
    time). The program and this probe are pinned to one CPU, so they see the
    same phases. The rolling median of the loop time, against
    REFERENCE_LOOP_S, is the slowdown at each moment, and every reported
    time is wall time divided by it: seconds at the reference speed. The
    probe takes about 2 % of that CPU.
    """

    REFERENCE_LOOP_S = 0.75e-3
    LOOP = 20000
    PERIOD_S = 0.05
    SMOOTH = 3  # samples on each side of the rolling median

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.PERIOD_S):
            start = time.perf_counter()
            x = 0
            for i in range(self.LOOP):
                x += i
            end = time.perf_counter()
            self.samples.append(((start + end) / 2.0, end - start))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def reference_seconds(self, begin: float, end: float) -> float:
        """Seconds from `begin` to `end` (perf_counter) at the reference speed;
        each sample's slowdown covers the time nearer to it than to the next."""
        if not self.samples:
            return end - begin
        mids = [m for m, _ in self.samples]
        loops = [d for _, d in self.samples]
        total = 0.0
        for i in range(len(mids)):
            lo = begin if i == 0 else max(begin, (mids[i - 1] + mids[i]) / 2.0)
            hi = end if i == len(mids) - 1 else min(end, (mids[i] + mids[i + 1]) / 2.0)
            if hi > lo:
                window = loops[max(0, i - self.SMOOTH): i + self.SMOOTH + 1]
                total += (hi - lo) * self.REFERENCE_LOOP_S / statistics.median(window)
        return total


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def launch(argv: list[str], log_path: Path, env: dict):
    """Run one process to its end; returns (exit code, start, end, peak RSS MB,
    probe), with start and end on the perf_counter clock."""
    env = dict(env, PERFBENCH_LAUNCH_WALL=repr(time.time()))
    with open(log_path, "wb") as log, SpeedProbe() as probe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0, probe


def count_users(path: Path) -> int:
    """Users with the three interactions leave-one-out needs, read directly."""
    items: dict[str, set] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split("\t")
            if len(fields) >= 3:
                items.setdefault(fields[0].strip(), set()).add(fields[1].strip())
    return sum(1 for seen in items.values() if len(seen) >= 3)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.spec, self.seed, self.work = name, WORKLOADS[name], seed, work
        self.env = child_env()
        self.runs = 0

    def prepare(self) -> None:
        """Make the input file; not timed."""
        if self.spec["dataset"] == "bundled":
            self.dataset = BUNDLED
        else:
            self.dataset = self.work / "ml100k.tsv"
            shape = ML100K_SHAPE
            code, *_ = launch(
                [sys.executable, "-m", "fedgraphrec.cli", "gen-synth", "--users", str(shape["users"]),
                 "--items", str(shape["items"]), "--per-user", str(shape["per_user"]),
                 "--clusters", str(shape["clusters"]), "--seed", str(self.seed),
                 "--out", str(self.dataset)],
                self.work / "gen-synth.log", self.env)
            if code != 0:
                raise RuntimeError(f"gen-synth exited {code}; see {self.work / 'gen-synth.log'}")
        self.num_users = count_users(self.dataset)

    def run_flags(self, label: str) -> list[str]:
        s = self.spec
        return ["--dataset", str(self.dataset), "--public-ratio", repr(s["public_ratio"]),
                "--ldp-delta", repr(s["ldp_delta"]), "--lr", repr(s["lr"]), "--rounds", str(s["rounds"]),
                "--eval-every", str(s["eval_every"]), "--reps", str(s["reps"]), "--k", str(K),
                "--eval-negatives", str(s["eval_negatives"]), "--seed", str(self.seed),
                "--workers", "1", "--out", str(self.work / "runs"), "--label", label]

    def run(self, traced: bool) -> dict:
        """One whole `fedgraphrec run` process, timed and checked."""
        self.runs += 1
        label = f"run{self.runs}"
        trace_path = self.work / f"{label}.trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), str(trace_path)]
        else:
            argv = [sys.executable, "-m", "fedgraphrec.cli", "run"]
        code, start, end, rss, probe = launch(argv + self.run_flags(label), self.work / f"{label}.log", self.env)
        wall = probe.reference_seconds(start, end)
        result = {"ok": code == 0, "raw_wall": end - start, "wall": wall, "slowdown": (end - start) / wall,
                  "rss": rss}
        if code != 0:
            log = (self.work / f"{label}.log").read_text(encoding="utf-8", errors="replace")
            print(f"{self.name}: {label} exited {code}:\n{log[-2000:]}", file=sys.stderr)
            return result
        try:
            result.update(self.read_artifacts(self.work / "runs" / label))
        except (OSError, KeyError, ValueError) as exc:
            raise checks.CheckFailed(f"{label}: unreadable artifacts: {exc!r}") from exc
        result["round_walls"] = rescale_rounds(result["round_walls"], end, probe)
        if traced:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
            if not trace["correct"]:
                raise checks.CheckFailed(f"traced run: {trace['problem']}")
            if Path(trace["package"]).resolve() != (SRC / "fedgraphrec").resolve():
                raise checks.CheckFailed(f"traced run imported {trace['package']}, not {SRC}")
            result["trace"] = trace
        return result

    def read_artifacts(self, out_dir: Path) -> dict:
        s = self.spec
        reps = []
        for r in range(s["reps"]):
            rows = read_csv(out_dir / f"rep{r}" / "rounds.csv")
            checks.check_rounds(rows, rounds=s["rounds"], eval_every=s["eval_every"],
                                num_users=self.num_users, public_ratio=s["public_ratio"])
            reps.append(rows)
        summary = read_csv(out_dir / "summary.csv")
        if len(summary) != 1:
            raise checks.CheckFailed(f"summary.csv has {len(summary)} rows")
        summary = summary[0]
        checks.check_summary(summary, [rows[-1] for rows in reps])
        if s["beats_chance"]:
            checks.check_beats_chance(float(summary["hr_final_mean"]), K, s["eval_negatives"])
        walls = [[float(row["wall_time"]) for row in rows] for rows in reps]
        # Everything but wall_time must repeat byte for byte between runs.
        fingerprint = json.dumps([[{k: v for k, v in row.items() if k != "wall_time"} for row in rows]
                                  for rows in reps] + [summary], sort_keys=True)
        return {"round_walls": walls, "summary": summary, "fingerprint": fingerprint}


def rescale_rounds(walls: list[list[float]], end: float, probe: SpeedProbe) -> list[list[float]]:
    """Each round's wall time at the reference speed. The rounds end just
    before the process does, so they are laid out back to back from there."""
    t = end
    scaled = []
    for rep in reversed(walls):
        row = []
        for w in reversed(rep):
            row.append(probe.reference_seconds(t - w, t))
            t -= w
        scaled.append(row[::-1])
    return scaled[::-1]


def measure(workload: Workload, seconds: float, trace: bool) -> tuple[list[dict], dict | None]:
    """Whole runs, one at a time, while the next is expected to fit."""
    start = time.perf_counter()
    traced = workload.run(traced=True) if trace else None
    runs = []
    while True:
        runs.append(workload.run(traced=False))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["raw_wall"] for r in runs)
        if elapsed + typical > seconds:
            return runs, traced


def end_to_end(runs: list[dict]) -> dict:
    walls = [r["wall"] for r in runs]
    setups = [r["wall"] - sum(sum(rep) for rep in r["round_walls"]) for r in runs]
    later_rounds = [w for r in runs for rep in r["round_walls"] for w in rep[1:]]
    summary = runs[0]["summary"]
    return {
        "run_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "round_s": (statistics.median(later_rounds), "s"),
        "peak_rss_mb": (statistics.median(r["rss"] for r in runs), "MB"),
        "hr10_pct": (float(summary["hr_final_mean"]), "%"),
        "ndcg10_pct": (float(summary["ndcg_final_mean"]), "%"),
    }


def per_layer(traced: dict, runs: list[dict]) -> dict:
    """The traced run's layer figures, scaled by its slowdown like every time."""
    trace, slowdown = traced["trace"], traced["slowdown"]
    metrics = {}
    for name, (value, unit) in trace["metrics"].items():
        if unit.startswith("s"):
            value /= slowdown
        elif unit == "1/s":
            value *= slowdown
        metrics[name] = (value, unit)
    startup, main_s = trace["startup_s"] / slowdown, trace["main_s"] / slowdown
    traced_wall = traced["wall"] - trace["post_s"] / slowdown
    metrics["process.startup_s"] = (startup, "s/run")
    metrics["process.exit_s"] = (traced_wall - startup - main_s, "s/run")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(r["wall"] for r in runs), "s")
    metrics["bench.slowdown"] = (slowdown, "ratio")
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"blas_threads": {var: BLAS_THREADS for var in THREAD_VARS}, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fedgraphrec" / "__init__.py").is_file() or not BUNDLED.is_file():
        print(f"perfbench: no program sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2

    # A terminated benchmark still kills and reaps the run it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()
    work = HERE / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    workload = Workload(args.workload, args.seed, work)
    correct, runs, traced = True, [], None
    try:
        workload.prepare()
        runs, traced = measure(workload, args.seconds, bool(args.trace))
        done = [r for r in runs + ([traced] if traced else []) if r["ok"]]
        if len({r["fingerprint"] for r in done}) > 1:
            raise checks.CheckFailed("metric artifacts differ between runs of identical input")
    except checks.CheckFailed as exc:
        print(f"{args.workload}: check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = runs + ([traced] if traced else [])
    good = [r for r in runs if r["ok"]]
    metrics = {}
    if not good or (args.trace and not (traced and traced["ok"])):
        correct = False
    elif correct:
        metrics = per_layer(traced, good) if args.trace else end_to_end(good)
    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed,
                      "raw_wall_s": [round(r["raw_wall"], 3) for r in everything],
                      "slowdown": [round(r["slowdown"], 3) for r in everything]}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(len(everything), 1),
        "failed": sum(1 for r in everything if not r["ok"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
