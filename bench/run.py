"""Benchmark every galois-kit CLI command, plus library correspondence sessions.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every job runs in its own child process, one
at a time, under a fixed wall-clock budget; a job past the budget is killed
and counted as a timeout at the budget's length.  Every answer is judged
against ``expected.json``.  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` each job runs once with the layer wrappers of
``tracer.py`` and once without, and the per-layer metrics are printed.  The
last line of output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

import expect
import workloads
from child import peak_rss_kb

BUDGET_S = 20.0
GRACE_S = 5.0  # a traced job gets this long after SIGTERM to report its open spans
SETUP_SAMPLES = 9
# Short jobs are the noisiest: each finished job is sampled until its samples
# add up to MIN_JOB_S or it has MAX_SAMPLES of them.
MIN_JOB_S = 1.0
MAX_SAMPLES = 3
# On a shared host the speed of every process drifts by a fifth or more over
# minutes.  A fixed slice of pure-Python arithmetic, timed before every job,
# measures that drift; measured times are scaled to the speed at which the
# slice takes CALIBRATION_REF_S, its typical time on a 2.1 GHz Xeon vCPU.
CALIBRATION_REF_S = 0.025

END_TO_END = (
    ("job_geomean_s", "s"),
    ("corpus_s", "s"),
    ("solved_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (metric, unit): "<function>.calls" and "<function>.total_s" come from the
# spans, "<layer>.self_s" from span self time, the rest from counters.
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s") for layer in ("cli", "parsing", "poly", "qfactor", "numfield",
                                             "linalg", "splitting", "galois", "permgroup",
                                             "radical")]
    + [(name, "count" if name.endswith((".calls", ".degree_sum", ".enumerations"))
        else "ratio" if name.endswith(("_share", "_per_factor")) else "s") for name in (
        "qfactor.factor_over_Q.calls",
        "qfactor.factor_over_Q.total_s",
        "qfactor.factor_over_Q.degree_sum",
        "qfactor.factor_over_Q.split_share",
        "qfactor.is_squarefree_q.calls",
        "qfactor.is_squarefree_q.true_share",
        "qfactor.factor_degrees_mod_p.calls",
        "numfield.factor_over_number_field.calls",
        "numfield.factor_over_number_field.total_s",
        "numfield.norm_polynomial.calls",
        "numfield.norm_polynomial.total_s",
        "numfield.norm_polynomial.degree_sum",
        "numfield.norm_per_factor",
        "numfield.FieldTower.adjoin.calls",
        "numfield.FieldTower.adjoin.total_s",
        "numfield.minimal_polynomial.calls",
        "numfield.minimal_polynomial.total_s",
        "poly.poly_resultant.calls",
        "poly.poly_resultant.total_s",
        "poly.poly_gcd.calls",
        "poly.poly_gcd.total_s",
        "poly.poly_squarefree_decomposition.total_s",
        "linalg.nullspace.total_s",
        "linalg.rref.total_s",
        "splitting.splitting_field.calls",
        "splitting.splitting_field.total_s",
        "splitting.splitting_field.degree_sum",
        "galois.galois_group.calls",
        "galois.galois_group.total_s",
        "galois.galois_group.enumerations",
        "galois.fixed_field.calls",
        "galois.fixed_field.total_s",
        "galois.subgroup_fixing.calls",
        "galois.subgroup_fixing.total_s",
        "galois.orbit_min_poly.calls",
        "galois.orbit_min_poly.total_s",
        "galois.GaloisGroup.subgroup_indices_closure.total_s",
        "permgroup.all_subgroups.total_s",
        "permgroup.is_solvable.total_s",
        "permgroup.find_embedding.total_s",
        "permgroup.is_normal.calls",
        "radical.normalize_chain.total_s",
        "radical.associated_group_chain.total_s",
        "radical.verify_nested_normal_radical.total_s",
        "radical.necessary_condition_verdict.total_s",
        "radical.quintic_group_witness.calls",
        "checks.record_check.calls",
        "trace.overhead_share",
    )]
)

# shares and ratios: metric -> (numerator, denominator)
_RATIOS = {
    "qfactor.factor_over_Q.split_share": ("qfactor.factor_over_Q.split", "qfactor.factor_over_Q.calls"),
    "qfactor.is_squarefree_q.true_share": ("qfactor.is_squarefree_q.true", "qfactor.is_squarefree_q.calls"),
    "numfield.norm_per_factor": ("numfield.norm_polynomial.calls", "numfield.factor_over_number_field.calls"),
}


class Job:
    """One job of a workload, with every sample measured for it."""

    def __init__(self, spec, expectation):
        self.id = spec["id"]
        self.kind = spec["kind"]
        self.argv = spec["argv"]
        self.expectation = expectation
        self.walls = []  # measured wall times; a timeout counts as the budget
        self.scaled = []  # the same, scaled by the calibration around each sample
        self.max_rss_kb = 0
        self.outcome = None
        self.detail = ""
        self.sha256 = None

    def command(self, record_path, traced=False):
        argv = self.argv + ["--json"] if self.kind == "cli" else self.argv
        trace = ["--trace"] if traced else []
        return [sys.executable, "bench/child.py", record_path] + trace + [self.kind] + argv

    def record(self, sample, scale=1.0):
        """Add a sample and its calibration scale; the first outcome other than ok sticks.

        The budget of a timeout is wall-clock time and is not scaled.
        """
        outcome, detail = expect.judge(self.expectation, sample.exit_code, sample.stdout,
                                       sample.timed_out)
        self.walls.append(BUDGET_S if sample.timed_out else sample.wall)
        self.scaled.append(BUDGET_S if sample.timed_out else sample.wall * scale)
        self.max_rss_kb = max(self.max_rss_kb, sample.record.get("peak_rss_kb", 0))
        if self.outcome in (None, expect.OK):
            self.outcome, self.detail = outcome, detail
        if self.sha256 is None:
            self.sha256 = hashlib.sha256(sample.stdout).hexdigest()

    @property
    def seconds(self):
        """Median scaled time; a job that ever timed out counts as the budget."""
        return BUDGET_S if self.outcome == expect.TIMEOUT else statistics.median(self.scaled)


@dataclass
class Sample:
    exit_code: int
    wall: float
    stdout: bytes
    timed_out: bool
    record: dict  # what the job wrote to its record file


class Runner:
    """Spawns job processes one at a time from the repository root."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.record_path = os.path.join(workdir, "record.json")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")

    def spawn(self, cmd, graceful=False):
        """Run cmd under the budget; wall time runs from spawn to exit.

        A job killed at the budget is credited with the peak RSS it had
        reached; a graceful kill sends SIGTERM first, then SIGKILL.
        """
        out_path = os.path.join(self.workdir, "stdout")
        if os.path.exists(self.record_path):
            os.remove(self.record_path)
        killed_rss = {}
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.DEVNULL,
                                    start_new_session=True)
            lock = threading.Lock()
            state = {"exited": False, "expired": False}

            def kill(sig):
                with lock:
                    if not state["exited"]:
                        state["expired"] = True
                        killed_rss.setdefault("peak_rss_kb", peak_rss_kb(proc.pid) or 0)
                        os.killpg(proc.pid, sig)

            timers = [threading.Timer(BUDGET_S, kill, (signal.SIGTERM if graceful else signal.SIGKILL,))]
            if graceful:
                timers.append(threading.Timer(BUDGET_S + GRACE_S, kill, (signal.SIGKILL,)))
            for t in timers:
                t.start()
            try:
                # wait without reaping, so the pid cannot be reused before the timers stop
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
                with lock:
                    state["exited"] = True
            finally:
                with lock:
                    interrupted, state["exited"] = not state["exited"], True
                if interrupted:  # leave no job running
                    os.killpg(proc.pid, signal.SIGKILL)
                for t in timers:
                    t.cancel()
                    t.join()
                _, status, _ = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        record = dict(killed_rss, **_read_json(self.record_path))
        return Sample(proc.returncode, wall, stdout, state["expired"], record)

    def setup_seconds(self):
        """One cold start of `galois-kit --version`: interpreter, import, argument parsing."""
        sample = self.spawn([sys.executable, "-m", "galoiskit.cli", "--version"])
        if sample.exit_code != 0:
            raise SystemExit("error: galois-kit --version failed")
        return sample.wall

    def check_engine(self):
        """Fail unless the engine imports from this checkout (this also compiles its bytecode)."""
        src = os.path.join(self.root, "src", "galoiskit", "__init__.py")
        sample = self.spawn([sys.executable, "-c", "import galoiskit; print(galoiskit.__file__)"])
        found = sample.stdout.decode().strip()
        if sample.exit_code != 0 or os.path.realpath(found) != os.path.realpath(src):
            raise SystemExit(f"error: galoiskit imports from {found or 'nowhere'}, not {src}")


def calibration_seconds():
    """Time a fixed slice of pure-Python exact arithmetic, outside any engine code."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i * i + 1, 2 * i + 3)
    total = 0
    for i in range(250_000):
        total += i * i % 7
    return time.perf_counter() - start


def run_workload(runner, name, seed, seconds, expected):
    jobs = [Job(spec, expected[spec["id"]]) for spec in workloads.jobs(name, seed)]
    setup = []
    slices = [calibration_seconds()]

    def scale():
        """Scale for what ran since the last slice, from the mean of the slices around it."""
        slices.append(calibration_seconds())
        return 2 * CALIBRATION_REF_S / (slices[-2] + slices[-1])

    def sample(job):
        # setup samples are spread over the run, so they meet the same machine load as the jobs
        if len(setup) < SETUP_SAMPLES:
            wall = runner.setup_seconds()
            setup.append(wall * scale())
        result = runner.spawn(job.command(runner.record_path))
        job.record(result, scale())

    started = time.perf_counter()
    for job in jobs:
        sample(job)
    finished = [job for job in jobs if job.outcome != expect.TIMEOUT]
    while due := [job for job in finished
                  if math.fsum(job.walls) < MIN_JOB_S and len(job.walls) < MAX_SAMPLES]:
        for job in due:
            sample(job)
    # Spend the rest of the measuring time on more samples of the jobs that finished.
    i = 0
    while finished and time.perf_counter() - started < seconds:
        sample(finished[i % len(finished)])
        i += 1
    while len(setup) < SETUP_SAMPLES:
        wall = runner.setup_seconds()
        setup.append(wall * scale())
    print(f"  calibration slice {statistics.fmean(slices) * 1000:.2f} ms mean of {len(slices)}, "
          f"reference {CALIBRATION_REF_S * 1000:.2f} ms")
    for job in jobs:
        print(f"  job {job.id:20s} {job.outcome:16s} wall {statistics.median(job.walls):8.3f} s "
              f"scaled {job.seconds:8.3f} s (median of {len(job.walls)})  "
              f"max-rss {job.max_rss_kb / 1024:7.1f} MB  sha256 {job.sha256[:16]}  {job.detail}")
    walls = [job.seconds for job in jobs]
    solved = sum(job.outcome == expect.OK for job in jobs)
    metrics = {
        "job_geomean_s": math.exp(statistics.fmean(math.log(w) for w in walls)),
        "corpus_s": math.fsum(walls),
        "solved_share": solved / len(jobs),
        "peak_rss_mb": max(job.max_rss_kb for job in jobs) / 1024,
        "setup_s": statistics.median(setup),
    }
    units = dict(END_TO_END)
    return _result(jobs, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()})


def trace_workload(runner, name, seed, expected):
    """Traced pass, then an untraced pass of the jobs that finished traced."""
    jobs = [Job(spec, expected[spec["id"]]) for spec in workloads.jobs(name, seed)]
    totals = {}
    traced_wall = plain_wall = 0.0
    identical = True
    for job in jobs:
        sample = runner.spawn(job.command(runner.record_path, traced=True), graceful=True)
        job.record(sample)
        if sample.timed_out:
            chain = " > ".join(sample.record.get("open_spans", [])) or "(no open span reported)"
            print(f"  job {job.id:20s} timeout after {BUDGET_S:.0f} s, open spans: {chain}")
            continue
        plain = runner.spawn(job.command(runner.record_path))
        same = plain.stdout == sample.stdout
        identical = identical and same
        traced_wall += sample.wall
        plain_wall += plain.wall
        trace = sample.record["trace"]
        _accumulate(totals, trace)
        print(f"  job {job.id:20s} {job.outcome:16s} traced {sample.wall:8.3f} s  "
              f"untraced {plain.wall:8.3f} s  spans {trace['spans']:7d}  "
              f"report {'identical' if same else 'DIFFERS'}  {job.detail}")
    if not identical:
        print("  tracing changed a canonical report")
    totals["trace.overhead_share"] = traced_wall / plain_wall - 1 if plain_wall else 0.0
    for metric, (num, den) in _RATIOS.items():
        totals[metric] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    metrics = {m: {"value": totals.get(m, 0), "unit": unit} for m, unit in PER_LAYER}
    return _result(jobs, metrics, identical)


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _accumulate(totals, trace):
    for layer, s in trace["self_s"].items():
        totals[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0) + s
    for fn, stat in trace["functions"].items():
        for key, value in stat.items():
            totals[f"{fn}.{key}"] = totals.get(f"{fn}.{key}", 0) + value
    for key, value in trace["counters"].items():
        totals[key] = totals.get(key, 0) + value


def _result(jobs, metrics, identical=True):
    wrong = {expect.WRONG, expect.FAILED_ASSERTION, expect.BAD_EXIT}
    failed = sum(job.outcome != expect.OK for job in jobs)
    return {
        "correct": identical and not any(job.outcome in wrong for job in jobs),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }


def src_line_count(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="minimum measuring time of an untraced run; finished jobs are "
                             "re-run until it is spent")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    root = os.getcwd()
    # SIGTERM to this process stops the running job too (see Runner.spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # This process and every job share one CPU, so the calibration slices meet
    # the same host load as the jobs they scale.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(root, "src", "galoiskit", "__init__.py")):
        print("error: no engine source under src/galoiskit; run from the repository root",
              file=sys.stderr)
        return 2
    expected = expect.load_expected()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"seed {args.seed}  seconds {args.seconds:g}  budget {BUDGET_S:g} s  trace {args.trace}  "
          f"src_lines {src_line_count(root)}  python {sys.version.split()[0]}")
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(root, ".bench_work")) as workdir:
        runner = Runner(root, workdir)
        runner.check_engine()
        results = {}
        for name in names:
            print(f"workload {name}")
            if args.trace:
                results[name] = trace_workload(runner, name, args.seed, expected)
            else:
                results[name] = run_workload(runner, name, args.seed, args.seconds, expected)
            for metric, m in results[name]["metrics"].items():
                print(f"  {name:14s} {metric:52s} {m['value']:14.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
