"""hlcut benchmark: the CLI sweeps a user runs, timed end to end, with every
answer checked, and a traced run that splits the time by layer.

    python3 bench/run.py --workload bnb-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from `src/`. Each
workload is a fixed list of CLI jobs, run closed-loop, one at a time, in this
process and without threads, through `hlcut.cli.main`, so argument parsing,
file I/O and report writing are timed with the search. The seed only picks
the seeded members; the program sees the files `hlcut generate` writes.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics (see bench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from checks import EXPIRED, OK, Checker, reference_kappa

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Seconds per branch-and-bound solve. At the default seed (1) every job
# either finishes within 1.26 s or runs past 5 s, and 2.5 s sits twice as far
# from both, so the same jobs expire on every run of a seed.
BUDGET = 2.5
SETUP_REPS = 21
# One read of the host's pace: PACE_READS chunks of PACE_SCANS plain
# kappa scans of the 3-cube, about 1 ms a chunk on a 2-core VM.
PACE_GRAPH = [{v ^ (1 << b) for b in range(3)} for v in range(8)]
PACE_SCANS = 2
PACE_READS = 5


@dataclass(frozen=True)
class Member:
    label: str
    kind: str
    n: int
    work: Path
    seed: int | None = None

    @property
    def graph(self) -> str:
        return str(self.work / f"{self.label}.graph")

    @property
    def trace(self) -> str:
        return str(self.work / f"{self.label}.trace")

    def generate_argv(self) -> list[str]:
        argv = ["generate", "--kind", self.kind]
        if self.kind != "fig1":
            argv += ["--n", str(self.n)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv + ["--out", self.graph, "--trace", self.trace]


@dataclass
class Job:
    command: str
    member: Member
    h: int | None
    argv: list[str]
    lemma: str | None = None

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]

    @property
    def name(self) -> str:
        what = f"--lemma {self.lemma}" if self.lemma else f"--h {self.h}"
        return f"{self.command} {self.member.label} {what}"


def _out(work: Path, i: int) -> str:
    return str(work / "out" / f"job{i:02d}.jsonl")


def bnb_sweep(seed: int, work: Path) -> tuple[list[Member], list[Job]]:
    """One budgeted branch-and-bound solve per level, so an expiry at one
    level does not hide the others (`--h all` stops at the first)."""
    members = [Member("Q5", "hypercube", 5, work),
               Member("HL5", "random", 5, work, seed),
               Member("Q6", "hypercube", 6, work),
               Member("HL6", "random", 6, work, seed)]
    jobs = []
    for m in members:
        for h in range(m.n):
            argv = ["solve", "--graph", m.graph, "--h", str(h),
                    "--method", "branch-and-bound", "--budget", str(BUDGET),
                    "--expect-theorem", "--out", _out(work, len(jobs))]
            if m.n > 5:
                argv.append("--override-gate")  # 64 vertices > SOLVER_GATE
            jobs.append(Job("solve", m, h, argv))
    return members, jobs


def _d4_members(seed: int, work: Path) -> list[Member]:
    return [Member("Q4", "hypercube", 4, work), Member("fig1", "fig1", 4, work),
            Member("HL4", "random", 4, work, seed)]


def verify_d4(seed: int, work: Path) -> tuple[list[Member], list[Job]]:
    members = _d4_members(seed, work)
    jobs = []
    for m in members:
        for lemma in ("3.2", "3.5", "3.7", "thm"):
            argv = ["verify", "--lemma", lemma, "--trace", m.trace,
                    "--h", "all", "--out", _out(work, len(jobs))]
            jobs.append(Job("verify", m, None, argv, lemma))
    return members, jobs


def kappa_d4(seed: int, work: Path) -> tuple[list[Member], list[Job]]:
    members = _d4_members(seed, work)
    jobs = []
    for m in members:
        for h in range(5):
            argv = ["kappa", "--graph", m.graph, "--h", str(h),
                    "--out", _out(work, len(jobs))]
            jobs.append(Job("kappa", m, h, argv))
    return members, jobs


WORKLOADS = {"bnb-sweep": bnb_sweep, "verify-d4": verify_d4,
             "kappa-d4": kappa_d4}


class Pace:
    """The shared host's speed, read from a fixed pure-Python workload.

    Other tenants make this process's code take up to about twice as long,
    and that changes within seconds, so the wall time of one job says as
    much about them as about the program. A fixed chunk of work is timed
    just before and just after each job; the job's wall seconds over the
    chunk's local time is its length in chunks, which the host's speed
    moves far less. Chunks times the chunk's fastest time in the run give
    the job's wall seconds at the best speed the host had during the run.

    The chunk is the plain kappa scan of `checks.py` on the 3-cube: sets,
    generators and calls, like the program's own code. A tight arithmetic
    loop tracked the host worse, because contention slows such code less
    than it slows the program.
    """

    def __init__(self):
        self.times: list[float] = []
        self.before: list[float] = []

    @property
    def best(self) -> float:
        return min(self.times)

    def read(self) -> list[float]:
        """Seconds of each of PACE_READS chunks, timed now."""
        times = []
        for _ in range(PACE_READS):
            start = time.perf_counter()
            for _ in range(PACE_SCANS):
                reference_kappa(PACE_GRAPH, 1)
            times.append(time.perf_counter() - start)
        self.times += times
        return times

    def begin(self) -> None:
        self.before = self.read()

    def lap(self, seconds: float) -> float:
        """Chunks in `seconds` just measured, at the pace read around them."""
        after = self.read()
        chunks = seconds / statistics.median(self.before + after)
        self.before = after
        return chunks


def run_cli(cli, argv: list[str]):
    """Exit code of one CLI call, or the exception it raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:
        return repr(exc)


class Bench:
    def __init__(self, work: Path, members, jobs, tracer):
        self.work = work
        self.members = members
        self.jobs = jobs
        self.tracer = tracer
        self.pace = Pace()
        self.cli = None
        self.lemmas = None
        self.checker = None
        self.failures: list[str] = []
        self.attempted = 0

    def _record(self, what: str, verdict: str) -> None:
        self.attempted += 1
        if verdict not in (OK, EXPIRED):
            self.failures.append(f"{what}: {verdict}")

    def setup(self, rep: int) -> float:
        """Import the package afresh and write every member's files, as a
        user's first `hlcut generate` calls would; returns its length in
        chunks of the host's pace."""
        for name in [m for m in sys.modules if m.split(".")[0] == "hlcut"]:
            del sys.modules[name]
        self.pace.begin()
        start = time.perf_counter()
        self.cli = importlib.import_module("hlcut.cli")
        self.lemmas = importlib.import_module("hlcut.lemmas")
        if self.tracer:
            self.tracer.install(self.cli, self.lemmas)
        codes, _, _ = self._run([m.generate_argv() for m in self.members],
                                ("setup", rep), bool(self.tracer), paced=False)
        seconds = time.perf_counter() - start
        if self.tracer:
            self.tracer.uninstall()
        for m, code in zip(self.members, codes):
            self._record(f"generate {m.label}", OK if code == 0 else f"exit {code}")
        return self.pace.lap(seconds)

    def _run(self, argvs, phase, traced: bool, paced: bool = True):
        """Each job's exit code, wall seconds and, when paced, length in
        chunks. The pace is read outside every job's timing and span."""
        codes, times, chunks = [], [], []
        if paced:
            self.pace.begin()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            for i, argv in enumerate(argvs):
                if traced:
                    self.tracer.job = [*phase, i]
                    index = self.tracer.begin(spans.JOB)
                start = time.perf_counter()
                codes.append(run_cli(self.cli, argv))
                times.append(time.perf_counter() - start)
                if traced:
                    self.tracer.end(index)
                if paced:
                    chunks.append(self.pace.lap(times[-1]))
        return codes, times, chunks

    def sweep(self, phase, traced: bool) -> list[tuple[float, float, str]]:
        """Run the whole job list once; returns each job's length in
        chunks, its wall seconds and its checked outcome."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        (self.work / "out").mkdir(parents=True)
        if traced:
            self.tracer.install(self.cli, self.lemmas)
        codes, times, chunks = self._run([job.argv for job in self.jobs],
                                         phase, traced)
        if traced:
            self.tracer.uninstall()
        outcomes = [self.checker.check(job, code)
                    for job, code in zip(self.jobs, codes)]
        for job, verdict in zip(self.jobs, outcomes):
            self._record(job.name, verdict)
        return list(zip(chunks, times, outcomes))


def measure(bench: Bench, seconds: float, traced: bool) -> dict:
    setups = [bench.setup(rep) for rep in range(SETUP_REPS)]
    bench.checker = Checker(importlib.import_module("hlcut"))
    # A traced run alternates traced and untraced sweeps, at least two traced
    # ones so node counts can be compared. Another sweep starts only while
    # one more still fits in the time asked for; a run always measures at
    # least one whole sweep, even one longer than that.
    sweeps = {False: [], True: []}
    start = time.perf_counter()
    n = 0
    while True:
        with_trace = traced and n % 2 == 0
        sweeps[with_trace].append(bench.sweep(("sweep", n), with_trace))
        n += 1
        elapsed = time.perf_counter() - start
        if n >= (3 if traced else 1) and elapsed + elapsed / n > seconds:
            break
    return {"setups": setups, "plain": sweeps[False], "traced": sweeps[True],
            "best": bench.pace.best}


def sweep_seconds(sweeps: list[list[tuple]], best: float) -> float:
    """The job list's wall seconds at the run's best host speed: the sum,
    over jobs, of the median over sweeps of each job's chunks times the
    chunk's best time. A job that ran out its budget counts its wall
    seconds, which the budget fixes whatever the host's speed."""
    return sum(statistics.median(wall if verdict == EXPIRED else chunks * best
                                 for chunks, wall, verdict in runs)
               for runs in zip(*sweeps))


def end_to_end(runs: dict) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    solved = [[verdict for _, _, verdict in jobs].count(OK) / len(jobs)
              for jobs in runs["plain"]]
    return {"sweep_s": (sweep_seconds(runs["plain"], runs["best"]), "s"),
            "solved_ratio": (statistics.median(solved), "ratio"),
            "setup_s": (statistics.median(runs["setups"]) * runs["best"], "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB")}


def per_layer(tracer: spans.Tracer, runs: dict,
              jobs: list[Job]) -> tuple[dict, list[str]]:
    """Per-layer figures, medians over traced set-ups and sweeps, plus the
    check that completed searches count the same nodes on every sweep."""
    own = spans.self_times(tracer.spans)
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        groups.setdefault(tuple(s.job[:2]), []).append(i)
    setup_rows, sweep_rows, counts = [], [], {}
    for (phase, _), idx in groups.items():
        group = [tracer.spans[i] for i in idx]
        times = [own[i] for i in idx]
        if phase == "setup":
            setup_rows.append(spans.setup_figures(group, times))
            continue
        sweep_rows.append(spans.sweep_figures(group, times))
        for key, count in spans.completed_counts(group).items():
            counts.setdefault(key, set()).add(count)
    drift = [f"{jobs[job].name}, call {call}: counts differ across sweeps "
             f"{sorted(seen)}"
             for (job, call), seen in counts.items() if len(seen) > 1]
    figures = {**spans.medians(setup_rows), **spans.medians(sweep_rows)}
    figures["trace.overhead_s"] = (sweep_seconds(runs["traced"], runs["best"])
                                  - sweep_seconds(runs["plain"], runs["best"]))
    return figures, drift


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "hlcut" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'hlcut'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one directory per process, so runs in the same checkout never share files
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        members, jobs = WORKLOADS[args.workload](args.seed, work)
        tracer = spans.Tracer() if args.trace else None
        bench = Bench(work, members, jobs, tracer)
        runs = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work)
    if tracer:
        figures, drift = per_layer(tracer, runs, jobs)
        bench.failures += drift
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = {k: (v, unit_of(k)) for k, v in figures.items()}
    else:
        metrics = end_to_end(runs)

    pace = bench.pace.times
    print(f"pace: {len(pace)} chunks, best {min(pace) * 1e3:.3f} ms, median "
          f"{statistics.median(pace) * 1e3:.3f} ms", file=sys.stderr)
    for line in bench.failures:
        print(f"FAILED {line}", file=sys.stderr)
    if not tracer:
        # failed-or-expired jobs over attempted ones; the JSON carries the
        # complement, solved_ratio, because this reads 0 on a clean workload
        metrics["fail_ratio"] = (1 - metrics["solved_ratio"][0], "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {name:<28} {value:>14.6g} {unit}")
    metrics.pop("fail_ratio", None)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
