"""The vertexfock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A workload is a fixed sequence
of ``vertexfock`` CLI jobs (see workloads.py).  One client runs them in
a closed loop: each job is a fresh single-threaded interpreter, so its
memo tables start cold as they do for a CLI user, and each job starts
after the previous one has exited.  The sequence is repeated until S
seconds have passed; figures are medians over these passes, with times
rescaled to a reference speed (see PROBE).  ``--seed``
shuffles the order of the jobs in the sequence (the jobs themselves are
fixed; the identity suite's own seed is ``--identities-seed``).

With ``--trace 0`` every pass is untraced and the end-to-end metrics of
BENCHMARK.json are reported.  With ``--trace 1`` untraced and traced
passes alternate, and the per-layer metrics are reported: traced jobs
run under the outside tracer (tracer.py), untraced ones give the
per-subcommand walls and the tracing overhead.

Every job's exit code and output are checked (workloads.py).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PER_PASS = 3
JOB_TIMEOUT_S = 120.0


@dataclass
class JobRun:
    job: workloads.Job
    wall: float
    scale: float  # see PROBE
    rss_mib: float
    exit_code: int
    out_path: Path
    trace_path: Path | None


@dataclass
class Pass:
    runs: list[JobRun]
    traced: bool

    @property
    def wall(self) -> float:
        """Raw seconds: the jobs back to back, without the probes between them."""
        return sum(r.wall for r in self.runs)

    @property
    def scaled(self) -> float:
        return sum(r.wall * r.scale for r in self.runs)


# On a 2-vCPU virtual machine shared with other tenants, the speed of the
# same Python code swings by up to 1.6x in spells of seconds to minutes.
# So every reported time is rescaled to a reference speed.  PROBE,
# a fixed program that does not use vertexfock, runs in a fresh
# interpreter before the first job and after each job (and after each
# batch of set-ups); what ran between two probes is scaled by
# REFERENCE_PROBE_S / (the mean of those two probe times).  A change to
# vertexfock moves the job times and not the probe.  Raw seconds are
# printed beside the rescaled ones.
PROBE = """\
from fractions import Fraction
acc = {}
for i in range(50000):
    key = (i % 97, i * 7 % 13)
    acc[key] = acc.get(key, 0) + Fraction(i % 7 + 1, i % 5 + 1)
"""
REFERENCE_PROBE_S = 0.21  # PROBE's median on the machine of baseline.json


# A plain job is what the ``vertexfock`` console script runs, plus one
# read of the job's own peak RSS (VmHWM) as it ends.  ru_maxrss from
# wait4 will not do: Linux carries the parent's high-water mark into a
# child across exec, so every job would read at least this script's RSS.
PLAIN_JOB = """\
import sys
from vertexfock.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status") as status, open(sys.argv[1], "w") as fh:
    fh.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def make_workdir(prefix: str) -> Path:
    """A fresh directory under .bench_work/ in the checkout."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=ROOT / ".bench_work"))


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def run_child(cmd: list[str], out_path: Path, env: dict) -> tuple[float, int]:
    """Run one child process to completion; its wall seconds and exit
    code.  stdout goes to out_path, stderr beside it."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        return time.perf_counter() - t0, proc.returncode


def peak_rss_mib(path: Path) -> float:
    """The VmHWM line a plain job wrote, in MiB; 0 if it wrote none."""
    try:
        return int(path.read_text().split()[1]) / 1024.0
    except FileNotFoundError:
        return 0.0


class Speedometer:
    def __init__(self, work: Path, env: dict):
        self.work, self.env = work, env
        self.last = self._probe()

    def _probe(self) -> float:
        wall, code = run_child([sys.executable, "-c", PROBE], self.work / "probe.out", self.env)
        if code != 0:
            raise RuntimeError("the speed probe failed")
        return wall

    def scale(self) -> float:
        """Probe again; the scale of whatever ran since the last probe."""
        before, self.last = self.last, self._probe()
        return 2 * REFERENCE_PROBE_S / (before + self.last)


def run_pass(jobs, work: Path, env: dict, index: int, traced: bool, speed: Speedometer) -> Pass:
    """One closed-loop pass over the jobs."""
    runs = []
    for k, job in enumerate(jobs):
        stem = work / f"pass{index}-job{k}"
        args = job.cli_args(work)
        if traced:
            trace_path = stem.with_suffix(".trace")
            cmd = [sys.executable, str(ROOT / "perfbench" / "traced_job.py"),
                   str(trace_path), f"{index}.{k}", *args]
        else:
            trace_path = None
            cmd = [sys.executable, "-c", PLAIN_JOB, str(stem.with_suffix(".rss")), *args]
        wall, code = run_child(cmd, stem.with_suffix(".out"), env)
        rss = 0.0 if traced else peak_rss_mib(stem.with_suffix(".rss"))
        runs.append(JobRun(job, wall, speed.scale(), rss, code, stem.with_suffix(".out"),
                           trace_path))
    return Pass(runs, traced)


def check_run(run: JobRun, references: dict) -> str | None:
    """Why the job failed, or None if its exit code and output are right."""
    problems = []
    if run.exit_code != 0:
        err = run.out_path.with_suffix(".err").read_text(errors="replace").strip()
        problems.append(f"exit code {run.exit_code}" + (f" ({err[-200:]})" if err else ""))
    problems.append(workloads.verify_output(run.job, run.out_path.read_text(), references))
    if run.trace_path is not None and not run.trace_path.is_file():
        problems.append("traced job wrote no trace")
    return "; ".join(p[:300] for p in problems if p) or None


def set_up(workload: str, seed: int, identities_seed: int, work: Path, env: dict):
    """Time a fresh interpreter importing the CLI and building its parser,
    plus generating the workload's inputs; returns (seconds, jobs)."""
    cmd = [sys.executable, "-c", "import vertexfock.cli as c; c.build_parser()"]
    wall, code = run_child(cmd, work / "setup.out", env)
    if code != 0:
        raise RuntimeError("the vertexfock CLI does not import: "
                           + (work / "setup.err").read_text(errors="replace")[-300:])
    t0 = time.perf_counter()
    workloads.write_inputs(work)
    jobs = workloads.jobs_for(workload, identities_seed)
    random.Random(seed).shuffle(jobs)
    return wall + time.perf_counter() - t0, jobs


def subcommand_walls(passes: list[Pass], subcommands) -> dict[str, float]:
    """Median over passes of the summed, rescaled wall of each
    subcommand's jobs."""
    return {
        sub: statistics.median(sum((r.wall * r.scale for r in p.runs if r.job.subcommand == sub),
                                   0.0)
                               for p in passes)
        for sub in subcommands
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--identities-seed", type=int, choices=workloads.IDENTITY_SEEDS,
                    default=workloads.IDENTITY_SEEDS[0],
                    help="seed of the identity suite; both sides of a comparison use the same")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vertexfock" / "cli.py").is_file():
        print(f"error: no vertexfock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = workloads.load_references()
    env = child_env()

    work = make_workdir(f"{args.workload}.")
    try:
        # set-up samples are spread over the run, like the passes, so that
        # both see the same mix of the machine's slow and fast spells
        setup = []  # (raw seconds, scale)
        passes = []
        speed = Speedometer(work, env)
        deadline = time.perf_counter() + args.seconds
        while True:
            samples = []
            for _ in range(SETUP_PER_PASS):
                seconds, jobs = set_up(args.workload, args.seed, args.identities_seed, work, env)
                samples.append(seconds)
            scale = speed.scale()
            setup.extend((seconds, scale) for seconds in samples)
            for tracing in (False, True) if args.trace else (False,):
                passes.append(run_pass(jobs, work, env, len(passes), tracing, speed))
            if time.perf_counter() >= deadline:
                break
        plain = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]

        runs = [r for p in passes for r in p.runs]
        failures = []
        for r in runs:
            problem = check_run(r, references)
            if problem:
                failures.append(f"{r.job.name}: {problem}")
        problems = list(failures)

        e2e = {"wall_s": statistics.median(p.scaled for p in plain),
               "peak_rss_mb": statistics.median(max(r.rss_mib for r in p.runs) for p in plain),
               "setup_s": statistics.median(seconds * scale for seconds, scale in setup)}
        layers = None
        if args.trace and all(r.trace_path.is_file() for p in traced for r in p.runs):
            per_pass = []
            for p in traced:
                m = tracer.layer_metrics([tracer.read_trace(r.trace_path) for r in p.runs])
                scale = p.scaled / p.wall
                per_pass.append({k: v * scale if k.endswith("_s") else v for k, v in m.items()})
            counts = [{k: v for k, v in m.items() if k.endswith(tracer.COUNT_SUFFIXES)}
                      for m in per_pass]
            if any(c != counts[0] for c in counts):
                problems.append("per-layer counts differ between traced passes")
            layers = {k: v if k.endswith(tracer.COUNT_SUFFIXES)
                      else statistics.median(m[k] for m in per_pass)
                      for k, v in per_pass[0].items()}
            subs = [m["name"][len("cli."):-len(".wall_s")] for m in spec["per_layer"]
                    if m["name"].startswith("cli.") and m["name"].endswith(".wall_s")]
            layers.update({f"cli.{s}.wall_s": w for s, w in subcommand_walls(plain, subs).items()})
            layers["trace.overhead_ratio"] = (statistics.median(p.scaled for p in traced)
                                              / e2e["wall_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values, wanted = (layers, spec["per_layer"]) if args.trace else (e2e, spec["end_to_end"])
    metrics = {}
    if values is not None:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}: {len(plain)} untraced and {len(traced)} traced passes "
          f"of {len(jobs)} jobs, seed {args.seed}, identity-suite seed {args.identities_seed}; "
          f"times at reference speed (probe {REFERENCE_PROBE_S} s), raw in brackets")
    print(f"  wall_s        {e2e['wall_s']:.4f} s  [{statistics.median(p.wall for p in plain):.4f}]"
          "  per pass: " + " ".join(f"{p.scaled:.3f} [{p.wall:.3f}]" for p in plain))
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MiB")
    print(f"  setup_s       {e2e['setup_s']:.4f} s  "
          f"[{statistics.median(seconds for seconds, _ in setup):.4f}]  median of {len(setup)}")
    print(f"  failed_ratio  {len(failures) / len(runs):.4f}    "
          f"({len(failures)} of {len(runs)} jobs failed)")
    for p in problems:
        print(f"  FAILED {p}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": len(runs), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
