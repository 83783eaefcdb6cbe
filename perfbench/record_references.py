"""Record the reference fingerprint of every benchmark job.

    python3 perfbench/record_references.py

Run from the root of a source checkout whose outputs are known good.
Each job runs once, untraced; its output must pass the job's semantic
checks before its canonical-JSON SHA-256 is written to
references.json.  A change to the engine that alters any fingerprint
alters an exact answer, so re-recording is never part of a
performance change.
"""

import json
import shutil
import sys

import workloads
from run import child_env, make_workdir, run_child


def main() -> int:
    env = child_env()
    refs = {}
    work = make_workdir("references.")
    try:
        workloads.write_inputs(work)
        jobs = {j.name: j for w in workloads.WORKLOADS for s in workloads.IDENTITY_SEEDS
                for j in workloads.jobs_for(w, s)}
        for name, job in sorted(jobs.items()):
            out = work / "job.out"
            wall, code = run_child(
                [sys.executable, "-m", "vertexfock.cli", *job.cli_args(work)], out, env)
            data = json.loads(out.read_text())
            problem = job.check(data) if code == 0 else f"exit code {code}"
            if problem:
                print(f"{name}: {problem}", file=sys.stderr)
                return 1
            refs[name] = workloads.fingerprint(data)
            print(f"{name:45s} {wall:7.2f} s {refs[name][:16]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
