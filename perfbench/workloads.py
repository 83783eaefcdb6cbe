"""The benchmark's workloads: fixed sequences of vertexfock CLI jobs,
each with the checks its output must pass.

Every job's JSON output is checked twice: against semantic facts that
hold for any correct engine (no mismatches, a frozen dimension, ...)
and against the SHA-256 of its canonical JSON recorded in
``references.json``.  Job sizes are set so that one pass of a workload
takes a few seconds on a 2-core box; the why of each workload is in
BENCHMARK.json and METRICS.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCES = Path(__file__).resolve().parent / "references.json"

# seeds of the randomized identity suite: the default one, and one held
# out to confirm a claim made on the default
IDENTITY_SEEDS = (1, 2)

SPAN_GENERATORS = "J[0]\nJ[1]\nJ[2]\n"


@dataclass(frozen=True)
class Job:
    name: str  # stable id; keys the reference fingerprint
    argv: tuple[str, ...]  # CLI arguments; "{inputs}" is the run's input directory
    check: Callable[[dict], str | None]

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def cli_args(self, inputs: Path) -> list[str]:
        return [a.replace("{inputs}", str(inputs)) for a in self.argv]


def fields(**want):
    """Check that the output has these exact top-level values."""
    def check(out):
        got = {k: out.get(k) for k in want}
        return None if got == want else f"expected {want}, got {got}"
    return check


def vector_count(n: int):
    def check(out):
        got = len(out["vectors"])
        return None if got == n else f"expected {n} singular vectors, got {got}"
    return check


def commutant_dims(dims: list[int]):
    def check(out):
        got = [e["dimension"] for e in out["weights"]]
        return None if got == dims else f"expected dimensions {dims}, got {got}"
    return check


def _winf(kind, lmax, kmax, mw, md, checked):
    return Job(
        f"winf-verify.{kind}.l{lmax}k{kmax}w{mw}d{md}",
        ("winf-verify", "--n", "1", "--kind", kind, "--lmax", str(lmax), "--kmax", str(kmax),
         "--max-weight", str(mw), "--max-degree", str(md)),
        fields(checked=checked, mismatches=[]),
    )


def _identities(algebra, rank, trials, seed):
    return Job(
        f"verify-identities.{algebra}{rank}.t{trials}.seed{seed}",
        ("verify-identities", "--algebra", algebra, "--rank", str(rank), "--trials", str(trials),
         "--max-weight", "5", "--max-degree", "4", "--seed", str(seed)),
        fields(mismatches=[], trials=trials, algebra=f"{algebra}:{rank}"),
    )


def _singular(c, weight, vectors):
    return Job(f"singular.c{c}.w{weight}", ("singular", "--c", c, "--weight", str(weight)),
               vector_count(vectors))


def jobs_for(workload: str, identities_seed: int = IDENTITY_SEEDS[0]) -> list[Job]:
    if workload == "rep-check":
        return [
            _winf("bg", 2, 2, 4, 4, checked=15600),
            _winf("bc", 2, 2, 5, 4, checked=10500),
        ]
    if workload == "identities":
        return [
            _identities("bg", 2, 30, identities_seed),
            _identities("bcbg", 1, 15, identities_seed),
        ]
    if workload == "vacuum":
        return [
            # c = -1 is realized by bg rank 1 and has its singular vector at
            # weight 4; the weight-6 slices are the dense eliminations
            _singular("-1", 4, vectors=1),
            _singular("-1", 6, vectors=0),
            _singular("7/3", 6, vectors=0),
            Job("ideal-kernel.n1.w8", ("ideal-kernel", "--n", "1", "--weight", "8"),
                fields(dimension=54)),
            Job("decouple.n1.l6.g2", ("decouple", "--n", "1", "--l", "6", "--g", "2"),
                fields(found=True, reverified=True)),
        ]
    if workload == "invariants":
        return [
            Job("inv-dims.sl2.r2.w7d7",
                ("inv-dims", "--action", "sl2", "--rank", "2", "--max-weight", "7", "--max-degree", "7"),
                fields(equal=True)),
            Job("inv-dims.torus.r2.w8d8",
                ("inv-dims", "--action", "torus:1,-1", "--rank", "2",
                 "--max-weight", "8", "--max-degree", "8"),
                fields(equal=True)),
            Job("commutant.q1.w7d8",
                ("commutant", "--charges", "1", "--max-weight", "7", "--max-degree", "8"),
                commutant_dims([1, 0, 1, 2, 3, 3, 4, 4])),
            Job("span-check.torus1.J012.w7",
                ("span-check", "--action", "torus:1", "--gens", "{inputs}/gens.txt",
                 "--max-weight", "7", "--max-len", "7"),
                fields(status="success")),
        ]
    raise KeyError(workload)


WORKLOADS = ("rep-check", "identities", "vacuum", "invariants")


def write_inputs(inputs: Path) -> None:
    """Generate the input files the jobs read."""
    (inputs / "gens.txt").write_text(SPAN_GENERATORS)


def fingerprint(out: dict) -> str:
    canonical = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_references() -> dict[str, str]:
    return json.loads(REFERENCES.read_text())


def verify_output(job: Job, text: str, references: dict[str, str]) -> str | None:
    """None if the output passes the semantic checks and matches the
    reference fingerprint; otherwise the reason it does not."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    try:
        problem = job.check(out)
    except (KeyError, TypeError) as exc:
        problem = f"output lacks an expected field: {exc!r}"
    if problem:
        return problem
    if fingerprint(out) != references.get(job.name):
        return "output differs from the reference fingerprint"
    return None
