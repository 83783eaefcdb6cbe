"""Tests of the benchmark itself (not of vertexfock).

    python3 perfbench/check_bench.py            # or
    python3 -m pytest -q perfbench/check_bench.py

Run from the root of a source checkout.  The file is not named
``test_*.py`` so that the package's own test run does not collect it.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from run import ROOT, Speedometer, child_env, make_workdir, run_pass

sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

# quick jobs that between them reach every traced module
JOBS = [
    workloads.Job(f"quick{k}", argv, lambda out: None)
    for k, argv in enumerate([
        ("singular", "--c", "-1", "--weight", "4"),
        ("decouple", "--n", "1", "--l", "4", "--g", "2"),
        ("winf-verify", "--n", "1", "--kmax", "1", "--lmax", "1", "--max-weight", "2",
         "--max-degree", "2"),
        ("span-check", "--action", "torus:1", "--gens", "{inputs}/gens.txt",
         "--max-weight", "3", "--max-len", "3"),
        ("verify-identities", "--trials", "3", "--max-weight", "2", "--max-degree", "2"),
    ])
]


def _run_jobs(work: Path, traced: bool, index: int) -> tuple[list[bytes], list[Path]]:
    env = child_env()
    runs = run_pass(JOBS, work, env, index, traced, Speedometer(work, env)).runs
    for r in runs:
        assert r.exit_code == 0, (r.job.argv, r.out_path.with_suffix(".err").read_text())
    return [r.out_path.read_bytes() for r in runs], [r.trace_path for r in runs]


def _workdir() -> Path:
    work = make_workdir("check.")
    workloads.write_inputs(work)
    return work


def test_traced_output_is_byte_identical_and_counts_repeat():
    work = _workdir()
    try:
        plain, _ = _run_jobs(work, traced=False, index=0)
        first, traces1 = _run_jobs(work, traced=True, index=1)
        second, traces2 = _run_jobs(work, traced=True, index=2)
        assert first == plain and second == plain
        m1 = tracer.layer_metrics([tracer.read_trace(t) for t in traces1])
        m2 = tracer.layer_metrics([tracer.read_trace(t) for t in traces2])
        counts1 = {k: v for k, v in m1.items() if k.endswith(tracer.COUNT_SUFFIXES)}
        counts2 = {k: v for k, v in m2.items() if k.endswith(tracer.COUNT_SUFFIXES)}
        assert counts1 == counts2
        for layer, functions in tracer.TRACED.items():
            if layer != "linalg":  # rank, det and solve are not all reached
                assert any(m1[f"{layer}.{f}.calls"] for f in functions), layer
        assert m1["linalg.kernel_basis.calls"] and m1["linalg.nnz_sum"]
        assert m1["ope.memo_entries"] > 0 and m1["verma.act_memo_entries"] > 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _namespaces():
    return {(m.__name__, k): v for m in tracer.package_modules() for k, v in vars(m).items()}


def test_install_rebinds_every_copy_and_uninstall_restores():
    import vertexfock.cli  # noqa: F401  (loads every module of the package)
    from vertexfock import cli, ope, verify

    before = _namespaces()
    originals = {id(getattr(sys.modules["vertexfock." + layer], f))
                 for layer, functions in tracer.TRACED.items() for f in functions}
    copies = [k for k, v in before.items() if id(v) in originals]
    t = tracer.Tracer()
    t.install()
    try:
        during = _namespaces()
        for k in copies:
            assert during[k].__wrapped__ is before[k], k
        # the copies bound by "from .x import y" are caught too
        for module, name in ((ope, "circle"), (verify, "basis"), (cli, "identity_suite"),
                             (cli, "evaluate"), (sys.modules["vertexfock"], "kernel_basis")):
            assert (module.__name__, name) in copies
    finally:
        t.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_child_spans():
    import vertexfock.cli  # noqa: F401
    from vertexfock import linalg

    t = tracer.Tracer()
    t.install()
    try:
        assert linalg.rank_of_columns([{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 1}]) == 2
    finally:
        t.uninstall()
    names = [t.names[i] for i in t.span_name]
    assert names == ["linalg.rank_of_columns", "linalg.rank"]
    assert list(t.span_parent) == [-1, 0]
    assert t.sizes == {1: (3, 3, 5)}
    trace = {"names": t.names, "name": t.span_name, "parent": t.span_parent,
             "start": t.span_start, "end": t.span_end, "sizes": t.sizes, "gauges": {}}
    m = tracer.layer_metrics([trace])
    outer = t.span_end[0] - t.span_start[0]
    inner = t.span_end[1] - t.span_start[1]
    assert abs(m["linalg.rank_of_columns.self_s"] - (outer - inner)) < 1e-12
    assert abs(m["linalg.rank.self_s"] - inner) < 1e-12
    assert m["linalg.rows_max"] == 3 and m["linalg.nnz_sum"] == 5
    assert abs(m["linalg.fill_max"] - 5 / 9) < 1e-12


def test_output_gate_rejects_wrong_answers():
    job = workloads.Job("winf-verify.x", ("winf-verify",),
                        workloads.fields(checked=3, mismatches=[]))
    good = '{"checked": 3, "mismatches": []}'
    refs = {job.name: workloads.fingerprint({"checked": 3, "mismatches": []})}
    assert workloads.verify_output(job, good, refs) is None
    assert workloads.verify_output(job, '{"checked": 3, "mismatches": [], "x": 1}', refs)
    assert workloads.verify_output(job, '{"checked": 2, "mismatches": []}', refs)
    assert workloads.verify_output(job, '{"checked": 3}', refs)
    assert workloads.verify_output(job, "not json", refs)
    assert workloads.verify_output(job, good, {})


def test_every_job_has_a_reference():
    refs = workloads.load_references()
    names = {j.name for w in workloads.WORKLOADS for s in workloads.IDENTITY_SEEDS
             for j in workloads.jobs_for(w, s)}
    assert names == set(refs)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print("ok", test.__name__)
