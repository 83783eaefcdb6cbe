import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from argparse import Namespace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexfock import cli
from vertexfock.cli import main
from vertexfock.fock import AlgebraDescriptor, state_to_json
from vertexfock.ope import IdentityReport
from vertexfock.verify import random_homogeneous_state
from vertexfock.verma import singular_vectors


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_ope(capsys):
    rc, out, _ = run(capsys, "ope", "beta[1]", "gamma[1]", "--rank", "1", "--algebra", "bg")
    assert rc == 0
    obj = json.loads(out)
    assert obj["locality_bound"] == 2
    assert obj["poles"] == [[1, {"terms": [[[], "1"]]}]]


def test_eval_text(capsys):
    rc, out, _ = run(capsys, "eval", "CP(J[0], 1, J[0])", "--rank", "2", "--format", "text")
    assert rc == 0
    assert out.strip() == "-2 * vac"


def test_eval_out_file(capsys, tmp_path):
    path = tmp_path / "state.json"
    rc, out, _ = run(capsys, "eval", "vac", "--out", str(path))
    assert rc == 0
    assert json.loads(path.read_text()) == {"terms": [[[], "1"]]}


def test_verify_identities(capsys):
    rc, out, _ = run(
        capsys, "verify-identities", "--trials", "8", "--seed", "3",
        "--max-weight", "3", "--max-degree", "2", "--rank", "1", "--algebra", "bcbg",
    )
    assert rc == 0
    assert json.loads(out)["mismatches"] == []


def test_identity_mismatch_carries_its_seed_and_replays_through_eval(capsys, monkeypatch):
    monkeypatch.setattr("vertexfock.verify.check_identities",
                        lambda a, b, c, n: IdentityReport(n, {"iterate": a}))
    alg = ("--rank", "1", "--algebra", "bcbg")
    rc, out, _ = run(capsys, "verify-identities", "--trials", "3", "--seed", "7",
                     "--max-weight", "3", "--max-degree", "2", *alg)
    assert rc == 1
    mismatches = json.loads(out)["mismatches"]
    assert [(m["trial"], m["seed"]) for m in mismatches] == [(0, 7), (1, 7), (2, 7)]
    # the seed regenerates the triples, and each expression evaluates back to its state
    rng = random.Random(7)
    for m in mismatches:
        triple = [random_homogeneous_state(rng, AlgebraDescriptor("bcbg", 1), 3, 2) for _ in range(3)]
        assert rng.choice([1, 2, 3]) == m["n"]
        for key, state in zip("abc", triple):
            rc, out, _ = run(capsys, "eval", m[key], *alg)
            assert rc == 0 and json.loads(out) == state_to_json(state)


def test_winf_verify(capsys):
    rc, out, _ = run(
        capsys, "winf-verify", "--n", "1", "--kind", "bc",
        "--lmax", "1", "--kmax", "1", "--max-weight", "2", "--max-degree", "2",
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["mismatches"] == [] and obj["checked"] > 0


def test_matrices(capsys):
    rc, out, _ = run(capsys, "matrices", "--w", "1", "--m", "0")
    assert rc == 0
    obj = json.loads(out)
    assert obj["action_matrix"]["entries"] == [[0, 0, "-1"], [0, 1, "2"], [1, 0, "-1"]]
    assert obj["det_rising_product_matrix"] == "1"


def test_express_map(capsys):
    rc, out, _ = run(capsys, "express-map", "--w", "1", "--m", "0", "--c", "-1", "--d", "-1")
    assert rc == 0
    assert json.loads(out)["t"] == ["1", "0"]


def test_singular_empty_is_success(capsys):
    rc, out, _ = run(capsys, "singular", "--c", "-1", "--weight", "3")
    assert rc == 0
    assert json.loads(out)["vectors"] == []


def test_ideal_kernel(capsys):
    rc, out, _ = run(capsys, "ideal-kernel", "--n", "1", "--weight", "4")
    assert rc == 0
    assert json.loads(out)["dimension"] == 1


def test_decouple_exit_codes(capsys):
    rc, out, _ = run(capsys, "decouple", "--n", "1", "--l", "3", "--g", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["found"] and obj["reverified"]
    assert obj["target"] == "J^3" and obj["weight"] == 4
    rc, out, _ = run(capsys, "decouple", "--n", "1", "--l", "2", "--g", "1")
    assert rc == 3


def test_inv_dims_csv(capsys):
    rc, out, _ = run(
        capsys, "inv-dims", "--action", "torus:1", "--max-weight", "2",
        "--max-degree", "2", "--format", "csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,degree,dim_state_side,dim_gr_side,equal"
    assert "1,2,1,1,True" in lines


def test_span_check_exit_codes(capsys, tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("J[0]\nJ[1]\nJ[2]\n# a comment\n")
    rc, out, _ = run(
        capsys, "span-check", "--action", "torus:1", "--gens", str(gens),
        "--max-weight", "4", "--max-len", "4",
    )
    assert rc == 0
    assert json.loads(out)["status"] == "success"
    gens.write_text("J[0]\n")
    rc, out, _ = run(
        capsys, "span-check", "--action", "torus:1", "--gens", str(gens),
        "--max-weight", "3", "--max-len", "3",
    )
    assert rc == 4
    assert json.loads(out)["first_deficiency"]["weight"] == 2
    # weight 0 is checked against the vacuum alone, so a weight-0
    # generator is refused rather than reported deficient
    gens.write_text("gamma[1]\nbeta[1]\n")
    rc, _, err = run(
        capsys, "span-check", "--action", "trivial", "--gens", str(gens),
        "--max-weight", "2", "--max-len", "3",
    )
    assert rc == 2 and "positive weight" in err


def test_commutant(capsys):
    rc, out, _ = run(
        capsys, "commutant", "--charges", "1", "--max-weight", "2", "--max-degree", "4",
    )
    assert rc == 0
    obj = json.loads(out)
    assert [e["dimension"] for e in obj["weights"]] == [1, 0, 1]


def test_usage_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "eval", "bb[1]", "--algebra", "bg")
    assert rc == 2 and "species" in err
    rc, _, err = run(capsys, "eval", "CP(vac, , vac)")
    assert rc == 2 and "byte 8" in err
    rc, _, err = run(capsys, "inv-dims", "--action", "nope", "--max-weight", "1", "--max-degree", "1")
    assert rc == 2
    rc, _, err = run(capsys, "inv-dims", "--action", "torus:1", "--max-weight", "99", "--max-degree", "1")
    assert rc == 2 and "ceiling" in err
    rc, _, err = run(capsys, "span-check", "--action", "sl2", "--gens", "/dev/null",
                     "--max-weight", "1", "--max-len", "1", "--rank", "1")
    assert rc == 2
    # --rank and --n are caps like any other
    rc, out, err = run(capsys, "inv-dims", "--action", "trivial", "--rank", "40",
                       "--max-weight", "4", "--max-degree", "4")
    assert rc == 2 and out == "" and "ceiling" in err
    rc, out, err = run(capsys, "winf-verify", "--n", "30", "--lmax", "0", "--kmax", "0")
    assert rc == 2 and out == "" and "ceiling" in err
    # so are the D^k powers, J[l] levels and CP indices of expressions
    for expr in ("D^200000(beta[1])", "CP(beta[1], 13, gamma[1])", "CP(beta[1], -13, gamma[1])",
                 "J[13]", "beta[1] + 2 * NO(gamma[1], D(D^13(beta[1])))"):
        rc, out, err = run(capsys, "eval", expr)
        assert rc == 2 and out == "" and "ceiling" in err, expr
    rc, out, err = run(capsys, "ope", "beta[1]", "D^13(gamma[1])")
    assert rc == 2 and out == "" and "ceiling" in err
    # express-map's entries grow as (w+k+l)!, so --w and --m are capped as in matrices
    rc, out, err = run(capsys, "express-map", "--w", "13", "--m", "0", "--c", "1", "--d", "1")
    assert rc == 2 and out == "" and "ceiling" in err
    gens = tmp_path / "gens.txt"
    gens.write_text("J[0]\nJ[13]\n")
    rc, out, err = run(capsys, "span-check", "--action", "torus:1", "--gens", str(gens),
                       "--max-weight", "2", "--max-len", "2")
    assert rc == 2 and out == "" and "ceiling" in err
    rc, out, _ = run(capsys, "eval", "CP(D^13(beta[1]), -13, gamma[1])", "--ceiling", "13")
    assert rc == 0 and json.loads(out)["terms"]
    # weight-0 factors leave the weight at 0, but the degree is bounded too
    many = "NO(" + ", ".join(["gamma[1]"] * 25) + ")"
    rc, out, err = run(capsys, "eval", many)
    assert rc == 2 and out == "" and "degree 25, above the bound 24" in err
    rc, out, _ = run(capsys, "eval", f"CP({many}, -1, gamma[1])", "--ceiling", "13")
    assert rc == 0 and json.loads(out)["terms"]
    rc, out, err = run(capsys, "eval", f"CP({many}, -1, NO(gamma[1], gamma[1]))", "--ceiling", "13")
    assert rc == 2 and out == "" and "CP(., -1, .) would have degree 27, above the bound 26" in err


def test_finite_action_keys_are_checked(capsys):
    caps = ("--max-weight", "2", "--max-degree", "2")
    rc, out, _ = run(capsys, "inv-dims", "--action", "finite:ord=2:chars=1", *caps)
    assert rc == 0 and json.loads(out)["equal"]
    # a repeated key used to win silently, and an unknown one was ignored
    for spec, word in (("finite:ord=2:chars=1:ord=3", "twice"),
                       ("finite:chars=1:ord=2:chars=1", "twice"),
                       ("finite:ord=2:chars=1:foo=1", "unknown"),
                       ("finite:ord=2:chars=1:", "unknown"),
                       ("finite:ord=2", "needs")):
        rc, out, err = run(capsys, "inv-dims", "--action", spec, *caps)
        assert rc == 2 and out == "" and word in err, spec


def test_gl_and_torus_specs(capsys):
    caps = ("--max-weight", "2", "--max-degree", "2")
    rc, out, _ = run(capsys, "inv-dims", "--action", "gl:2", "--rank", "2", *caps)
    assert rc == 0 and json.loads(out)["equal"]
    rc, out, err = run(capsys, "inv-dims", "--action", "gl:2", "--rank", "3", *caps)
    assert rc == 2 and out == "" and "--rank 2" in err
    # an empty charge entry used to be dropped, so torus:1,,1 read as torus:1,1
    for spec in ("torus:1,,1", "torus:1,1;", "torus:,1,1"):
        rc, out, _ = run(capsys, "inv-dims", "--action", spec, "--rank", "2", *caps)
        assert rc == 2 and out == "", spec


def test_gl_at_the_rank_ceiling_is_quick(capsys):
    # the Weyl signs of gl:12 are found per charge class, not from a table
    # of all 12! permutations
    start = time.perf_counter()
    rc, out, _ = run(capsys, "inv-dims", "--action", "gl:12", "--rank", "12",
                     "--max-weight", "0", "--max-degree", "0")
    assert rc == 0 and json.loads(out)["entries"][0]["dim_state_side"] == 1
    assert time.perf_counter() - start < 10


def test_commutant_zero_charge_row(capsys):
    for charges, rank in (("0", "1"), ("1,0;0,0", "2")):
        rc, out, err = run(capsys, "commutant", "--charges", charges, "--rank", rank,
                           "--max-weight", "2", "--max-degree", "2")
        assert rc == 2 and out == "" and "is zero" in err and "vanishes" in err, charges


def test_file_errors_are_usage_errors(capsys, tmp_path):
    # exit 1 means a verification mismatch, so an unreadable --gens or an
    # unwritable --out must not escape as a traceback
    span = ("span-check", "--action", "torus:1", "--max-weight", "3", "--max-len", "3")
    for gens in (tmp_path / "missing.txt", tmp_path):
        rc, out, err = run(capsys, *span, "--gens", str(gens))
        assert rc == 2 and out == "" and err.startswith("error: "), gens
    for path in (tmp_path, tmp_path / "missing" / "out.json"):
        rc, out, err = run(capsys, "eval", "vac", "--out", str(path))
        assert rc == 2 and out == "" and err.startswith("error: "), path


def test_closed_stdout_is_not_a_usage_error(capsys, monkeypatch):
    # a reader that went away (`| head`) is 128 + SIGPIPE, with no error
    # line, whether it left before the first write or partway through a
    # document of many batches (375 kB, about 40 batches)
    class ClosingPipe:
        def __init__(self, accepts):
            self.accepts, self.written = accepts, []

        def write(self, text):
            if len(self.written) == self.accepts:
                raise BrokenPipeError(32, "Broken pipe")
            self.written.append(text)

    for accepts, argv in (
        (0, ["inv-dims", "--action", "torus:1", "--max-weight", "2", "--max-degree", "2"]),
        (3, ["ideal-kernel", "--n", "1", "--weight", "8"]),
    ):
        pipe = ClosingPipe(accepts)
        monkeypatch.setattr(sys, "stdout", pipe)
        rc = main(argv)
        replaced = sys.stdout
        replaced.close()
        assert rc == 141
        assert replaced.name == os.devnull
        assert capsys.readouterr().err == ""
        assert len(pipe.written) == accepts


# more digits than int -> str converts, so the JSON encoder refuses it
_UNPRINTABLE = 10 ** 5000


def _document(unprintable_at: int | None) -> dict:
    """Three batches' worth of chunks, with one item the encoder refuses
    at the given position (None: a document that encodes)."""
    items = ["x"] * (3 * cli.JSON_BATCH)
    if unprintable_at is not None:
        items.insert(unprintable_at, _UNPRINTABLE)
    return {"items": items}


def _refusal() -> str:
    """The error line for the encoder's refusal."""
    with pytest.raises(ValueError) as refused:
        json.dumps(_UNPRINTABLE)
    return f"error: {refused.value}\n"


def _emit_document(capsys, monkeypatch, doc, *out):
    monkeypatch.setattr("vertexfock.cli.state_to_json", lambda s: doc)
    return run(capsys, "eval", "vac", *out)


def test_encoder_failure_before_the_first_batch_writes_nothing(capsys, monkeypatch, tmp_path):
    line = _refusal()
    doc = _document(0)
    assert _emit_document(capsys, monkeypatch, doc) == (2, "", line)
    missing, kept = tmp_path / "missing.json", tmp_path / "kept.json"
    kept.write_text("kept\n")
    for path in (missing, kept):
        assert _emit_document(capsys, monkeypatch, doc, "--out", str(path)) == (2, "", line)
    assert not missing.exists()
    assert kept.read_text() == "kept\n"


def test_encoder_failure_after_the_first_batch_leaves_a_truncated_document(
    capsys, monkeypatch, tmp_path
):
    line = _refusal()
    doc = _document(-1)
    whole = json.dumps(_document(None), indent=2, sort_keys=True)
    rc, out, err = _emit_document(capsys, monkeypatch, doc)
    assert (rc, err) == (2, line)
    assert len(out) > len(whole) // 2 and whole.startswith(out)
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    path = tmp_path / "out.json"
    assert _emit_document(capsys, monkeypatch, doc, "--out", str(path)) == (2, "", line)
    assert path.read_text() == out


def test_emitting_a_document_holds_a_batch_not_the_document(capsys, monkeypatch, tmp_path):
    # json.dumps with an indent joins a list of every chunk, about 6x the
    # document's length; batched writes hold about a seventh of it here
    real, peaks = cli._emit, []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            real(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr("vertexfock.cli._emit", traced)
    path = tmp_path / "kernel.json"
    rc, out, err = run(capsys, "ideal-kernel", "--n", "1", "--weight", "8", "--out", str(path))
    assert (rc, out, err) == (0, "", "")
    size = path.stat().st_size
    assert size > 300_000 and json.loads(path.read_text())["dimension"] == 54
    assert peaks[0] < size / 4, (peaks, size)


def test_negative_caps_and_trials_are_usage_errors(capsys):
    # a negative range would check nothing and pass vacuously
    for flag, value in (("--lmax", "-1"), ("--kmax", "-2"), ("--max-weight", "-3")):
        rc, out, err = run(capsys, "winf-verify", "--n", "1", flag, value)
        assert rc == 2 and out == "" and "negative" in err, flag
    rc, out, err = run(capsys, "verify-identities", "--trials", "-5")
    assert rc == 2 and out == "" and "negative" in err


def test_condition_caps_are_bounded(capsys, monkeypatch):
    # a negative --lcap or --jcap imposes no condition, so every word
    # would pass as singular; --g is a cap like them
    def refuse(*args, **kwargs):
        raise AssertionError("the computation ran on a refused cap")

    monkeypatch.setattr("vertexfock.cli.singular_vectors", refuse)
    monkeypatch.setattr("vertexfock.cli.decoupling_relation", refuse)
    for flag, value in (("--lcap", "-1"), ("--jcap", "-2"), ("--lcap", "13"), ("--jcap", "13")):
        rc, out, err = run(capsys, "singular", "--c", "-1", "--weight", "4", flag, value)
        assert rc == 2 and out == "" and err.startswith("error: cap"), (flag, value)
    for value in ("-1", "13"):
        rc, out, err = run(capsys, "decouple", "--n", "1", "--l", "3", "--g", value)
        assert rc == 2 and out == "" and err.startswith("error: cap"), value


def test_singular_jcap_zero_is_refused(capsys):
    # j ranges over 1..j_cap, so --jcap 0 would pass every word as singular
    rc, out, err = run(capsys, "singular", "--c", "-1", "--weight", "4", "--jcap", "0")
    assert rc == 2 and out == "" and "j_cap 0 imposes no condition" in err
    with pytest.raises(ValueError):
        singular_vectors(-1, 4, j_cap=0)
    # at weight 0 the vacuum is singular whatever the caps
    rc, out, _ = run(capsys, "singular", "--c", "-1", "--weight", "0", "--jcap", "0")
    assert rc == 0 and json.loads(out)["vectors"] == [[[[], "1"]]]


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["inv-dims", "--action", "trivial", "--max-weight", "2", "--max-degree", "2"]
    rc, want, _ = run(capsys, *argv)
    assert rc == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-m", "vertexfock", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


def test_eval_refuses_products_above_twice_the_ceiling(capsys):
    # every index is within the ceiling, but each CP(., -12, J[3]) adds
    # at least 15 to the weight; the refusal comes before the product
    nested = "CP(CP(CP(CP(J[3], -12, J[3]), -12, J[3]), -12, J[3]), -12, J[3])"
    rc, out, err = run(capsys, "eval", nested, "--rank", "2")
    assert rc == 2 and out == "" and "weight 34, above the bound 24" in err
    for expr in ("NO(J[12], J[12])", "D^12(D^12(D^2(beta[1])))"):
        rc, out, err = run(capsys, "eval", expr)
        assert rc == 2 and out == "" and "above the bound 24" in err, expr
    rc, out, err = run(capsys, "ope", "CP(J[12], -12, J[0])", "J[0]")
    assert rc == 2 and out == "" and "above the bound 24" in err
    # weight 24 itself is allowed
    rc, out, _ = run(capsys, "eval", "CP(D^12(beta[1]), -12, gamma[1])")
    assert rc == 0 and json.loads(out)["terms"]


def test_unwritable_out_fails_before_computing(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("singular_vectors ran before --out was checked")

    monkeypatch.setattr("vertexfock.cli.singular_vectors", refuse)
    for path in ("/nonexistent/x.json", str(tmp_path)):
        rc, out, err = run(capsys, "--out", path, "singular", "--c", "-1", "--weight", "6")
        assert rc == 2 and out == "" and err.startswith("error: "), path
    assert list(tmp_path.iterdir()) == []


def test_row_parsing_usage_errors(capsys):
    caps = ("--max-weight", "1", "--max-degree", "1")
    for argv, message in (
        (("inv-dims", "--action", "torus:1,2", "--rank", "1"),
         "charge row (1, 2) does not match --rank 1"),
        (("inv-dims", "--action", "finite:ord=2:chars=1,2", "--rank", "1"),
         "character row (1, 2) does not match --rank 1"),
        (("commutant", "--charges", "1,2", "--rank", "1"),
         "charge row (1, 2) does not match --rank 1"),
        (("commutant", "--charges", "0"), "charge row (0,) is zero, so its current vanishes"),
        (("commutant", "--algebra", "bc", "--charges", "1"), "commutants are computed in the bg system"),
        (("inv-dims", "--action", "torus:1,,1", "--rank", "2"),
         "charge row '1,,1' is not a list of integers"),
        (("inv-dims", "--action", "gl:x", "--rank", "2"), "action 'gl:x' does not name an integer rank"),
        (("inv-dims", "--action", "finite:ord=x:chars=1", "--rank", "1"),
         "finite-action order 'x' is not an integer"),
        (("inv-dims", "--action", "finite:ord=2:chars=1;y", "--rank", "1"),
         "character row 'y' is not a list of integers"),
        (("commutant", "--charges", "1;x"), "charge row 'x' is not a list of integers"),
    ):
        rc, out, err = run(capsys, *argv, *caps)
        assert (rc, out, err) == (2, "", f"error: {message}\n"), argv


def test_csv_is_refused_before_computing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("singular_vectors ran before --format csv was checked")

    monkeypatch.setattr("vertexfock.cli.singular_vectors", refuse)
    rc, out, err = run(capsys, "singular", "--c", "-1", "--weight", "6", "--format", "csv")
    assert (rc, out, err) == (2, "", "error: this subcommand has no CSV form\n")


def test_negative_rational_values_parse_space_separated(capsys):
    rc, out, _ = run(capsys, "singular", "--c", "-1/2", "--weight", "2")
    assert rc == 0 and json.loads(out)["central_charge"] == "-1/2"
    assert run(capsys, "singular", "--c=-1/2", "--weight", "2")[1] == out
    rc, out, _ = run(capsys, "express-map", "--w", "2", "--m", "1", "--c", "1/2,3", "--d", "-1,2/3")
    assert rc == 0
    assert run(capsys, "express-map", "--w", "2", "--m", "1", "--c=1/2,3", "--d=-1,2/3")[1] == out


def test_charge_rows_may_start_with_a_negative_entry(capsys):
    for charges in ("-1,2", "-1,2;0,1"):
        args = ("--rank", "2", "--max-weight", "2", "--max-degree", "2")
        rc, out, _ = run(capsys, "commutant", "--charges", charges, *args)
        assert rc == 0 and json.loads(out)["charges"][0] == [-1, 2], charges
        assert run(capsys, "commutant", f"--charges={charges}", *args)[1] == out


def test_eval_zero_denominator_is_usage_error(capsys):
    rc, out, err = run(capsys, "eval", "1/0 * beta[1]")
    assert rc == 2 and out == "" and err.startswith("error:")


def test_eval_deep_nesting_is_usage_error(capsys):
    depth = 3000
    rc, out, err = run(capsys, "eval", "(" * depth + "beta[1]" + ")" * depth)
    assert rc == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("exc", [OverflowError("int too large"), MemoryError()])
def test_overflow_and_memory_errors_are_usage_errors(capsys, monkeypatch, exc):
    # exit 1 means a verification mismatch, so a size too large to
    # compute with must not leave through a traceback
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("vertexfock.cli.verify_rep", fail)
    rc, out, err = run(capsys, "winf-verify", "--n", "1", "--lmax", "1", "--kmax", "1")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_determinism(capsys):
    rc1, out1, _ = run(capsys, "singular", "--c", "-1", "--weight", "4")
    rc2, out2, _ = run(capsys, "singular", "--c", "-1", "--weight", "4")
    assert (rc1, out1) == (rc2, out2)
    rc1, out1, _ = run(capsys, "verify-identities", "--trials", "4", "--seed", "9")
    rc2, out2, _ = run(capsys, "verify-identities", "--trials", "4", "--seed", "9")
    assert out1 == out2


# small caps, now and then a negative or non-integer one
_CAP = st.sampled_from(["0", "1", "1", "2", "2", "3"] * 2 + ["-1", "x"])
_EXPR = st.sampled_from(["vac", "beta[1]", "gamma[2]", "bb[1]", "J[1]", "D^2(gamma[1])",
                         "CP(J[0], 1, J[0])", "NO(gamma[1], beta[1])", "CP(", "1/0 * vac"])
# per subcommand: its positionals, then (flag, values, always given); a
# flag whose default is costly (--trials 100, ...) is always given
_COMMANDS = {
    "ope": ([_EXPR, _EXPR], []),
    "eval": ([_EXPR], []),
    "verify-identities": ([], [("--trials", _CAP, True), ("--max-weight", _CAP, True),
                              ("--max-degree", _CAP, True), ("--seed", _CAP, False)]),
    "winf-verify": ([], [("--n", st.sampled_from(["1", "2", "0", "x"]), True),
                         ("--kind", st.sampled_from(["bg", "bc", "xx"]), False),
                         ("--lmax", _CAP, True), ("--kmax", _CAP, True),
                         ("--max-weight", _CAP, True), ("--max-degree", _CAP, True)]),
    "matrices": ([], [("--w", _CAP, True), ("--m", _CAP, True), ("--r", _CAP, False)]),
    "express-map": ([], [("--w", _CAP, True), ("--m", _CAP, True),
                         ("--c", st.sampled_from(["1", "1,2", "1,-1/2", "x", "1/0"]), True),
                         ("--d", st.sampled_from(["1", "2,1", "0,3", "x"]), True)]),
    "singular": ([], [("--c", st.sampled_from(["-1", "-2", "7/3", "1/0", "x"]), True),
                      ("--weight", _CAP, True), ("--lcap", _CAP, False), ("--jcap", _CAP, False)]),
    "ideal-kernel": ([], [("--n", st.sampled_from(["1", "2", "-1", "x"]), True),
                          ("--weight", _CAP, True)]),
    "decouple": ([], [("--n", st.sampled_from(["1", "2", "-1", "x"]), True), ("--l", _CAP, True),
                      ("--g", _CAP, True)]),
    "inv-dims": ([], [("--action", st.sampled_from(["trivial", "torus:1", "sl2", "gl:2",
                                                    "finite:ord=2:chars=1", "nope", "torus:1,,1"]),
                       True), ("--max-weight", _CAP, True), ("--max-degree", _CAP, True)]),
    "span-check": ([], [("--action", st.sampled_from(["trivial", "torus:1", "sl2", "nope"]), True),
                        ("--gens", st.sampled_from(["GENS", "MISSING"]), True),
                        ("--max-weight", _CAP, True), ("--max-len", _CAP, True)]),
    "commutant": ([], [("--charges", st.sampled_from(["1", "1,-1", "0", "x"]), True),
                       ("--max-weight", _CAP, True), ("--max-degree", _CAP, True)]),
}
_GLOBALS = [("--rank", st.sampled_from(["1", "2", "2", "3", "0", "x"])),
            ("--algebra", st.sampled_from(["bg", "bc", "bcbg", "zz"])),
            ("--format", st.sampled_from(["json", "json", "csv", "text"])),
            ("--ceiling", st.sampled_from(["12", "12", "2", "-1"])),
            ("--out", st.sampled_from(["OUT", "OUT", "/nonexistent/out.json"]))]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positionals, flags = _COMMANDS[command]
    argv = [command, *(draw(p) for p in positionals)]
    for flag, values, always in flags:
        if always or draw(st.booleans()):
            argv += [flag, draw(values)]
    for flag, values in _GLOBALS:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "gens.txt").write_text("J[0]\nJ[1]\n")
    return {"GENS": str(root / "gens.txt"), "MISSING": str(root / "missing.txt"),
            "OUT": str(root / "out.json")}


@settings(max_examples=80, deadline=None)
@given(argv=cli_argv())
def test_exit_codes_keep_their_contract(cli_files, argv):
    """Random argument lists exit 0, 2, 3 or 4 with no traceback: the
    engine is correct, so no verification mismatch (exit 1) can occur,
    and every refusal is a usage error."""
    argv = [cli_files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            rc = exc.code
    assert rc in (0, 2, 3, 4), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


_JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€😀'))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=8,
)
# a value repeated 2-4 batches' worth of times crosses several boundaries
_JSON_DOCUMENTS = _JSON_VALUES | st.builds(
    lambda value, times: [value] * times,
    _JSON_VALUES,
    st.integers(2 * cli.JSON_BATCH, 4 * cli.JSON_BATCH),
)


@settings(max_examples=40, deadline=None)
@given(obj=_JSON_DOCUMENTS)
def test_json_is_written_as_dumps_would_write_it(cli_files, obj):
    class Writes(list):
        write = list.append

    expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    chunks = sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj))
    writes = Writes()
    with contextlib.redirect_stdout(writes):
        cli._emit(Namespace(format="json", out=None), obj, None)
    assert "".join(writes) == expected
    # one write per batch, then the newline
    assert len(writes) == -(-chunks // cli.JSON_BATCH) + 1
    cli._emit(Namespace(format="json", out=cli_files["OUT"]), obj, None)
    assert Path(cli_files["OUT"]).read_text() == expected
