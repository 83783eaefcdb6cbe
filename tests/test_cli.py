import json

import pytest

from vertexfock.cli import main


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


def test_usage_errors(capsys):
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


def test_eval_zero_denominator_is_usage_error(capsys):
    rc, out, err = run(capsys, "eval", "1/0 * beta[1]")
    assert rc == 2 and out == "" and err.startswith("error:")


def test_eval_deep_nesting_is_usage_error(capsys):
    depth = 3000
    rc, out, err = run(capsys, "eval", "(" * depth + "beta[1]" + ")" * depth)
    assert rc == 2 and out == "" and err.startswith("error:")


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
