"""Command-line front end.

Subcommands wrap the library module by module; every emission is
deterministic given the flags.  Exit codes: 0 success/found, 1
verification mismatch (winf-verify, verify-identities, and decouple
when the found relation does not re-verify), 2 usage error, 3 not
found (e.g. no decoupling relation), 4 deficiency (span-check), 141
stdout closed by its reader, as by ``| head`` (128 + SIGPIPE; no error).
Usage errors include a negative cap or --trials, a --jcap below 1 at
positive --weight (it would impose no condition), arithmetic on hostile
input (a zero denominator, an expression nested too deeply to
evaluate, an overflow or other ArithmeticError, a size that runs out of
memory), a --gens file that cannot be read, an --out path that
cannot be written, and --format csv for a subcommand without a CSV form
(only ope, inv-dims and commutant have one); the --out path and the
format are checked before any computation.
A JSON document is written in batches as it is encoded: a failure
before the first batch writes nothing (no --out file is created or
truncated), and one after it leaves the batches written, a truncated
document that does not parse; both exit as any other failure would.
Caps, --rank, --n, --lcap, --jcap and --g included, are guarded by a
configurable hard ceiling, and so are the D^k powers, J[l] levels and
CP indices |n| of every expression the CLI evaluates.  What these build
together is bounded too: every D^k, NO and CP inside an expression
whose result could have weight or degree above twice the ceiling is
refused before it is computed (D^k adds k to the weight, NO adds the
weights of its arguments, and CP(a, n, b) has weight wt a + wt b - n - 1;
NO and CP add the degrees at most, and D^k keeps them).

Action mini-language for group actions:

    trivial
    torus:1,-1;2,0            (charge-matrix rows, semicolon-separated)
    sl2                       (standard e, f, h; needs --rank 2)
    gl:3                      (all elementary matrices E_ij; needs --rank 3)
    finite:ord=4:chars=1,2    (character rows share the order; each key
                               once, and no other key)
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import sys

from . import linalg
from .exprlang import evaluate, parse, size_parameters
from .fock import (
    AlgebraDescriptor,
    state_to_json,
    state_to_text,
)
from .invariants import (
    FiniteAbelianAction,
    TorusAction,
    commutant_basis,
    dim_table,
    dim_table_csv_rows,
    gl_standard,
    gr_dim_table,
    heisenberg_current,
    sl2_standard,
    span_check,
    trivial_action,
    validate_heisenberg,
)
from .linalg import format_scalar, parse_scalar
from .ope import ope_table
from .verify import identity_suite
from .verma import (
    decoupling_relation,
    ideal_kernel,
    singular_vectors,
    verify_decoupling,
)
from .winfinity import (
    action_block_matrix,
    express_diagonal_map,
    rising_product_matrix,
    verify_rep,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_DEFICIENT = 4
EXIT_BROKEN_PIPE = 141

JSON_BATCH = 512  # encoder chunks per write

CSV_COMMANDS = ("ope", "inv-dims", "commutant")


class UsageError(ValueError):
    pass


def _emit(args, obj, text_fn, csv_rows=None, csv_header=None) -> None:
    if args.format == "json":
        # joined per write, so the document is never held whole
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
        parts = iter(lambda: "".join(itertools.islice(chunks, JSON_BATCH)), "")
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        if csv_header:
            w.writerow(csv_header)
        w.writerows(csv_rows)
        parts = iter([buf.getvalue().rstrip("\n")])
    else:
        parts = iter([text_fn()])
    first = next(parts)  # what fails up to here has written nothing
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        for part in itertools.chain([first], parts, ["\n"]):
            fh.write(part)


def _alg(args) -> AlgebraDescriptor:
    _check_caps(args, args.rank)
    return AlgebraDescriptor(args.algebra, args.rank)


def _check_caps(args, *values) -> None:
    for v in values:
        if v is None:
            continue
        if v < 0:
            raise UsageError(f"cap {v} is negative")
        if v > args.ceiling:
            raise UsageError(
                f"cap {v} exceeds the hard ceiling {args.ceiling} (raise --ceiling deliberately)"
            )


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written before any work is
    done; the file itself is created only when the answer is emitted."""
    if os.path.isdir(path):
        raise UsageError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"--out {path}: no directory {parent}")
    if not os.access(parent, os.W_OK | os.X_OK) or (
        os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        raise UsageError(f"--out {path} is not writable")


def _evaluate(args, text: str, alg: AlgebraDescriptor):
    """Evaluate an expression whose D^k powers, J[l] levels and CP
    indices are all within the ceiling, refusing every D^k, NO and CP
    whose result could have weight or degree above twice the ceiling."""
    tree = parse(text)
    _check_caps(args, *size_parameters(tree))
    return evaluate(tree, alg, max_weight=2 * args.ceiling, max_degree=2 * args.ceiling)


def _int_rows(text: str, rank: int, what: str) -> list[tuple[int, ...]]:
    """Integer rows 'a,b;c,d', each of length rank."""
    rows = []
    for row in text.split(";"):
        r = tuple(_int(x, f"{what} row {row!r} is not a list of integers") for x in row.split(","))
        if len(r) != rank:
            raise UsageError(f"{what} row {r} does not match --rank {rank}")
        rows.append(r)
    return rows


def _int(text: str, message: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(message) from None


def parse_action_spec(spec: str, rank: int):
    spec = spec.strip()
    if spec == "trivial":
        return trivial_action()
    if spec == "sl2":
        if rank != 2:
            raise UsageError("sl2 acts on the rank-2 algebra; set --rank 2")
        return sl2_standard()
    if spec.startswith("gl:"):
        n = _int(spec[len("gl:"):], f"action {spec!r} does not name an integer rank")
        if n != rank:
            raise UsageError(f"gl:{n} acts on the rank-{n} algebra; set --rank {n}")
        return gl_standard(n)
    if spec.startswith("torus:"):
        return TorusAction(tuple(_int_rows(spec[len("torus:"):], rank, "charge")))
    if spec.startswith("finite:"):
        fields = {}
        for part in spec.split(":")[1:]:
            key, _, value = part.partition("=")
            if key not in ("ord", "chars"):
                raise UsageError(f"unknown finite-action key {key!r}: expected ord=K and chars=...")
            if key in fields:
                raise UsageError(f"finite-action key {key!r} given twice")
            fields[key] = value
        if len(fields) < 2:
            raise UsageError("finite action needs ord=K and chars=...")
        order = _int(fields["ord"], f"finite-action order {fields['ord']!r} is not an integer")
        chars = _int_rows(fields["chars"], rank, "character")
        return FiniteAbelianAction(tuple((order, r) for r in chars))
    raise UsageError(f"unknown action spec {spec!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ope(args) -> int:
    alg = _alg(args)
    a, b = _evaluate(args, args.a, alg), _evaluate(args, args.b, alg)
    table = ope_table(a, b)
    rows = [[n + 1, state_to_text(s)] for n, s in table.poles]
    _emit(
        args,
        table.to_json(),
        text_fn=lambda: table.to_text(f"({args.a})(z) ({args.b})(w)"),
        csv_rows=rows,
        csv_header=["pole", "state"],
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    alg = _alg(args)
    s = _evaluate(args, args.expr, alg)
    _emit(args, state_to_json(s), text_fn=lambda: state_to_text(s))
    return EXIT_OK


def cmd_verify_identities(args) -> int:
    _check_caps(args, args.max_weight, args.max_degree)
    if args.trials < 0:
        raise UsageError(f"--trials {args.trials} is negative")
    alg = _alg(args)
    report = identity_suite(alg, args.trials, args.max_weight, args.max_degree, args.seed)
    _emit(args, report, text_fn=lambda: json.dumps(report, indent=2))
    return EXIT_OK if not report["mismatches"] else EXIT_MISMATCH


def cmd_winf_verify(args) -> int:
    _check_caps(args, args.n, args.max_weight, args.max_degree, args.lmax, args.kmax)
    alg = AlgebraDescriptor(args.kind, args.n)
    ks = range(-args.kmax, args.kmax + 1)
    pairs = [
        (l1, k1, l2, k2)
        for l1 in range(args.lmax + 1)
        for k1 in ks
        for l2 in range(l1, args.lmax + 1)
        for k2 in ks
    ]
    report = verify_rep(pairs, alg, args.max_weight, args.max_degree)
    _emit(args, report, text_fn=lambda: json.dumps(report, indent=2))
    return EXIT_OK if not report["mismatches"] else EXIT_MISMATCH


def cmd_matrices(args) -> int:
    _check_caps(args, args.w, args.m)
    mw = action_block_matrix(args.w, args.m)
    r = args.r if args.r is not None else args.w + args.m + 1
    t = rising_product_matrix(r, max(args.m, 1))
    obj = {
        "action_matrix": mw.to_json(),
        "rising_product_matrix": t.to_json(),
        "r": r,
        "det_action_matrix": format_scalar(linalg.det(mw)),
        "det_rising_product_matrix": format_scalar(linalg.det(t)),
    }

    def text():
        lines = [f"M^{args.w} (m={args.m}):"]
        for row in mw.to_rows():
            lines.append("  [" + ", ".join(format_scalar(x) for x in row) + "]")
        lines.append(f"T({r},{max(args.m,1)}):")
        for row in t.to_rows():
            lines.append("  [" + ", ".join(format_scalar(x) for x in row) + "]")
        lines.append(f"det M = {obj['det_action_matrix']}, det T = {obj['det_rising_product_matrix']}")
        return "\n".join(lines)

    _emit(args, obj, text_fn=text)
    return EXIT_OK


def cmd_express_map(args) -> int:
    _check_caps(args, args.w, args.m)
    t = express_diagonal_map(args.w, args.m, args.c.split(","), args.d.split(","))
    obj = {"t": [format_scalar(x) for x in t]}

    def text():
        bits = [
            f"{format_scalar(c)} * J^{args.w + k}({k})" for k, c in enumerate(t) if c != 0
        ]
        return "phi = " + (" + ".join(bits) if bits else "0")

    _emit(args, obj, text_fn=text)
    return EXIT_OK


def cmd_singular(args) -> int:
    _check_caps(args, args.weight, args.lcap, args.jcap)
    c = parse_scalar(args.c)
    found = singular_vectors(c, args.weight, args.lcap, args.jcap)
    obj = {
        "central_charge": format_scalar(c),
        "weight": args.weight,
        "l_cap": args.lcap if args.lcap is not None else args.weight + 2,
        "j_cap": args.jcap if args.jcap is not None else args.weight,
        "up_to_caps": True,
        "vectors": [v.to_json() for v in found],
    }
    _emit(args, obj, text_fn=lambda: "\n".join(repr(v) for v in found) or "none")
    return EXIT_OK


def cmd_ideal_kernel(args) -> int:
    _check_caps(args, args.n, args.weight)
    found = ideal_kernel(args.n, args.weight)
    obj = {"n": args.n, "weight": args.weight, "dimension": len(found),
           "vectors": [v.to_json() for v in found]}
    _emit(args, obj, text_fn=lambda: "\n".join(repr(v) for v in found) or "none")
    return EXIT_OK


def cmd_decouple(args) -> int:
    _check_caps(args, args.n, args.l, args.g)
    rel = decoupling_relation(args.l, args.n, args.g)
    if rel is None:
        _emit(args, {"target": f"J^{args.l}", "found": False},
              text_fn=lambda: f"J^{args.l} does not decouple through J^0..J^{args.g}")
        return EXIT_NOT_FOUND
    ok = verify_decoupling(rel, args.n)
    obj = rel.to_json()
    obj["found"] = True
    obj["reverified"] = ok
    _emit(args, obj, text_fn=rel.to_text)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_inv_dims(args) -> int:
    _check_caps(args, args.max_weight, args.max_degree)
    alg = _alg(args)
    action = parse_action_spec(args.action, alg.rank)
    dt = dim_table(action, alg, args.max_weight, args.max_degree)
    gt = gr_dim_table(action, alg, args.max_weight, args.max_degree)
    rows = dim_table_csv_rows(dt, gt)
    obj = {
        "equal": dt == gt,
        "entries": [
            {"weight": w, "degree": d, "dim_state_side": a, "dim_gr_side": b, "equal": e}
            for w, d, a, b, e in rows
        ],
    }
    _emit(
        args,
        obj,
        text_fn=lambda: "\n".join(
            f"w={w} d={d}: state={a} gr={b} {'ok' if e else 'MISMATCH'}" for w, d, a, b, e in rows
        ),
        csv_rows=rows,
        csv_header=["weight", "degree", "dim_state_side", "dim_gr_side", "equal"],
    )
    return EXIT_OK


def cmd_span_check(args) -> int:
    _check_caps(args, args.max_weight, args.max_len)
    alg = _alg(args)
    action = parse_action_spec(args.action, alg.rank)
    gens = []
    with open(args.gens) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                gens.append(_evaluate(args, line, alg))
    report = span_check(gens, action, alg, args.max_weight, args.max_len)
    _emit(args, report.to_json(), text_fn=lambda: json.dumps(report.to_json(), indent=2))
    return EXIT_OK if report.ok else EXIT_DEFICIENT


def cmd_commutant(args) -> int:
    _check_caps(args, args.max_weight, args.max_degree)
    alg = _alg(args)
    if alg.kind != "bg":
        raise UsageError("commutants are computed in the bg system")
    rows = _int_rows(args.charges, alg.rank, "charge")
    for r in rows:
        if not any(r):
            raise UsageError(f"charge row {r} is zero, so its current vanishes")
    if not validate_heisenberg(rows, alg):
        raise UsageError("charge matrix fails the current-normalization contract")
    m = len(rows)
    units = [[1 if t == s else 0 for t in range(m)] for s in range(m)]
    currents = [heisenberg_current(u, rows, alg) for u in units]
    entries = []
    for w in range(args.max_weight + 1):
        kb = commutant_basis(currents, alg, w, args.max_degree)
        entries.append(
            {"weight": w, "dimension": len(kb), "elements": [state_to_json(s) for s in kb]}
        )
    obj = {"charges": [list(r) for r in rows], "degree_cap": args.max_degree, "weights": entries}
    _emit(
        args,
        obj,
        text_fn=lambda: "\n".join(f"w={e['weight']}: dim={e['dimension']}" for e in entries),
        csv_rows=[[e["weight"], e["dimension"]] for e in entries],
        csv_header=["weight", "dimension"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_globals(p, suppress: bool) -> None:
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    p.add_argument("--rank", type=int, default=d(1), help="dimension n of the index space")
    p.add_argument("--algebra", choices=("bg", "bc", "bcbg"), default=d("bg"))
    p.add_argument("--format", choices=("json", "csv", "text"), default=d("json"))
    p.add_argument("--out", default=d(None), help="write output to this path")
    p.add_argument("--ceiling", type=int, default=d(12), help="hard cap ceiling for all bounds")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vertexfock",
        description="exact computations in free-field vertex algebras",
    )
    _add_globals(p, suppress=False)
    # the same flags are accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    _add_globals(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    s = sub.add_parser(parents=[common], name="ope", help="singular OPE table of two expressions")
    s.add_argument("a")
    s.add_argument("b")
    s.set_defaults(fn=cmd_ope)

    s = sub.add_parser(parents=[common], name="eval", help="evaluate an expression to a state")
    s.add_argument("expr")
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser(parents=[common], name="verify-identities", help="randomized exact identity suite")
    s.add_argument("--trials", type=int, default=100)
    s.add_argument("--max-weight", type=int, default=4)
    s.add_argument("--max-degree", type=int, default=3)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_verify_identities)

    s = sub.add_parser(parents=[common], name="winf-verify", help="realized commutators vs the Lie bracket")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--kind", choices=("bg", "bc"), default="bg")
    s.add_argument("--lmax", type=int, default=2)
    s.add_argument("--kmax", type=int, default=2)
    s.add_argument("--max-weight", type=int, default=3)
    s.add_argument("--max-degree", type=int, default=3)
    s.set_defaults(fn=cmd_winf_verify)

    s = sub.add_parser(parents=[common], name="matrices", help="mode-action block matrix and rising-product matrix")
    s.add_argument("--w", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--r", type=int, default=None)
    s.set_defaults(fn=cmd_matrices)

    s = sub.add_parser(parents=[common], name="express-map", help="express a diagonal mode-shift map in the J basis")
    s.add_argument("--w", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--c", required=True, help="comma-separated gamma coefficients c_0..c_m")
    s.add_argument("--d", required=True, help="comma-separated beta coefficients d_0..d_m")
    s.set_defaults(fn=cmd_express_map)

    s = sub.add_parser(parents=[common], name="singular", help="singular vectors of one weight slice")
    s.add_argument("--c", required=True, help="central charge p/q")
    s.add_argument("--weight", type=int, required=True)
    s.add_argument("--lcap", type=int, default=None)
    s.add_argument("--jcap", type=int, default=None)
    s.set_defaults(fn=cmd_singular)

    s = sub.add_parser(parents=[common], name="ideal-kernel", help="kernel of the projection onto the realization")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--weight", type=int, required=True)
    s.set_defaults(fn=cmd_ideal_kernel)

    s = sub.add_parser(parents=[common], name="decouple", help="solve for a current in lower normally ordered words")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--g", type=int, required=True)
    s.set_defaults(fn=cmd_decouple)

    s = sub.add_parser(parents=[common], name="inv-dims", help="invariant dimension tables, state and symbol side")
    s.add_argument("--action", required=True)
    s.add_argument("--max-weight", type=int, required=True)
    s.add_argument("--max-degree", type=int, required=True)
    s.set_defaults(fn=cmd_inv_dims)

    s = sub.add_parser(parents=[common], name="span-check", help="strong-generation span comparison")
    s.add_argument("--action", required=True)
    s.add_argument("--gens", required=True, help="file of generator expressions, one per line")
    s.add_argument("--max-weight", type=int, required=True)
    s.add_argument("--max-len", type=int, required=True)
    s.set_defaults(fn=cmd_span_check)

    s = sub.add_parser(parents=[common], name="commutant", help="joint kernel of non-negative current modes")
    s.add_argument("--charges", required=True, help="charge-matrix rows, e.g. '1,-1;2,0'")
    s.add_argument("--max-weight", type=int, required=True)
    s.add_argument("--max-degree", type=int, required=True)
    s.set_defaults(fn=cmd_commutant)

    return p


def _glue_rational_values(argv: list[str]) -> list[str]:
    """Attach a value such as -1/2, -1,2/3 or -1,2;0,1 to the --c, --d
    or --charges before it (--c -1/2 -> --c=-1/2): argparse reads a
    token that starts with '-' as an option unless it is a plain
    negative number."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--c", "--d", "--charges") and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_rational_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if args.out:
            _check_out(args.out)
        if args.format == "csv" and args.command not in CSV_COMMANDS:
            raise UsageError("this subcommand has no CSV form")
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZeroDivisionError as exc:
        print(f"error: division by zero ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, MemoryError) as exc:
        print(f"error: input too large to compute with ({exc!r})", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nested too deeply to evaluate", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # so that the flush at interpreter shutdown does not raise again
        sys.stdout = open(os.devnull, "w")
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
