import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexfock.exprlang import ExprSyntaxError, evaluate, parse, to_text
from vertexfock.fock import (
    BETA,
    GAMMA,
    AlgebraDescriptor,
    State,
    degree,
    state_to_text,
    vacuum,
    word,
)
from vertexfock.ope import circle
from vertexfock.verify import random_homogeneous_state
from vertexfock.winfinity import realize_current

BG1 = AlgebraDescriptor("bg", 1)
BG2 = AlgebraDescriptor("bg", 2)


def test_parse_examples():
    s = evaluate(parse("NO(gamma[1], D(beta[1]))"), BG1)
    assert s == realize_current(1, BG1)
    s = evaluate(parse("CP(J[0], 1, J[0])"), BG2)
    assert s == Fraction(-2) * vacuum()
    assert evaluate(parse("vac"), BG1) == vacuum()


def test_parse_rationals_and_sums():
    s = evaluate(parse("3/2 * beta[1] - 2 * gamma[1] + vac"), BG1)
    assert s.terms[word([(BETA, 1, -1)])] == Fraction(3, 2)
    assert s.terms[word([(GAMMA, 1, -1)])] == Fraction(-2)
    assert s.terms[()] == Fraction(1)
    s2 = evaluate(parse("-1 * vac"), BG1)
    assert s2 == Fraction(-1) * vacuum()


def test_parse_derivative_powers():
    s = evaluate(parse("D^3(gamma[1])"), BG1)
    assert s == State({word([(GAMMA, 1, -4)]): Fraction(6)})
    assert evaluate(parse("D(D(D(gamma[1])))"), BG1) == s


def test_negative_circle_index():
    s = evaluate(parse("CP(beta[1], -1, gamma[1])"), BG1)
    assert s == State({word([(BETA, 1, -1), (GAMMA, 1, -1)]): Fraction(1)})
    t = evaluate(parse("CP(beta[1], -2, vac)"), BG1)
    assert t == State({word([(BETA, 1, -2)]): Fraction(1)})


def test_roundtrip_canonical_forms():
    for text in [
        "vac",
        "beta[1]",
        "J[3]",
        "D^2(gamma[2])",
        "NO(gamma[1], D(beta[1]))",
        "CP(J[0], 1, J[0])",
        "3/2 * beta[1] + vac - 2 * NO(beta[1], gamma[1])",
        "CP(beta[1], -2, vac)",
    ]:
        e = parse(text)
        assert to_text(e) == text  # print . parse = identity on canonical text
        assert parse(to_text(e)) == e  # parse . print = identity on trees


ROUND_TRIP_ALGEBRAS = [AlgebraDescriptor(k, r) for k in ("bg", "bc", "bcbg") for r in (1, 2)]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ROUND_TRIP_ALGEBRAS))
def test_state_text_evaluates_back(seed, alg):
    s = random_homogeneous_state(random.Random(seed), alg, 5, 4, max_terms=3)
    assert evaluate(parse(state_to_text(s)), alg) == s


def test_print_parse_idempotent():
    text = "NO( gamma[1] ,D( beta[1] ) )"
    once = to_text(parse(text))
    assert to_text(parse(once)) == once


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("NO(gamma[1)")
    assert exc.value.offset == 10
    assert "]" in exc.value.expected
    with pytest.raises(ExprSyntaxError) as exc:
        parse("CP(vac, , vac)")
    assert exc.value.offset == 8
    with pytest.raises(ExprSyntaxError) as exc:
        parse("vac + ")
    assert exc.value.found == "end of input"
    with pytest.raises(ExprSyntaxError):
        parse("NO(vac)")  # normal order needs at least two factors


def test_species_checks():
    with pytest.raises(ValueError):
        evaluate(parse("bb[1]"), BG1)
    with pytest.raises(ValueError):
        evaluate(parse("beta[3]"), BG2)
    with pytest.raises(ValueError):
        evaluate(parse("J[0]"), AlgebraDescriptor("bcbg", 1))


def test_evaluate_matches_engine():
    e = parse("CP(NO(gamma[1], beta[1]), 1, NO(gamma[1], beta[1]))")
    from vertexfock.ope import iterated_wick
    from vertexfock.fock import generator_state

    j = iterated_wick([generator_state(GAMMA, 1), generator_state(BETA, 1)])
    assert evaluate(e, BG1) == circle(j, 1, j)


def test_evaluate_bounds_the_degree_of_products():
    twelve = "NO(" + ", ".join(["gamma[1]"] * 12) + ")"
    assert degree(evaluate(parse(twelve), BG1, max_degree=12)) == 12
    for expr, what in ((f"NO(gamma[1], {twelve})", "NO"),
                       (f"CP({twelve}, -1, beta[1])", "CP(., -1, .)"),
                       (f"D^3(NO({twelve}, vac, gamma[1]))", "NO")):
        with pytest.raises(ValueError, match=rf"{re.escape(what)} would have degree 13, above"):
            evaluate(parse(expr), BG1, max_degree=12)
        assert max(map(len, evaluate(parse(expr), BG1).terms)) == 13
    # a derivative keeps the degree, and a zero factor refuses nothing
    assert degree(evaluate(parse(f"D^3({twelve})"), BG1, max_degree=12)) == 12
    assert not evaluate(parse(f"CP(0 * {twelve}, -1, {twelve})"), BG1, max_degree=12)
