"""The wire formats named in the module interfaces."""

from fractions import Fraction

from vertexfock.exprlang import evaluate, parse
from vertexfock.fock import (
    BETA,
    GAMMA,
    AlgebraDescriptor,
    State,
    basis,
    generator_state,
    state_to_text,
)
from vertexfock.ope import ope_table
from vertexfock.verma import VermaElement, decoupling_relation
from vertexfock.winfinity import DOp

BG1 = AlgebraDescriptor("bg", 1)
BG2 = AlgebraDescriptor("bg", 2)


def test_state_text_reparses():
    # the text form of a state evaluates back to the state
    pool = []
    for w in range(0, 4):
        for d in range(0, 4):
            pool += basis(BG2, w, d)
    s = State({pool[0]: Fraction(1)})
    for mono in pool[1:]:
        s = s + State({mono: Fraction(-2, 3)})
        if len(s.terms) > 6:
            break
    assert evaluate(parse(state_to_text(s)), BG2) == s
    assert state_to_text(State()) == "0"


def test_ope_table_json_shape():
    t = ope_table(generator_state(BETA, 1), generator_state(GAMMA, 1))
    obj = t.to_json()
    assert obj == {"locality_bound": 2, "poles": [[1, {"terms": [[[], "1"]]}]]}
    assert "(z-w)^-1" in t.to_text()


def test_dop_json():
    x = DOp({(1, -2): Fraction(1, 3), (0, 4): Fraction(-2)}, kappa=Fraction(5))
    assert x.to_json() == {"terms": [[0, 4, "-2"], [1, -2, "1/3"]], "kappa": "5"}


def test_verma_element_json():
    v = VermaElement({((1, 2), (0, 1)): Fraction(-1, 2), (): Fraction(3)})
    assert v.to_json() == [[[], "3"], [[[1, 2], [0, 1]], "-1/2"]]


def test_decoupling_json_shape():
    rel = decoupling_relation(3, BG1, 2)
    obj = rel.to_json()
    assert obj["target"] == "J^3"
    assert obj["weight"] == 4
    # every relation term is [word, coefficient-string]
    for word, coeff in obj["relation"]:
        assert all(len(letter) == 2 for letter in word)
        Fraction(coeff.replace("/", "/1").split("/")[0])  # parses
    # the human form is a normally ordered expression
    assert rel.to_text().startswith("J^3 = ")
    assert ":" in rel.to_text()
