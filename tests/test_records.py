"""Value semantics of the package's record classes: equality by
fields, hashes that agree with it on the frozen ones, refused
assignment, and the checks and normalisations their constructors run."""

from fractions import Fraction

import pytest

from vertexfock.exprlang import (
    CircleProd,
    Deriv,
    Gen,
    JGen,
    NormalOrder,
    Scaled,
    Sum,
    Vac,
    parse,
)
from vertexfock.fock import AlgebraDescriptor, State, vacuum
from vertexfock.invariants import (
    DimTable,
    FiniteAbelianAction,
    LieAlgebraAction,
    SpanCheckReport,
    TorusAction,
)
from vertexfock.linalg import SparseMatrix
from vertexfock.ope import IdentityReport, OpeTable
from vertexfock.verma import DecouplingRelation, SpanReport
from vertexfock.winfinity import DOp

E = ((0, 1), (0, 0))
F = ((0, 0), (1, 0))

# (make, make a different value, a field name)
FROZEN = [
    (lambda: Gen(0, 1), lambda: Gen(0, 2), "index"),
    (lambda: JGen(3), lambda: JGen(4), "level"),
    (lambda: Vac(), lambda: JGen(0), "species"),
    (lambda: Deriv(2, Gen(0, 1)), lambda: Deriv(1, Gen(0, 1)), "power"),
    (lambda: NormalOrder((Gen(0, 1), Vac())), lambda: NormalOrder((Vac(),)), "args"),
    (lambda: CircleProd(Gen(0, 1), 0, Gen(1, 1)), lambda: CircleProd(Gen(0, 1), 1, Gen(1, 1)), "n"),
    (lambda: Scaled(Fraction(1, 2), Vac()), lambda: Scaled(Fraction(1, 3), Vac()), "coeff"),
    (lambda: Sum(((1, Vac()), (-1, JGen(0)))), lambda: Sum(((1, Vac()),)), "parts"),
    (lambda: AlgebraDescriptor("bg", 2), lambda: AlgebraDescriptor("bc", 2), "rank"),
    (lambda: TorusAction(((1, -1),)), lambda: TorusAction(((1, 1),)), "rows"),
    (lambda: FiniteAbelianAction(((2, (1,)),)), lambda: FiniteAbelianAction(((3, (1,)),)), "chars"),
    (lambda: LieAlgebraAction((E, F)), lambda: LieAlgebraAction((F, E)), "matrices"),
]

# (make, make a different value, a field name and a new value for it)
MUTABLE = [
    (lambda: DimTable({(0, 0): 1}, 2, 2), lambda: DimTable({(0, 0): 2}, 2, 2), ("weight_cap", 3)),
    (lambda: SpanCheckReport("success", {0: (1, 1)}, None, 2),
     lambda: SpanCheckReport("deficient", {0: (0, 1)}, (0, 0, 0, 1), 2), ("status", "deficient")),
    (lambda: SparseMatrix(2, 2, {(0, 1): 3}), lambda: SparseMatrix(2, 2, {(0, 1): 4}), ("rows", 3)),
    (lambda: OpeTable(2, [(0, vacuum())]), lambda: OpeTable(2, []), ("locality_bound", 1)),
    (lambda: IdentityReport(1, {"iterate": State()}), lambda: IdentityReport(2, {"iterate": State()}),
     ("n", 3)),
    (lambda: DecouplingRelation(3, 4, [(((0, 1),), 1)]),
     lambda: DecouplingRelation(3, 4, [(((0, 1),), 2)]), ("weight", 5)),
    (lambda: SpanReport(1, 2, 3, 4, {0: 1}, {0: 1}, {0: 1}),
     lambda: SpanReport(1, 2, 3, 4, {0: 1}, {0: 1}, {0: 2}), ("degree", 2)),
    (lambda: DOp({(1, 0): 2}, 1), lambda: DOp({(1, 0): 2}), ("kappa", 5)),
]


@pytest.mark.parametrize("make, make_other, field", FROZEN)
def test_frozen_values_compare_and_hash_by_fields(make, make_other, field):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_other()
    with pytest.raises(AttributeError):
        setattr(a, field, 0)
    assert a == b


@pytest.mark.parametrize("make, make_other, assignment", MUTABLE)
def test_mutable_records_compare_by_fields(make, make_other, assignment):
    a, b = make(), make()
    assert a is not b and a == b
    assert a != make_other()
    with pytest.raises(TypeError):
        hash(a)
    setattr(a, *assignment)
    assert getattr(a, assignment[0]) == assignment[1]


def test_dim_tables_compare_by_entries_alone():
    assert DimTable({(0, 0): 1}, 2, 2) == DimTable({(0, 0): 1}, 5, 7)
    assert DimTable({(0, 0): 1}, 2, 2) != {(0, 0): 1}


def test_constructor_checks():
    with pytest.raises(ValueError):
        AlgebraDescriptor("xx", 1)
    with pytest.raises(ValueError):
        AlgebraDescriptor("bg", 0)
    with pytest.raises(ValueError):
        FiniteAbelianAction(((0, (1,)),))
    with pytest.raises(ValueError):
        LieAlgebraAction((((0, 1),),))
    with pytest.raises(IndexError):
        SparseMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(IndexError):
        SparseMatrix(2, 2, {(0, -1): 1})
    with pytest.raises(ValueError):
        DOp({(-1, 0): 1})


def test_constructor_normalisations():
    rows = TorusAction([[1, Fraction(-2)]]).rows
    assert rows == ((1, -2),) and type(rows) is tuple and type(rows[0]) is tuple
    assert all(type(x) is int for x in rows[0])
    chars = FiniteAbelianAction([(Fraction(4), [1, Fraction(3)])]).chars
    assert chars == ((4, (1, 3)),) and all(type(x) is int for x in (chars[0][0], *chars[0][1]))
    mats = LieAlgebraAction([[[Fraction(2, 2), "1/2"], [0, 0]]]).matrices
    assert mats == (((1, Fraction(1, 2)), (0, 0)),)
    assert type(mats) is tuple and type(mats[0][0][0]) is int
    m = SparseMatrix(2, 2, {(0, 0): 0, (1, 1): Fraction(4, 2), (0, 1): "1/3"})
    assert m.entries == {(1, 1): 2, (0, 1): Fraction(1, 3)} and type(m.entries[(1, 1)]) is int
    d = DOp({(1, 0): 0, (2, 1): Fraction(3, 3)}, Fraction(0))
    assert d.terms == {(2, 1): 1} and type(d.terms[(2, 1)]) is int
    assert d.kappa == 0 and type(d.kappa) is int
    with pytest.raises(TypeError):
        DOp({(1, 0): 0.5})


def test_default_dicts_are_not_shared():
    a, b = SparseMatrix(2, 2), SparseMatrix(2, 2)
    assert a.entries == {} and a.entries is not b.entries
    a.entries[(0, 0)] = 1
    assert b.entries == {}
    p, q = DOp(), DOp()
    assert p.terms == {} and p.kappa == 0 and p.terms is not q.terms
    p.terms[(0, 0)] = 1
    assert q.terms == {} and not q


def test_parsed_trees_are_values():
    texts = ["vac", "-2 * beta[1] + J[3]", "D^2(NO(beta[1], gamma[1]))",
             "CP(J[1], -2, 1/3 * (cc[2] - bb[1]))"]
    for t in texts:
        assert parse(t) == parse(t) and hash(parse(t)) == hash(parse(t)), t
    assert len({parse(t) for t in texts}) == len(texts)


def test_constructors_take_fields_by_position_or_name():
    bg2 = AlgebraDescriptor("bg", 2)
    assert AlgebraDescriptor(kind="bg", rank=2) == AlgebraDescriptor("bg", rank=2) == bg2
    assert CircleProd(Vac(), right=Vac(), n=1) == CircleProd(Vac(), 1, Vac())
    assert SparseMatrix(rows=1, cols=2, entries={(0, 1): 1}) == SparseMatrix(1, 2, {(0, 1): 1})
    assert DOp(kappa=1) == DOp({}, 1) and DOp(terms={(0, 0): 1}) == DOp({(0, 0): 1}, 0)
    for bad in [lambda: AlgebraDescriptor("bg"), lambda: AlgebraDescriptor("bg", 2, 3),
                lambda: AlgebraDescriptor("bg", kind="bc"), lambda: AlgebraDescriptor("bg", size=2),
                lambda: Vac(1), lambda: DOp({}, 0, 1)]:
        with pytest.raises(TypeError):
            bad()
