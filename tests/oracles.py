"""Independent oracles used by the test suite.

Nothing here goes through the Wick expansion of the engine under
test.  The circle-product oracle evaluates the field of a monomial by
the definitional creation/annihilation split of the normal order,
mode by mode; the dimension oracle expands the bigraded product
generating function of the Fock space directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from vertexfock.fock import (
    SPECIES_CHARGE,
    SPECIES_PARITY,
    SPECIES_WEIGHT,
    AlgebraDescriptor,
    State,
    apply_mode,
    letters,
    weight,
)


def _gen_field_mode(sp, idx, m, j):
    """(1/m!) (d^m u)(j) as (coefficient, generator mode)."""
    ff = 1
    for s in range(m):
        ff *= j - s
    coeff = Fraction((-1) ** m * ff, math.factorial(m))
    return coeff, (sp, idx, j - m)


def _field_mode_apply(factors, n, x: State) -> State:
    """Mode n of the right-nested normal order of derivative fields
    (sp, idx, m) ~ (1/m!) d^m u, applied to x:

        :A B:(n) x = sum_{j<0} A(j) (B(n-1-j) x)
                   + (-1)^{|A||B|} sum_{j>=0} B(n-1-j) (A(j) x)
    """
    if not factors:
        return x if n == -1 else State()
    sp, idx, m = factors[0]
    rest = factors[1:]
    pa = SPECIES_PARITY[sp]
    pb = sum(SPECIES_PARITY[f[0]] for f in rest) & 1
    sgn = -1 if (pa and pb) else 1
    out = State()
    w_rest = sum(SPECIES_WEIGHT[f[0]] + f[2] for f in rest)
    wx = weight(x) if x else 0
    # creation part of the head: B(n-1-j) x vanishes once its weight
    # would go negative, bounding j below
    for j in range(n - w_rest - wx, 0):
        coeff, g = _gen_field_mode(sp, idx, m, j)
        if coeff == 0:
            continue
        inner = _field_mode_apply(rest, n - 1 - j, x)
        if inner:
            out = out + coeff * apply_mode(g, inner)
    # annihilation part: the falling factorial kills 0 <= j < m, and
    # u(j-m) annihilates beyond the deepest mode of x
    jmax = m + max([-f[2] - 1 for mono in x.terms for f in letters(mono)], default=-1)
    for j in range(m, jmax + 1):
        coeff, g = _gen_field_mode(sp, idx, m, j)
        if coeff == 0:
            continue
        ax = apply_mode(g, x)
        if ax:
            out = out + (sgn * coeff) * _field_mode_apply(rest, n - 1 - j, ax)
    return out


def circle_oracle(a: State, n: int, b: State) -> State:
    """a o_n b evaluated by field-mode convolution."""
    out = State()
    for mono, c in a.terms.items():
        factors = tuple((sp, idx, -mode - 1) for sp, idx, mode in letters(mono))
        out = out + c * _field_mode_apply(factors, n, b)
    return out


def symbol_charge(mono, rank: int) -> tuple[int, ...]:
    """``fock.mono_charge`` of a monomial in the graded symbols (species,
    index, k): the net vector-minus-covector count per index."""
    q = [0] * rank
    for sp, idx, _ in mono:
        q[idx - 1] += SPECIES_CHARGE[sp]
    return tuple(q)


def graded_dimensions(alg: AlgebraDescriptor, weight_cap: int, degree_cap: int):
    """Coefficients of the bigraded generating function

        prod over species/index/mode (1 - t q^w)^{-1}   (bosonic)
        prod over species/index/mode (1 + t q^w)        (fermionic)

    truncated to the given caps; returns {(weight, degree): dim}.
    """
    series = {(0, 0): 1}

    def mul_bosonic(series, w):
        # multiply by 1/(1 - t q^w): new[a][b] = sum_{k>=0} old[a-kw][b-k]
        out = {}
        for (a, b), v in series.items():
            k = 0
            while a + k * w <= weight_cap and b + k <= degree_cap:
                key = (a + k * w, b + k)
                out[key] = out.get(key, 0) + v
                k += 1
                if w == 0 and k > degree_cap:
                    break
        return out

    def mul_fermionic(series, w):
        out = {}
        for (a, b), v in series.items():
            out[(a, b)] = out.get((a, b), 0) + v
            if a + w <= weight_cap and b + 1 <= degree_cap:
                key = (a + w, b + 1)
                out[key] = out.get(key, 0) + v
        return out

    for sp in alg.species:
        delta = SPECIES_WEIGHT[sp]
        for _idx in range(alg.rank):
            for k in range(1, weight_cap + 2):
                w = delta + k - 1
                if w > weight_cap:
                    break
                if SPECIES_PARITY[sp]:
                    series = mul_fermionic(series, w)
                else:
                    series = mul_bosonic(series, w)
    return series
