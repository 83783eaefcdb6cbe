"""Randomized exact verification suites.

Random states are honest random elements of a bidegree slice: a few
basis monomials with small nonzero integer coefficients, restricted
to a fixed parity so the sign rules apply.  Everything is driven by a
seeded generator, so runs are reproducible.
"""

from __future__ import annotations

import random

from .fock import AlgebraDescriptor, State, basis, mono_parity, state_to_text
from .ope import check_identities, clear_cache


def random_homogeneous_state(
    rng: random.Random,
    alg: AlgebraDescriptor,
    max_weight: int,
    max_degree: int,
    max_terms: int = 2,
) -> State:
    """A nonzero parity-homogeneous state of one random bidegree."""
    for _ in range(200):
        w = rng.randint(0, max_weight)
        d = rng.randint(0, max_degree)
        monos = basis(alg, w, d)
        if not monos:
            continue
        par = rng.randint(0, 1)
        pool = [m for m in monos if mono_parity(m) == par]
        if not pool:
            pool = monos
        terms = {}
        for m in rng.sample(pool, min(len(pool), rng.randint(1, max_terms))):
            terms[m] = rng.choice([-3, -2, -1, 1, 2, 3])
        s = State(terms)
        if s:
            return s
    raise RuntimeError("could not sample a state; caps too tight")


def identity_suite(
    alg: AlgebraDescriptor,
    trials: int,
    max_weight: int,
    max_degree: int,
    seed: int,
) -> dict:
    """Run the four-identity check on random homogeneous triples, each
    with a random n in 1..3.  Each trial empties the product caches
    first: its fresh triple shares almost no product with the others.

    Returns {"trials": ..., "mismatches": [...]}; the mismatch list must
    be empty.  A mismatch names the failed identities and carries the
    seed, and the triple as expressions that ``vertexfock eval`` reads
    back.
    """
    rng = random.Random(seed)
    mismatches = []
    for t in range(trials):
        clear_cache()
        a = random_homogeneous_state(rng, alg, max_weight, max_degree)
        b = random_homogeneous_state(rng, alg, max_weight, max_degree)
        c = random_homogeneous_state(rng, alg, max_weight, max_degree)
        n = rng.choice([1, 2, 3])
        rep = check_identities(a, b, c, n)
        if not rep.ok:
            mismatches.append(
                {"trial": t, "seed": seed, "n": n, "failed": rep.mismatch_names(),
                 "a": state_to_text(a), "b": state_to_text(b), "c": state_to_text(c)}
            )
    return {"trials": trials, "algebra": f"{alg.kind}:{alg.rank}", "mismatches": mismatches}
