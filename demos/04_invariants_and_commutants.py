"""Invariant subalgebras and Heisenberg commutants.

Dimension tables of invariant subspaces are computed twice, on states
and on graded symbols, and agree entrywise; the commutant of the rank-
one Heisenberg current, that of the torus with charge (1), is computed
as an exact joint kernel of its non-negative modes: a charge test on
the words, then one kernel of the images under the positive modes. It
exposes generators of weights 2 and 3.
"""

from vertexfock import (
    AlgebraDescriptor,
    TorusAction,
    commutant_basis,
    circle,
    dim_table,
    gr_dim_table,
    heisenberg_current,
    invariant_basis,
    sl2_standard,
    state_to_text,
    validate_heisenberg,
    wick,
    weight,
)

alg1 = AlgebraDescriptor("bg", 1)
alg2 = AlgebraDescriptor("bg", 2)

print("== invariant dimension tables (state side == symbol side) ==")
for name, action, alg in [
    ("torus charge (1) on rank 1", TorusAction(((1,),)), alg1),
    ("torus charge (1,-1) on rank 2", TorusAction(((1, -1),)), alg2),
    ("sl2 standard on rank 2", sl2_standard(), alg2),
]:
    dt = dim_table(action, alg, 5, 5)
    gt = gr_dim_table(action, alg, 5, 5)
    diag = [dt[(w, w)] for w in range(6)]
    print(f"{name}: equal = {dt == gt}, diagonal dims {diag}")

print("\n== sl2 invariants of one bidegree ==")
for s in invariant_basis(sl2_standard(), alg2, 1, 2):
    print(" ", state_to_text(s))

print("\n== Heisenberg commutant, rank 1, charge (1) ==")
rows = ((1,),)
print("current normalization contract holds:", validate_heisenberg(rows, alg1))
found = {}
for w in range(5):
    found[w] = commutant_basis(TorusAction(rows), alg1, w, 6)
    print(f"weight {w}: dim {len(found[w])}")
print("weight-2 element (a Virasoro-type vector):")
print(" ", state_to_text(found[2][0]))
print("its Wick square is still killed by every non-negative mode:")
j = heisenberg_current((1,), rows, alg1)
p = wick(found[2][0], found[2][0])
print(" ", all(not circle(j, k, p) for k in range(weight(p) + 1)))
