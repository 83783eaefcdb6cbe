"""Structure of the vacuum module at central charge -1.

The projection onto the realized current algebra has no kernel below
weight 4; at weight 4 the kernel appears, spanned by a singular
vector, and it forces the decoupling of the weight-4 current: J^3 is
an exact normally ordered polynomial in J^0, J^1, J^2.  Consequently
the invariant algebra is strongly generated by three currents, which
the span check confirms weight by weight.
"""

from fractions import Fraction

from vertexfock import (
    AlgebraDescriptor,
    TorusAction,
    decoupling_relation,
    ideal_kernel,
    project,
    realize_current,
    singular_vectors,
    span_check,
    vacuum_module_basis,
    verify_decoupling,
)

print("== vacuum-module dimensions ==")
for n_wt in range(6):
    print(f"weight {n_wt}: {len(vacuum_module_basis(n_wt))} words")

alg = AlgebraDescriptor("bg", 1)

print("\n== kernel of the projection (n = 1) ==")
for n_wt in range(1, 5):
    k = ideal_kernel(alg, n_wt)
    print(f"weight {n_wt}: dim {len(k)}")

print("\n== the weight-4 singular vector ==")
svs = singular_vectors(Fraction(-1), 4)
print(svs[0])
print("projects to zero:", not project(svs[0], alg))
print("at a generic central charge (1/2):", singular_vectors(Fraction(1, 2), 4))

print("\n== decoupling ==")
rel = decoupling_relation(3, alg, 2)
print(rel.to_text())
print("re-verified exactly:", verify_decoupling(rel, alg))
print("J^2 through J^0..J^1:", decoupling_relation(2, alg, 1))

print("\n== strong generation by three currents ==")
gens = [realize_current(l, alg) for l in (0, 1, 2)]
report = span_check(gens, TorusAction(((1,),)), alg, weight_cap=5, max_word_length=5)
print("status:", report.status)
for w, (have, need) in sorted(report.dims.items()):
    print(f"  weight {w}: span {have} / invariant {need}")
