"""The algebra of differential operators on the punctured line and its
free-field currents.

Shows the exact 2-cocycle, a bracket computation, the representation
check (commutators of realized modes against the abstract bracket with
the central element at -n), and the mode-action matrices whose
invertibility pins down every diagonal shift map.
"""

from fractions import Fraction

from vertexfock import (
    AlgebraDescriptor,
    DOp,
    action_block_matrix,
    action_coeffs,
    cocycle,
    d_bracket,
    det,
    express_diagonal_map,
    realize_current,
    rising_product_matrix,
    state_to_text,
    verify_rep,
)

print("== cocycle ==")
for k in (1, 2, 3):
    print(f"Psi(J^0_{k}, J^0_{-k}) =", cocycle(0, k, 0, -k))

print("\n== a bracket with central term ==")
a, b = DOp.basis_element(1, 3), DOp.basis_element(2, -3)
br = d_bracket(a, b)
print("[J^1_3, J^2_-3] =", dict(br.terms), "+", br.kappa, "* kappa")

print("\n== free-field currents ==")
alg = AlgebraDescriptor("bg", 1)
for l in range(3):
    print(f"J^{l} ->", state_to_text(realize_current(l, alg)))

print("\n== representation check (central element at -1) ==")
rep = verify_rep([(1, 2, 2, -2)], alg, max_weight=4, max_degree=3)
print(f"checked {rep['checked']} states, mismatches: {len(rep['mismatches'])}")

print("\n== mode-action coefficients on degree-1 symbols ==")
lam, mu = action_coeffs(1, 0, 0)
print("J^1(0): beta_0 ->", lam, "* beta_1,  gamma_0 ->", mu, "* gamma_1")

print("\n== the solvability matrices ==")
m = action_block_matrix(2, 1)
print("action block matrix (w=2, m=1), det =", det(m))
t = rising_product_matrix(4, 3)
print("rising-product matrix T(4,3), det =", det(t))
print("unique coefficients with gamma_i -> -gamma_{i+1}, beta_i -> -beta_{i+1} (m=1):")
print("  t =", express_diagonal_map(1, 1, [Fraction(-1)] * 2, [Fraction(-1)] * 2))
