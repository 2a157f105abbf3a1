# Exact polynomial algebra and factorization over Q.
#
# Everything below is arbitrary-precision rational arithmetic: no floats,
# no approximation, results are equalities.

from galoiskit import QQ, factor_mod_p, factor_over_Q, is_irreducible_over_Q
from galoiskit.poly import (
    poly_compose_power,
    poly_gcd,
    poly_squarefree_part,
    render_poly,
)
from galoiskit.parsing import parse_poly
from galoiskit.scalars import PrimeField
from galoiskit.poly import poly_from_int_coeffs

p = parse_poly("x^2 - 1")
q = parse_poly("x^3 - 1")
print("gcd(x^2-1, x^3-1) =", render_poly(poly_gcd(p, q)))

quo, rem = divmod(parse_poly("x^3 + 2*x + 5"), parse_poly("x^2 + 1"))
print("x^3+2x+5 = (x^2+1)*(%s) + (%s)" % (render_poly(quo), render_poly(rem)))

print("squarefree part of (x^3-1)^2 =", render_poly(poly_squarefree_part(q * q)))
print("(x^2-2)(x^3) substitution:", render_poly(poly_compose_power(parse_poly("x^2-2"), 3)))

# mod-p factorization: distinct-degree then equal-degree splitting
gf5 = PrimeField(5)
f5 = poly_from_int_coeffs(gf5, [1, 0, 1])
print("\nx^2+1 mod 5:", " * ".join(f"({render_poly(g)})^{m}" for g, m in factor_mod_p(f5)))

# the full rational pipeline: content, squarefree split, Hensel, recombination
for text in ("x^4 - 1", "6*x^2 - 6", "x^5 - x - 1", "x^4 + 1"):
    fac = factor_over_Q(parse_poly(text))
    pieces = " * ".join(
        f"({render_poly(g)})" + (f"^{m}" if m > 1 else "") for g, m in fac.factors
    )
    print(f"{text} = {fac.unit} * {pieces}")
    print("   irreducible over Q:", is_irreducible_over_Q(parse_poly(text)))
