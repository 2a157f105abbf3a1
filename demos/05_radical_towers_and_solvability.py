# Radical chains, their normalization, and the solvability verdict.
#
# A chain adjoins k-th roots stage by stage and is usually not normal.
# Normalization rebuilds it inside a tower of splitting fields whose layers
# all have abelian Galois groups; that structure is what forces the group
# of any equation solvable by radicals to be solvable.

from galoiskit import (
    abelian_layer_embeddings,
    associated_group_chain,
    necessary_condition_verdict,
    normalize_chain,
    realize_chain,
    verify_nested_normal_radical,
)
from galoiskit.parsing import parse_poly
from galoiskit.poly import render_poly

# sqrt(1 + sqrt(2)): two nested square roots
chain = realize_chain([(2, 2), (2, "1 + r1")])
print("chain:", chain)

tower = normalize_chain(chain)
print("N =", tower.lcm_degree)
print("level degrees:", [lv.degree for lv in tower.levels])
for i, s in enumerate(tower.stages, start=1):
    print(f"  stage {i}: k={s.k}, orbit size {len(s.orbit)}, "
          f"layer polynomial {render_poly(s.kummer_poly)}")

report = verify_nested_normal_radical(tower)
print("independent re-verification:", "all pass" if report.all_passed else report.to_dict())

groups = associated_group_chain(tower)
print("associated group chain orders:", [g.order for g in groups])
for label, order, target, emb in abelian_layer_embeddings(tower):
    print(f"  {label}: group of order {order} embeds into {target}: {emb is not None}")

# the verdict: a solvable group is necessary for solvability by radicals
for text in ("x^5 - 2", "x^5 - x - 1", "x^6 + x + 1"):
    v = necessary_condition_verdict(parse_poly(text))
    print(f"\n{text}: {v.verdict}")
    print("  derived series orders:", v.derived_series_orders)
    if v.quintic_evidence:
        print("  cycle types mod p:", v.quintic_evidence.samples[:4])
    if v.cycle_type_evidence:
        # beyond quintics: Jordan's theorems on the Frobenius cycle types
        print("  cycle-type witness:", v.cycle_type_evidence.detail)
    if v.certificate:
        print("  abelian-quotient certificate accepted:", v.certificate.accepted)
