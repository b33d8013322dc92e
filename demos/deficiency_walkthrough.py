"""A tour of the deficiency criterion and the factor construction pipeline.

Walks through small graphs end to end: evaluate the deficiency expression by
hand-sized examples, decide the criterion on the matching gadget, then build
an even factor through loop augmentation, gadget expansion, and maximum
matching.
"""

import evenfactor as ef


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Deficiency values on a star")
star = ef.complete_bipartite(1, 3)
print("K_{1,3}, bounds [2,2].  Take S empty, T = {center}:")
value = ef.even_factor_deficiency(star, 2, 2, (), (0,))
print("  deficiency = q(S,T) - b|S| + a|T| - d(center) = 3 - 0 + 2 - 3 =", value,
      " -> positive, so the criterion fails here")
holds, witness = ef.criterion_decide(star, 2, 2)
print("  a maximiser over all (S,T), read off the gadget matching:",
      ef.to_json(witness))
print("  the value is even, like the bounds:", value % 2 == 0)

show("Criterion holds on graphs that are their own factors")
for name, g, a, b in [("C6", ef.cycle_graph(6), 2, 2),
                      ("K5", ef.complete_graph(5), 4, 4)]:
    holds, _ = ef.criterion_decide(g, a, b)
    print(f"  {name}, bounds [{a},{b}]: criterion holds = {holds}")

show("The construction pipeline on K4 with bounds [2,4]")
k4 = ef.complete_graph(4)
g, k = ef.loop_augment(k4, 2, 4)
print("  one loop per vertex lifts every degree to", g.degrees[0] + 2 * k)
instance = ef.tutte_gadget((g, k), 4)
print("  real degree 3 < 4, so every 4-factor uses the loop: each vertex gets")
print("  3 ports and 1 hard core, and the forced loop gets no nodes")
print("  gadget size:", instance.n_nodes, "nodes,", len(instance.edges), "edges")
matching = ef.max_matching(instance)
print("  maximum matching:", len(matching), "pairs; perfect =",
      ef.is_perfect(instance, matching))
factor = ef.find_even_factor(k4, 2, 4)
print("  decoded factor degrees:", factor.degrees)
print("  verified:", ef.verify_factor(k4, factor, 2, 4, require_even=True))

show("Exact absence: the star has no even [2,2]-factor")
print("  star [2,2] pipeline:", ef.find_even_factor(star, 2, 2))

show("General [a,b]-factors without the parity requirement")
k33 = ef.complete_bipartite(3, 3)
factor = ef.find_ab_factor(k33, 2, 4)
print("  K_{3,3} [2,4]-factor degrees:", factor.degrees)
print("  K_{2,6} [2,2]-factor:", ef.find_ab_factor(ef.complete_bipartite(2, 6), 2, 2))
