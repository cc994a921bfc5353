"""Tour of the group layer: building groups, subgroups, series, quotients.

Run as: python3 demos/01_groups_from_permutations.py
"""

import numpy as np

from forcing_lab import from_generators, parse_group_spec

print("=" * 64)
print("1. Groups from explicit permutations")
print("=" * 64)

# A generator is its image row: the images of the points 0..3. The 4-cycle
# (0 1 2 3) and the transposition (1 3) generate the dihedral group of
# order 8, as the transposition is a reflection axis of the square.
rot = (1, 2, 3, 0)
ref = (0, 3, 2, 1)
D4 = from_generators([rot, ref], 4)
print(f"generated group order: {D4.order}")
print(f"element orders: {sorted(int(o) for o in D4.orders())}")
print(f"center order: {D4.center().order}")
print(f"commutator subgroup order: {D4.commutator_subgroup(D4.whole_subgroup()).order}")

print()
print("=" * 64)
print("2. The same group through the group-spec grammar")
print("=" * 64)

# perm:<degree>:<cycles>,... builds from cycle notation; preset:Name(args)
# builds a named family; product:part|part takes direct products.
for spec in ("perm:4:(0 1 2 3),(1 3)",
             "preset:Dihedral(8)",
             "product:preset:Cyclic(2)|preset:Cyclic(4)"):
    G = parse_group_spec(spec)
    print(f"{spec:45s} order {G.order}")

print()
print("=" * 64)
print("3. Exponent-p central series")
print("=" * 64)

# For a p-group the series G = G_0 > G_1 > ... > 1 descends by taking
# p-th powers and commutators at each stage; its length is the p-class.
for spec in ("preset:Heisenberg(3)", "preset:GenQuaternion(2)",
              "preset:Abelian(4,4)"):
    G = parse_group_spec(spec)
    orders = [sub.order for sub in G.lower_exponent_p_series()]
    print(f"{spec:28s} series orders {' > '.join(str(o) for o in orders)}")

print()
print("=" * 64)
print("4. Quotients keep a canonical labeling")
print("=" * 64)

# A quotient is its coset labels: each element gets the index of its coset,
# the cosets ordered by their least members, so the kernel is coset 0. A
# coset's order is the least power that takes its members into the kernel.
G = parse_group_spec("preset:Heisenberg(3)")
series = G.lower_exponent_p_series()
project = G.quotient(series[1])
print(f"Heisenberg(3) / Frattini has order {int(project.max()) + 1}")
print(f"fiber of coset 0 (the kernel): {tuple(np.flatnonzero(project == 0).tolist())}")
print(f"quotient is elementary abelian: "
      f"{sorted(set(G.coset_orders(series[1]).tolist()))} element orders")

print()
print("=" * 64)
print("5. Conjugacy classes")
print("=" * 64)

# A class is a label: each element is labelled with its class's least
# member, so the representatives are the elements labelled with themselves.
G = parse_group_spec("preset:Dihedral(8)")
label = G.conjugacy_classes()
sizes = np.bincount(label, minlength=G.order)
for rep in np.flatnonzero(label == np.arange(G.order)).tolist():
    print(f"rep {rep}: size {sizes[rep]}, "
          f"element order {G.orders()[rep]}")
