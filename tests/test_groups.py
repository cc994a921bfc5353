import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import forcing_lab
from forcing_lab import (
    FiniteGroup,
    GroupSpecError,
    InvalidPermutation,
    NotAPGroup,
    NotNormal,
    OrderCapExceeded,
    PreconditionViolated,
    Subgroup,
    TWISTED_C4_SPEC,
    catalog_entries,
    direct_product,
    from_generators,
    p_group_specs,
    parse_group_spec,
    spec_text,
    subgroup_as_group,
    sylow_decomposition,
)
from forcing_lab.groups import PRIME_TEST_LIMIT, is_prime, prime_power
from forcing_lab.groupspec import _cycle_string

from conftest import quotient_group

AXIOM_SPECS = [
    "preset:Cyclic(6)",
    "preset:ElemAbelian(2,2)",
    "preset:Dihedral(8)",
    "preset:GenQuaternion(1)",
    "preset:Heisenberg(3)",
    "preset:Abelian(4,2)",
    "perm:3:(0 1 2),(0 1)",
    "product:preset:GenQuaternion(1)|preset:Cyclic(3)",
]


class TestPermutation:
    """A permutation is an int32 image row: built from the cycles the spec
    parser checks, formatted back to cycles, and checked and multiplied by
    from_generators."""

    def test_identity(self, row_of):
        e = row_of("()", 4)
        assert e.dtype == np.int32 and e.tolist() == [0, 1, 2, 3]
        assert _cycle_string(e) == ""
        assert from_generators([e], 4).order == 1

    def test_from_cycles_and_back(self, row_of):
        p = row_of("(0 1 2)", 4)
        assert p.tolist() == [1, 2, 0, 3]
        assert _cycle_string(p) == "(0 1 2)"
        assert from_generators([p], 4).order == 3

    def test_composition_is_left_then_right(self, row_of):
        a = row_of("(0 1)", 3)
        b = row_of("(1 2)", 3)
        # a then b: 0 -> 1 -> 2
        ab = b[a]
        assert ab[0] == 2
        G = from_generators([a, b, ab], 3)
        ia, ib, iab = G.generators
        assert G.mul_table[ia, ib] == iab

    def test_inverse(self, row_of):
        p = row_of("(0 1 2 3 4)", 5)
        G = from_generators([p, np.argsort(p)], 5)
        g, g_inv = G.generators
        assert G.mul_table[g, G.inv_table[g]] == 0
        assert G.inv_table[g] == g_inv

    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidPermutation):
            from_generators([(0, 0, 1)], 3)

    def test_rejects_out_of_range_cycle(self, row_of):
        with pytest.raises(GroupSpecError, match="point 5 outside 0..2"):
            row_of("(0 5)", 3)

    def test_rejects_repeated_point(self, row_of):
        with pytest.raises(GroupSpecError, match="point 1 appears in two cycles"):
            row_of("(0 1)(1 2)", 4)

    def test_cycle_string_canonical(self, row_of):
        p = row_of("(4 5)(1 2 0)", 6)
        # least point first inside each cycle, cycles sorted by least point
        assert _cycle_string(p) == "(0 1 2)(4 5)"
        # point i written as points[i]
        assert _cycle_string(p, [3, 5, 8, 13, 21, 34]) == "(3 5 8)(21 34)"


def _perm_order(images):
    """Reference order of a permutation given by its images: the lcm of its
    cycle lengths."""
    images = [int(i) for i in images]
    lengths, seen = [], set()
    for start in range(len(images)):
        length, point = 0, start
        while point not in seen:
            seen.add(point)
            point = images[point]
            length += 1
        lengths.append(length or 1)
    return math.lcm(*lengths)


def _element_rows(G, degree, gen_rows):
    """Every element's image row, indexed like G's elements, for G built
    from gen_rows, whose distinct rows pair with G.generators in order. The
    rows spread from the identity one breadth-first level at a time along
    the table: x g sends a point to where g sends x's image of it."""
    images = list({tuple(np.asarray(r).tolist()): np.asarray(r) for r in gen_rows}.values())
    assert len(images) == len(G.generators)
    rows = np.empty((G.order, degree), dtype=np.int64)
    rows[0] = np.arange(degree)
    reached = np.zeros(G.order, dtype=bool)
    reached[0] = True
    level = np.zeros(1, dtype=np.int64)
    while len(level):
        found = []
        for g, image in zip(G.generators, images):
            y = G.mul_table[level, g]
            new = ~reached[y]
            x, y = level[new], y[new]
            reached[y] = True
            rows[y] = image[rows[x]]
            found.append(y)
        level = np.concatenate(found) if found else level[:0]
    assert reached.all()
    return rows


def _check_axioms(G: FiniteGroup):
    n = G.order
    mul = G.mul_table
    inv = G.inv_table
    assert np.array_equal(mul[0], np.arange(n))
    assert np.array_equal(mul[:, 0], np.arange(n))
    assert np.array_equal(mul[np.arange(n), inv], np.zeros(n, dtype=mul.dtype))
    # every row and column is a permutation of the elements
    assert np.array_equal(np.sort(mul, axis=1), np.tile(np.arange(n), (n, 1)))
    assert np.array_equal(np.sort(mul, axis=0), np.tile(np.arange(n), (n, 1)).T)
    if n <= 24:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = np.random.default_rng(7)
        triples = rng.integers(0, n, size=(500, 3)).tolist()
    for a, b, c in triples:
        assert mul[mul[a, b], c] == mul[a, mul[b, c]]


@pytest.mark.parametrize("spec", AXIOM_SPECS)
def test_group_axioms(group_of, spec):
    _check_axioms(group_of(spec))


@pytest.mark.parametrize("spec", AXIOM_SPECS)
def test_element_orders_divide_group_order(group_of, rows_of, spec):
    G = group_of(spec)
    orders = G.orders()
    assert orders[0] == 1
    assert all(G.order % int(o) == 0 for o in orders)
    # table order matches the permutation realization
    for i, images in enumerate(_element_rows(G, *rows_of(spec))):
        assert _perm_order(images) == int(orders[i])


def _orders_by_multiplication(G, members=(0,)):
    """Reference: the least k with x^k among the members, 1 unless given,
    multiplying by x once per step."""
    inside = np.zeros(G.order, dtype=bool)
    inside[list(members)] = True
    x = np.arange(G.order)
    power, orders = x.copy(), np.zeros(G.order, dtype=np.int64)
    k = 1
    while not orders.all():
        orders[inside[power] & (orders == 0)] = k
        power = G.mul_table[power, x]
        k += 1
    return orders


def test_orders_match_repeated_multiplication(group_of):
    specs = [spec for _, spec in p_group_specs(256)] + [e.spec for e in catalog_entries()]
    specs += ["preset:Cyclic(6)", "product:perm:3:(0 1 2),(0 1)|preset:Cyclic(3)",
              "product:preset:Heisenberg(5)|preset:ElemAbelian(3,2)", "preset:Cyclic(1024)"]
    S3xC3 = group_of("product:perm:3:(0 1 2),(0 1)|preset:Cyclic(3)")
    cases = [(spec, group_of(spec)) for spec in specs]
    cases.append(("S3 x C3 / Z", quotient_group(S3xC3, S3xC3.center())))
    assert cases[-1][1].order == 6
    for name, G in cases:
        orders = G.orders()
        assert np.array_equal(orders, _orders_by_multiplication(G)), name
        assert orders.dtype == np.int32 and not orders.flags.writeable, name


def test_coset_orders_match_repeated_multiplication(group_of):
    """The least k with x^k in N, for every cyclic subgroup N, normal or not,
    and the centre; for N normal, the element orders of G/N."""
    for spec in ["preset:Dihedral(16)", "preset:Heisenberg(3)", "preset:Abelian(8,4)",
                 "product:perm:3:(0 1 2),(0 1)|preset:Cyclic(3)", "perm:4:(0 1 2 3),(0 1)"]:
        G = group_of(spec)
        for N in [G.center(), *(G.subgroup_closure([m]) for m in range(G.order))]:
            orders = G.coset_orders(N)
            assert np.array_equal(orders, _orders_by_multiplication(G, N.members)), spec
            if G.is_normal(N):
                assert np.array_equal(orders, quotient_group(G, N).orders()[G.quotient(N)]), spec
    with pytest.raises(PreconditionViolated, match="different group"):
        group_of("preset:Dihedral(8)").coset_orders(group_of("preset:Cyclic(8)").center())


def test_elements_sorted_and_identity_first(group_of, rows_of):
    degree, rows = rows_of("preset:Dihedral(8)")
    points = _element_rows(group_of("preset:Dihedral(8)"), degree, rows).tolist()
    assert points[0] == list(range(degree))
    assert points == sorted(points)


LADDER_SPECS = ("preset:Abelian(16,16,2)", "preset:Dihedral(1024)", "preset:Heisenberg(11)",
                "preset:ElemAbelian(2,11)", "preset:SemiDihedral(2048)",
                "product:preset:Dihedral(64)|preset:Dihedral(32)")


def test_points_are_the_action_the_table_describes(group_of, rows_of):
    """The spec's points, each element's images of them spread from the
    generators' rows along the table, are indexed like the elements (sorted
    rows) and every product x g acts as x then g."""
    specs = [spec for _, spec in p_group_specs(256)] + [e.spec for e in catalog_entries()]
    # the ladder groups are parsed afresh, one at a time, and not cached
    cases = itertools.chain(((spec, group_of(spec)) for spec in specs),
                            ((spec, parse_group_spec(spec)) for spec in LADDER_SPECS))
    for spec, G in cases:
        degree, rows = rows_of(spec)
        points = _element_rows(G, degree, rows)
        assert np.array_equal(points[0], np.arange(degree)), spec
        assert np.array_equal(np.lexsort(points.T[::-1]), np.arange(G.order)), spec
        for g in G.generators:
            assert np.array_equal(points[G.mul_table[:, g]], points[g][points]), spec


def test_from_generators_cyclic():
    G = from_generators([(1, 2, 3, 4, 5, 0)], 6)
    assert G.order == 6
    assert np.array_equal(G.mul_table, G.mul_table.T)
    assert G.orders().max() == 6


def test_from_generators_respects_cap():
    with pytest.raises(OrderCapExceeded):
        from_generators([(1, 2, 3, 4, 5, 6, 0)], 7, cap=5)


def test_direct_product_orders_multiply(group_of):
    A = group_of("preset:Cyclic(4)")
    B = group_of("preset:Cyclic(3)")
    P = direct_product([A, B])
    assert P.order == 12
    assert np.array_equal(P.mul_table, P.mul_table.T)


def _product_by_reenumeration(rows_of, groups, cap=2048):
    """Reference product: embed each factor's generator rows, read from its
    spec text, on the disjoint union of the points and enumerate the group
    they generate."""
    degree, rows = rows_of("product:" + "|".join(spec_text(g) for g in groups))
    return from_generators(rows, degree, cap)


def _product_cases(group_of):
    specs = {spec for _, spec in p_group_specs(256)} | {e.spec for e in catalog_entries()}
    specs.add("product:preset:Cyclic(1)|preset:Cyclic(1)|preset:Cyclic(2)")
    for spec in sorted(s for s in specs if s.startswith("product:")):
        yield spec, [group_of(part) for part in spec.removeprefix("product:").split("|")]
    yield "ElemAbelian(2,11)", [group_of("preset:Cyclic(2)")] * 11
    D8 = group_of("preset:Dihedral(16)")
    yield "Dihedral(16)/Z x C3", [quotient_group(D8, D8.center()), group_of("preset:Cyclic(3)")]
    H = group_of("preset:Heisenberg(3)")
    yield "D4 x Z(Heisenberg(3)) x V4", [group_of("preset:Dihedral(8)"),
                                         subgroup_as_group(H.center()),
                                         group_of("preset:ElemAbelian(2,2)")]


def test_direct_product_equals_reenumeration(group_of, rows_of):
    for name, factors in _product_cases(group_of):
        P = direct_product(factors)
        ref = _product_by_reenumeration(rows_of, factors)
        assert np.array_equal(P.mul_table, ref.mul_table), name
        assert np.array_equal(P.inv_table, ref.inv_table), name
        assert P.generators == ref.generators, name
    C4 = group_of("preset:Cyclic(4)")
    with pytest.raises(OrderCapExceeded):
        direct_product([C4, C4], cap=15)
    assert direct_product([C4, C4], cap=16).order == 16


def test_center_and_commutator_of_dihedral(group_of):
    D4 = group_of("preset:Dihedral(8)")
    center = D4.center()
    assert len(center.members) == 2
    derived = D4.commutator_subgroup(D4.whole_subgroup())
    assert set(derived.members) == set(center.members)
    assert not np.array_equal(D4.mul_table, D4.mul_table.T)


def test_frattini_of_dihedral(group_of):
    D4 = group_of("preset:Dihedral(8)")
    frat = D4.frattini()
    assert len(frat.members) == 2
    # Frattini contains squares: the rotation squared is in it
    sq = {int(D4.mul_table[g, g]) for g in range(D4.order)}
    assert sq <= set(frat.members)


def test_lower_exponent_p_series_strictly_descends(group_of):
    for spec, orders in [
        ("preset:Heisenberg(3)", [27, 3, 1]),
        ("preset:Dihedral(8)", [8, 2, 1]),
        ("preset:GenQuaternion(2)", [16, 4, 2, 1]),
        ("preset:Abelian(4,4)", [16, 4, 1]),
    ]:
        series = group_of(spec).lower_exponent_p_series()
        assert [len(s.members) for s in series] == orders


def test_subgroup_closure_idempotent(group_of):
    G = group_of("preset:Dihedral(8)")
    H = G.subgroup_closure([1])
    H2 = G.subgroup_closure(list(H.members))
    assert np.array_equal(H.members, H2.members)
    assert G.order % len(H.members) == 0


def test_subgroup_validation_rejects_non_closed(group_of):
    G = group_of("preset:Cyclic(6)")
    bad = None
    for m in range(1, G.order):
        if int(G.orders()[m]) == 6:
            bad = m
            break
    with pytest.raises(PreconditionViolated):
        Subgroup(G, (0, bad))
    # {0, x} with x of order 4 misses x^2 and x^3
    C8 = group_of("preset:Cyclic(8)")
    x = int(np.nonzero(C8.orders() == 4)[0][0])
    with pytest.raises(PreconditionViolated):
        Subgroup(C8, (0, x))
    # a set of a subgroup's size that is not closed: swap one member of a
    # subgroup of order 4 for an element outside it
    D8 = group_of("preset:Dihedral(16)")
    H = D8.subgroup_closure([int(np.nonzero(D8.orders() == 4)[0][0])])
    outside = next(g for g in range(D8.order) if g not in H.members)
    for kept in itertools.combinations(H.members[1:], 2):
        with pytest.raises(PreconditionViolated):
            Subgroup(D8, (0, *kept, outside))
    # any sequence or array of indices gives the members of the sorted tuple
    members = tuple(H.members.tolist())
    for given in ([members[2], 0, members[-1], members[2], *members], np.array(members[::-1])):
        assert tuple(Subgroup(D8, given).members.tolist()) == members
    for given in [(-1, *members), []]:
        with pytest.raises(PreconditionViolated, match="identity"):
            Subgroup(D8, given)
    # indices that are not integers are refused, never truncated to members
    for given in [(*members, 2 ** 70), (0, "x"), 0, [members], (0, 1.9), (0, "1"),
                  (*members[:-1], members[-1] + 0.5), [str(m) for m in members],
                  np.array(members, dtype=float)]:
        with pytest.raises(PreconditionViolated, match="members are not a sequence"):
            Subgroup(D8, given)
    for seed in [[2.9], ["1"], np.array([1.0]), [[1]]]:
        with pytest.raises(PreconditionViolated, match="seeds are not a sequence"):
            D8.subgroup_closure(seed)
    assert D8.subgroup_closure([]).order == 1


def _assert_sorted_int32_members(H, name):
    members = H.members
    assert isinstance(members, np.ndarray) and members.dtype == np.int32, name
    assert members.ndim == 1 and members.flags.c_contiguous, name
    assert not members.flags.writeable, name
    assert members[0] == 0 and (np.diff(members) > 0).all(), name


def test_kernel_subgroups_are_sorted_read_only_int32_arrays(group_of):
    for _, spec in p_group_specs(64):
        G = group_of(spec)
        p = G.prime()
        whole, series = G.whole_subgroup(), G.lower_exponent_p_series()
        subgroups = [whole, G.trivial_subgroup(), G.subgroup_closure([G.order - 1, 1, 1]),
                     G.center(), G.commutator_subgroup(whole),
                     G.commutator_subgroup(series[1]), G.frattini(), *series]
        for A, B in zip(series, series[1:]):
            subgroups += G.intermediate_index_p_subgroups(A, B, p)
        for H in subgroups:
            _assert_sorted_int32_members(H, spec)
    for spec in [spec for _, spec in p_group_specs(64)] + [
            "product:preset:Heisenberg(3)|preset:Cyclic(2)",
            "product:preset:GenQuaternion(1)|preset:Cyclic(3)"]:
        for H in sylow_decomposition(group_of(spec)).values():
            _assert_sorted_int32_members(H, spec)


def test_commutator_subgroup_rejects_a_foreign_subgroup(group_of):
    D8, D16 = group_of("preset:Dihedral(8)"), group_of("preset:Dihedral(16)")
    # Q8 has D8's order, so its member indices are all in range for D8
    Q8 = group_of("preset:GenQuaternion(1)")
    for foreign in (D16.frattini(), Q8.whole_subgroup(), Q8.center()):
        with pytest.raises(PreconditionViolated, match="different group"):
            D8.commutator_subgroup(foreign)


def test_center_is_normal(group_of):
    for spec in AXIOM_SPECS:
        G = group_of(spec)
        assert G.is_normal(G.center())


def test_quotient_c6_by_c3(group_of):
    C6 = group_of("preset:Cyclic(6)")
    orders = C6.orders()
    third = int(np.nonzero(orders == 3)[0][0])
    N = C6.subgroup_closure([third])
    project, Q = C6.quotient(N), quotient_group(C6, N)
    assert Q.order == 2
    assert project.dtype == np.int32 and not project.flags.writeable
    # projection is a homomorphism
    for a in range(C6.order):
        for b in range(C6.order):
            assert Q.mul_table[project[a], project[b]] == project[C6.mul_table[a, b]]


def test_quotient_labels_are_min_coset_members(group_of):
    D4 = group_of("preset:Dihedral(8)")
    project = D4.quotient(D4.center())
    for g in range(D4.order):
        coset = {int(D4.mul_table[g, k]) for k in D4.center().members}
        label = np.flatnonzero(project == project[g]).tolist()
        assert set(label) == coset


def test_quotient_rejects_non_normal(group_of):
    D4 = group_of("preset:Dihedral(8)")
    reflection = None
    for m in range(1, D4.order):
        H = D4.subgroup_closure([m])
        if len(H.members) == 2 and not D4.is_normal(H):
            reflection = H
            break
    assert reflection is not None
    with pytest.raises(NotNormal):
        D4.quotient(reflection)


def test_nested_quotient_labels_align(group_of):
    """Quotienting G/N2 by the image of N1 must agree index-by-index with
    quotienting G by N1 directly; the forcing verifier leans on this."""
    for spec in ["preset:Abelian(4,4)", "preset:GenQuaternion(2)",
                 "preset:Heisenberg(3)"]:
        G = group_of(spec)
        series = G.lower_exponent_p_series()
        if len(series) < 3:
            continue
        N1, N2 = series[1], series[2]
        low, up, Q = G.quotient(N2), G.quotient(N1), quotient_group(G, N2)
        inner = Q.quotient(Q.subgroup_closure(sorted({int(low[m]) for m in N1.members})))
        for g in range(G.order):
            assert int(inner[int(low[g])]) == int(up[g])


def test_intermediate_index_p_subgroups_elementary_abelian(group_of):
    E9 = group_of("preset:ElemAbelian(3,2)")
    subs = list(E9.intermediate_index_p_subgroups(E9.whole_subgroup(),
                                                  E9.trivial_subgroup(), 3))
    assert len(subs) == 4
    assert all(len(s.members) == 3 for s in subs)
    assert len({tuple(s.members.tolist()) for s in subs}) == 4

    V4 = group_of("preset:ElemAbelian(2,2)")
    subs = list(V4.intermediate_index_p_subgroups(V4.whole_subgroup(),
                                                  V4.trivial_subgroup(), 2))
    assert [len(s.members) for s in subs] == [2, 2, 2]


def test_intermediate_subgroups_precondition(group_of):
    C8 = group_of("preset:Cyclic(8)")
    whole = C8.whole_subgroup()
    agemo = C8.frattini()  # order 4, quotient not elementary of rank >= 1? it is C2
    # A/B here is C8 / C4 which is fine; ask for the wrong prime instead
    with pytest.raises(PreconditionViolated):
        C8.intermediate_index_p_subgroups(whole, agemo, 3)


def _fixpoint_closure(G, seed):
    """Reference closure: square the member set until it stops growing."""
    members = np.union1d(np.asarray(seed, dtype=np.int64), [0])
    while True:
        prods = np.unique(G.mul_table[np.ix_(members, members)])
        if len(prods) == len(members):
            return tuple(prods.tolist())
        members = prods


def _all_commutators(G, a, b):
    """Every [x, y] = x^-1 y^-1 x y with x in a and y in b."""
    mul, inv = G.mul_table, G.inv_table
    t = mul[np.ix_(inv[a], inv[b])]
    return np.unique(mul[mul[t, a[:, None]], b[None, :]])


def _reference_series(G, p):
    series = [np.arange(G.order)]
    while len(series[-1]) > 1:
        current = power = series[-1]
        for _ in range(p - 1):
            power = G.mul_table[power, current]
        comms = _all_commutators(G, current, np.arange(G.order))
        series.append(np.array(_fixpoint_closure(G, np.union1d(power, comms))))
    return [tuple(term.tolist()) for term in series]


def _orbit_classes(G):
    """Reference classes: a breadth-first orbit search from each unseen element."""
    classes, seen = [], set()
    for x in range(G.order):
        if x in seen:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            frontier = [int(G.mul_table[G.mul_table[G.inv_table[g], y], g])
                        for y in frontier for g in G.generators]
            frontier = [z for z in frontier if z not in orbit]
            orbit.update(frontier)
        seen |= orbit
        classes.append((x, tuple(sorted(orbit)), int(G.orders()[x])))
    return classes


def _kernel_cases(group_of):
    """Every p-group of order at most 64, two nilpotent groups that are not
    p-groups, S4 (where the commutators of A with B's generators need closing
    under conjugation) and quotient targets of a few larger groups."""
    for _, spec in p_group_specs(64):
        yield spec, group_of(spec)
    for spec in ["product:preset:Heisenberg(3)|preset:Cyclic(2)",
                 "product:preset:GenQuaternion(1)|preset:Cyclic(3)", "perm:4:(0 1 2 3),(0 1)"]:
        yield spec, group_of(spec)
    for spec in ["preset:Dihedral(32)", "preset:Heisenberg(5)", "preset:Abelian(8,4,2)",
                 "preset:SemiDihedral(64)"]:
        G = group_of(spec)
        for N in (G.center(), G.lower_exponent_p_series()[-2]):
            yield f"{spec}/N{N.order}", quotient_group(G, N)


def test_closure_kernels_match_fixpoint_references(group_of):
    rng = np.random.default_rng(3)
    for name, G in _kernel_cases(group_of):
        seeds = [[g] for g in G.generators] + [list(G.generators), [G.order - 1]]
        seeds += [rng.integers(0, G.order, size=k).tolist() for k in (1, 2, 2, 3)]
        subgroups = []
        for seed in seeds:
            H = G.subgroup_closure(seed)
            assert tuple(H.members.tolist()) == _fixpoint_closure(G, seed), (name, seed)
            subgroups.append(H)
        assert tuple(G.center().members.tolist()) == tuple(
            x for x in range(G.order) if np.array_equal(G.mul_table[x], G.mul_table[:, x])), name
        proper = [H for H in subgroups if H.order < G.order]
        for A in proper[:2] + [G.whole_subgroup()]:
            expected = _fixpoint_closure(G, _all_commutators(G, A.members, np.arange(G.order)))
            assert tuple(G.commutator_subgroup(A).members.tolist()) == expected, name
        pp = prime_power(G.order)
        if pp is not None:
            series = G.lower_exponent_p_series()
            assert [tuple(H.members.tolist()) for H in series] == _reference_series(G, pp[0]), name
            assert np.array_equal(G.frattini().members, series[1].members), name


def _index_p_reference(G, A, B, p):
    """Sorted distinct closures of B with r - 1 coset representatives of B in
    A that have order |A|/p, grown one representative at a time."""
    reps = np.unique(G.mul_table[:, B.members].min(axis=1)[A.members]).tolist()
    level = {tuple(B.members.tolist())}
    while max(map(len, level)) * p < A.order:
        level = {_fixpoint_closure(G, S + (x,)) for S in level for x in reps if x not in S}
    return sorted(S for S in level if len(S) * p == A.order)


def test_index_p_candidates_are_built_on_demand(group_of, monkeypatch):
    G = group_of("preset:ElemAbelian(2,4)")
    whole, trivial = G.whole_subgroup(), G.trivial_subgroup()
    built = []
    original = Subgroup.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Subgroup, "__post_init__", counted)
    candidates = G.intermediate_index_p_subgroups(whole, trivial, 2)
    first = next(candidates)
    assert len(built) == 1
    rest = list(candidates)
    assert len(built) == 15
    assert [tuple(S.members.tolist()) for S in [first] + rest] == _index_p_reference(G, whole, trivial, 2)


def test_index_p_candidates_match_closure_reference(group_of):
    """Every series layer of rank at most 4 of the p-groups of order at most
    128, and the layers from each candidate down to the same bottom."""
    layers = 0
    for _, spec in p_group_specs(128):
        G = group_of(spec)
        p = prime_power(G.order)[0]
        series = G.lower_exponent_p_series()
        for A, B in zip(series[1:-1], series[2:]):
            if A.order > B.order * p ** 4:
                continue
            candidates = list(G.intermediate_index_p_subgroups(A, B, p))
            assert [tuple(S.members.tolist()) for S in candidates] == _index_p_reference(G, A, B, p), spec
            for S in candidates:
                if S.order > B.order:
                    nested = G.intermediate_index_p_subgroups(S, B, p)
                    assert [tuple(T.members.tolist()) for T in nested] == _index_p_reference(G, S, B, p), spec
            layers += 1
    assert layers > 50


def _classes(G):
    """(representative, members, order) of each class, read from the labels
    conjugacy_classes returns, by representative."""
    label = G.conjugacy_classes()
    return [(rep, tuple(np.flatnonzero(label == rep).tolist()), int(G.orders()[rep]))
            for rep in np.flatnonzero(label == np.arange(G.order)).tolist()]


def test_conjugacy_classes_match_orbit_search(group_of):
    for name, G in _kernel_cases(group_of):
        label = G.conjugacy_classes()
        assert label.dtype == np.int32 and not label.flags.writeable
        assert _classes(G) == _orbit_classes(G), name


def test_conjugacy_classes_partition(group_of):
    for spec in AXIOM_SPECS:
        G = group_of(spec)
        classes = _classes(G)
        seen = sorted(m for _, members, _ in classes for m in members)
        assert seen == list(range(G.order))
        for rep, members, order in classes:
            assert rep == min(members)
            assert all(int(G.orders()[m]) == order for m in members)
        # classes are sorted by least member; identity first
        reps = [rep for rep, _, _ in classes]
        assert reps == sorted(reps)
        assert classes[0][1] == (0,)


def test_conjugacy_class_sizes_dihedral(group_of):
    D4 = group_of("preset:Dihedral(8)")
    sizes = sorted(len(members) for _, members, _ in _classes(D4))
    assert sizes == [1, 1, 2, 2, 2]


def test_subgroup_as_group_preserves_structure(group_of):
    from forcing_lab import is_generalized_quaternion

    G = group_of("product:preset:GenQuaternion(1)|preset:Cyclic(3)")
    orders = G.orders()
    # the elements of 2-power order in Q8 x C3 form a copy of Q8
    H = Subgroup(G, tuple(m for m in range(G.order)
                          if int(orders[m]) in (1, 2, 4, 8)))
    K = subgroup_as_group(H)
    assert K.order == 8
    assert is_generalized_quaternion(K) == 1


def _greedy_generators(H):
    """Smallest member not yet generated, until H is reached."""
    gens, reached = [], {0}
    for x in H.members:
        if x not in reached:
            gens.append(x)
            reached = set(H.parent.subgroup_closure(gens).members)
    return gens


def _subgroup_cases(group_of):
    for spec in ["product:preset:Heisenberg(5)|preset:ElemAbelian(3,2)",
                 "product:preset:GenQuaternion(1)|preset:Cyclic(3)"]:
        for p, sub in sylow_decomposition(group_of(spec)).items():
            yield f"{spec} Sylow {p}", sub
    for spec in ["preset:Dihedral(16)", "preset:Heisenberg(3)", "preset:Abelian(4,2)",
                 "preset:SemiDihedral(16)", TWISTED_C4_SPEC]:
        G = group_of(spec)
        yield f"{spec} center", G.center()
        yield f"{spec} Frattini", G.frattini()
    D8 = group_of("preset:Dihedral(16)")
    Q = quotient_group(D8, D8.center())
    yield "Dihedral(16)/Z subgroup", Q.subgroup_closure([Q.order - 1])
    yield "trivial", D8.trivial_subgroup()


def test_subgroup_as_group_equals_reenumeration(group_of, rows_of):
    for name, H in _subgroup_cases(group_of):
        G = H.parent
        gens = _greedy_generators(H)
        degree, rows = rows_of(spec_text(G))
        points = _element_rows(G, degree, rows)
        ref = from_generators([points[g] for g in gens] or [points[0]], degree)
        K = subgroup_as_group(H)
        assert np.array_equal(K.mul_table, ref.mul_table), name
        assert np.array_equal(K.inv_table, ref.inv_table), name
        assert K.generators == ref.generators, name
        assert spec_text(K) == spec_text(ref), name


def test_subgroup_as_group_is_under_its_parents_cap():
    """A subgroup is no larger than its parent, so a parent built past the
    default cap gives a group of its own order."""
    G = parse_group_spec("preset:Cyclic(2049)", cap=2049)
    assert subgroup_as_group(G.whole_subgroup()).order == 2049


def test_only_enumeration_and_table_arithmetic_construct_a_group():
    """In src/, a FiniteGroup is constructed only where a table is enumerated
    or composed: from_generators, direct_product, subgroup_as_group and the
    cyclic preset. A quotient is its coset labels, never a group."""
    owners = []
    for path in sorted(Path(forcing_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = {id(node): None for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and ast.unparse(node.func).split(".")[-1] == "FiniteGroup"}
        # ast.walk is breadth first, so an inner function overwrites its outer one
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if id(node) in where:
                        where[id(node)] = fn.name
        owners += [f"{path.stem}.{name}" for name in where.values()]
    assert sorted(owners) == ["catalog._cyclic", "groups.direct_product",
                              "groups.from_generators", "groups.subgroup_as_group"]


def test_quotient_target_acts_by_right_multiplication(group_of, rows_of):
    G = group_of("preset:Heisenberg(3)")
    Q = quotient_group(G, G.center())
    assert spec_text(Q) == "perm:9:(0 1 2)(3 4 5)(6 7 8),(0 3 6)(1 4 7)(2 5 8)"
    # each generator's row in the spec is its table column: y -> y g
    _, rows = rows_of(spec_text(Q))
    assert [row.tolist() for row in rows] == [Q.mul_table[:, g].tolist() for g in Q.generators]


def test_ancestor_quotients(group_of):
    G = group_of("preset:GenQuaternion(2)")  # series 16 > 4 > 2 > 1
    series = G.lower_exponent_p_series()
    assert [quotient_group(G, term).order for term in series[1:-1]] == [4, 8]


@st.composite
def _small_generators(draw):
    degree = draw(st.integers(min_value=2, max_value=6))
    count = draw(st.integers(min_value=1, max_value=2))
    gens = []
    for _ in range(count):
        gens.append(tuple(draw(st.permutations(list(range(degree))))))
    return degree, gens


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_small_generators())
def test_generated_groups_satisfy_axioms(data):
    degree, gens = data
    try:
        G = from_generators(gens, degree, cap=360)
    except OrderCapExceeded:
        return
    n = G.order
    mul = G.mul_table
    assert np.array_equal(mul[0], np.arange(n))
    assert np.array_equal(mul[np.arange(n), G.inv_table], np.zeros(n, dtype=mul.dtype))
    rng = np.random.default_rng(degree * 1000 + n)
    for a, b, c in rng.integers(0, n, size=(60, 3)):
        assert mul[mul[a, b], c] == mul[a, mul[b, c]]
    for i, images in enumerate(_element_rows(G, degree, gens)):
        assert _perm_order(images) == int(G.orders()[i])


def test_inverses_are_where_each_row_holds_the_identity(group_of):
    for _, spec in p_group_specs(256):
        G = group_of(spec)
        rows, cols = np.nonzero(G.mul_table == 0)
        assert np.array_equal(rows, np.arange(G.order)), spec
        assert np.array_equal(G.inv_table, cols), spec
        assert G.inv_table.dtype == np.int32 and not G.inv_table.flags.writeable


def test_is_prime_matches_a_sieve_and_known_pseudoprimes():
    limit = 20000
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for k in range(2, int(limit ** 0.5) + 1):
        sieve[k * k::k] = False
    assert [is_prime(n) for n in range(-3, limit)] == [False] * 3 + sieve.tolist()
    # the least strong pseudoprimes to the first 1, 2, ..., 12 prime bases, and
    # two composite Mersenne numbers
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461,
              2 ** 67 - 1, 2 ** 79 - 1):
        assert not is_prime(n), n
    # the last prime below the limit is PRIME_TEST_LIMIT - 168
    for n in (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 9, PRIME_TEST_LIMIT - 168):
        assert is_prime(n), n
    # the least strong pseudoprime to the first 13 prime bases is the limit
    with pytest.raises(PreconditionViolated):
        is_prime(PRIME_TEST_LIMIT)


def test_prime_power_matches_a_brute_force_reference():
    limit = 10_000
    primes = [n for n in range(2, limit) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    expected = {p ** k: (p, k) for p in primes for k in range(1, 14) if p ** k < limit}
    assert [prime_power(n) for n in range(-2, limit)] == [expected.get(n) for n in range(-2, limit)]


@pytest.mark.parametrize("spec", AXIOM_SPECS)
def test_power_map_matches_repeated_multiplication(group_of, spec):
    G = group_of(spec)
    everything = np.arange(G.order)
    for e in (0, 1, 2, 3, G.order, G.order + 1):
        expected = np.zeros(G.order, dtype=np.int32)
        for _ in range(e):
            expected = G.mul_table[expected, everything]
        powers = G.power_map(e)
        assert np.array_equal(powers, expected), e
        assert powers.dtype == np.int32 and not powers.flags.writeable
        assert G.power_map(e) is powers
        with pytest.raises(ValueError):
            powers[0] = 0
    with pytest.raises(PreconditionViolated):
        G.power_map(-1)


@pytest.mark.parametrize("spec, p", [("preset:Dihedral(8)", 2), ("preset:Heisenberg(3)", 3),
                                     ("preset:Cyclic(121)", 11), ("preset:Cyclic(6)", None),
                                     ("product:preset:GenQuaternion(1)|preset:Cyclic(3)", None)])
def test_prime_of_a_p_group(group_of, spec, p):
    G = group_of(spec)
    if p is None:
        with pytest.raises(NotAPGroup, match=f"order {G.order} is not a prime power"):
            G.prime()
    else:
        assert G.prime() == p


def _table_cases(group_of):
    for _, spec in p_group_specs(64):
        yield spec, group_of(spec)
    spec = "product:preset:GenQuaternion(1)|preset:Cyclic(3)"
    yield spec, group_of(spec)


def test_commutator_table_matches_the_definition(group_of):
    for name, G in _table_cases(group_of):
        mul, inv = G.mul_table, G.inv_table
        table = G.commutator_table()
        assert table.shape == (G.order, len(G.generators)) and not table.flags.writeable, name
        for x in range(G.order):
            for j, g in enumerate(G.generators):
                assert table[x, j] == mul[mul[mul[inv[x], inv[g]], x], g], (name, x, g)
        whole = G.whole_subgroup()
        assert tuple(G.center().members.tolist()) == tuple(
            x for x in range(G.order) if np.array_equal(mul[x], mul[:, x])), name
        assert _classes(G) == _orbit_classes(G), name
        for H in [G.subgroup_closure([g]) for g in G.generators] + [G.center(), whole]:
            conjugates = {int(mul[mul[inv[g], h], g]) for h in H.members.tolist()
                          for g in range(G.order)}
            assert G.is_normal(H) == conjugates.issubset(H.members.tolist()), name
            expected = _fixpoint_closure(G, _all_commutators(G, H.members, np.arange(G.order)))
            assert tuple(G.commutator_subgroup(H).members.tolist()) == expected, name


def test_profile_and_build_derive_each_structure_once(monkeypatch):
    from forcing_lab import build_forcing_sequence, p_group_profile

    counts = {"table": 0, "terms": 0}
    commutators, commutator_subgroup = FiniteGroup._commutators, FiniteGroup.commutator_subgroup

    def counted_table(self, a, ys):
        counts["table"] += 1
        return commutators(self, a, ys)

    def counted_term(self, A):
        counts["terms"] += 1
        return commutator_subgroup(self, A)

    monkeypatch.setattr(FiniteGroup, "_commutators", counted_table)
    monkeypatch.setattr(FiniteGroup, "commutator_subgroup", counted_term)
    G = parse_group_spec("preset:Dihedral(256)")
    profile = p_group_profile(G)
    build_forcing_sequence(G)
    # the table once, and one commutator subgroup per term of the series, once
    assert counts == {"table": 1, "terms": profile.p_class}
    series = G.lower_exponent_p_series()
    series.pop()
    assert len(G.lower_exponent_p_series()) == profile.p_class + 1
    assert G.lower_exponent_p_series()[1].members is G.frattini().members


def test_copied_layers_are_checked_and_yield_the_same_candidates(group_of):
    from forcing_lab.forcing import central_step_witness

    G = parse_group_spec("product:preset:Heisenberg(3)|preset:Abelian(3,3)")
    A, B = G.lower_exponent_p_series()[:2]
    cached = [S.members.tolist() for S in G.intermediate_index_p_subgroups(A, B, 3)]
    copies = [Subgroup(G, S.members.copy()) for S in (A, B)]
    assert [S.members.tolist() for S in G.intermediate_index_p_subgroups(*copies, 3)] == cached
    # forged layers of a group whose series is cached are still refused
    D = parse_group_spec("preset:Dihedral(8)")
    D.lower_exponent_p_series()
    with pytest.raises(PreconditionViolated):
        D.intermediate_index_p_subgroups(D.whole_subgroup(), D.trivial_subgroup(), 2)
    rotations = [x for x in range(D.order) if int(D.orders()[x]) == 4]
    r, s = rotations[0], D.generators[0] if D.generators[0] not in rotations else D.generators[1]
    upper, lower = D.subgroup_closure([D.mul_table[r, r], s]), D.subgroup_closure([s])
    with pytest.raises(PreconditionViolated, match="not central"):
        central_step_witness(D, upper, lower)
