"""from_generators against a breadth-first reference, its row order, preset
cap checks, and the memory the parse layer may take."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab import (
    FiniteGroup,
    GroupSpecError,
    InvalidPermutation,
    OrderCapExceeded,
    catalog_entries,
    from_generators,
    p_group_specs,
    parse_group_spec,
    spec_text,
    subgroup_as_group,
)
from forcing_lab.cli import main
from forcing_lab.groups import _BIG, PRIME_TEST_LIMIT, _row_keys


def reference_from_generators(gens, degree, cap=2048):
    """Breadth-first enumeration with one image tuple per element: each new
    element is found as a known one times a generator, and its table column
    is the generator's column applied to the known one's. gens are image
    tuples; duplicates count once."""
    gen_rows = list(dict.fromkeys(tuple(g) for g in gens))
    assert all(sorted(g) == list(range(degree)) for g in gen_rows)
    ident = tuple(range(degree))
    parents = {ident: None}
    discovery = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for t in frontier:
            for gi, g in enumerate(gen_rows):
                u = tuple(g[i] for i in t)
                if u not in parents:
                    parents[u] = (t, gi)
                    discovery.append(u)
                    if len(parents) > cap:
                        raise OrderCapExceeded(cap)
                    new.append(u)
        frontier = new
    elems = sorted(parents)
    index = {t: i for i, t in enumerate(elems)}
    assert index[ident] == 0
    n = len(elems)
    rows = np.array(elems, dtype=np.int32)
    gen_cols = []
    for g in gen_rows:
        composed = np.array(g, dtype=np.int32)[rows].tolist()
        gen_cols.append(np.fromiter((index[tuple(c)] for c in composed), dtype=np.int32, count=n))
    mul = np.empty((n, n), dtype=np.int32)
    mul[:, 0] = np.arange(n, dtype=np.int32)
    for t in discovery[1:]:
        parent, gi = parents[t]
        mul[:, index[t]] = gen_cols[gi][mul[:, index[parent]]]
    return FiniteGroup(mul, [index[g] for g in gen_rows])


def assert_same_group(G, H, name=""):
    assert np.array_equal(G.mul_table, H.mul_table), name
    assert np.array_equal(G.inv_table, H.inv_table), name
    assert G.generators == H.generators, name
    assert spec_text(G) == spec_text(H), name


def _tuples(rows):
    return [tuple(np.asarray(row).tolist()) for row in rows]


class TestMatchesReference:
    def test_corpus_catalog_and_large_groups(self, group_of, rows_of):
        specs = [spec for _, spec in p_group_specs(256)] + [e.spec for e in catalog_entries()]
        specs += ["preset:Dihedral(1024)", "preset:Heisenberg(11)"]
        for spec in dict.fromkeys(specs):
            degree, rows = rows_of(spec)
            G = from_generators(rows, degree)
            assert_same_group(G, reference_from_generators(_tuples(rows), degree), spec)
            # the spec's rows give the group the spec parses to
            assert np.array_equal(G.mul_table, group_of(spec).mul_table), spec
            assert G.generators == group_of(spec).generators, spec

    def test_presets_built_by_enumeration_are_unchanged(self, group_of, rows_of):
        for spec in ["preset:Dihedral(1024)", "preset:Heisenberg(11)", "preset:Dihedral(4)",
                     "preset:Extraspecial(3,2)", "preset:GenQuaternion(3)"]:
            degree, rows = rows_of(spec)
            ref = reference_from_generators(_tuples(rows), degree)
            ref.spec = spec
            assert_same_group(group_of(spec), ref, spec)

    @pytest.mark.parametrize("degree, gens", [
        (4, [(1, 0, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2)]),        # duplicate
        (4, [(0, 1, 2, 3), (1, 2, 3, 0)]),                       # identity first
        (4, [(1, 2, 3, 0), (0, 1, 2, 3), (3, 2, 1, 0)]),         # identity between
        (5, [(0, 1, 2, 3, 4)]),                                  # identity only
        (5, [(0, 1, 2, 3, 4), (0, 1, 2, 3, 4)]),                 # identity twice
        (6, [(1, 2, 0, 3, 4, 5), (2, 0, 1, 3, 4, 5), (0, 1, 2, 4, 5, 3)]),  # g and g^-1
        (6, [(1, 0, 2, 3, 4, 5), (0, 2, 1, 3, 4, 5), (0, 1, 2, 3, 5, 4)]),  # S3 x C2
        (1, [(0,)]),                                             # degree 1
        (1, [(0,), (0,)]),
        (3, []),                                                 # no generators
    ])
    def test_edge_cases(self, degree, gens):
        G = from_generators(gens, degree)
        assert_same_group(G, reference_from_generators(gens, degree))
        # lists and int32 arrays give the same group as tuples
        assert_same_group(from_generators([list(g) for g in gens], degree), G)
        assert_same_group(from_generators(np.array(gens, dtype=np.int32).reshape(-1, degree),
                                          degree), G)

    def test_generator_that_is_a_product_of_earlier_ones(self):
        i = np.arange(8)
        r = (i + 1) % 8
        gens = [tuple(g.tolist()) for g in (r, r[r], -i % 8, (i - 1) % 8)]
        assert_same_group(from_generators(gens, 8), reference_from_generators(gens, 8))

    @pytest.mark.parametrize("spec", ["preset:Dihedral(16)", "preset:Heisenberg(3)",
                                      "preset:GenQuaternion(2)", "perm:7:(0 1 2 3 4 5 6)"])
    def test_cap_is_inclusive(self, group_of, rows_of, spec):
        G = group_of(spec)
        degree, rows = rows_of(spec)
        assert_same_group(from_generators(rows, degree, cap=G.order),
                          reference_from_generators(_tuples(rows), degree))
        with pytest.raises(OrderCapExceeded):
            from_generators(rows, degree, cap=G.order - 1)

    def test_cyclic_preset_equals_enumerated_cycle(self):
        for k in range(1, 301):
            cycle = tuple(range(1, k)) + (0,)
            ref = reference_from_generators([cycle], k)
            ref.spec = f"preset:Cyclic({k})"
            assert_same_group(parse_group_spec(f"preset:Cyclic({k})"), ref, k)

    def test_input_checks_are_kept(self):
        with pytest.raises(InvalidPermutation):
            from_generators([(0, 1, 2)], 4)
        with pytest.raises(InvalidPermutation):
            from_generators([(0, 0, 1)], 3)
        with pytest.raises(InvalidPermutation):
            from_generators([], 0)


@st.composite
def _drawn_row(draw, degree):
    """A permutation of 0..degree-1 as a list; or one with a point replaced
    by a value in -2..degree+1 or past int64, with such a value added, or
    with its last point dropped."""
    images = draw(st.permutations(range(degree)))
    kind = draw(st.sampled_from(["keep", "replace", "past int64", "append", "drop"]))
    value = draw(st.integers(-2, degree + 1))
    if kind == "past int64":
        value = draw(st.sampled_from([-1, 1])) * draw(st.integers(2 ** 63, 2 ** 70))
    if kind == "append":
        images.append(value)
    elif kind == "drop":
        images.pop()
    elif kind != "keep":
        images[draw(st.integers(0, degree - 1))] = value
    return images


@st.composite
def _generator_input(draw):
    """A degree up to 8 and up to 3 generators, drawn from a pool so that
    some repeat."""
    degree = draw(st.integers(1, 8))
    pool = draw(st.lists(_drawn_row(degree), min_size=1, max_size=3))
    return degree, [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(0, 3)))]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_generator_input())
def test_from_generators_takes_rows_or_raises_invalid_permutation(case):
    """Any sequence of ints per generator gives the reference's group, is
    past the cap, or raises InvalidPermutation exactly when some generator
    is not a bijection of 0..degree-1; never ValueError, OverflowError or
    IndexError."""
    degree, gens = case
    valid = all(sorted(g) == list(range(degree)) for g in gens)
    try:
        G = from_generators(gens, degree, cap=64)
    except InvalidPermutation:
        assert not valid
    except OrderCapExceeded:
        assert valid
    else:
        assert valid
        assert_same_group(G, reference_from_generators(gens, degree, cap=64))


def _traced_bytes(fn):
    """fn's result, the traced bytes it leaves allocated, and its traced peak."""
    tracemalloc.start()
    try:
        return fn(), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def _peak_bytes(fn):
    result, _, peak = _traced_bytes(fn)
    return result, peak


PARSE_MEMORY_SPECS = ["preset:Dihedral(1024)", "preset:Heisenberg(11)", "preset:ElemAbelian(2,10)",
                      "product:preset:Dihedral(32)|preset:Dihedral(32)"]


class TestParseMemory:
    @pytest.mark.parametrize("spec", PARSE_MEMORY_SPECS)
    def test_parse_peak_is_a_few_tables(self, spec):
        G, peak = _peak_bytes(lambda: parse_group_spec(spec))
        table = G.mul_table.nbytes
        assert peak <= table + table // 4

    @pytest.mark.parametrize("spec", PARSE_MEMORY_SPECS + ["preset:SemiDihedral(2048)"])
    def test_a_parsed_group_keeps_little_beyond_its_table(self, spec):
        """A group holds its table, inverses and generator indices, and
        nothing of the permutations it was parsed from."""
        G, retained, _ = _traced_bytes(lambda: parse_group_spec(spec))
        table = G.mul_table.nbytes
        assert retained <= table + table // 16

    def test_read_only_table_is_not_copied(self, group_of):
        table = np.array(group_of("preset:Dihedral(1024)").mul_table)
        table.setflags(write=False)
        _, peak = _peak_bytes(lambda: FiniteGroup(table, [1]))
        assert peak <= table.nbytes // 4

    def test_subgroup_as_group_peak(self, group_of):
        G = group_of("preset:Dihedral(1024)")
        H = G.subgroup_closure([G.generators[0]])
        assert H.order == 512
        K, peak = _peak_bytes(lambda: subgroup_as_group(H))
        table = K.mul_table.nbytes
        assert peak <= table + table // 2

    def test_large_degree_parses_quickly_and_small(self):
        t0 = time.perf_counter()
        G, peak = _peak_bytes(lambda: parse_group_spec("perm:100000:(0 1)"))
        assert time.perf_counter() - t0 < 1.0
        assert G.order == 2 and spec_text(G) == "perm:100000:(0 1)"
        assert peak <= 6 * 2 ** 20

    @pytest.mark.parametrize("spec", ["preset:Cyclic(2049)", "preset:Dihedral(4098)",
                                      "preset:Heisenberg(53)", "preset:Abelian(2048,2048)",
                                      "preset:ElemAbelian(2,100000)",
                                      "preset:GenQuaternion(100000)",
                                      "preset:Extraspecial(3,100000)",
                                      "preset:SemiDihedral(4096)"])
    def test_presets_past_the_cap_allocate_nothing(self, spec):
        def parse():
            with pytest.raises(OrderCapExceeded, match="exceeds the cap of 2048"):
                parse_group_spec(spec)
        _, peak = _peak_bytes(parse)
        assert peak < 2 ** 20


class TestRowOrder:
    def test_big_endian_keys_sort_lexicographically(self):
        # values past 255 differ in more than their lowest byte, so keys read
        # in the wrong byte order would sort differently
        rng = np.random.default_rng(7)
        rows = rng.integers(256, 1 << 20, size=(3000, 5), dtype=np.int32)
        rows[:, :2] = 256 + rows[:, :2] % 3  # ties in the leading points
        rows = np.unique(rows, axis=0)
        rows = rows[rng.permutation(len(rows))]
        keys = _row_keys(rows.astype(_BIG))
        assert np.array_equal(keys.argsort(), np.lexsort(rows.T[::-1]))


class TestPresetOrderCheck:
    @pytest.mark.parametrize("spec", ["preset:Dihedral(4097)", "preset:Heisenberg(4096)",
                                      "preset:SemiDihedral(4095)", "preset:Cyclic(0)",
                                      "preset:Abelian(4096,0)", "preset:Extraspecial(2,100)"])
    def test_malformed_and_too_large_is_a_spec_error(self, spec):
        with pytest.raises(GroupSpecError):
            parse_group_spec(spec)

    @pytest.mark.parametrize("spec, order", [
        ("preset:Cyclic(12)", 12), ("preset:ElemAbelian(3,4)", 81),
        ("preset:Abelian(4,2,3)", 24), ("preset:Dihedral(20)", 20),
        ("preset:GenQuaternion(3)", 32), ("preset:SemiDihedral(64)", 64),
        ("preset:ModularMaximalCyclic(32)", 32), ("preset:Heisenberg(5)", 125),
        ("preset:Extraspecial(3,2)", 243),
    ])
    def test_cap_equal_to_the_order_builds(self, spec, order):
        assert parse_group_spec(spec, cap=order).order == order
        with pytest.raises(OrderCapExceeded, match=f"exceeds the cap of {order - 1}"):
            parse_group_spec(spec, cap=order - 1)

    def test_cli_refusal_is_unchanged(self, capsys):
        assert main(["analyze", "preset:Heisenberg(53)", "--no-header"]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "error: OrderCapExceeded: group order exceeds the cap of 2048"

    def test_large_prime_argument_is_refused_at_once(self, capsys):
        # 2^61 - 1 is prime: trial division up to its square root would take minutes
        t0 = time.perf_counter()
        assert main(["analyze", "preset:Heisenberg(2305843009213693951)", "--no-header"]) == 1
        assert time.perf_counter() - t0 < 0.5
        err = capsys.readouterr().err
        assert err.strip() == "error: OrderCapExceeded: group order exceeds the cap of 2048"

    @pytest.mark.parametrize("spec", ["preset:Heisenberg({})", "preset:ElemAbelian({},2)",
                                      "preset:Extraspecial({},1)"],
                             ids=["Heisenberg", "ElemAbelian", "Extraspecial"])
    def test_argument_past_the_prime_test_goes_to_the_cap_check(self, spec):
        for p in (PRIME_TEST_LIMIT, 10 ** 30, 2 ** 89 - 1):
            with pytest.raises(OrderCapExceeded):
                parse_group_spec(spec.format(p))
