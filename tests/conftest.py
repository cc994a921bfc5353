import numpy as np
import pytest

from forcing_lab import (
    FiniteGroup,
    build_forcing_sequence,
    catalog,
    direct_product,
    from_generators,
    parse_group_spec,
)
from forcing_lab.groupspec import _parse_cycles

_groups = {}
_certs = {}
_rows = {}


@pytest.fixture(scope="session")
def group_of():
    """Session-cached spec -> group builder; specs are pure so reuse is safe."""

    def build(spec, cap=2048):
        key = (spec, cap)
        if key not in _groups:
            _groups[key] = parse_group_spec(spec, cap=cap)
        return _groups[key]

    return build


@pytest.fixture(scope="session")
def cert_of(group_of):
    """Session-cached certificate builder (builder is deterministic)."""

    def build(spec):
        if spec not in _certs:
            _certs[spec] = build_forcing_sequence(group_of(spec))
        return _certs[spec]

    return build


def quotient_group(G, N):
    """G/N as a group of its own, the reference the tool no longer builds:
    element i is coset i of G.quotient(N), any member of a coset stands for
    it in the product, and the generators are the distinct non-identity
    images of G's, or the identity alone when there are none, as the parse
    of its spec text would give them."""
    project = G.quotient(N)
    reps = np.empty(G.order // N.order, dtype=np.int32)
    reps[project] = np.arange(G.order, dtype=np.int32)
    gens = dict.fromkeys(int(project[g]) for g in G.generators)
    gens.pop(0, None)
    return FiniteGroup(project[G.mul_table[np.ix_(reps, reps)]], list(gens) or [0])


def cycle_row(text, degree):
    """The image row on all of 0..degree-1 of one generator in cycle
    notation, from the cycles the spec parser reads and checks."""
    row = np.arange(degree, dtype=np.int32)
    for cycle in _parse_cycles(text, degree):
        row[cycle] = cycle[1:] + cycle[:1]
    return row


@pytest.fixture(scope="session")
def row_of():
    """cycle_row: one generator's full image row from its cycle text."""
    return cycle_row


def _regular_rows(G):
    """G acting on itself by right multiplication: each generator's table
    column, which sends y to y g."""
    return G.order, [G.mul_table[:, g] for g in G.generators]


def _union_rows(parts):
    """The parts' rows on the disjoint union of their points, each part's
    rows moving its own block and fixing the rest."""
    degree = sum(d for d, _ in parts)
    rows, offset = [], 0
    for d, part_rows in parts:
        for r in part_rows:
            row = np.arange(degree)
            row[offset:offset + d] = np.asarray(r) + offset
            rows.append(row)
        offset += d
    return degree, rows


def generator_rows(spec):
    """(degree, rows): image rows from which from_generators builds the
    group of spec, with the same table and generator indices. A perm spec's
    rows are its parsed generators; a product's are its parts' rows on the
    disjoint union of their points; a preset's are the rows it hands to
    from_generators, or its cyclic factors' rows when it is a direct product
    of them. A cyclic preset acts on itself by right multiplication. A perm
    spec's rows cover all its points, though the parser builds the group on
    the points its cycles move."""
    kind, _, rest = spec.partition(":")
    if kind == "perm":
        degree, _, gens = rest.partition(":")
        return int(degree), [cycle_row(text, int(degree)) for text in gens.split(",")]
    if kind == "product":
        return _union_rows([generator_rows(part) for part in rest.split("|")])
    recorded = []

    def recording_from_generators(gens, degree, cap):
        recorded.append((degree, list(gens)))
        return from_generators(gens, degree, cap)

    def recording_direct_product(groups, cap):
        recorded.append(_union_rows([_regular_rows(g) for g in groups]))
        return direct_product(groups, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "from_generators", recording_from_generators)
        mp.setattr(catalog, "direct_product", recording_direct_product)
        G = parse_group_spec(spec)
    return recorded[-1] if recorded else _regular_rows(G)


@pytest.fixture(scope="session")
def rows_of():
    """Session-cached spec -> generator_rows(spec)."""

    def rows(spec):
        if spec not in _rows:
            _rows[spec] = generator_rows(spec)
        return _rows[spec]

    return rows
