"""Finite groups realized concretely as Cayley tables.

Every group is fully enumerated: an element is an index into its numpy
multiplication table, index 0 is the identity, and mul(a, b) applies a first,
then b. Permutations are only an input format: ``points`` holds each element's
images, sorted by from_generators (identity first, then lexicographic). A
group built from a table alone acts on itself by right multiplication, so its
points are the transposed table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidPermutation,
    NotAPGroup,
    NotNormal,
    OrderCapExceeded,
    PreconditionViolated,
)

DEFAULT_ORDER_CAP = 2048

_IDX = np.int32


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and k >= 1, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        return (n, 1)
    k = 0
    m = n
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: multiplicity} of n >= 1."""
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


@dataclass(frozen=True)
class Permutation:
    """A bijection of the points 0..degree-1, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(i) for i in self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise InvalidPermutation(f"images are not a bijection on 0..{len(images) - 1}: {images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> Permutation:
        """Build from disjoint cycles; points absent from every cycle stay fixed."""
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            for a in cycle:
                if not 0 <= a < degree:
                    raise InvalidPermutation(f"point {a} outside 0..{degree - 1}")
                if a in seen:
                    raise InvalidPermutation(f"point {a} appears in two cycles")
                seen.add(a)
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                images[a] = b
        return cls(tuple(images))

    def then(self, other: Permutation) -> Permutation:
        """The product self*other: apply self first, then other."""
        if other.degree != self.degree:
            raise InvalidPermutation("degree mismatch")
        o = other.images
        return Permutation(tuple(o[i] for i in self.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its least point, sorted by it."""
        out = []
        seen: set[int] = set()
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.images[nxt]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)


@dataclass(frozen=True)
class Subgroup:
    """A subset of parent element indices, verified closed at construction."""

    parent: "FiniteGroup"
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted({int(m) for m in self.members}))
        object.__setattr__(self, "members", members)
        if not members or members[0] != 0:
            raise PreconditionViolated("subgroup must contain the identity (index 0)")
        if members[-1] >= self.parent.order:
            raise PreconditionViolated(f"member index {members[-1]} out of range")
        arr = np.fromiter(members, dtype=_IDX, count=len(members))
        prods = np.unique(self.parent.mul_table[np.ix_(arr, arr)])
        if not np.array_equal(prods, arr):
            raise PreconditionViolated("member set is not closed under multiplication")
        if self.parent.order % len(members):
            raise PreconditionViolated("subgroup order does not divide group order")

    @property
    def order(self) -> int:
        return len(self.members)

    def member_array(self) -> np.ndarray:
        return np.fromiter(self.members, dtype=_IDX, count=len(self.members))

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)


@dataclass(frozen=True)
class ConjugacyClass:
    """One conjugacy class; order is the common element order of its members."""

    representative: int
    members: tuple[int, ...]
    order: int


class QuotientMap:
    """A surjection source -> source/kernel with explicit coset bookkeeping.

    Target element i is the coset whose least source element index is the
    i-th smallest such representative, so target indexing is canonical given
    the source indexing.
    """

    def __init__(self, source: "FiniteGroup", kernel: Subgroup, target: "FiniteGroup",
                 project: np.ndarray) -> None:
        self.source = source
        self.kernel = kernel
        self.target = target
        project = np.asarray(project, dtype=_IDX)
        project.setflags(write=False)
        self.project = project
        self._fibers: tuple[tuple[int, ...], ...] | None = None

    def fiber(self, t: int) -> tuple[int, ...]:
        """All source indices mapping onto target index t."""
        if self._fibers is None:
            buckets: list[list[int]] = [[] for _ in range(self.target.order)]
            for x, t_x in enumerate(self.project):
                buckets[int(t_x)].append(x)
            self._fibers = tuple(tuple(b) for b in buckets)
        return self._fibers[t]


class FiniteGroup:
    """A fully enumerated group: product table, generator indices and element images."""

    def __init__(self, mul_table: np.ndarray, generators: Sequence[int],
                 points: np.ndarray | None = None, spec: str | None = None) -> None:
        mul = np.asarray(mul_table, dtype=_IDX)
        n = len(mul)
        points = mul.T if points is None else np.asarray(points, dtype=_IDX)
        if mul.shape != (n, n) or len(points) != n:
            raise PreconditionViolated("multiplication table or points shape mismatch")
        mul.setflags(write=False)
        self._mul = mul
        points.setflags(write=False)
        self.points = points
        self.degree = points.shape[1]
        inv = np.empty(n, dtype=_IDX)
        rows, cols = np.nonzero(mul == 0)
        inv[rows] = cols
        inv.setflags(write=False)
        self._inv = inv
        self.generators = tuple(int(g) for g in generators)
        self.spec = spec
        self._orders: np.ndarray | None = None
        self._classes: tuple[ConjugacyClass, ...] | None = None

    @property
    def order(self) -> int:
        return len(self._mul)

    @property
    def mul_table(self) -> np.ndarray:
        return self._mul

    @property
    def inv_table(self) -> np.ndarray:
        return self._inv

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[a, b])

    def inv(self, a: int) -> int:
        return int(self._inv[a])

    def conjugate(self, g: int, x: int) -> int:
        """g^-1 x g."""
        return int(self._mul[self._mul[self._inv[g], x], g])

    def orders(self) -> np.ndarray:
        """Element orders, indexed like elements."""
        if self._orders is None:
            n = self.order
            orders = np.zeros(n, dtype=_IDX)
            orders[0] = 1
            power = np.arange(n, dtype=_IDX)
            k = 1
            while True:
                todo = np.nonzero(orders == 0)[0]
                if len(todo) == 0:
                    break
                power[todo] = self._mul[power[todo], todo]
                k += 1
                done = todo[power[todo] == 0]
                orders[done] = k
            orders.setflags(write=False)
            self._orders = orders
        return self._orders

    def element_order(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise PreconditionViolated(f"element index {x} out of range")
        return int(self.orders()[x])

    def exponent(self) -> int:
        out = 1
        for k in np.unique(self.orders()):
            k = int(k)
            g = np.gcd(out, k)
            out = out * k // g
        return out

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self._mul, self._mul.T))

    def whole_subgroup(self) -> Subgroup:
        return Subgroup(self, tuple(range(self.order)))

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, (0,))

    def subgroup_closure(self, seed: Iterable[int]) -> Subgroup:
        """Smallest subgroup containing the seed indices."""
        members = np.unique(np.concatenate([
            np.zeros(1, dtype=_IDX),
            np.fromiter((int(s) for s in seed), dtype=_IDX),
        ]))
        if len(members) and (members[0] < 0 or members[-1] >= self.order):
            raise PreconditionViolated("seed index out of range")
        while True:
            prods = np.unique(self._mul[np.ix_(members, members)])
            if len(prods) == len(members):
                return Subgroup(self, tuple(int(m) for m in members))
            members = prods

    def is_normal(self, H: Subgroup) -> bool:
        """Whether gHg^-1 = H for all g; generator conjugation suffices."""
        if H.parent is not self:
            raise PreconditionViolated("subgroup belongs to a different group")
        members = H.member_array()
        for g in self.generators:
            conj = self._mul[self._mul[self._inv[g], members], g]
            conj.sort()
            if not np.array_equal(conj, members):
                return False
        return True

    def center(self) -> Subgroup:
        mask = np.ones(self.order, dtype=bool)
        for g in self.generators:
            mask &= self._mul[:, g] == self._mul[g, :]
        return Subgroup(self, tuple(int(z) for z in np.nonzero(mask)[0]))

    def commutator_subgroup(self, A: Subgroup, B: Subgroup) -> Subgroup:
        """Subgroup generated by all [a, b] = a^-1 b^-1 a b."""
        a = A.member_array()
        b = B.member_array()
        t = self._mul[np.ix_(self._inv[a], self._inv[b])]
        t = self._mul[t, a[:, None]]
        t = self._mul[t, b[None, :]]
        return self.subgroup_closure(np.unique(t))

    def agemo(self, A: Subgroup, p: int) -> Subgroup:
        """Subgroup generated by the p-th powers of the members of A."""
        if not is_prime(p):
            raise PreconditionViolated(f"{p} is not prime")
        base = A.member_array()
        power = base.copy()
        for _ in range(p - 1):
            power = self._mul[power, base]
        return self.subgroup_closure(np.unique(power))

    def frattini(self, p: int | None = None) -> Subgroup:
        """G^p [G,G] for a p-group: the Frattini subgroup."""
        pp = prime_power(self.order)
        if pp is None:
            raise NotAPGroup(f"order {self.order} is not a prime power")
        if p is None:
            p = pp[0]
        elif p != pp[0]:
            raise NotAPGroup(f"order {self.order} is not a power of {p}")
        whole = self.whole_subgroup()
        powers = self.agemo(whole, p)
        comm = self.commutator_subgroup(whole, whole)
        return self.subgroup_closure(powers.members + comm.members)

    def lower_exponent_p_series(self) -> list[Subgroup]:
        """Descending series G = G_0 > G_1 > ... > 1 with G_j = G_{j-1}^p [G_{j-1}, G]."""
        pp = prime_power(self.order)
        if pp is None:
            raise NotAPGroup(f"order {self.order} is not a prime power")
        p = pp[0]
        whole = self.whole_subgroup()
        series = [whole]
        while series[-1].order > 1:
            current = series[-1]
            powers = self.agemo(current, p)
            comm = self.commutator_subgroup(current, whole)
            nxt = self.subgroup_closure(powers.members + comm.members)
            if nxt.order >= current.order:
                raise NotAPGroup("series failed to descend")
            series.append(nxt)
        return series

    def p_class(self) -> int:
        return len(self.lower_exponent_p_series()) - 1

    def generator_rank(self) -> int:
        """log_p of the index of the Frattini subgroup."""
        pp = prime_power(self.order)
        if pp is None:
            raise NotAPGroup(f"order {self.order} is not a prime power")
        p = pp[0]
        index = self.order // self.frattini(p).order
        r = 0
        while index > 1:
            index //= p
            r += 1
        return r

    def quotient(self, N: Subgroup) -> QuotientMap:
        """Quotient by a normal subgroup, cosets labeled by least member index."""
        if N.parent is not self:
            raise PreconditionViolated("subgroup belongs to a different group")
        if not self.is_normal(N):
            raise NotNormal(f"subgroup of order {N.order} is not normal")
        nmem = N.member_array()
        rep = self._mul[:, nmem].min(axis=1)
        reps = np.unique(rep)
        proj = np.searchsorted(reps, rep).astype(_IDX)
        tmul = proj[self._mul[np.ix_(reps, reps)]]
        gens: list[int] = []
        for g in self.generators:
            img = int(proj[g])
            if img != 0 and img not in gens:
                gens.append(img)
        target = FiniteGroup(tmul, gens)
        return QuotientMap(self, N, target, proj)

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        """Classes sorted by least member; the identity class comes first."""
        if self._classes is None:
            orders = self.orders()
            unseen = np.ones(self.order, dtype=bool)
            classes = []
            for x in range(self.order):
                if not unseen[x]:
                    continue
                orbit = [x]
                unseen[x] = False
                frontier = [x]
                while frontier:
                    nxt = []
                    for y in frontier:
                        for g in self.generators:
                            z = self.conjugate(g, y)
                            if unseen[z]:
                                unseen[z] = False
                                orbit.append(z)
                                nxt.append(z)
                    frontier = nxt
                orbit.sort()
                common = int(orders[x])
                if any(int(orders[m]) != common for m in orbit):
                    raise PreconditionViolated("conjugates of unequal order; table is corrupt")
                classes.append(ConjugacyClass(representative=orbit[0],
                                              members=tuple(orbit), order=common))
            self._classes = tuple(classes)
        return self._classes

    def intermediate_index_p_subgroups(self, A: Subgroup, B: Subgroup, p: int) -> list[Subgroup]:
        """All S with B <= S < A and [A:S] = p, for A/B central elementary abelian in G/B.

        There are (p^r - 1)/(p - 1) of them, r = log_p [A:B]; returned in
        canonical order (sorted member tuples).
        """
        if A.parent is not self or B.parent is not self:
            raise PreconditionViolated("subgroup belongs to a different group")
        if not is_prime(p):
            raise PreconditionViolated(f"{p} is not prime")
        bset = B.member_set()
        if not bset <= A.member_set():
            raise PreconditionViolated("B is not contained in A")
        if A.order == B.order:
            raise PreconditionViolated("A/B is trivial")
        if not self.is_normal(A) or not self.is_normal(B):
            raise PreconditionViolated("A and B must both be normal")
        a = A.member_array()
        b = B.member_array()
        # [a, g] in B for every a in A, g in G makes A/B central in G/B
        allg = np.arange(self.order, dtype=_IDX)
        t = self._mul[np.ix_(self._inv[a], self._inv[allg])]
        t = self._mul[t, a[:, None]]
        t = self._mul[t, allg[None, :]]
        if not set(np.unique(t).tolist()) <= bset:
            raise PreconditionViolated("A/B is not central in G/B")
        power = a.copy()
        for _ in range(p - 1):
            power = self._mul[power, a]
        if not set(np.unique(power).tolist()) <= bset:
            raise PreconditionViolated("A/B has exponent larger than p")
        # cosets of B inside A form a vector space over F_p
        rep_global = self._mul[:, b].min(axis=1)
        vreps = np.unique(rep_global[a])
        vindex = {int(v): i for i, v in enumerate(vreps)}

        def vmul(i: int, j: int) -> int:
            return vindex[int(rep_global[self._mul[vreps[i], vreps[j]]])]

        span = {0}
        basis: list[int] = []
        for vi in range(1, len(vreps)):
            if vi in span:
                continue
            basis.append(vi)
            powers = [0]
            for _ in range(p - 1):
                powers.append(vmul(powers[-1], vi))
            span = {vmul(s, w) for s in span for w in powers}
        r = len(basis)
        if p ** r != len(vreps):
            raise PreconditionViolated("A/B is not elementary abelian")
        coords: dict[int, tuple[int, ...]] = {}
        for coord in itertools.product(range(p), repeat=r):
            v = 0
            for c, bi in zip(coord, basis):
                for _ in range(c):
                    v = vmul(v, bi)
            coords[v] = coord
        out = []
        for phi in itertools.product(range(p), repeat=r):
            nz = next((i for i, c in enumerate(phi) if c), None)
            if nz is None or phi[nz] != 1:
                continue
            kept = [vi for vi in range(len(vreps))
                    if sum(c * f for c, f in zip(coords[vi], phi)) % p == 0]
            members: list[int] = []
            for vi in kept:
                members.extend(int(m) for m in self._mul[vreps[vi], b])
            out.append(Subgroup(self, tuple(sorted(members))))
        out.sort(key=lambda s: s.members)
        return out

    def ancestor_quotients(self) -> list[QuotientMap]:
        """Quotients by the proper, nontrivial terms of the exponent-p series."""
        series = self.lower_exponent_p_series()
        return [self.quotient(series[j]) for j in range(1, len(series) - 1)]


def from_generators(gens: Sequence[Permutation], degree: int,
                    cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Enumerate the group generated by gens and build its product table.

    Raises OrderCapExceeded as soon as the closure grows past cap.
    """
    if cap < 1:
        raise PreconditionViolated("cap must be at least 1")
    if degree < 1:
        raise InvalidPermutation("degree must be at least 1")
    gen_rows: list[tuple[int, ...]] = []
    for g in gens:
        if not isinstance(g, Permutation):
            g = Permutation(tuple(g))
        if g.degree != degree:
            raise InvalidPermutation(f"generator degree {g.degree} != {degree}")
        if g.images not in gen_rows:
            gen_rows.append(g.images)
    ident = tuple(range(degree))
    parents: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {ident: None}
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
    if index[ident] != 0:
        raise PreconditionViolated("identity is not the least element; ordering is corrupt")
    n = len(elems)
    rows = np.array(elems, dtype=_IDX)
    gen_cols = []
    for g in gen_rows:
        composed = np.array(g, dtype=_IDX)[rows].tolist()
        gen_cols.append(np.fromiter((index[tuple(c)] for c in composed), dtype=_IDX, count=n))
    mul = np.empty((n, n), dtype=_IDX)
    mul[:, 0] = np.arange(n, dtype=_IDX)
    for t in discovery[1:]:
        parent, gi = parents[t]  # type: ignore[misc]
        mul[:, index[t]] = gen_cols[gi][mul[:, index[parent]]]
    return FiniteGroup(mul, [index[g] for g in gen_rows], rows)


def direct_product(groups: Sequence[FiniteGroup], cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Direct product acting on the disjoint union of the factors' points."""
    if not groups:
        raise PreconditionViolated("empty product")
    degree = sum(g.degree for g in groups)
    gens: list[Permutation] = []
    offset = 0
    for g in groups:
        for gi in g.generators:
            images = np.arange(degree)
            images[offset:offset + g.degree] = g.points[gi] + offset
            gens.append(Permutation(tuple(images.tolist())))
        offset += g.degree
    return from_generators(gens, degree, cap)


def subgroup_as_group(H: Subgroup, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Stand-alone group with the same multiplication as the subgroup.

    Its elements are H's members in order, with the parent's points. Generators
    are chosen greedily (smallest member not yet generated) so the derived
    spec stays short; for a p-group this yields a minimal set.
    """
    if H.order > cap:
        raise OrderCapExceeded(cap)
    parent = H.parent
    gens: list[int] = []
    reached = {0}
    for x in H.members:
        if x in reached:
            continue
        gens.append(x)
        reached = set(parent.subgroup_closure(gens).members)
        if len(reached) == H.order:
            break
    m = H.member_array()
    table = np.searchsorted(m, parent.mul_table[np.ix_(m, m)])
    return FiniteGroup(table, np.searchsorted(m, gens).tolist() or [0], parent.points[m])
