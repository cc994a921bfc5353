"""Finite groups realized concretely as Cayley tables.

Every group is fully enumerated: an element is an index into its numpy
multiplication table, index 0 is the identity, and mul(a, b) applies a first,
then b. A group holds its table, its inverses and its generator indices,
and nothing of any permutation. Permutations are only an input format: a
generator is an int32 image row from the spec to the table, and enters only
through from_generators, which indexes the elements by their image rows,
sorted (identity first, then lexicographic). It enumerates by Dimino's
algorithm on blocks of int32 image rows, one gather per coset, fills the
table a coset at a time and then drops every row, the generators' too; no
element is ever a Python tuple, and neither is a subgroup: its members are
one sorted, read-only int32 array, which every kernel takes and returns as
it is. Derived groups come from table arithmetic: a direct product composes
its factors' tables, a subgroup relabels the parent's. Building a group
makes no full-table temporary: every kernel that reads or writes a whole
table does so in row slabs of at most _SLAB_ITEMS items.

One kernel closes subgroups from generators, never by squaring member sets:
``FiniteGroup._closure`` (Dimino's algorithm) serves ``subgroup_closure`` and
the closure check of ``Subgroup``. What the kernels produce becomes a
``Subgroup`` unchecked, through ``Subgroup._checked``; members a caller
supplies, any sequence or array, are sorted and checked closed. Element
orders, power maps x -> x^e, conjugacy classes and the lower exponent-p
series are derived once per group and cached on it, and so is one (n x d)
table of the commutators [x, g] with the d generators g: normality, the
centre, centrality, the commutator subgroups [A, G] and the conjugates
x^g = x [x, g] are all read from it. Element orders, and the orders of
cosets of any subgroup, come in prime-power steps: the q-part is read from
x^(|G|/q^k) by at most k steps of the q-th power map, for q^k exactly
dividing |G|. A class is a label, as a coset is: one int32 array gives
each element the least member of its class, and ``quotient(N)`` gives each
element the index of its coset in G/N; no quotient group is ever built. A
central layer A > B of exponent p is spanned coset by coset over its greedy
basis, one p-fold gather per basis element, and its index-p subgroups are
read off that one span (``Refinements``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import lcm, prod
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    InvalidPermutation,
    NotAPGroup,
    NotNormal,
    OrderCapExceeded,
    PreconditionViolated,
)

DEFAULT_ORDER_CAP = 2048
# the largest cap whose int32 table, 4 * cap**2 bytes, fits in 256 MiB
MAX_ORDER_CAP = 8192

_IDX = np.int32
# int32 stored big-endian, so that rows compare as byte strings (_row_keys)
_BIG = np.dtype(">i4")

# items per row slab of the table kernels that build groups: a slab's int32
# block and its intp indices stay far below a quarter of an order-1024 table,
# and a table of order up to 181 is one slab
_SLAB_ITEMS = 1 << 15


def _slabs(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices of rows, each at most _SLAB_ITEMS // width rows
    (one row at least)."""
    step = max(1, _SLAB_ITEMS // max(width, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


# the first 13 primes; as Miller-Rabin bases they decide every n below
# PRIME_TEST_LIMIT exactly (Sorenson and Webster, Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def _distinct(indices: np.ndarray, n: int) -> np.ndarray:
    """The distinct entries of an array of indices below n, sorted, from a
    membership mask: np.unique, np.union1d and np.setdiff1d import numpy.ma
    on their first call, which costs a fresh interpreter about 14 ms."""
    mask = np.zeros(n, dtype=bool)
    mask[indices] = True
    return mask.nonzero()[0]


@functools.lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n below PRIME_TEST_LIMIT; a
    larger n raises PreconditionViolated before any test."""
    if n >= PRIME_TEST_LIMIT:
        raise PreconditionViolated(f"{n} is past the exact prime test's limit")
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or n - 1 in (pow(a, d << k, n) for k in range(s))
               for a in _WITNESSES)


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


@functools.lru_cache(maxsize=256)
def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and k >= 1, or None. Callers pass group
    orders, at most MAX_ORDER_CAP, so trial division is cheap."""
    factors = factorize(n)
    return next(iter(factors.items())) if len(factors) == 1 else None


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of parent as its member indices: a sorted, C-contiguous,
    read-only int32 array, the identity 0 first. Members given as any
    sequence or array of indices are deduplicated, sorted and verified
    closed: their closure contains them all, and stays inside them only if
    they are closed. Subgroups compare by identity; compare their members."""

    parent: "FiniteGroup"
    members: np.ndarray

    def __post_init__(self) -> None:
        try:
            given = np.asarray(self.members, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            given = None
        if given is None or given.ndim != 1:
            raise PreconditionViolated("members are not a sequence of int64 indices")
        if not given.size or given.min() != 0:
            raise PreconditionViolated("subgroup must contain the identity (index 0)")
        if given.max() >= self.parent.order:
            raise PreconditionViolated(f"member index {given.max()} out of range")
        allowed = np.zeros(self.parent.order, dtype=bool)
        allowed[given] = True
        members = allowed.nonzero()[0].astype(_IDX)
        members.setflags(write=False)
        object.__setattr__(self, "members", members)
        if self.parent._closure(members, allowed) is None:
            raise PreconditionViolated("member set is not closed under multiplication")
        if self.parent.order % len(members):
            raise PreconditionViolated("subgroup order does not divide group order")

    @classmethod
    def _checked(cls, parent: "FiniteGroup", members: np.ndarray) -> Subgroup:
        """A subgroup whose sorted members are known to be closed in this
        parent: the closure kernel's own output, or members checked before.
        A read-only, C-contiguous int32 array is taken as it is."""
        if members.flags.writeable or not members.flags.c_contiguous or members.dtype != _IDX:
            members = np.ascontiguousarray(members, dtype=_IDX)
            members.setflags(write=False)
        sub = object.__new__(cls)
        object.__setattr__(sub, "parent", parent)
        object.__setattr__(sub, "members", members)
        return sub

    @property
    def order(self) -> int:
        return len(self.members)


class FiniteGroup:
    """A fully enumerated group: its product table, inverses and generator
    indices, and the canonical spec it was parsed from, if any."""

    def __init__(self, mul_table: np.ndarray, generators: Sequence[int],
                 spec: str | None = None) -> None:
        # C order: flat gathers then index a view of the table, never a copy
        mul = np.ascontiguousarray(mul_table, dtype=_IDX)
        n = len(mul)
        if mul.shape != (n, n):
            raise PreconditionViolated("multiplication table is not square")
        mul.setflags(write=False)
        self._mul = mul
        self.generators = tuple(int(g) for g in generators)
        # the identity 0 is each row's least entry, and appears in it once;
        # argmin copies a read-only array whole, so it reads a slab at a time
        inv = np.empty(n, dtype=_IDX)
        for rows in _slabs(n, n):
            inv[rows] = mul[rows].argmin(axis=1)
        inv.setflags(write=False)
        self._inv = inv
        self.spec = spec
        self._orders: np.ndarray | None = None
        self._powers: dict[int, np.ndarray] = {}
        self._classes: np.ndarray | None = None
        self._comm: np.ndarray | None = None
        self._series: tuple[np.ndarray, ...] | None = None

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

    def orders(self) -> np.ndarray:
        """Element orders, indexed like elements: the coset orders modulo
        {1}. Derived once, read-only."""
        if self._orders is None:
            orders = self.coset_orders(Subgroup._checked(self, np.zeros(1, dtype=_IDX)))
            orders.setflags(write=False)
            self._orders = orders
        return self._orders

    def coset_orders(self, N: Subgroup) -> np.ndarray:
        """The least k >= 1 with x^k in N, for every element x: for N normal,
        the order of xN in G/N. The k with x^k in N are the multiples of
        that least one, so for q^j exactly dividing |G|, the q-part of it is
        the least q^i that takes x^(|G|/q^j) into N by i steps of
        power_map(q), and j steps find it."""
        if N.parent is not self:
            raise PreconditionViolated("subgroup belongs to a different group")
        outside = np.bincount(N.members, minlength=self.order) == 0
        orders = np.ones(self.order, dtype=_IDX)
        for q, j in factorize(self.order).items():
            qth = self.power_map(q)
            power = self.power_map(self.order // q ** j)
            steps = np.zeros(self.order, dtype=_IDX)
            # count_nonzero costs a third of any() on a short mask
            while np.count_nonzero(moving := outside[power]):
                steps += moving
                power = qth[power]
            orders *= q ** steps
        return orders

    def power_map(self, e: int) -> np.ndarray:
        """x^e for every element x, by square-and-multiply over whole
        columns; derived once per exponent, read-only."""
        if e < 0:
            raise PreconditionViolated(f"exponent {e} is negative")
        if e not in self._powers:
            result = np.zeros(self.order, dtype=_IDX)
            square = np.arange(self.order, dtype=_IDX)
            k = e
            while k:
                if k & 1:
                    result = self._mul[result, square]
                k >>= 1
                if k:
                    square = self._mul[square, square]
            result.setflags(write=False)
            self._powers[e] = result
        return self._powers[e]

    def prime(self) -> int:
        """The prime p of a p-group; NotAPGroup for any other order."""
        pp = prime_power(self.order)
        if pp is None:
            raise NotAPGroup(f"order {self.order} is not a prime power")
        return pp[0]

    def exponent(self) -> int:
        return lcm(*_distinct(self.orders(), self.order + 1).tolist())

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, as they generate G."""
        table = self._mul[np.ix_(self.generators, self.generators)]
        return bool(np.array_equal(table, table.T))

    def whole_subgroup(self) -> Subgroup:
        return Subgroup._checked(self, np.arange(self.order, dtype=_IDX))

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, (0,))

    def _closure(self, seed: np.ndarray, allowed: np.ndarray | None = None
                 ) -> tuple[np.ndarray, list[int]] | None:
        """Dimino's closure: the sorted members of <seed>, and the seeds taken
        as generators (each seed not yet reached, so a sorted seed gives its
        greedy generators). A new generator x adds the right cosets mul[H, r]
        of the old group H for r = x, x^2, ... until a power is back in H,
        then for products of found representatives with every generator so
        far. With an ``allowed`` mask, return None once a coset leaves it."""
        mul = self._mul
        reached = np.zeros(self.order, dtype=bool)
        reached[0] = True
        members = np.zeros(1, dtype=_IDX)
        gens: list[int] = []
        for x in seed.tolist():
            if reached[x]:
                continue
            gens.append(int(x))
            powers = []
            while not reached[x]:
                powers.append(x)
                x = mul[x, gens[-1]]
            frontier = np.array(powers, dtype=_IDX)
            block = mul[members[:, None], frontier]
            while True:
                if allowed is not None and not allowed[block].all():
                    return None
                reached[block] = True
                reps = mul[frontier[:, None], gens]
                if reached[reps].all():
                    break
                reps = reps[~reached[reps]]
                # two representatives share a coset exactly when they share its least member
                block = mul[members[:, None], reps]
                _, first = np.unique(block.min(axis=0), return_index=True)
                frontier, block = reps[first], block[:, first]
            members = reached.nonzero()[0]
        return members, gens

    def subgroup_closure(self, seed: Sequence[int] | np.ndarray) -> Subgroup:
        """Smallest subgroup containing the seed indices."""
        seed = np.asarray(seed, dtype=np.int64)
        if len(seed) and (seed.min() < 0 or seed.max() >= self.order):
            raise PreconditionViolated("seed index out of range")
        return Subgroup._checked(self, self._closure(seed)[0])

    def _commutators(self, a: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The table of [x, y] = x^-1 y^-1 x y, rows x in a, columns y in ys."""
        t = self._mul[self._inv[a][:, None], self._inv[ys]]
        t = self._mul[t, a[:, None]]
        return self._mul[t, ys[None, :]]

    def commutator_table(self) -> np.ndarray:
        """[x, g_j] for every element x (rows) and generator g_j (columns);
        derived once, read-only. x^g = x [x, g], so it holds every fact of
        conjugation by generators."""
        if self._comm is None:
            comm = self._commutators(np.arange(self.order, dtype=_IDX),
                                     np.array(self.generators, dtype=_IDX))
            comm.setflags(write=False)
            self._comm = comm
        return self._comm

    def is_normal(self, H: Subgroup) -> bool:
        """Whether gHg^-1 = H for all g: conjugation is one-to-one, so it is
        enough that h^g = h [h, g] lies in H for h in H and generators g."""
        if H.parent is not self:
            raise PreconditionViolated("subgroup belongs to a different group")
        inside = np.zeros(self.order, dtype=bool)
        inside[H.members] = True
        return bool(inside[self.commutator_table()[H.members]].all())

    def center(self) -> Subgroup:
        """The x that commute with every generator: rows of identities."""
        return Subgroup._checked(self, (~self.commutator_table().any(axis=1)).nonzero()[0])

    def commutator_subgroup(self, A: Subgroup, B: Subgroup) -> Subgroup:
        """Subgroup generated by all [a, b] = a^-1 b^-1 a b: the closure of the
        [a, y] for generators y of B, closed under conjugation by the y. This
        is exact, since [a, yz] = [a, z] [a, y]^z."""
        if A.parent is not self or B.parent is not self:
            raise PreconditionViolated("subgroup belongs to a different group")
        if B.order == self.order:
            commutators = self.commutator_table().__getitem__
        else:
            ys = np.array(self._closure(B.members)[1], dtype=_IDX)
            commutators = functools.partial(self._commutators, ys=ys)
        seed = _distinct(commutators(A.members), self.order)
        while True:
            members, gens = self._closure(seed)
            g = np.array(gens, dtype=_IDX)
            # y normalises H once [g, y] = g^-1 g^y lies in H for each generator g of H
            new = np.zeros(self.order, dtype=bool)
            new[commutators(g)] = True
            new[members] = False
            if not new.any():
                return Subgroup._checked(self, members)
            seed = np.concatenate([g, new.nonzero()[0]])

    def frattini(self) -> Subgroup:
        """G^p [G,G] for a p-group: the Frattini subgroup, which is the second
        term of the lower exponent-p series."""
        return Subgroup._checked(self, self._series_members()[1])

    def lower_exponent_p_series(self) -> list[Subgroup]:
        """Descending series G = G_0 > G_1 > ... > 1 with G_j = G_{j-1}^p [G_{j-1}, G];
        derived once per group, each call returns a fresh list."""
        return [Subgroup._checked(self, members) for members in self._series_members()]

    def _series_members(self) -> tuple[np.ndarray, ...]:
        """The member arrays of the series' terms, derived once. One closure
        per term: closing the p-th powers together with [G_{j-1}, G] gives
        the same group as closing the powers first."""
        if self._series is None:
            pth = self.power_map(self.prime())
            whole = self.whole_subgroup()
            series = [whole]
            while series[-1].order > 1:
                current = series[-1]
                comm = self.commutator_subgroup(current, whole)
                nxt = self.subgroup_closure(_distinct(
                    np.concatenate([pth[current.members], comm.members]),
                    self.order))
                if nxt.order >= current.order:
                    raise NotAPGroup("series failed to descend")
                series.append(nxt)
            # member arrays: a cached Subgroup would point back at this group,
            # and the cycle would keep a dropped group's table alive until the
            # cycle collector runs
            self._series = tuple(sub.members for sub in series)
        return self._series

    def p_class(self) -> int:
        return len(self._series_members()) - 1

    def generator_rank(self) -> int:
        """log_p of the index of the Frattini subgroup."""
        return prime_power(self.order // self.frattini().order)[1]

    def quotient(self, N: Subgroup) -> np.ndarray:
        """The projection onto G/N, for N normal: each element's coset index,
        read-only int32. Coset i is the one whose least member is the i-th
        smallest such, so N is coset 0. As N is normal, xN = Nx: the least
        member of x's coset is the least of column x over N's rows, and the
        least members are those it fixes."""
        if not self.is_normal(N):
            raise NotNormal(f"subgroup of order {N.order} is not normal")
        rep = np.empty(self.order, dtype=_IDX)
        for cols in _slabs(self.order, N.order):
            rep[cols] = self._mul[N.members, cols].min(axis=0)
        least = (rep == np.arange(self.order)).nonzero()[0]
        project = np.searchsorted(least, rep).astype(_IDX)
        project.setflags(write=False)
        return project

    def conjugacy_classes(self) -> np.ndarray:
        """label[x], the least member of x's class, for every element x;
        derived once, read-only. The representatives are the x with
        label[x] == x, x's class is where label equals label[x], and its
        members share the order of its representative.

        Labels fall to the least member of each class: each takes the minimum
        over its generator conjugates, then jumps (label[label]), until stable."""
        if self._classes is None:
            label = np.arange(self.order, dtype=_IDX)
            # x^g = x [x, g], one column per generator g
            conj = self._mul[label[:, None], self.commutator_table()]
            while True:
                nxt = np.minimum(label, label[conj].min(axis=1, initial=self.order))
                nxt = nxt[nxt]
                if (nxt == label).all():
                    break
                label = nxt
            orders = self.orders()
            if not np.array_equal(orders, orders[label]):
                raise PreconditionViolated("conjugates of unequal order; table is corrupt")
            label.setflags(write=False)
            self._classes = label
        return self._classes

    def intermediate_index_p_subgroups(self, A: Subgroup, B: Subgroup,
                                       p: int) -> Refinements:
        """All S with B <= S < A and [A:S] = p, for A/B central elementary abelian in G/B.

        There are (p^r - 1)/(p - 1) of them, r = log_p [A:B], yielded in
        canonical order (sorted members compared lexicographically). The
        preconditions are checked and the first candidate is built at the
        call; the others are built, checked and sorted only once a second
        one is asked for.

        A/B is then a vector space over F_p. Its greedy basis b_1, ..., b_r
        takes, in turn, the least element of A outside the span W of those
        before it, and the p cosets W b^c, c < p, make the next span. The
        first candidate is B with b_1, ..., b_{r-1}. Two sorted member arrays
        of equal length first differ where one holds the least element that
        the other lacks, and that one is smaller. So the least hyperplane H
        over B takes each element it may, walking A in index order. An
        element in the span W of those taken so far is in H anyway; one
        outside W may be taken while W has fewer than r - 1 dimensions over
        B. None is left out before then, and then H = W.
        """
        if A.parent is not self or B.parent is not self:
            raise PreconditionViolated("subgroup belongs to a different group")
        if not is_prime(p):
            raise PreconditionViolated(f"{p} is not prime")
        a, b = A.members, B.members
        in_b = np.zeros(self.order, dtype=bool)
        in_b[b] = True
        outside = a[~in_b[a]]
        if len(outside) != A.order - B.order:
            raise PreconditionViolated("B is not contained in A")
        if not len(outside):
            raise PreconditionViolated("A/B is trivial")
        # consecutive terms of G's own lower exponent-p series, once derived,
        # make a normal, central layer of exponent p by their definition; a
        # layer is known by its cached arrays themselves, and copies are checked
        series = self._series or ()
        if (A.order // B.order) % p or not any(
                upper is a and lower is b for upper, lower in zip(series, series[1:])):
            if not self.is_normal(A) or not self.is_normal(B):
                raise PreconditionViolated("A and B must both be normal")
            # [a, g] in B for every a in A, g in G makes A/B central in G/B,
            # so abelian; as B is normal, generators g suffice
            if not in_b[self.commutator_table()[a]].all():
                raise PreconditionViolated("A/B is not central in G/B")
            if not in_b[self.power_map(p)[a]].all():
                raise PreconditionViolated("A/B has exponent larger than p")
        # span lists A coset by coset: the span of b_1, ..., b_k is its first
        # p^k |B| members
        span, basis = b, []
        reached = in_b  # from here on, the span's members
        while len(span) < A.order:
            x = int(outside[np.argmin(reached[outside])])
            blocks = [span]
            for _ in range(1, p):
                blocks.append(self._mul[blocks[-1], x])
            span = np.concatenate(blocks)
            reached[span] = True
            basis.append(x)
        return Refinements(self, B, tuple(basis), span, p)


class Refinements:
    """The subgroups S with B <= S < A and [A:S] = p, an iterator in
    canonical order (FiniteGroup.intermediate_index_p_subgroups), with the
    greedy basis b_1, ..., b_r of A past B that they come from and A's
    members in span order. span(k) is <B, b_1, ..., b_k>; the first
    candidate is span(r - 1), which for r = 1 is B itself."""

    def __init__(self, parent: FiniteGroup, B: Subgroup, basis: tuple[int, ...],
                 span: np.ndarray, p: int) -> None:
        self.parent, self.basis, self.p = parent, basis, p
        self._span, self._coset = span, B.order
        r = len(basis)
        first = B if r == 1 else Subgroup(parent, self._prefix(r - 1))
        # the rest hold no reference to self: that cycle would keep G's
        # table alive until the cycle collector runs
        self._candidates = itertools.chain([first], _other_candidates(parent, span, B.order, p, r))

    def __iter__(self) -> Refinements:
        return self

    def __next__(self) -> Subgroup:
        return next(self._candidates)

    def _prefix(self, k: int) -> np.ndarray:
        return self._span[:self._coset * self.p ** k]

    def span(self, k: int) -> Subgroup:
        """<B, b_1, ..., b_k>, closed without a check: the b_i are central
        and of order p modulo B."""
        return Subgroup._checked(self.parent, np.sort(self._prefix(k)))


def _other_candidates(parent: FiniteGroup, span: np.ndarray, coset: int, p: int,
                      r: int) -> Iterator[Subgroup]:
    """Every refinement candidate but the first, in canonical order: the
    kernels of the nonzero linear forms phi on A/B, one per line, first
    nonzero coordinate 1. The coordinates of the j-th member of A in span
    order are the base-p digits of j // |B|."""
    coords = np.arange(len(span))[:, None] // coset // p ** np.arange(r) % p
    out = []
    for phi in itertools.product(range(p), repeat=r):
        # phi = (0, ..., 0, 1) gives the first candidate
        if next((c for c in phi if c), None) == 1 and any(phi[:-1]):
            out.append(Subgroup(parent, span[coords @ phi % p == 0]))
    # big-endian bytes compare as the members do (_row_keys)
    out.sort(key=lambda s: s.members.astype(_BIG).tobytes())
    yield from out


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """A view of each row of a C-contiguous big-endian int32 array as one
    byte string; their memcmp order is the rows' lexicographic order."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(len(rows))


def _dimino(gen_rows: list[np.ndarray], degree: int, cap: int
            ) -> tuple[np.ndarray, list[tuple[int, int, int, int, bool]]]:
    """Dimino's algorithm on int32 image rows. The first generator's powers
    come by doubling, x^b[P] on the block P of powers found so far, cut at
    the first identity row; each further generator adds right cosets H r of
    the group H found before it, one gather r[H] each, for r the products of
    found representatives with every generator so far.

    Returns the rows in discovery order (the identity first), stored
    big-endian, and one (start, size, parent, generator, doubled) per block:
    rows [start, start + size) are the rows [parent, parent + size) times
    the generator, or, when doubled, times x^start for the first generator
    x. The dict from each row's bytes to its discovery index, which the
    membership tests read, is dropped before the rows are joined. Raises
    OrderCapExceeded before a block would take the order past cap."""
    key = np.dtype((np.void, 4 * degree))
    ident = np.arange(degree, dtype=_IDX)
    found = {ident.tobytes(): 0}
    blocks = [ident[None, :]]
    fills: list[tuple[int, int, int, int, bool]] = []
    used: list[int] = []
    n = 1
    for gi, s in enumerate(gen_rows):
        if s.tobytes() in found:
            continue
        if n == 1:
            power = s
            while True:
                # x^n times the powers found so far, block by block
                block = np.empty((min(n, cap + 1 - n), degree), dtype=_IDX)
                filled = 0
                for b in blocks:
                    b = b[:len(block) - filled]
                    block[filled:filled + len(b)] = power[b]
                    filled += len(b)
                hit = (block == ident).all(axis=1).nonzero()[0]
                if len(hit):
                    block = block[:hit[0]]
                elif n + len(block) > cap:
                    raise OrderCapExceeded(cap)
                found.update(zip(block.view(key).ravel().tolist(), range(n, n + len(block))))
                fills.append((n, len(block), 0, gi, True))
                blocks.append(block)
                n += len(block)
                if len(hit):
                    break
                power = power[power]
            # blocks holds the last block; drop the loop's own hold on it
            del block, b
        else:
            # s is not in H, so the group has at least 2|H| elements
            if 2 * n > cap:
                raise OrderCapExceeded(cap)
            h = n
            cosets = [(0, np.concatenate(blocks))]
            blocks = [cosets[0][1]]
            for start, coset in cosets:
                for gj in used + [gi]:
                    t = gen_rows[gj]
                    if t[coset[0]].tobytes() in found:
                        continue
                    if n + h > cap:
                        raise OrderCapExceeded(cap)
                    block = t[coset]
                    found.update(zip(block.view(key).ravel().tolist(), range(n, n + h)))
                    fills.append((n, h, start, gj, False))
                    cosets.append((n, block))
                    blocks.append(block)
                    n += h
        used.append(gi)
    del found
    return np.concatenate(blocks, dtype=_BIG), fills


def _image_row(g: Sequence[int], degree: int) -> np.ndarray:
    """g as an int32 image row, checked by one mask: its images, any out of
    range moved onto a spare slot, must hit every point of 0..degree-1."""
    try:
        row = np.asarray(g, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        raise InvalidPermutation("generator images are not int64 integers") from None
    if row.shape != (degree,):
        raise InvalidPermutation(f"generator degree {row.size} != {degree}")
    hit = np.zeros(degree + 1, dtype=bool)
    # read unsigned, a negative image is past degree too
    hit[np.minimum(row.view(np.uint64), degree)] = True
    if np.count_nonzero(hit[:degree]) < degree:
        raise InvalidPermutation(f"images are not a bijection on 0..{degree - 1}")
    return row.astype(_IDX)


def from_generators(gens: Sequence[Sequence[int]], degree: int,
                    cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Enumerate the group generated by gens, the image rows of 0..degree-1,
    and build its product table.

    The big-endian rows from ``_dimino`` are sorted in place as byte
    strings, which is lexicographic order; their discovery order is one
    argsort of the same keys. A generator's column, the index of x s for
    every x, is looked up in the sorted rows by binary search, a slab of
    rows at a time. The rows are then dropped, the generators' own with
    them once they are indexed. The table is filled a block at a time, as
    mul[:, H r s] = col_s[mul[:, H r]], in row slabs. Raises
    OrderCapExceeded once the order would pass cap.
    """
    if cap < 1:
        raise PreconditionViolated("cap must be at least 1")
    if degree < 1:
        raise InvalidPermutation("degree must be at least 1")
    gen_rows: list[np.ndarray] = []
    for g in gens:
        row = _image_row(g, degree)
        if not any((row == r).all() for r in gen_rows):
            gen_rows.append(row)
    rows, fills = _dimino(gen_rows, degree, cap)
    n = len(rows)
    keys = _row_keys(rows)
    order = keys.argsort()
    if order[0] != 0:
        raise PreconditionViolated("identity is not the least element; ordering is corrupt")
    keys.sort()

    def index_of(block: np.ndarray) -> np.ndarray:
        """The sorted index of each row of an int32 block of group elements."""
        return np.searchsorted(keys, _row_keys(block.astype(_BIG)))

    cols = {}
    for gi in {fill[3] for fill in fills}:
        cols[gi] = np.empty(n, dtype=_IDX)
        for slab in _slabs(n, degree):
            cols[gi][slab] = index_of(gen_rows[gi][rows[slab]])
    # no generators give the trivial group generated by its identity, as
    # the parse of its spec text gives it
    generators = index_of(np.array(gen_rows, dtype=_IDX).reshape(-1, degree)).tolist() or [0]
    del keys, rows, gen_rows
    # rows by sorted index, columns in discovery order, so each block is a slice
    mul = np.empty((n, n), dtype=_IDX)
    mul[:, 0] = np.arange(n, dtype=_IDX)
    power = None
    for start, size, parent, gi, doubled in fills:
        if doubled:
            power = cols[gi] if power is None else power[power]
        col = power if doubled else cols[gi]
        # 'clip' is safe, as the indices are in range, and spares the output
        # buffer that 'raise' makes
        for slab in _slabs(n, size):
            np.take(col, mul[slab, parent:parent + size],
                    out=mul[slab, start:start + size], mode="clip")
    # relabel the columns in slabs of rows, so no second n x n array is made
    for slab in _slabs(n, n):
        mul[slab] = np.take(mul[slab], order, axis=1)
    return FiniteGroup(mul, generators)


def direct_product(groups: Sequence[FiniteGroup], cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Direct product of the factors' tables.

    An element is the mixed-radix index of its factor elements, first factor
    most significant, so factor i contributes weight_i mul_i[x_i, y_i] to
    the product of x and y. The table is filled a row slab at a time,
    straight from the factors' tables. Factor i's generator x is the
    element x weight_i, the factors' generators in order, each once.
    """
    if not groups:
        raise PreconditionViolated("empty product")
    n = prod(g.order for g in groups)
    if n > cap:
        raise OrderCapExceeded(cap)
    weights = [prod(g.order for g in groups[i + 1:]) for i in range(len(groups))]
    index = np.arange(n, dtype=_IDX)
    digits = [index // w % g.order for g, w in zip(groups, weights)]
    mul = np.empty((n, n), dtype=_IDX)
    for slab in _slabs(n, n):
        rows = np.zeros((1, 1), dtype=_IDX)
        # last factor first: y_i leads the digits of y already laid out
        for g, w, d in zip(groups[::-1], weights[::-1], digits[::-1]):
            term = g.mul_table[d[slab]] * w
            rows = (term[:, :, None] + rows[:, None, :]).reshape(len(term), -1)
        mul[slab] = rows
    return FiniteGroup(mul, dict.fromkeys(x * w for g, w in zip(groups, weights)
                                          for x in g.generators))


def subgroup_as_group(H: Subgroup) -> FiniteGroup:
    """Stand-alone group with the same multiplication as the subgroup.

    Its elements are H's members in order; nothing of the parent is read
    but its table, which is relabelled in row slabs. Generators are chosen
    greedily (smallest member not yet generated) so the derived spec stays
    short; for a p-group this yields a minimal set.
    """
    parent, m = H.parent, H.members
    gens = parent._closure(m)[1] or [0]
    # position[x] is x's index among the members
    position = np.zeros(parent.order, dtype=_IDX)
    position[m] = np.arange(len(m), dtype=_IDX)
    table = np.empty((len(m), len(m)), dtype=_IDX)
    for rows in _slabs(len(m), len(m)):
        np.take(position, parent.mul_table[np.ix_(m[rows], m)], out=table[rows], mode="clip")
    return FiniteGroup(table, position[gens].tolist())
