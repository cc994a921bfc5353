"""Forcing sequences: construction and independent verification.

A quotient map is *forcing* when some conjugacy class of its target has the
property that every element of every fiber over the class keeps the exact
order of the class. A forcing sequence for a p-group G is a chain
G > Frattini(G) = N_0 > N_1 > ... > N_m = 1 of normal subgroups with index-p
steps, refining the lower exponent-p series, where every consecutive
quotient-to-quotient map G/N_{i+1} -> G/N_i is forcing and no quotient G/N_i
is generalized quaternion. Such a chain exists exactly when G is non-cyclic
and not generalized quaternion.

build_forcing_sequence constructs certificates from G's own table and its
cached structures, and builds no quotient group: a step's witness is the
class, in G/N_i, of the least x outside N_i with x^p in N_{i+1}, read as the
coset labels of N_i over the elements that G's class labels put with x. It
takes refinement candidates one at a time and screens each for a quaternion
quotient by counting the elements of G that square into it. is_forcing
searches a quotient's classes by their labels, never by member lists.
verify_certificate re-checks every claimed condition from scratch, and the
forcing property over every class member by brute force. It works from G's
own table, inverses and element orders alone, never from the builder's
kernels, quotient groups or cached series: closure, normality, the
exponent-p series and the Frattini subgroup come from all products,
commutators and p-th powers in the table, and cosets, their orders and their
conjugacy classes from membership masks. Chain entry 0 passes closure without
a squaring: |G| distinct in-range indices are G itself. Every gather of
n x |N| products or more is one flat take from the table per row block of at
most _BLOCK_ITEMS int32 products. The order of a coset xN divides [G:N], so
for an index q^m it is the least q^j with x^(q^j) in N, reached in at most m
steps of the q-th power map.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .classify import is_cyclic, is_generalized_quaternion
from .errors import (
    CyclicGroup,
    MalformedCertificate,
    NotAPGroup,
    PreconditionViolated,
    QuaternionGroup,
)
from .groups import FiniteGroup, QuotientMap, Subgroup, is_prime, prime_power
from .groupspec import spec_text

BUILDER_VERSION = "1"


@dataclass(frozen=True)
class ForcingWitness:
    """A conjugacy class (by target index) whose fibers all preserve order."""

    class_rep: int
    class_order: int
    checked_fiber_sizes: tuple[int, ...]


@dataclass(frozen=True)
class ForcingStep:
    """One index-p extension G/N_{i+1} -> G/N_i; index_in_chain locates N_i,
    quotient_order is |G/N_{i+1}|, the order of the extended group."""

    index_in_chain: int
    kernel_order: int
    quotient_order: int
    quotient_is_quaternion: bool
    witness: ForcingWitness


@dataclass(frozen=True)
class ForcingCertificate:
    """Raw element-index chain plus per-step witnesses; no generator sets, so
    verification never depends on closure code."""

    group_spec: str
    chain: tuple[tuple[int, ...], ...]
    steps: tuple[ForcingStep, ...]
    builder_version: str = BUILDER_VERSION


@dataclass(frozen=True)
class CheckResult:
    condition: str
    passed: bool
    detail: str = ""
    step: int | None = None

    def label(self) -> str:
        return self.condition if self.step is None else f"{self.condition}[{self.step}]"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def is_forcing(quotient: QuotientMap) -> ForcingWitness | None:
    """Search the target's conjugacy classes for a forcing witness.

    Classes are scanned by their representatives in (order, representative)
    order, so the returned witness has minimal class order, ties broken by
    least representative. The identity class never qualifies: its fiber is
    the kernel, whose non-identity elements have the wrong order. A class's
    fibers are the source elements whose image is labelled with its
    representative; each fiber is a coset of the kernel.
    """
    target = quotient.target
    label, orders = target.conjugacy_classes(), target.orders()
    src_orders = quotient.source.orders()
    src_label = label[quotient.project]
    reps = np.flatnonzero(label == np.arange(target.order))[1:].tolist()
    for rep in sorted(reps, key=lambda r: (int(orders[r]), r)):
        order = int(orders[rep])
        if (src_orders[src_label == rep] == order).all():
            size = int(np.count_nonzero(label == rep))
            return ForcingWitness(class_rep=rep, class_order=order,
                                  checked_fiber_sizes=(quotient.kernel.order,) * size)
    return None


def central_step_witness(G: FiniteGroup, upper: Subgroup,
                         lower: Subgroup) -> ForcingWitness | None:
    """Witness for the step G/lower -> G/upper of a central layer of prime
    index p: the class, in G/upper, of the least x not in upper with x^p in
    lower. Such x make up whole cosets of upper, as (xa)^p lies in x^p lower
    for a in upper, and whole conjugacy classes; their fibers hold p cosets
    of order p. The least x is the least member of its coset, so its class
    has the least representative among the qualifying ones. Conjugation
    commutes with projection, so that class is the image of x's class in G,
    and x upper has order p, as x lies outside upper and x^p inside. x's
    class is where G's class labels equal x's, and its image is the sorted
    coset labels of its members, the least first. None when there is no
    such x: for a p-group, G/lower is then cyclic or quaternion.
    """
    p = upper.order // lower.order
    if upper.order % lower.order or not is_prime(p):
        raise PreconditionViolated(f"index {upper.order}/{lower.order} is not prime")
    in_upper, in_lower = (np.bincount(S.member_array(), minlength=G.order) > 0
                          for S in (upper, lower))
    # generators suffice, as lower is normal
    gens = np.array(G.generators, dtype=np.int32)
    if not in_lower[G._commutators(upper.member_array(), gens)].all():
        raise PreconditionViolated("layer is not central: [upper, G] is not inside lower")
    found = np.flatnonzero(in_lower[G.power_map(p)] & ~in_upper)
    if not len(found):
        return None
    label = G.conjugacy_classes()
    images = _image_class(G.quotient(upper).project, np.flatnonzero(label == label[found[0]]))
    return ForcingWitness(class_rep=int(images[0]), class_order=p,
                          checked_fiber_sizes=(p,) * len(images))


def _image_class(project: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The class of the quotient that is the image of a class of the source:
    its members' distinct images, sorted, so the least comes first."""
    return np.flatnonzero(np.bincount(project[members]))


def _quaternion_quotient(G: FiniteGroup, S: Subgroup) -> bool:
    """Whether G/S is generalized quaternion, for S inside the Frattini
    subgroup of a non-cyclic 2-group G. G/S is then never cyclic (Burnside's
    basis theorem), so it is quaternion exactly when it has one involution:
    when exactly 2|S| elements of G square into S."""
    inside = np.bincount(S.member_array(), minlength=G.order) > 0
    return int(inside[G.mul_table.diagonal()].sum()) == 2 * S.order


def build_forcing_sequence(G: FiniteGroup) -> ForcingCertificate:
    """Construct a verified-by-construction forcing sequence for G.

    Refines each layer of the lower exponent-p series one index-p step at a
    time, always taking the first candidate subgroup (in canonical order)
    whose quotient is not generalized quaternion, as read from G's squares.
    For odd p no candidate is ever rejected; for p = 2 at most one candidate
    per layer can be bad, and only then are the layer's other candidates
    built. Each step's witness is read from G's own classes and the coset
    labels of N_i.
    """
    p = G.prime()
    if is_cyclic(G):
        raise CyclicGroup(f"cyclic group of order {G.order} admits no forcing sequence")
    quaternion = is_generalized_quaternion(G)
    if quaternion is not None:
        raise QuaternionGroup(quaternion)
    series = G.lower_exponent_p_series()
    chain: list[Subgroup] = [series[0], series[1]]
    for j in range(1, len(series) - 1):
        current = series[j]
        bottom = series[j + 1]
        while current.order > bottom.order:
            chosen = next((candidate for candidate
                           in G.intermediate_index_p_subgroups(current, bottom, p)
                           if p != 2 or not _quaternion_quotient(G, candidate)), None)
            if chosen is None:
                raise PreconditionViolated(
                    "every refinement candidate has a generalized quaternion quotient")
            chain.append(chosen)
            current = chosen
    steps = []
    for i in range(len(chain) - 2):
        upper = chain[i + 1]
        lower = chain[i + 2]
        witness = central_step_witness(G, upper, lower)
        if witness is None:
            raise PreconditionViolated("central step lost its forcing witness")
        steps.append(ForcingStep(
            index_in_chain=i + 1,
            kernel_order=upper.order // lower.order,
            quotient_order=G.order // lower.order,
            quotient_is_quaternion=False,
            witness=witness,
        ))
    return ForcingCertificate(
        group_spec=spec_text(G),
        chain=tuple(sub.members for sub in chain),
        steps=tuple(steps),
    )


def _structural_check(G: FiniteGroup, cert: ForcingCertificate) -> None:
    if len(cert.chain) < 2:
        raise MalformedCertificate("chain needs at least the whole group and the trivial subgroup")
    n = G.order
    for k, entry in enumerate(cert.chain):
        if not entry:
            raise MalformedCertificate(f"chain entry {k} is empty")
        if len(set(entry)) != len(entry):
            raise MalformedCertificate(f"chain entry {k} has duplicate indices")
        for idx in entry:
            if not isinstance(idx, int) or not 0 <= idx < n:
                raise MalformedCertificate(f"chain entry {k} has bad element index {idx!r}")
    if len(cert.steps) != len(cert.chain) - 2:
        raise MalformedCertificate(
            f"{len(cert.steps)} steps do not match a chain of {len(cert.chain)} entries")
    for i, step in enumerate(cert.steps):
        if step.witness is None:
            raise MalformedCertificate(f"step {i} lacks a witness")
        if not 0 <= step.witness.class_rep:
            raise MalformedCertificate(f"step {i} witness representative is negative")


# int32 products gathered per row block by the verifier's table kernels: a
# table of order up to 128 is one block, and a block's temporaries (its intp
# indices among them) stay well under a quarter of an order-1024 table
_BLOCK_ITEMS = 1 << 14


def _gather(G: FiniteGroup, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The products left * right of broadcast int32 element arrays, as one
    gather from the flat table (an int32 flat index holds any order below
    46341, far above MAX_ORDER_CAP); callers keep the broadcast shape under
    _BLOCK_ITEMS."""
    return np.take(G.mul_table.reshape(-1), left * G.order + right)


def _row_blocks(rows: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """rows in consecutive runs of max(1, _BLOCK_ITEMS // width) rows."""
    step = max(1, _BLOCK_ITEMS // width)
    return (rows[start:start + step] for start in range(0, len(rows), step))


def _sorted_set(G: FiniteGroup, elements: np.ndarray) -> np.ndarray:
    """The distinct element indices in elements, sorted, from a membership
    mask: np.unique and np.union1d import numpy.ma on their first call, which
    costs a fresh interpreter about 14 ms."""
    mask = np.zeros(G.order, dtype=bool)
    mask[elements] = True
    return np.flatnonzero(mask).astype(np.int32)


def _square_until_closed(G: FiniteGroup, seed: np.ndarray) -> np.ndarray:
    """Sorted members of the subgroup generated by seed: square until closed."""
    members = _sorted_set(G, np.append(seed, 0))
    while True:
        products = np.zeros(G.order, dtype=bool)
        for block in _row_blocks(members, len(members)):
            products[_gather(G, block[:, None], members)] = True
        if products.sum() == len(members):
            return members
        members = np.flatnonzero(products).astype(np.int32)


def _commutator_mask(G: FiniteGroup, members: np.ndarray) -> np.ndarray:
    """Membership mask of the [x, g] = (x^-1 g^-1)(x g) for every x in members
    and g in G."""
    mul, inv = G.mul_table, G.inv_table
    mask = np.zeros(G.order, dtype=bool)
    for block in _row_blocks(members, G.order):
        mask[_gather(G, np.take(mul[inv[block]], inv, axis=1), mul[block])] = True
    return mask


def _nested_commutator_masks(G: FiniteGroup, chain: list[np.ndarray]) -> dict[bytes, np.ndarray]:
    """_commutator_mask of every entry of a nested chain N_0 > N_1 > ...,
    keyed by the entry's bytes, from |N_0| n products: each x adds [x, G]
    once, at the deepest entry holding it, and an entry's mask is the union
    of those at and below it."""
    depth = np.full(G.order, -1, dtype=np.int32)
    for k, members in enumerate(chain):
        depth[members] = k
    masks = {}
    below = np.zeros(G.order, dtype=bool)
    for k in reversed(range(len(chain))):
        below = below | _commutator_mask(G, np.flatnonzero(depth == k).astype(np.int32))
        masks[chain[k].tobytes()] = below
    return masks


def _brute_series(G: FiniteGroup,
                  commutators: Callable[[np.ndarray], np.ndarray]) -> list[tuple[int, ...]]:
    """The lower exponent-p series G_j = G_{j-1}^p [G_{j-1}, G], from all p-th
    powers of each term and the mask of all its commutators with G."""
    pp = prime_power(G.order)
    if pp is None:
        raise NotAPGroup(f"order {G.order} is not a prime power")
    pth = _power_map(G, pp[0])
    series = [np.arange(G.order, dtype=np.int32)]
    while len(series[-1]) > 1:
        current = series[-1]
        series.append(_square_until_closed(
            G, np.append(pth[current], np.flatnonzero(commutators(current)))))
        if len(series[-1]) >= len(current):
            raise NotAPGroup("series failed to descend")
    return [tuple(term.tolist()) for term in series]


def _power_map(G: FiniteGroup, e: int) -> np.ndarray:
    """x^e for every element x, by square-and-multiply over whole columns."""
    mul = G.mul_table
    result = np.zeros(G.order, dtype=np.int32)
    square = np.arange(G.order, dtype=np.int32)
    while e:
        if e & 1:
            result = mul[result, square]
        e >>= 1
        if e:
            square = mul[square, square]
    return result


def _coset_orders(G: FiniteGroup, inside: np.ndarray) -> np.ndarray:
    """The order of xN for every element x of G, from N's membership mask (N
    normal). It divides [G:N], so when [G:N] = q^m it is the least q^j with
    x^(q^j) in N, reached in at most m steps of the q-th power map; otherwise
    it is the least k >= 1 with x^k in N, by unit power steps."""
    orders = inside.astype(np.int32)
    todo = np.flatnonzero(~inside)
    pp = prime_power(G.order // int(inside.sum()))
    qth = None if pp is None else _power_map(G, pp[0])
    power = np.arange(G.order, dtype=np.int32)
    k = 1
    while len(todo):
        if qth is None:
            power[todo] = G.mul_table[power[todo], todo]
            k += 1
        else:
            power[todo] = qth[power[todo]]
            k *= pp[0]
        landed = inside[power[todo]]
        orders[todo[landed]] = k
        todo = todo[~landed]
    return orders


def _quaternion_index(orders: np.ndarray, weight: int = 1) -> int | None:
    """The index n when a group is generalized quaternion of order 2**(n+2),
    else None, from its element orders with each element listed ``weight``
    times: for G/N, the coset order of every x in G, with weight |N|. A
    non-cyclic 2-group of order at least 8 is one exactly when it has one
    involution."""
    order = len(orders) // weight
    pp = prime_power(order)
    if pp is None or pp[0] != 2 or pp[1] < 3:
        return None
    if int(orders.max()) == order or int((orders == 2).sum()) != weight:
        return None
    return pp[1] - 2


def verify_certificate(G: FiniteGroup, cert: ForcingCertificate) -> VerificationReport:
    """Re-derive every condition a certificate claims, from scratch.

    Structural impossibilities (bad indices, shape mismatches) raise
    MalformedCertificate; every semantic condition becomes a named pass/fail
    entry in the report. Group-theoretic facts are recomputed from G's table
    alone, independently of the builder: closure by squaring member sets,
    normality over all conjugators, the exponent-p series and its Frattini
    term from all powers and commutators. Quotients are never built: a coset
    xN is labelled by its least member, target index i is the i-th smallest
    label, and the order of xN is the least k with x^k in N. Forcing is
    checked over every element of every coset of the witness class.
    """
    _structural_check(G, cert)
    checks: list[CheckResult] = []
    chain = [tuple(sorted(entry)) for entry in cert.chain]
    arrays = [np.fromiter(entry, dtype=np.int32, count=len(entry)) for entry in chain]
    masks = []
    for members in arrays:
        masks.append(np.zeros(G.order, dtype=bool))
        masks[-1][members] = True
    mul = G.mul_table

    pp = prime_power(G.order)
    p = pp[0] if pp else None
    cyclic = int(G.orders().max()) == G.order
    quaternion = _quaternion_index(G.orders()) is not None
    hypotheses_ok = pp is not None and not cyclic and not quaternion
    detail = ""
    if pp is None:
        detail = f"order {G.order} is not a prime power"
    elif cyclic:
        detail = "group is cyclic"
    elif quaternion:
        detail = "group is generalized quaternion"
    checks.append(CheckResult("group-hypotheses", hypotheses_ok, detail))

    checks.append(CheckResult(
        "chain-full-group", chain[0] == tuple(range(G.order)),
        "chain must start at the whole group"))
    checks.append(CheckResult(
        "chain-terminates", chain[-1] == (0,),
        "chain must end at the trivial subgroup"))
    descending = all(set(chain[k + 1]) < set(chain[k]) for k in range(len(chain) - 1))
    checks.append(CheckResult("chain-descending", descending,
                              "entries must strictly decrease"))

    # a nested chain's masks come from one pass over its first entry
    commutator_masks = _nested_commutator_masks(G, arrays) if descending else {}

    def commutators(members: np.ndarray) -> np.ndarray:
        key = members.tobytes()
        if key not in commutator_masks:
            commutator_masks[key] = _commutator_mask(G, members)
        return commutator_masks[key]

    # an entry is formed, so that its cosets make a quotient, once it is a
    # normal subgroup
    formed = []
    for k, members in enumerate(arrays):
        # |G| distinct in-range indices are G itself
        closed = chain[k][0] == 0 and (len(members) == G.order or np.array_equal(
            _square_until_closed(G, members), members))
        checks.append(CheckResult("chain-closed", closed,
                                  f"entry of size {len(members)}", step=k))
        if closed:
            # x^g = x [x, g] for every group element g, not only generators
            normal = not (commutators(members) & ~masks[k]).any()
            checks.append(CheckResult("chain-normal", normal, f"entry {k}", step=k))
        else:
            normal = False
            checks.append(CheckResult("chain-normal", False,
                                      f"entry {k} is not even a subgroup", step=k))
        formed.append(normal)
    try:
        series = _brute_series(G, commutators)
        checks.append(CheckResult("chain-frattini", chain[1] == series[1],
                                  "second entry must be the Frattini subgroup"))
    except NotAPGroup as exc:
        series = None
        series_error = str(exc)
        checks.append(CheckResult("chain-frattini", False, series_error))
    if p is not None:
        index_ok = all(len(chain[k]) == p * len(chain[k + 1])
                       for k in range(1, len(chain) - 1))
        checks.append(CheckResult("chain-index-p", index_ok,
                                  f"consecutive indices must all be {p}"))
    else:
        checks.append(CheckResult("chain-index-p", False, "no p: order is not a prime power"))
    if series is None:
        checks.append(CheckResult("chain-refines-series", False, series_error))
    else:
        chain_sets = set(chain)
        refines = all(s in chain_sets for s in series)
        checks.append(CheckResult("chain-refines-series", refines,
                                  "every series term must appear in the chain"))

    @functools.cache
    def coset_orders(k: int) -> np.ndarray:
        """For formed entry k: the order of xN for each element x."""
        return _coset_orders(G, masks[k])

    @functools.cache
    def cosets_of(k: int) -> tuple[np.ndarray, np.ndarray]:
        """For formed entry k: each element's coset label (the least member of
        xN) and the sorted labels. Only the steps' entries need them."""
        labels = np.empty(G.order, dtype=np.int32)
        for block in _row_blocks(np.arange(G.order, dtype=np.int32), len(arrays[k])):
            labels[block] = _gather(G, block[:, None], arrays[k]).min(axis=1)
        return labels, _sorted_set(G, labels)

    quotient_index: list[int | None] = []
    for k in range(len(chain)):
        if not formed[k]:
            quotient_index.append(None)
            checks.append(CheckResult("quotient-non-quaternion", False,
                                      f"entry {k}: quotient could not be formed",
                                      step=k))
            continue
        idx = _quaternion_index(coset_orders(k), len(arrays[k]))
        quotient_index.append(idx)
        checks.append(CheckResult("quotient-non-quaternion", idx is None,
                                  f"entry {k}" + ("" if idx is None else
                                                  f": quotient is Q({idx})"),
                                  step=k))

    for i, step in enumerate(cert.steps):
        upper, lower = arrays[i + 1], arrays[i + 2]
        checks.append(CheckResult("step-chain-index", step.index_in_chain == i + 1,
                                  f"recorded {step.index_in_chain}, expected {i + 1}", step=i))
        ratio = len(upper) // len(lower) if len(lower) and len(upper) % len(lower) == 0 else 0
        kernel_ok = ratio >= 2 and is_prime(ratio) and step.kernel_order == ratio
        if p is not None:
            kernel_ok = kernel_ok and ratio == p
        checks.append(CheckResult("step-kernel-order", kernel_ok,
                                  f"recorded {step.kernel_order}, actual index {ratio}", step=i))
        checks.append(CheckResult(
            "step-quotient-order",
            step.quotient_order * len(lower) == G.order,
            f"recorded {step.quotient_order}, expected {G.order // len(lower)}", step=i))

        # [N_i, G] inside N_{i+1} makes the layer central in G/N_{i+1}
        central = not (commutators(upper) & ~masks[i + 2]).any()
        checks.append(CheckResult("chain-central-layer", central,
                                  "layer commutators must land below", step=i))

        if not (formed[i + 1] and formed[i + 2]):
            for condition in ("step-witness-class", "step-forcing", "step-quaternion-flag"):
                checks.append(CheckResult(condition, False, "quotients could not be formed",
                                          step=i))
            continue
        flag_ok = step.quotient_is_quaternion is False and quotient_index[i + 2] is None
        checks.append(CheckResult("step-quaternion-flag", flag_ok,
                                  "recorded flag must be false and match recomputation",
                                  step=i))
        witness = step.witness
        labels_up, minima_up = cosets_of(i + 1)
        labels_low, _ = cosets_of(i + 2)
        orders_up, orders_low = coset_orders(i + 1), coset_orders(i + 2)
        if witness.class_rep >= len(minima_up):
            checks.append(CheckResult("step-witness-class", False,
                                      f"representative {witness.class_rep} out of range",
                                      step=i))
            checks.append(CheckResult("step-forcing", False, "witness unusable", step=i))
            continue
        x = minima_up[int(witness.class_rep)]
        # the class of x N_{i+1}: the cosets of g^-1 x g over every g in G,
        # listed by label, so the least is the representative
        members = _sorted_set(G, labels_up[mul[mul[G.inv_table, x], np.arange(G.order)]])
        rep = int(np.searchsorted(minima_up, members[0]))
        order = int(orders_up[x])
        # the fiber over a class coset: the N_{i+2}-cosets of its elements
        # (one coset of N_{i+1} per class member, so at most n products)
        elements = _gather(G, members[:, None], upper)
        fiber_labels = np.sort(labels_low[elements], axis=1)
        sizes = ((np.diff(fiber_labels, axis=1) != 0).sum(axis=1) + 1).tolist()
        class_ok = (rep == witness.class_rep
                    and order == witness.class_order
                    and tuple(witness.checked_fiber_sizes) == tuple(sizes))
        checks.append(CheckResult(
            "step-witness-class", class_ok,
            f"class of {witness.class_rep}: rep {rep}, order {order}, sizes {sizes}",
            step=i))
        forcing = bool((orders_low[elements] == order).all())
        checks.append(CheckResult(
            "step-forcing", forcing,
            "every fiber element over every class member must keep the class order",
            step=i))
    return VerificationReport(checks=tuple(checks))
