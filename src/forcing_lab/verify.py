"""Independent verification of forcing certificates.

verify_certificate re-checks every condition a certificate claims from
scratch, and the forcing property over every class member by brute force.
Of G it reads only mul_table, order and inv_table, whose inverses it checks,
and of groups.py it runs only prime_power and is_prime (tests/test_verify.py
holds it to that). Element orders, closure, normality, the exponent-p series
and the Frattini subgroup come from all products, commutators and p-th
powers in the table; cosets, their orders and their classes from membership
masks. Every gather of n x |N| products or more is one flat take from the
table per row block of at most _BLOCK_ITEMS int32 products. A coset xN of
index q^m has as order the least q^j with x^(q^j) in N, found in at most m
steps of the q-th power map, which is built once per call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import MalformedCertificate, NotAPGroup, PreconditionViolated
from .groups import is_prime, prime_power

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

    from .forcing import ForcingCertificate
    from .groups import FiniteGroup


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


def _brute_series(G: FiniteGroup, commutators: Callable[[np.ndarray], np.ndarray],
                  power_map: Callable[[int], np.ndarray]) -> list[tuple[int, ...]]:
    """The lower exponent-p series G_j = G_{j-1}^p [G_{j-1}, G], from all p-th
    powers of each term and the mask of all its commutators with G."""
    pp = prime_power(G.order)
    if pp is None:
        raise NotAPGroup(f"order {G.order} is not a prime power")
    pth = power_map(pp[0])
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


def _coset_orders(G: FiniteGroup, inside: np.ndarray,
                  power_map: Callable[[int], np.ndarray]) -> np.ndarray:
    """The order of xN for every element x of G, from N's membership mask (N
    normal). It divides [G:N], so when [G:N] = q^m it is the least q^j with
    x^(q^j) in N, reached in at most m steps of power_map(q); otherwise it is
    the least k >= 1 with x^k in N, by unit power steps."""
    orders = inside.astype(np.int32)
    todo = np.flatnonzero(~inside)
    pp = prime_power(G.order // int(inside.sum()))
    qth = None if pp is None else power_map(pp[0])
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
    alone, independently of the builder: element orders from powers, closure
    by squaring member sets, normality over all conjugators, the exponent-p
    series and its Frattini term from all powers and commutators. Quotients
    are never built: a coset xN is labelled by its least member, target
    index i is the i-th smallest label, and the order of xN is the least k
    with x^k in N. Forcing is checked over every element of every coset of
    the witness class.
    """
    mul, inv = G.mul_table, G.inv_table
    # the inverses are G's data, not the verifier's: one product each checks them
    bad = np.flatnonzero(mul[np.arange(G.order), inv] != 0)
    if len(bad):
        raise PreconditionViolated(f"inv_table[{bad[0]}] is not the inverse of {bad[0]}")
    _structural_check(G, cert)
    checks: list[CheckResult] = []
    chain = [tuple(sorted(entry)) for entry in cert.chain]
    arrays = [np.fromiter(entry, dtype=np.int32, count=len(entry)) for entry in chain]
    masks = [np.bincount(members, minlength=G.order) > 0 for members in arrays]
    # each q-th power map is built once per call
    power_map = functools.cache(functools.partial(_power_map, G))

    pp = prime_power(G.order)
    p = pp[0] if pp else None
    detail = ""
    if pp is None:
        detail = f"order {G.order} is not a prime power"
    else:
        orders = _coset_orders(G, np.arange(G.order) == 0, power_map)
        if int(orders.max()) == G.order:
            detail = "group is cyclic"
        elif _quaternion_index(orders) is not None:
            detail = "group is generalized quaternion"
    checks.append(CheckResult("group-hypotheses", not detail, detail))

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
        # x^g = x [x, g] for every group element g, not only generators
        normal = closed and not (commutators(members) & ~masks[k]).any()
        checks.append(CheckResult("chain-normal", normal, f"entry {k}" + (
            "" if closed else " is not even a subgroup"), step=k))
        formed.append(normal)
    try:
        series = _brute_series(G, commutators, power_map)
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
        return _coset_orders(G, masks[k], power_map)

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
        members = _sorted_set(G, labels_up[mul[mul[inv, x], np.arange(G.order)]])
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
