"""Independent verification of forcing certificates.

verify_certificate re-checks every condition a certificate claims from
scratch, and the forcing property over every class member by brute force.
Of G it reads only mul_table, order and inv_table, whose inverses it checks,
and it imports only numpy, the standard library and the error classes
(tests/test_verify.py holds it to that): it factors integers itself.

The chain N_0 > N_1 > ... > N_{L-1} is proven bottom up when |G| = p^m, from
entry 1 on each entry has p times the elements of the next, and the last is
{1}. With t_k the least member of N_k outside N_{k+1}, N_k is a subgroup once
N_{k+1} is one, t_k^p lies in N_{k+1}, t_k normalises N_{k+1} (checked on its
generators t_{k+1}, ..., t_{L-2}), and t_k^j N_{k+1} lies in N_k for j < p:
those p cosets are distinct, so they fill it. N_k is read as the elements of
k + 1 entries or more; t_k^j N_{k+1} meets no entry below N_k, so a proven
entry lies in all above it: nesting is proven, not assumed. The t_k and the
least s that take N_1's running union M <- U_j s^j M to all of G within
log_p [G:N_1] steps make a set S of log_p |G| elements that provably
generates G. What _derive does not prove falls back, condition by condition,
to all of G (closure by squaring, commutators with every element, labels as
the least product over a coset), so every verdict and detail is the same.

Each fact is formed once, for the whole chain: the (|S| x n) table of
commutators [x, s], whence normality, central layers and the exponent-p
series (x^s = x [x, s], and [x, gh] = [x, h] [x, g]^h), each term closed
once; coset orders for every |G| by their prime-power parts, one doubling
ladder of q-power maps for each prime q dividing |G| (for a p-group, one, on
the p-th power map), element orders with them; labels bottom up; all steps'
witnesses on (steps x n) arrays.
Gathers of n x |N| products or more run in row blocks of _BLOCK_ITEMS.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import MalformedCertificate, NotAPGroup, PreconditionViolated

if TYPE_CHECKING:
    from collections.abc import Container, Iterator

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


# the most chain entries read, so that an element's entry bits, shifted left
# once, fit an int64; a genuine chain at order 2^13 has 14 entries
MAX_CHAIN_ENTRIES = 61


def _structural_check(G: FiniteGroup, cert: ForcingCertificate) -> np.ndarray:
    """The chain's membership masks, one row per entry, once the chain has
    2 to MAX_CHAIN_ENTRIES entries, the steps fit it (both checked before the
    masks are allocated), and every entry is a non-empty set of in-range int
    indices."""
    chain = cert.chain
    if len(chain) < 2:
        raise MalformedCertificate("chain needs at least the whole group and the trivial subgroup")
    if len(cert.steps) != len(chain) - 2:
        raise MalformedCertificate(
            f"{len(cert.steps)} steps do not match a chain of {len(chain)} entries")
    if len(chain) > MAX_CHAIN_ENTRIES:
        raise MalformedCertificate(
            f"chain has {len(chain)} entries; a chain may have at most {MAX_CHAIN_ENTRIES}")
    n = G.order
    sizes = [len(entry) for entry in chain]
    indices = list(itertools.chain.from_iterable(chain))
    inside = None
    # one type pass and one range check over every index (bool is not an
    # index); the loop below runs only to name the first fault
    if all(sizes) and set(map(type, indices)) == {int}:
        try:
            values = np.array(indices, dtype=np.int64)
        except OverflowError:
            values = None
        if values is not None and values.min() >= 0 and values.max() < n:
            inside = np.zeros((len(chain), n), dtype=bool)
            inside[np.repeat(np.arange(len(chain)), sizes), values] = True
            if np.count_nonzero(inside) != len(indices):
                inside = None
    if inside is None:
        for k, entry in enumerate(chain):
            if not entry:
                raise MalformedCertificate(f"chain entry {k} is empty")
            if len(set(entry)) != len(entry):
                raise MalformedCertificate(f"chain entry {k} has duplicate indices")
            for idx in entry:
                if type(idx) is not int or not 0 <= idx < n:
                    raise MalformedCertificate(f"chain entry {k} has bad element index {idx!r}")
    for i, step in enumerate(cert.steps):
        if step.witness is None:
            raise MalformedCertificate(f"step {i} lacks a witness")
        if type(step.witness.class_rep) is not int:
            raise MalformedCertificate(f"step {i} witness representative is not an int")
        if not 0 <= step.witness.class_rep:
            raise MalformedCertificate(f"step {i} witness representative is negative")
    return inside


# products gathered per row block by the verifier's table kernels: a table
# of order up to 128 is one block, and a block's temporaries (its intp
# indices among them) stay well under a quarter of an order-1024 table
_BLOCK_ITEMS = 1 << 14


def _gather(G: FiniteGroup, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The products left * right of broadcast element arrays, as one gather
    from the flat table; callers keep the broadcast shape under
    _BLOCK_ITEMS."""
    return G.mul_table.reshape(-1).take(left * G.order + right)


def _row_blocks(rows: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """rows in consecutive runs of max(1, _BLOCK_ITEMS // width) rows."""
    step = max(1, _BLOCK_ITEMS // width)
    return (rows[start:start + step] for start in range(0, len(rows), step))


def _square_until_closed(G: FiniteGroup, members: np.ndarray,
                         known: Container[bytes] = frozenset()) -> np.ndarray:
    """Sorted intp members of the subgroup generated by members (sorted
    intp, 0 among them): square until closed, or until the members are a
    subgroup in known (by member bytes)."""
    while members.tobytes() not in known:
        products = np.zeros(G.order, dtype=bool)
        for block in _row_blocks(members, len(members)):
            products[_gather(G, block[:, None], members)] = True
        if products.sum() == len(members):
            break
        members = products.nonzero()[0]
    return members


def _commutators(G: FiniteGroup, S: np.ndarray, xs: np.ndarray) -> Iterator[np.ndarray]:
    """[x, s] = x^-1 (s^-1 x s) for every x in xs and s in S, one row per s,
    in row blocks of S."""
    inv = G.inv_table
    for block in _row_blocks(S, len(xs)):
        conjugates = _gather(G, _gather(G, inv[block][:, None], xs), block[:, None])
        yield _gather(G, inv[xs], conjugates)


def _escapes(G: FiniteGroup, S: np.ndarray, codes: np.ndarray
             ) -> tuple[int, int, np.ndarray | None]:
    """Which entries S's commutators leave, with codes[x] the entries that
    hold x as bits: bit k of the first when some x in N_k has [x, s] outside
    N_k, bit i + 2 of the second when some x in N_{i+1} has [x, s] outside
    N_{i+2}. Third, the intp table of every [x, s], row s and column x, kept
    for a derived S (log_p n < n rows) but not all of G."""
    images = _commutators(G, S, np.arange(G.order))
    table = np.concatenate(list(images), dtype=np.intp) if len(S) < G.order else None
    normal = central = 0
    for image in images if table is None else (table,):
        # the entries some [x, s] of the block leaves, for each x
        left = np.bitwise_or.reduce(np.invert(codes.take(image)), axis=0)
        normal |= int(np.bitwise_or.reduce(codes & left))
        central |= int(np.bitwise_or.reduce((codes << 1) & left))
    return normal, central, table


def _underived(G: FiniteGroup, length: int) -> tuple[list[bool], None, np.ndarray]:
    """Nothing proven by induction, and all of G as S."""
    return [False] * length, None, np.arange(G.order)


def _derive(G: FiniteGroup, inside: np.ndarray, sizes: list[int],
            pp: tuple[int, int] | None, pth: np.ndarray | None
            ) -> tuple[list[bool], np.ndarray | None, np.ndarray]:
    """(proven, t_powers, S) for the chain of membership masks inside:
    proven[k] when the bottom-up induction shows N_k a subgroup, row k of
    t_powers the t_k^j for j < p, and S the chain's generating set of G, or
    all of G when the induction does not reach entry 1 or S falls short."""
    L = len(inside)
    if (pp is None or sizes[-1] != 1 or not inside[-1, 0]
            or any(sizes[k] != pp[0] * sizes[k + 1] for k in range(1, L - 1))):
        return _underived(G, L)
    p, m = pp
    n, mul, inv = G.order, G.mul_table, G.inv_table
    t_powers = np.zeros((L, p), dtype=np.int32)
    proven = [False] * (L - 1) + [True]
    S = []
    if L > 2:
        # N_k read as the x with depth[x] >= k, exact for each proven entry
        depth = inside.sum(axis=0) - 1
        ks = np.arange(1, L - 1)
        t = (inside[1:-1] > inside[2:]).argmax(axis=1)
        for j in range(1, p):
            t_powers[1:-1, j] = mul[t_powers[1:-1, j - 1], t]
        power_in = depth[pth[t]] > ks
        # t_a^-1 t_b t_a in N_{a+1} for every b > a: N_{k+1} = <t_{k+1}, ...>
        conjugates = mul[mul[inv[t][:, None], t], t[:, None]]
        normalises = ((depth[conjugates] > ks[:, None]) | (ks <= ks[:, None])).all(axis=1)
        # t_k^j N_{k+1} inside N_k, from rows of the table: it is N_{k+1} t_k^j
        # wherever t_k normalises N_{k+1}, and entry k is proven nowhere else
        cosets_in = ~((depth > ks[:, None, None])
                      & (depth.take(mul[t_powers[1:-1, 1:]]) < ks[:, None, None])).any(axis=(1, 2))
        local = (power_in & normalises & cosets_in).tolist()
        for k in reversed(range(1, L - 1)):
            proven[k] = proven[k + 1] and local[k - 1]
        S = t.tolist()
    if not proven[1]:
        return proven, t_powers, _underived(G, L)[2]
    # each s^j reached lies in <S>, so S generates G once reached is all of it
    reached = inside[1]
    for _ in range(m - (L - 2)):
        s = int(reached.argmin())
        grown, power = reached, 0
        for _ in range(p - 1):
            power = mul[power, s]
            grown = grown | reached.take(mul[inv[power]])
        reached = grown
        S.append(s)
    return proven, t_powers, np.array(S) if reached.all() else _underived(G, L)[2]


def _series(G: FiniteGroup, S: np.ndarray, pth: np.ndarray | None,
            known: Container[bytes], table: np.ndarray | None) -> list[np.ndarray]:
    """The lower exponent-p series G_j = G_{j-1}^p [G_{j-1}, G], for S a
    generating set of G: the closure of the p-th powers of G_{j-1} (pth, None
    when |G| is not a prime power) and its commutators with S (from _escapes'
    table, if it kept one), closed once. That closure H lies in G_{j-1},
    normal by induction, so for x in H and s in S, [x, s] is one of H's
    generators and x^s = x [x, s] lies in H: H is normal, and then
    [x, gh] = [x, h] [x, g]^h puts [G_{j-1}, G] in it. known holds the
    member bytes of subgroups proven closed."""
    if pth is None:
        raise NotAPGroup(f"order {G.order} is not a prime power")
    images = None if table is None else np.concatenate((table, pth[None, :]))
    series = [np.arange(G.order)]
    while len(series[-1]) > 1:
        found = np.zeros(G.order, dtype=bool)
        if images is None:
            found[pth[series[-1]]] = True
            for image in _commutators(G, S, series[-1]):
                found[image] = True
        else:
            found[images.take(series[-1], axis=1)] = True
        series.append(_square_until_closed(G, found.nonzero()[0], known))
        if len(series[-1]) >= len(series[-2]):
            raise NotAPGroup("series failed to descend")
    return series


def _power_map(G: FiniteGroup, e: int) -> np.ndarray:
    """x^e for every element x, e >= 1, by square-and-multiply over columns."""
    mul = G.mul_table
    result, square = None, np.arange(G.order)
    while e:
        if e & 1:
            result = square if result is None else mul[result, square]
        e >>= 1
        if e:
            square = mul[square, square]
    return result


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(q, a) for each prime q with q^a exactly dividing n, by trial division."""
    parts, q = [], 2
    while n > 1:
        a = 0
        while n % q == 0:
            n, a = n // q, a + 1
        if a:
            parts.append((q, a))
        q = n if q * q > n else q + 1
    return parts


def _coset_orders(G: FiniteGroup, inside: np.ndarray, pth: np.ndarray | None) -> np.ndarray:
    """Row k, for entry k a normal subgroup of G: the order of xN_k for every
    x, the product of its q-parts over each q^a exactly dividing |G|. With
    y = x^(|G|/q^a), yN_k has order the q-part, q to the count of j <= a
    with y^(q^j) outside N_k (once inside, it stays). Row j of q's ladder is
    x -> x^(q^j), row 1 pth when |G| = q^a: with rows 0..h-1 known, row
    h - 1 + j is row h - 1 applied to row j, so each take nearly doubles them."""
    n = G.order
    orders = np.ones(inside.shape, dtype=np.int32)
    for q, a in _prime_powers(n):
        ladder = np.empty((a + 1, n), dtype=np.intp)
        ladder[0], ladder[1] = np.arange(n), _power_map(G, q) if pth is None else pth
        known = 2
        while known <= a:
            ladder[known:2 * known - 1] = ladder[known - 1].take(ladder[1:min(known, a + 2 - known)])
            known = 2 * known - 1
        if q ** a < n:
            ladder = ladder.take(_power_map(G, n // q ** a), axis=1)
        q_powers = q ** np.arange(a + 1, dtype=np.int32)
        # a row takes (a + 1) n bools and two n int32 counts: (a + 9) n / 4 int32s
        for rows in _row_blocks(np.arange(len(inside)), (ladder.size + 8 * n) // 4):
            outside = a + 1 - inside[rows].T.take(ladder, axis=0).sum(axis=0, dtype=np.int32)
            orders[rows] *= q_powers.take(outside.T)
    return orders


def _labels(G: FiniteGroup, arrays: list[np.ndarray], proven: list[bool],
            t_powers: np.ndarray | None, wanted: list[int]) -> np.ndarray:
    """Row k, for each formed entry k in wanted: every element's coset label,
    the least member of x N_k. x N_j is the union of the x t_j^i N_{j+1} for
    an entry j proven bottom up, so those take their labels from the entry
    below in p lookups; any other takes the least product over the coset."""
    L = len(arrays)
    labels = np.empty((L, G.order), dtype=np.intp)
    labelled = [False] * L
    for k in sorted(wanted):
        below = k
        while not labelled[below] and proven[below] and below < L - 1:
            below += 1
        if not labelled[below]:
            for block in _row_blocks(np.arange(G.order), len(arrays[below])):
                labels[below, block] = _gather(G, block, arrays[below][:, None]).min(axis=0)
        for j in range(below - 1, k - 1, -1):
            # the least label of the x t_j^i N_{j+1}, i < p, with t_j^0 = 1
            np.minimum(labels[j + 1], labels[j + 1].take(G.mul_table[:, t_powers[j, 1]]),
                       out=labels[j])
            for t in t_powers[j, 2:]:
                np.minimum(labels[j], labels[j + 1].take(G.mul_table[:, t]), out=labels[j])
        labelled[k:below + 1] = [True] * (below + 1 - k)
    return labels


def _witness_classes(G: FiniteGroup, labels_up: np.ndarray, orders_up: np.ndarray,
                     orders_low: np.ndarray, class_reps: np.ndarray
                     ) -> list[tuple[int, int, int, bool]]:
    """(rep, order, class size, forcing) for a block of steps at once: row i
    of each (steps x n) array holds the coset labels and orders of the
    step's N_{i+1}, and the coset orders of its N_{i+2}, both formed, and
    class_reps[i] < [G:N_{i+1}]. x is the class_reps[i]-th least label of
    N_{i+1}; the class of x N_{i+1} is the labels of every g^-1 x g, the
    least its representative. Forcing asks every y labelled in the class to
    keep the order of x N_{i+1} modulo N_{i+2}."""
    steps, n = labels_up.shape
    rows = np.arange(steps)[:, None]
    everything = np.arange(n)
    # rank[i, y]: the labels up to y, so x is where rank first passes the rep
    rank = np.cumsum(labels_up == everything, axis=1, dtype=np.int32)
    x = (rank <= class_reps[:, None]).sum(axis=1, dtype=np.int32)
    # row i: g^-1 x_i g for every g
    conjugates = G.mul_table[G.mul_table[G.inv_table[:, None], x].T, everything]
    in_class = np.zeros((steps, n), dtype=bool)
    in_class[rows, labels_up[rows, conjugates]] = True
    reps = rank[rows[:, 0], in_class.argmax(axis=1)] - 1
    orders = orders_up[rows[:, 0], x]
    forcing = ~(in_class[rows, labels_up] & (orders_low != orders[:, None])).any(axis=1)
    return list(zip(*(col.tolist() for col in (reps, orders, in_class.sum(axis=1), forcing))))


def _quaternion_index(order: int, top: int, involutions: int) -> int | None:
    """The index n when a group of the given order, whose largest element
    order is top and which has the given number of involutions, is
    generalized quaternion of order 2**(n+2), else None. A non-cyclic
    2-group of order at least 8 is one exactly when it has one involution."""
    if involutions != 1 or top == order:
        return None
    parts = _prime_powers(order)
    if len(parts) != 1 or parts[0][0] != 2 or parts[0][1] < 3:
        return None
    return parts[0][1] - 2


def verify_certificate(G: FiniteGroup, cert: ForcingCertificate) -> VerificationReport:
    """Re-derive every condition a certificate claims, from scratch.

    Structural impossibilities (bad indices, shape mismatches) raise
    MalformedCertificate; every semantic condition becomes a named pass/fail
    entry in the report, recomputed from G's table alone. Quotients are never
    built: a coset xN is labelled by its least member, target index i is the
    i-th smallest label, and the order of xN is the least k with x^k in N.
    Forcing is checked over every element of every coset of the witness class.
    """
    mul, inv, n = G.mul_table, G.inv_table, G.order
    # the inverses are G's data, not the verifier's: one product each checks them
    wrong = mul[np.arange(n), inv] != 0
    if wrong.any():
        bad = int(wrong.argmax())
        raise PreconditionViolated(f"inv_table[{bad}] is not the inverse of {bad}")
    inside = _structural_check(G, cert)
    L = len(inside)
    order_of = [len(entry) for entry in cert.chain]  # distinct indices
    flat = inside.nonzero()[1]
    arrays = [flat[end - size:end] for end, size in zip(itertools.accumulate(order_of), order_of)]
    parts = _prime_powers(n)
    pp = parts[0] if len(parts) == 1 else None
    p = pp[0] if pp else None
    terminates = order_of[-1] == 1 and bool(inside[-1, 0])
    nested = not (inside[1:] > inside[:-1]).any()

    pth = None if pp is None else _power_map(G, p).astype(np.intp, copy=False)
    # row k, for formed entry k: the order of xN_k for each element x; element
    # orders are the coset orders of {1}, a terminating chain's last entry
    entries = inside if terminates else np.vstack((inside, np.arange(n) == 0))
    coset_orders = _coset_orders(G, entries, pth)
    orders, coset_orders = coset_orders[-1], coset_orders[:L]

    proven, t_powers, S = _derive(G, inside, order_of, pp, pth)
    # bit k of codes[x] when x lies in entry k
    weights = np.array([1 << k for k in range(L)], dtype=np.int64)
    normal_bits, central_bits, table = _escapes(G, S, weights @ inside)
    # an entry is formed, so that its cosets make a quotient, once it is a
    # normal subgroup (x^s = x [x, s], and S generates G); |G| distinct
    # in-range indices are G itself
    closed = [has_identity and (order_of[k] == n or proven[k] or np.array_equal(
        _square_until_closed(G, arrays[k]), arrays[k]))
        for k, has_identity in enumerate(inside[:, 0].tolist())]
    formed = [closed[k] and not normal_bits >> k & 1 for k in range(L)]
    try:
        # the terms are subgroups, so a term in the chain is a closed entry
        known = {arrays[k].tobytes() for k in range(L) if closed[k]}
        series = _series(G, S, pth, known, table)
        frattini = (arrays[1].tobytes() == series[1].tobytes(),
                    "second entry must be the Frattini subgroup")
        refines = (all(term.tobytes() in known for term in series),
                   "every series term must appear in the chain")
    except NotAPGroup as exc:
        frattini = refines = (False, str(exc))
    del table  # the largest array the verifier keeps, of no further use

    # each coset of N_k holds |N_k| elements of its order
    tops = coset_orders.max(axis=1).tolist()
    involutions = (coset_orders == 2).sum(axis=1).tolist()
    quotient_index = [_quaternion_index(n // order_of[k], tops[k], involutions[k] // order_of[k])
                      if formed[k] else None for k in range(L)]

    # every step whose witness can be read, in blocks of steps x n products
    usable = np.array([i for i, step in enumerate(cert.steps)
                       if formed[i + 1] and formed[i + 2]
                       and step.witness.class_rep < n // order_of[i + 1]], dtype=np.intp)
    labels = _labels(G, arrays, proven, t_powers, (usable + 1).tolist())
    classes = {}
    for block in _row_blocks(usable, n):
        classes.update(zip(block.tolist(), _witness_classes(
            G, labels[block + 1], coset_orders[block + 1], coset_orders[block + 2],
            np.array([cert.steps[i].witness.class_rep for i in block]))))
    # a coset y N_{i+1} meets |N_{i+1}| / |N_{i+1} & N_{i+2}| cosets of N_{i+2}:
    # y a and y b share one exactly when a^-1 b lies in both
    meets = (inside[1:-1] & inside[2:]).sum(axis=1).tolist()

    top = int(orders.max())
    detail = (f"order {n} is not a prime power" if pp is None else "group is cyclic" if top == n
              else "group is generalized quaternion"
              if _quaternion_index(n, top, int((orders == 2).sum())) is not None else "")
    checks = [
        CheckResult("group-hypotheses", not detail, detail, None),
        CheckResult("chain-full-group", order_of[0] == n, "chain must start at the whole group", None),
        CheckResult("chain-terminates", terminates, "chain must end at the trivial subgroup", None),
        CheckResult("chain-descending", nested and all(a > b for a, b in zip(order_of, order_of[1:])),
             "entries must strictly decrease", None),
    ]
    for k in range(L):
        checks.append(CheckResult("chain-closed", closed[k], f"entry of size {order_of[k]}", k))
        checks.append(CheckResult("chain-normal", formed[k], f"entry {k}" + (
            "" if closed[k] else " is not even a subgroup"), k))
    checks.append(CheckResult("chain-frattini", *frattini, None))
    checks.append(CheckResult(
        "chain-index-p", p is not None and all(order_of[k] == p * order_of[k + 1]
                                               for k in range(1, L - 1)),
        "no p: order is not a prime power" if p is None else
        f"consecutive indices must all be {p}", None))
    checks.append(CheckResult("chain-refines-series", *refines, None))
    for k, idx in enumerate(quotient_index):
        checks.append(CheckResult("quotient-non-quaternion", formed[k] and idx is None,
                           f"entry {k}: quotient could not be formed" if not formed[k] else
                           f"entry {k}" + ("" if idx is None else f": quotient is Q({idx})"), k))

    for i, step in enumerate(cert.steps):
        upper, lower = order_of[i + 1], order_of[i + 2]
        ratio = upper // lower if upper % lower == 0 else 0
        kernel_ok = (ratio == step.kernel_order == p if p is not None else
                     _prime_powers(ratio) == [(ratio, 1)] and step.kernel_order == ratio)
        checks += [
            CheckResult("step-chain-index", step.index_in_chain == i + 1,
                 f"recorded {step.index_in_chain}, expected {i + 1}", i),
            CheckResult("step-kernel-order", kernel_ok,
                 f"recorded {step.kernel_order}, actual index {ratio}", i),
            CheckResult("step-quotient-order", step.quotient_order * lower == n,
                 f"recorded {step.quotient_order}, expected {n // lower}", i),
            # [N_i, G] inside N_{i+1} makes the layer central in G/N_{i+1}. S
            # suffices: a derived S comes with every entry from 1 on a
            # subgroup, so [N_{i+2}, S] inside N_{i+2} makes that entry
            # normal, and then [x, gh] = [x, h] [x, g]^h
            CheckResult("chain-central-layer", not central_bits >> (i + 2) & 1,
                 "layer commutators must land below", i),
        ]
        if not (formed[i + 1] and formed[i + 2]):
            checks += [CheckResult(condition, False, "quotients could not be formed", i) for condition
                       in ("step-witness-class", "step-forcing", "step-quaternion-flag")]
            continue
        checks.append(CheckResult("step-quaternion-flag",
                           step.quotient_is_quaternion is False and quotient_index[i + 2] is None,
                           "recorded flag must be false and match recomputation", i))
        witness = step.witness
        if i not in classes:
            checks += [CheckResult("step-witness-class", False,
                            f"representative {witness.class_rep} out of range", i),
                       CheckResult("step-forcing", False, "witness unusable", i)]
            continue
        rep, order, size, forcing = classes[i]
        sizes = [upper // meets[i]] * size
        class_ok = (rep == witness.class_rep and order == witness.class_order
                    and tuple(witness.checked_fiber_sizes) == tuple(sizes))
        checks += [
            CheckResult("step-witness-class", class_ok,
                 f"class of {witness.class_rep}: rep {rep}, order {order}, sizes {sizes}", i),
            CheckResult("step-forcing", forcing,
                 "every fiber element over every class member must keep the class order", i),
        ]
    return VerificationReport(checks=tuple(checks))
