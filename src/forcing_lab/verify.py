"""Independent verification of forcing certificates.

verify_certificate re-checks every condition a certificate claims from
scratch, and the forcing property over every class member by brute force.
Of G it reads only mul_table, order and inv_table, whose inverses it checks,
and of groups.py it runs only prime_power and is_prime (tests/test_verify.py
holds it to that).

The chain N_0 > N_1 > ... > N_{L-1} is proven bottom up when |G| = p^m, each
entry holds the next, from entry 1 on each has p times the elements of the
next, and the last is {1}. With t_k the least member of N_k outside N_{k+1},
N_k is a subgroup once N_{k+1} is one, t_k^p lies in N_{k+1}, t_k normalises
N_{k+1} (checked on its generators t_{k+1}, ..., t_{L-2}), and N_{k+1} t_k^j
lies in N_k for j < p: those p cosets are distinct, so they fill it. The t_k
and the least elements s that take N_1's running union M <- U_j M s^j to
all of G within log_p [G:N_1] steps make a set S of log_p |G| elements that
provably generates G. Normality and central layers are then checked on
commutators with S (x^s = x [x, s], and [x, gh] = [x, h] [x, g]^h), the
exponent-p series is closed under conjugation by S, a coset label comes
from the entry below in p lookups, and element and coset orders from one
table of p-power maps. _derive is the one place that reads the chain this
way. The witnesses of all steps are checked together, on (steps x n)
arrays of labels and coset orders. What it does not prove falls back, condition by condition, to all of
G: closure by squaring, commutators with every element and labels as the
least product over a whole coset, so every verdict and detail is the same
either way. Every gather of n x |N| products or more is one flat take from
the table per row block of at most _BLOCK_ITEMS int32 products.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import MalformedCertificate, NotAPGroup, PreconditionViolated
from .groups import is_prime, prime_power

if TYPE_CHECKING:
    from collections.abc import Callable, Container, Iterator

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


def _structural_check(G: FiniteGroup, cert: ForcingCertificate) -> np.ndarray:
    """The chain's membership masks, one row per entry, once every entry is
    a non-empty set of in-range int indices and the steps fit the chain."""
    chain = cert.chain
    if len(chain) < 2:
        raise MalformedCertificate("chain needs at least the whole group and the trivial subgroup")
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
            if inside.sum() != len(indices):
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
    if len(cert.steps) != len(chain) - 2:
        raise MalformedCertificate(
            f"{len(cert.steps)} steps do not match a chain of {len(chain)} entries")
    for i, step in enumerate(cert.steps):
        if step.witness is None:
            raise MalformedCertificate(f"step {i} lacks a witness")
        if type(step.witness.class_rep) is not int:
            raise MalformedCertificate(f"step {i} witness representative is not an int")
        if not 0 <= step.witness.class_rep:
            raise MalformedCertificate(f"step {i} witness representative is negative")
    return inside


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


def _square_until_closed(G: FiniteGroup, members: np.ndarray,
                         known: Container[bytes] = frozenset()) -> np.ndarray:
    """Sorted int32 members of the subgroup generated by members (sorted
    int32, 0 among them): square until closed, or until the members are a
    subgroup in known (by member bytes)."""
    while members.tobytes() not in known:
        products = np.zeros(G.order, dtype=bool)
        for block in _row_blocks(members, len(members)):
            products[_gather(G, block[:, None], members)] = True
        if products.sum() == len(members):
            break
        members = np.flatnonzero(products).astype(np.int32)
    return members


def _commutators(G: FiniteGroup, S: np.ndarray, xs: np.ndarray) -> Iterator[np.ndarray]:
    """[x, s] = x^-1 (s^-1 x s) for every x in xs and s in S, one row per s,
    in row blocks of S."""
    inv = G.inv_table
    for block in _row_blocks(S, len(xs)):
        conjugates = _gather(G, _gather(G, inv[block][:, None], xs), block[:, None])
        yield _gather(G, inv[xs], conjugates)


def _escapes(G: FiniteGroup, S: np.ndarray, codes: np.ndarray
             ) -> tuple[int, int, np.ndarray]:
    """Which entries S's commutators leave, with codes[x] the entries that
    hold x as bits: bit k of the first when some x in N_k has [x, s] outside
    N_k, bit i + 2 of the second when some x in N_{i+1} has [x, s] outside
    N_{i+2}. Third, the mask of every [x, s], x in G, the lower exponent-p
    series' first commutators."""
    normal = central = 0
    reached = np.zeros(G.order, dtype=bool)
    everything = np.arange(G.order, dtype=np.int32)
    for image in _commutators(G, S, everything):
        reached[image] = True
        outside = np.invert(codes[image])
        normal |= int(np.bitwise_or.reduce(codes & outside, axis=None))
        central |= int(np.bitwise_or.reduce((codes << 1) & outside, axis=None))
    return normal, central, reached


def _underived(G: FiniteGroup, length: int) -> tuple[list[bool], None, np.ndarray]:
    """Nothing proven by induction, and all of G as S."""
    return [False] * length, None, np.arange(G.order, dtype=np.int32)


def _derive(G: FiniteGroup, inside: np.ndarray, sizes: list[int], nested: bool,
            pp: tuple[int, int] | None, pth: np.ndarray | None
            ) -> tuple[list[bool], np.ndarray | None, np.ndarray]:
    """(proven, t_powers, S) for the chain of membership masks inside:
    proven[k] when the bottom-up induction shows N_k a subgroup, row k of
    t_powers the t_k^j for j < p, and S the chain's generating set of G, or
    all of G when the induction does not reach entry 1 or S falls short."""
    L = len(inside)
    if (pp is None or not nested or sizes[-1] != 1 or not inside[-1, 0]
            or any(sizes[k] != pp[0] * sizes[k + 1] for k in range(1, L - 1))):
        return _underived(G, L)
    p, m = pp
    n, mul, inv = G.order, G.mul_table, G.inv_table
    t_powers = np.zeros((L, p), dtype=np.int32)
    proven = [False] * (L - 1) + [True]
    S = []
    if L > 2:
        # x lies in N_k exactly when depth[x] >= k, so the n - |N_k| first
        # elements by depth are those outside N_k, and the next is t_k
        depth = inside.sum(axis=0) - 1
        ks = np.arange(1, L - 1)
        t = np.argsort(depth, kind="stable")[[n - sizes[k] for k in range(1, L - 1)]]
        for j in range(1, p):
            t_powers[1:-1, j] = mul[t_powers[1:-1, j - 1], t]
        power_in = depth[pth[t]] > ks
        # t_a^-1 t_b t_a in N_{a+1} for every b > a: N_{k+1} = <t_{k+1}, ...>
        conjugates = mul[mul[inv[t][:, None], t], t[:, None]]
        normalises = ((depth[conjugates] > ks[:, None]) | (ks <= ks[:, None])).all(axis=1)
        # N_{k+1} t_k^j inside N_k
        cosets_in = ~((depth[:, None, None] > ks[:, None])
                      & (depth[mul[:, t_powers[1:-1, 1:]]] < ks[:, None])).any(axis=(0, 2))
        local = (power_in & normalises & cosets_in).tolist()
        for k in reversed(range(1, L - 1)):
            proven[k] = proven[k + 1] and local[k - 1]
        S = t.tolist()
    if not proven[1]:
        return proven, t_powers, _underived(G, L)[2]
    reached = inside[1].copy()
    for _ in range(m - (L - 2)):
        s = int(np.argmin(reached))
        s_powers = [s]
        for _ in range(p - 2):
            s_powers.append(int(mul[s_powers[-1], s]))
        reached[mul[np.flatnonzero(reached)[:, None], s_powers]] = True
        S.append(s)
    if not reached.all():
        return proven, t_powers, _underived(G, L)[2]
    return proven, t_powers, np.array(S, dtype=np.int32)


def _series(G: FiniteGroup, S: np.ndarray, pth: np.ndarray | None,
            known: dict[bytes, bool], commutators: np.ndarray) -> list[np.ndarray]:
    """The lower exponent-p series G_j = G_{j-1}^p [G_{j-1}, G], for S a
    generating set of G: the closure of the p-th powers of G_{j-1} and its
    commutators with S (pth: the p-th power map; commutators: the mask of
    those of G_0 = G), closed again under conjugation by S until it stops
    growing. known maps the member bytes of subgroups already proven closed
    to whether they are proven normal."""
    pp = prime_power(G.order)
    if pp is None:
        raise NotAPGroup(f"order {G.order} is not a prime power")
    series = [np.arange(G.order, dtype=np.int32)]
    found = commutators.copy()
    while len(series[-1]) > 1:
        current = series[-1]
        if len(series) > 1:
            found = np.zeros(G.order, dtype=bool)
            for image in _commutators(G, S, current):
                found[image] = True
        found[pth[current]] = True
        while True:
            term = _square_until_closed(G, np.flatnonzero(found).astype(np.int32), known)
            if known.get(term.tobytes()):
                break
            found[term] = True
            # x^s = x [x, s]
            for image in _commutators(G, S, term):
                found[image] = True
            if found.sum() == len(term):
                break
        series.append(term)
        if len(term) >= len(current):
            raise NotAPGroup("series failed to descend")
    return series


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


def _witness_classes(G: FiniteGroup, labels_up: np.ndarray, orders_up: np.ndarray,
                     orders_low: np.ndarray, class_reps: np.ndarray
                     ) -> list[tuple[int, int, int, bool]]:
    """(rep, order, class size, forcing) for a block of steps at once: row i
    of each (steps x n) array holds the coset labels and coset orders of the
    step's N_{i+1}, and the coset orders of its N_{i+2}, both formed, and
    class_reps[i] is below [G:N_{i+1}]. x is the class_reps[i]-th least
    label of N_{i+1}, and the class of x N_{i+1} is the labels of g^-1 x g
    over every g in G, the least one its representative. A class coset
    c N_{i+1} is the y labelled c, and forcing asks every such y to keep
    the order of x N_{i+1} modulo N_{i+2}."""
    steps, n = labels_up.shape
    rows = np.arange(steps, dtype=np.int32)
    everything = np.arange(n, dtype=np.int32)
    # rank[i, y]: the labels up to y, so x is where rank first passes the rep
    rank = np.cumsum(labels_up == everything, axis=1, dtype=np.int32)
    x = (rank <= class_reps[:, None]).sum(axis=1, dtype=np.int32)
    conjugates = _gather(G, _gather(G, G.inv_table[None, :], x[:, None]), everything)
    # labels as flat indices of (steps x n) arrays, row i's offset by i n
    flat = labels_up + n * rows[:, None]
    in_class = np.zeros(steps * n, dtype=bool)
    in_class[np.take(flat, conjugates + n * rows[:, None])] = True
    reps = rank[rows, in_class.reshape(steps, n).argmax(axis=1)] - 1
    orders = orders_up[rows, x]
    forcing = ~(in_class[flat] & (orders_low != orders[:, None])).any(axis=1)
    return list(zip(reps.tolist(), orders.tolist(),
                    in_class.reshape(steps, n).sum(axis=1).tolist(), forcing.tolist()))


def _quaternion_index(order: int, top: int, involutions: int) -> int | None:
    """The index n when a group of the given order, whose largest element
    order is top and which has the given number of involutions, is
    generalized quaternion of order 2**(n+2), else None. A non-cyclic
    2-group of order at least 8 is one exactly when it has one involution."""
    pp = prime_power(order)
    if pp is None or pp[0] != 2 or pp[1] < 3 or top == order or involutions != 1:
        return None
    return pp[1] - 2


def verify_certificate(G: FiniteGroup, cert: ForcingCertificate) -> VerificationReport:
    """Re-derive every condition a certificate claims, from scratch.

    Structural impossibilities (bad indices, shape mismatches) raise
    MalformedCertificate; every semantic condition becomes a named pass/fail
    entry in the report. Group-theoretic facts are recomputed from G's table
    alone, independently of the builder: element orders from p-th powers,
    closure bottom up or by squaring, normality, centrality and the
    exponent-p series from commutators with a generating set the chain
    yields (or with all of G), and the series' Frattini term. Quotients are
    never built: a coset xN is labelled by its least member, target index i
    is the i-th smallest label, and the order of xN is the least k with x^k
    in N. Forcing is checked over every element of every coset of the
    witness class.
    """
    mul, inv = G.mul_table, G.inv_table
    n = G.order
    # the inverses are G's data, not the verifier's: one product each checks them
    bad = np.flatnonzero(mul[np.arange(n), inv] != 0)
    if len(bad):
        raise PreconditionViolated(f"inv_table[{bad[0]}] is not the inverse of {bad[0]}")
    inside = _structural_check(G, cert)
    L = len(inside)
    order_of = inside.sum(axis=1).tolist()
    flat = (np.flatnonzero(inside) % n).astype(np.int32)
    ends = list(itertools.accumulate(order_of))
    arrays = [flat[end - size:end] for end, size in zip(ends, order_of)]
    checks: list[CheckResult] = []
    pp = prime_power(n)
    p = pp[0] if pp else None
    # row j holds x^(p^j): the order of xN in a p-group is the least such
    # p^j in N
    pth = ladder = None
    if pp is not None:
        pth = _power_map(G, p)
        ladder = np.empty((pp[1] + 1, n), dtype=np.intp)
        ladder[0] = np.arange(n)
        for j in range(pp[1]):
            ladder[j + 1] = pth[ladder[j]]
        p_powers = p ** np.arange(pp[1] + 1, dtype=np.int32)

    detail = ""
    if pp is None:
        detail = f"order {n} is not a prime power"
    else:
        orders = p_powers[(ladder == 0).argmax(axis=0)]
        top = int(orders.max())
        if top == n:
            detail = "group is cyclic"
        elif _quaternion_index(n, top, int((orders == 2).sum())) is not None:
            detail = "group is generalized quaternion"
    checks.append(CheckResult("group-hypotheses", not detail, detail))

    checks.append(CheckResult("chain-full-group", order_of[0] == n,
                              "chain must start at the whole group"))
    checks.append(CheckResult("chain-terminates", order_of[-1] == 1 and bool(inside[-1, 0]),
                              "chain must end at the trivial subgroup"))
    nested = not (inside[1:] & ~inside[:-1]).any()
    descending = nested and all(a > b for a, b in zip(order_of, order_of[1:]))
    checks.append(CheckResult("chain-descending", descending,
                              "entries must strictly decrease"))

    proven, t_powers, S = _derive(G, inside, order_of, nested, pp, pth)
    everything = np.arange(n, dtype=np.int32)
    # bit k of codes[x] when x lies in entry k
    weights = np.array([1 << k for k in range(L)], dtype=np.int64 if L < 62 else object)
    codes = weights @ inside
    normal_bits, central_bits, commutators = _escapes(G, S, codes)
    # an entry is formed, so that its cosets make a quotient, once it is a
    # normal subgroup
    closed, formed = [], []
    for k, members in enumerate(arrays):
        # |G| distinct in-range indices are G itself
        closed.append(bool(inside[k, 0]) and (order_of[k] == n or proven[k] or np.array_equal(
            _square_until_closed(G, members), members)))
        checks.append(CheckResult("chain-closed", closed[k],
                                  f"entry of size {order_of[k]}", step=k))
        # x^s = x [x, s], and S generates G
        formed.append(closed[k] and not normal_bits >> k & 1)
        checks.append(CheckResult("chain-normal", formed[k], f"entry {k}" + (
            "" if closed[k] else " is not even a subgroup"), step=k))
    known = {arrays[k].tobytes(): formed[k] for k in range(L) if closed[k]}
    try:
        series = _series(G, S, pth, known, commutators)
        checks.append(CheckResult("chain-frattini", np.array_equal(arrays[1], series[1]),
                                  "second entry must be the Frattini subgroup"))
    except NotAPGroup as exc:
        series = None
        series_error = str(exc)
        checks.append(CheckResult("chain-frattini", False, series_error))
    if p is not None:
        index_ok = all(order_of[k] == p * order_of[k + 1] for k in range(1, L - 1))
        checks.append(CheckResult("chain-index-p", index_ok,
                                  f"consecutive indices must all be {p}"))
    else:
        checks.append(CheckResult("chain-index-p", False, "no p: order is not a prime power"))
    if series is None:
        checks.append(CheckResult("chain-refines-series", False, series_error))
    else:
        chain_bytes = {members.tobytes() for members in arrays}
        refines = all(term.tobytes() in chain_bytes for term in series)
        checks.append(CheckResult("chain-refines-series", refines,
                                  "every series term must appear in the chain"))

    # row k, for formed entry k: the order of xN_k for each element x
    coset_orders = np.zeros((L, n), dtype=np.int32)
    if ladder is not None:
        # a row takes (m + 1) n bools and its argmax n intp: (m + 9) n / 4 int32s
        for rows in _row_blocks(np.arange(L), (ladder.size + 8 * n) // 4):
            coset_orders[rows] = p_powers[inside[rows][:, ladder].argmax(axis=1)]
    else:
        for k in np.flatnonzero(formed):
            coset_orders[k] = _coset_orders(G, inside[k], functools.partial(_power_map, G))
    # each coset of N_k holds |N_k| elements of its order
    tops = coset_orders.max(axis=1).tolist()
    involutions = (coset_orders == 2).sum(axis=1).tolist()

    # row k, once labelled: each element's coset label, the least member of
    # x N_k. Only the steps' upper entries need them
    labels = np.empty((L, n), dtype=np.int32)
    labelled = [False] * L

    def label(k: int) -> None:
        """Fill row k of labels, for formed entry k. x N_j is the union of
        the x t_j^i N_{j+1} for an entry j proven bottom up, so those take
        their labels from the entry below."""
        below = k
        while not labelled[below] and proven[below] and below < L - 1:
            below += 1
        if not labelled[below]:
            for block in _row_blocks(everything, order_of[below]):
                labels[below, block] = _gather(G, block[:, None], arrays[below]).min(axis=1)
        for j in range(below - 1, k - 1, -1):
            labels[j] = labels[j + 1][mul[:, t_powers[j]]].min(axis=1)
        labelled[k:below + 1] = [True] * (below + 1 - k)

    quotient_index: list[int | None] = []
    for k in range(L):
        if not formed[k]:
            quotient_index.append(None)
            checks.append(CheckResult("quotient-non-quaternion", False,
                                      f"entry {k}: quotient could not be formed",
                                      step=k))
            continue
        idx = _quaternion_index(n // order_of[k], tops[k], involutions[k] // order_of[k])
        quotient_index.append(idx)
        checks.append(CheckResult("quotient-non-quaternion", idx is None,
                                  f"entry {k}" + ("" if idx is None else
                                                  f": quotient is Q({idx})"),
                                  step=k))

    # every step whose witness can be read, in blocks of steps x n products
    usable = np.array([i for i, step in enumerate(cert.steps)
                       if formed[i + 1] and formed[i + 2]
                       and step.witness.class_rep < n // order_of[i + 1]], dtype=np.intp)
    for i in usable.tolist():
        label(i + 1)
    classes = {}
    for block in _row_blocks(usable, n):
        classes.update(zip(block.tolist(), _witness_classes(
            G, labels[block + 1], coset_orders[block + 1], coset_orders[block + 2],
            np.array([cert.steps[i].witness.class_rep for i in block]))))
    # a coset y N_{i+1} meets |N_{i+1}| / |N_{i+1} & N_{i+2}| cosets of N_{i+2}:
    # y a and y b share one exactly when a^-1 b lies in both
    meets = (inside[1:-1] & inside[2:]).sum(axis=1).tolist()

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
            step.quotient_order * len(lower) == n,
            f"recorded {step.quotient_order}, expected {n // len(lower)}", step=i))

        # [N_i, G] inside N_{i+1} makes the layer central in G/N_{i+1}. S
        # suffices: a derived S comes with every entry from 1 on a subgroup,
        # so [N_{i+2}, S] inside N_{i+2} makes that entry normal, and then
        # [x, gh] = [x, h] [x, g]^h
        checks.append(CheckResult("chain-central-layer", not central_bits >> (i + 2) & 1,
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
        if i not in classes:
            checks.append(CheckResult("step-witness-class", False,
                                      f"representative {witness.class_rep} out of range",
                                      step=i))
            checks.append(CheckResult("step-forcing", False, "witness unusable", step=i))
            continue
        rep, order, size, forcing = classes[i]
        sizes = [order_of[i + 1] // meets[i]] * size
        class_ok = (rep == witness.class_rep
                    and order == witness.class_order
                    and tuple(witness.checked_fiber_sizes) == tuple(sizes))
        checks.append(CheckResult(
            "step-witness-class", class_ok,
            f"class of {witness.class_rep}: rep {rep}, order {order}, sizes {sizes}",
            step=i))
        checks.append(CheckResult(
            "step-forcing", forcing,
            "every fiber element over every class member must keep the class order",
            step=i))
    return VerificationReport(checks=tuple(checks))
