"""Structural predicates and profiles for finite groups."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNilpotent, PNotDividing, PreconditionViolated
from .groups import FiniteGroup, Subgroup, factorize, is_prime, prime_power, subgroup_as_group


@dataclass(frozen=True)
class PGroupProfile:
    """Summary of a p-group: |G| = p**n, nilpotency class of the exponent-p
    series (p_class), generator rank, and the special-shape flags."""

    p: int
    n: int
    p_class: int
    rank: int
    is_cyclic: bool
    quaternion_index: int | None


def is_cyclic(G: FiniteGroup) -> bool:
    return int(G.orders().max()) == G.order


def is_generalized_quaternion(G: FiniteGroup) -> int | None:
    """The index n with G isomorphic to the order-2**(n+2) generalized
    quaternion group, or None. Uses the unique-involution characterization:
    a non-cyclic 2-group with exactly one involution is generalized quaternion.
    Both facts are read from one look at the element orders."""
    pp = prime_power(G.order)
    if pp is None or pp[0] != 2 or pp[1] < 3:
        return None
    orders = G.orders()
    if int(orders.max()) == G.order or np.count_nonzero(orders == 2) != 1:
        return None
    return pp[1] - 2


def count_order_p_subgroups(G: FiniteGroup, p: int) -> int:
    """Number of subgroups of order p; each contributes p - 1 elements of order p."""
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    if G.order % p:
        raise PNotDividing(f"{p} does not divide {G.order}")
    return int((G.orders() == p).sum()) // (p - 1)


def sylow_decomposition(G: FiniteGroup) -> dict[int, Subgroup]:
    """Sylow subgroups of a nilpotent group by prime, one per prime divisor.

    In a nilpotent group the p-elements form the (normal) Sylow p-subgroup;
    anything else raises NotNilpotent. This is the package's one test of
    nilpotency.
    """
    orders = G.orders()
    factors: dict[int, Subgroup] = {}
    for p, k in sorted(factorize(G.order).items()):
        # an element order divides |G|, so it is a power of p exactly when it divides p^k
        members = (p ** k % orders == 0).nonzero()[0]
        if len(members) != p ** k:
            raise NotNilpotent(
                f"{len(members)} elements of {p}-power order, expected {p ** k}")
        try:
            sub = Subgroup(G, members)
        except PreconditionViolated:
            raise NotNilpotent(f"{p}-elements do not form a subgroup") from None
        if not G.is_normal(sub):
            raise NotNilpotent(f"Sylow {p}-subgroup is not normal")
        factors[p] = sub
    return factors


def sylow_factors(G: FiniteGroup) -> list[tuple[int, FiniteGroup]]:
    """(p, P) for each prime p dividing |G|, in order of p, with P the Sylow
    p-subgroup as a group: G itself when G is a p-group, none when G is
    trivial. NotNilpotent when G is not nilpotent."""
    pp = prime_power(G.order)
    if pp is not None:
        return [(pp[0], G)]
    return [(p, subgroup_as_group(sub)) for p, sub in sorted(sylow_decomposition(G).items())]


def p_group_profile(G: FiniteGroup) -> PGroupProfile:
    p = G.prime()
    return PGroupProfile(
        p=p,
        n=prime_power(G.order)[1],
        p_class=G.p_class(),
        rank=G.generator_rank(),
        is_cyclic=is_cyclic(G),
        quaternion_index=is_generalized_quaternion(G),
    )
