"""Built-in group constructions and the standing corpus used by sweeps.

Presets build concrete permutation realizations, each generator's image row
computed by numpy arithmetic on the points. Degrees are kept small:
cyclic and dihedral groups act naturally, the two-generator 2-group families
act on Z/2^(k-1) by translation and multiplication, quaternion groups act on
themselves, and the Heisenberg-type groups act affinely on F_p vectors.
Cyclic groups and their products are built by table arithmetic, the others
by from_generators. Each preset first checks its arguments and computes its
order from them, so a group past the cap is refused before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Sequence

import numpy as np

from .errors import GroupSpecError, OrderCapExceeded
from .groups import (
    DEFAULT_ORDER_CAP,
    PRIME_TEST_LIMIT,
    FiniteGroup,
    direct_product,
    from_generators,
    is_prime,
)


def _power(p: int, r: int) -> int:
    """p**r for p >= 2, with r clamped at 64: past any table that fits in
    memory, without building a huge integer."""
    return p ** min(r, 64)


def _not_prime(p: int) -> bool:
    """Whether a preset's prime argument p is refused as not prime. A p past
    the exact prime test gives an order past any cap a table fits under, so
    it is left untested, for the cap check to refuse."""
    return p < PRIME_TEST_LIMIT and not is_prime(p)


def _cyclic_order(k: int) -> int:
    if k < 1:
        raise GroupSpecError("Cyclic(k) needs k >= 1")
    return k


def _cyclic(k: int, cap: int) -> FiniteGroup:
    """Z/k by arithmetic, x^i x^j = x^(i+j mod k). The group acts on itself
    by right multiplication: x is the k-cycle a -> a + 1 mod k, and x^i sends
    a to a + i, as from_generators would index it."""
    i = np.arange(k, dtype=np.int32)
    table = i[:, None] + i
    table %= k
    return FiniteGroup(table, [1 % k])


def _elem_abelian_order(p: int, r: int) -> int:
    if _not_prime(p):
        raise GroupSpecError("ElemAbelian(p, r) needs p prime")
    if r < 1:
        raise GroupSpecError("ElemAbelian(p, r) needs r >= 1")
    return _power(p, r)


def _elem_abelian(p: int, r: int, cap: int) -> FiniteGroup:
    return direct_product([_cyclic(p, cap)] * r, cap)


def _abelian_order(ks: Sequence[int]) -> int:
    if not ks:
        raise GroupSpecError("Abelian(k1, ...) needs at least one factor")
    if any(k < 1 for k in ks):
        raise GroupSpecError("Abelian factors must be >= 1")
    return prod(ks)


def _abelian(ks: Sequence[int], cap: int) -> FiniteGroup:
    return direct_product([_cyclic(k, cap) for k in ks], cap)


def _dihedral_order(m: int) -> int:
    if m < 4 or m % 2:
        raise GroupSpecError("Dihedral(m) needs even m >= 4")
    return m


def _dihedral(m: int, cap: int) -> FiniteGroup:
    k = m // 2
    if k == 2:
        return from_generators([[1, 0, 2, 3], [0, 1, 3, 2]], 4, cap)
    i = np.arange(k)
    return from_generators([(i + 1) % k, -i % k], k, cap)


def _gen_quaternion_order(n: int) -> int:
    if n < 1:
        raise GroupSpecError("GenQuaternion(n) needs n >= 1")
    return _power(2, n + 2)


def _gen_quaternion(n: int, cap: int) -> FiniteGroup:
    """Q(n) of order 2**(n+2), acting on itself by right multiplication.

    Points encode x^i y^j as i + m*j with m = 2**(n+1); y^2 = x^(2**n) and
    y^-1 x y = x^-1.
    """
    m = 2 ** (n + 1)
    i = np.arange(m)
    x_images = np.concatenate([(i + 1) % m, (i - 1) % m + m])
    y_images = np.concatenate([i + m, (i + m // 2) % m])
    return from_generators([x_images, y_images], 2 * m, cap)


def _two_generator_order(name: str) -> Callable[[int], int]:
    def order(m: int) -> int:
        if m < 16 or m & (m - 1):
            raise GroupSpecError(f"{name}(m) needs m a power of 2, m >= 16")
        return m
    return order


def _two_generator_metacyclic(order: int, multiplier_offset: int, cap: int) -> FiniteGroup:
    half = order // 2
    a = (half // 2 + multiplier_offset) % half
    i = np.arange(half)
    return from_generators([(i + 1) % half, a * i % half], half, cap)


def _semidihedral(order: int, cap: int) -> FiniteGroup:
    return _two_generator_metacyclic(order, -1, cap)


def _modular_maximal_cyclic(order: int, cap: int) -> FiniteGroup:
    return _two_generator_metacyclic(order, +1, cap)


def _heisenberg_order(p: int) -> int:
    if _not_prime(p):
        raise GroupSpecError("Heisenberg(p) needs p prime")
    return p ** 3


def _heisenberg(p: int, cap: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over F_p, acting affinely on F_p^2: the
    point u p + v is (u, v)."""
    u, v = np.divmod(np.arange(p * p), p)
    x_images = (u + v) % p * p + v
    y_images = u * p + (v + 1) % p
    return from_generators([x_images, y_images], p * p, cap)


def _extraspecial_order(p: int, m: int) -> int:
    if _not_prime(p) or p == 2:
        raise GroupSpecError("Extraspecial(p, m) needs p an odd prime")
    if m < 1:
        raise GroupSpecError("Extraspecial(p, m) needs m >= 1")
    return _power(p, 2 * m + 1)


def _extraspecial(p: int, m: int, cap: int) -> FiniteGroup:
    """Exponent-p extraspecial group of order p**(2m+1), odd p, acting
    affinely on F_p^(m+1): the point with base-p digits u, v_0, ..., v_(m-1),
    most significant first, is (u, v). Axis k gives x_k: u -> u + v_k and
    y_k: v_k -> v_k + 1."""
    top = p ** m
    points = np.arange(p * top)
    u = points // top
    gens = []
    for axis in range(m):
        w = p ** (m - 1 - axis)
        v = points // w % p
        gens += [points + ((u + v) % p - u) * top, points + ((v + 1) % p - v) * w]
    return from_generators(gens, p * top, cap)


PRESETS: dict[str, tuple[Callable[..., int], Callable[..., FiniteGroup], int, int, str]] = {
    # name: (order, which checks the arguments and computes the order from
    # them; builder taking (*args, cap); min arity; max arity; signature doc)
    "Cyclic": (_cyclic_order, _cyclic, 1, 1, "Cyclic(k): cyclic group of order k"),
    "ElemAbelian": (_elem_abelian_order, _elem_abelian, 2, 2, "ElemAbelian(p, r): (Z/p)^r"),
    "Abelian": (_abelian_order, _abelian, 1, 16,
                "Abelian(k1, ..., kt): product of cyclic groups"),
    "Dihedral": (_dihedral_order, _dihedral, 1, 1,
                 "Dihedral(m): dihedral group of order m (even m >= 4)"),
    "GenQuaternion": (_gen_quaternion_order, _gen_quaternion, 1, 1,
                      "GenQuaternion(n): order 2^(n+2), unique involution"),
    "SemiDihedral": (_two_generator_order("SemiDihedral"), _semidihedral, 1, 1,
                     "SemiDihedral(m): order m = 2^k >= 16"),
    "ModularMaximalCyclic": (_two_generator_order("ModularMaximalCyclic"),
                             _modular_maximal_cyclic, 1, 1,
                             "ModularMaximalCyclic(m): order m = 2^k >= 16"),
    "Heisenberg": (_heisenberg_order, _heisenberg, 1, 1,
                   "Heisenberg(p): unitriangular 3x3 over F_p, order p^3"),
    "Extraspecial": (_extraspecial_order, _extraspecial, 2, 2,
                     "Extraspecial(p, m): exponent-p extraspecial, order p^(2m+1), odd p"),
}


def build_preset(name: str, args: Sequence[int], cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise GroupSpecError(f"unknown preset {name!r}; known presets: {known}")
    order, builder, lo, hi, _ = PRESETS[name]
    if not lo <= len(args) <= hi:
        raise GroupSpecError(f"{name} takes {lo}"
                             + (f"..{hi}" if hi != lo else "") + " arguments")
    call = (tuple(args),) if name == "Abelian" else tuple(args)
    if order(*call) > cap:
        raise OrderCapExceeded(cap)
    group = builder(*call, cap)
    group.spec = f"preset:{name}({','.join(str(a) for a in args)})"
    return group


@dataclass(frozen=True)
class CatalogEntry:
    """One corpus group: a name, the group spec that realizes it, and notes."""

    name: str
    spec: str
    notes: str = ""


# Order 16 with exactly one Frattini-refinement candidate whose quotient is
# generalized quaternion. It is the third in canonical order, so the
# builder's first candidate passes the quaternion screen.
TWISTED_C4_SPEC = "perm:8:(0 1 2 3),(1 3)(4 5 6 7)"


def catalog_entries() -> tuple[CatalogEntry, ...]:
    return (
        CatalogEntry("Cyclic(6)", "preset:Cyclic(6)", "smallest nontrivial non-p-group"),
        CatalogEntry("Cyclic(8)", "preset:Cyclic(8)", "cyclic 2-group; no forcing sequence"),
        CatalogEntry("ElemAbelian(2,2)", "preset:ElemAbelian(2,2)", "Klein four group"),
        CatalogEntry("ElemAbelian(3,2)", "preset:ElemAbelian(3,2)", "rank-2 base case, p=3"),
        CatalogEntry("Abelian(4,2)", "preset:Abelian(4,2)", "smallest non-elementary abelian 2-group"),
        CatalogEntry("Dihedral(8)", "preset:Dihedral(8)", "one-step forcing sequence"),
        CatalogEntry("GenQuaternion(1)", "preset:GenQuaternion(1)", "Q8; excluded by hypothesis"),
        CatalogEntry("GenQuaternion(2)", "preset:GenQuaternion(2)", "order 16, unique involution"),
        CatalogEntry("SemiDihedral(16)", "preset:SemiDihedral(16)", "five involutions"),
        CatalogEntry("ModularMaximalCyclic(16)", "preset:ModularMaximalCyclic(16)", ""),
        CatalogEntry("Heisenberg(3)", "preset:Heisenberg(3)", "order 27, class 2, rank 2"),
        CatalogEntry("Extraspecial(3,2)", "preset:Extraspecial(3,2)", "order 243, exponent 3"),
        CatalogEntry("TwistedC4xC4", TWISTED_C4_SPEC,
                     "C4:C4; one refinement candidate has a quaternion quotient"),
        CatalogEntry("Q8xC3", "product:preset:GenQuaternion(1)|preset:Cyclic(3)",
                     "nilpotent, Sylow-2 quaternion"),
        CatalogEntry("HeisxV25", "product:preset:Heisenberg(3)|preset:ElemAbelian(5,2)",
                     "two admissible Sylow factors"),
    )


def _abelian_partitions(total: int) -> list[tuple[int, ...]]:
    """Partitions of `total` with at least two parts, descending, reverse-lex order."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, most: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            if len(prefix) >= 2:
                out.append(prefix)
            return
        for part in range(min(most, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(total, total, ())
    return out


def two_group_specs(max_order: int = 64) -> tuple[tuple[str, str], ...]:
    """Named spec strings for the standing corpus of 2-groups up to max_order."""
    out: list[tuple[str, str]] = []
    k = 1
    while 2 ** k <= max_order:
        out.append((f"Cyclic({2 ** k})", f"preset:Cyclic({2 ** k})"))
        k += 1
    s = 2
    while 2 ** s <= max_order:
        for partition in _abelian_partitions(s):
            ks = ",".join(str(2 ** part) for part in partition)
            out.append((f"Abelian({ks})", f"preset:Abelian({ks})"))
        s += 1
    for family, start in (("Dihedral", 8), ("GenQuaternion", None),
                          ("SemiDihedral", 16), ("ModularMaximalCyclic", 16)):
        if family == "GenQuaternion":
            n = 1
            while 2 ** (n + 2) <= max_order:
                out.append((f"GenQuaternion({n})", f"preset:GenQuaternion({n})"))
                n += 1
            continue
        m = start
        while m <= max_order:
            out.append((f"{family}({m})", f"preset:{family}({m})"))
            m *= 2
    if 16 <= max_order:
        out.append(("TwistedC4xC4", TWISTED_C4_SPEC))
    products = (
        ("Q8xC2", "product:preset:GenQuaternion(1)|preset:Cyclic(2)", 16),
        ("D4xC2", "product:preset:Dihedral(8)|preset:Cyclic(2)", 16),
        ("Q8xC4", "product:preset:GenQuaternion(1)|preset:Cyclic(4)", 32),
        ("Q8xV4", "product:preset:GenQuaternion(1)|preset:ElemAbelian(2,2)", 32),
        ("Q8xC2xC2", "product:preset:GenQuaternion(1)|preset:Cyclic(2)|preset:Cyclic(2)", 32),
        ("D4xC4", "product:preset:Dihedral(8)|preset:Cyclic(4)", 32),
        ("D4xV4", "product:preset:Dihedral(8)|preset:ElemAbelian(2,2)", 32),
        ("D8xC2", "product:preset:Dihedral(16)|preset:Cyclic(2)", 32),
        ("Q16xC2", "product:preset:GenQuaternion(2)|preset:Cyclic(2)", 32),
        ("SD16xC2", "product:preset:SemiDihedral(16)|preset:Cyclic(2)", 32),
        ("M16xC2", "product:preset:ModularMaximalCyclic(16)|preset:Cyclic(2)", 32),
        ("TwistxC2", f"product:{TWISTED_C4_SPEC}|preset:Cyclic(2)", 32),
        ("Q8xQ8", "product:preset:GenQuaternion(1)|preset:GenQuaternion(1)", 64),
        ("Q8xD4", "product:preset:GenQuaternion(1)|preset:Dihedral(8)", 64),
        ("D4xD4", "product:preset:Dihedral(8)|preset:Dihedral(8)", 64),
        ("Q16xC4", "product:preset:GenQuaternion(2)|preset:Cyclic(4)", 64),
        ("SD16xV4", "product:preset:SemiDihedral(16)|preset:ElemAbelian(2,2)", 64),
        ("M16xC4", "product:preset:ModularMaximalCyclic(16)|preset:Cyclic(4)", 64),
        ("D8xC4", "product:preset:Dihedral(16)|preset:Cyclic(4)", 64),
        ("SD32xC2", "product:preset:SemiDihedral(32)|preset:Cyclic(2)", 64),
    )
    for name, spec, order in products:
        if order <= max_order:
            out.append((name, spec))
    return tuple(out)


def p_group_specs(max_order: int = 256) -> tuple[tuple[str, str], ...]:
    """Named spec strings for the standing corpus of p-groups up to max_order."""
    out = list(two_group_specs(max_order))
    for p in (3, 5, 7, 11):
        k = 1
        while p ** k <= max_order:
            out.append((f"Cyclic({p ** k})", f"preset:Cyclic({p ** k})"))
            k += 1
        s = 2
        while p ** s <= max_order:
            for partition in _abelian_partitions(s):
                ks = ",".join(str(p ** part) for part in partition)
                out.append((f"Abelian({ks})", f"preset:Abelian({ks})"))
            s += 1
    for name, spec, order in (
        ("Heisenberg(3)", "preset:Heisenberg(3)", 27),
        ("Heisenberg(5)", "preset:Heisenberg(5)", 125),
        ("Extraspecial(3,1)", "preset:Extraspecial(3,1)", 27),
        ("Extraspecial(3,2)", "preset:Extraspecial(3,2)", 243),
        ("Extraspecial(5,1)", "preset:Extraspecial(5,1)", 125),
        ("Heis3xC3", "product:preset:Heisenberg(3)|preset:Cyclic(3)", 81),
        ("Heis3xC9", "product:preset:Heisenberg(3)|preset:Cyclic(9)", 243),
        ("Heis3xV9", "product:preset:Heisenberg(3)|preset:ElemAbelian(3,2)", 243),
    ):
        if order <= max_order:
            out.append((name, spec))
    return tuple(out)
