"""Forcing sequences: construction and certificates.

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
refines each layer A > B of the series from one call of
intermediate_index_p_subgroups: with b_1, ..., b_r the greedy basis of A
past B, the steps are the spans <B, b_1, ..., b_k> for k = r - 1 down to 0,
and a layer of index p has B alone. It screens each entry for a quaternion
quotient by counting the elements of G that square into it, and only past
a refused entry does it build a step's other candidates. is_forcing
decides any map G/lower -> G/upper the same way, from G's class labels, the
coset labels of upper and the coset orders modulo upper and lower. The
certificate is checked by verify_certificate, in verify.py.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .classify import is_cyclic, is_generalized_quaternion
from .errors import CyclicGroup, NotNormal, PreconditionViolated, QuaternionGroup
from .groups import FiniteGroup, Subgroup, is_prime
from .groupspec import spec_text
from .verify import verify_certificate  # bench/ calls and traces it by this name

BUILDER_VERSION = "1"


@dataclass(frozen=True)
class ForcingWitness:
    """A conjugacy class of G/upper (by coset index) whose fibers in
    G/lower all preserve order."""

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


def is_forcing(G: FiniteGroup, upper: Subgroup,
               lower: Subgroup) -> ForcingWitness | None:
    """Search the conjugacy classes of G/upper for a witness that the map
    G/lower -> G/upper is forcing, for normal subgroups lower <= upper.

    Cosets of upper are indexed as G.quotient(upper) labels them. A class
    of G/upper is the image of a class of G, as conjugation commutes with
    projection, and it is labelled with its least coset index. Classes are
    scanned by that representative in (order, representative) order, so the
    returned witness has minimal class order, ties broken by least
    representative. The identity class never qualifies: its fiber is
    upper/lower, whose non-identity elements have the wrong order. The
    fiber over a coset xU holds the cosets of lower inside it, so its
    elements' orders are the coset orders modulo lower of xU's members.
    """
    project = G.quotient(upper)
    if not G.is_normal(lower):
        raise NotNormal(f"subgroup of order {lower.order} is not normal")
    if project[lower.members].any():
        raise PreconditionViolated("lower is not inside upper")
    label = G.conjugacy_classes()
    least = np.full(G.order, G.order, dtype=project.dtype)
    np.minimum.at(least, label, project)
    # each element's class in G/upper, by the least coset of its class in G
    image = least[label]
    orders = np.empty(G.order // upper.order, dtype=np.int64)
    orders[project] = G.coset_orders(upper)
    fiber_orders = G.coset_orders(lower)
    reps = np.bincount(image[image == project]).nonzero()[0][1:].tolist()
    for rep in sorted(reps, key=lambda r: (int(orders[r]), r)):
        order = int(orders[rep])
        fibers = image == rep
        if (fiber_orders[fibers] == order).all():
            size = int(np.count_nonzero(fibers)) // upper.order
            return ForcingWitness(class_rep=rep, class_order=order,
                                  checked_fiber_sizes=(upper.order // lower.order,) * size)
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
    in_upper, in_lower = (np.bincount(S.members, minlength=G.order) > 0
                          for S in (upper, lower))
    # generators suffice, as lower is normal
    if not in_lower[G.commutator_table()[upper.members]].all():
        raise PreconditionViolated("layer is not central: [upper, G] is not inside lower")
    found = (in_lower[G.power_map(p)] & ~in_upper).nonzero()[0]
    if not len(found):
        return None
    label = G.conjugacy_classes()
    images = _image_class(G.quotient(upper), (label == label[found[0]]).nonzero()[0])
    return ForcingWitness(class_rep=int(images[0]), class_order=p,
                          checked_fiber_sizes=(p,) * len(images))


def _image_class(project: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The class of the quotient that is the image of a class of the source:
    its members' distinct images, sorted, so the least comes first."""
    return np.bincount(project[members]).nonzero()[0]


def _quaternion_quotient(G: FiniteGroup, S: Subgroup) -> bool:
    """Whether G/S is generalized quaternion, for S inside the Frattini
    subgroup of a non-cyclic 2-group G. G/S is then never cyclic (Burnside's
    basis theorem), so it is quaternion exactly when it has one involution:
    when exactly 2|S| elements of G square into S."""
    inside = np.bincount(S.members, minlength=G.order) > 0
    return int(inside[G.mul_table.diagonal()].sum()) == 2 * S.order


def _refine_layer(G: FiniteGroup, A: Subgroup, B: Subgroup, p: int) -> list[Subgroup]:
    """The chain's entries below A in the layer A > B of the lower exponent-p
    series, B last. Each step takes the first candidate, in canonical order,
    whose quotient is not generalized quaternion, as read from G's squares;
    for odd p none is refused.

    The layer asks intermediate_index_p_subgroups once. Its first candidate
    is <B, b_1, ..., b_{r-1}> over the greedy basis b_1, ..., b_r of A past
    B, which is B itself when [A:B] = p. The greedy basis of
    <B, b_1, ..., b_k> past B is b_1, ..., b_k, as each b_i is the least
    element outside the span of those before it. So the first candidate
    below it is <B, b_1, ..., b_{k-1}>, a span of the same basis. Once an
    entry is refused (p = 2 only), every later step of the layer asks for
    its own candidates, all of them if need be.
    """
    refinements = G.intermediate_index_p_subgroups(A, B, p)
    r = len(refinements.basis)
    planned = [next(refinements), *map(refinements.span, range(r - 2, -1, -1))]
    layer = list(itertools.takewhile(
        lambda S: p != 2 or not _quaternion_quotient(G, S), planned))
    current = layer[-1] if layer else A
    while current.order > B.order:
        chosen = next((candidate for candidate
                       in G.intermediate_index_p_subgroups(current, B, p)
                       if not _quaternion_quotient(G, candidate)), None)
        if chosen is None:
            raise PreconditionViolated(
                "every refinement candidate has a generalized quaternion quotient")
        layer.append(chosen)
        current = chosen
    return layer


def build_forcing_sequence(G: FiniteGroup) -> ForcingCertificate:
    """Construct a verified-by-construction forcing sequence for G.

    Refines each layer of the lower exponent-p series one index-p step at a
    time, always taking the first candidate subgroup (in canonical order)
    whose quotient is not generalized quaternion, as read from G's squares:
    _refine_layer takes a layer's steps from one greedy basis. For odd p no
    candidate is ever rejected; for p = 2 at most one candidate per layer
    can be bad, and only then are the layer's other candidates built. Each
    step's witness is read from G's own classes and the coset labels of N_i.
    """
    p = G.prime()
    if is_cyclic(G):
        raise CyclicGroup(f"cyclic group of order {G.order} admits no forcing sequence")
    quaternion = is_generalized_quaternion(G)
    if quaternion is not None:
        raise QuaternionGroup(quaternion)
    series = G.lower_exponent_p_series()
    chain: list[Subgroup] = series[:2]
    for A, B in zip(series[1:], series[2:]):
        chain.extend(_refine_layer(G, A, B, p))
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
        chain=tuple(tuple(sub.members.tolist()) for sub in chain),
        steps=tuple(steps),
    )
