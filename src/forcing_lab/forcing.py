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
takes refinement candidates one at a time and screens each for a quaternion
quotient by counting the elements of G that square into it. is_forcing
searches a quotient's classes by their labels, never by member lists.
The certificate is checked by verify_certificate, in verify.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import is_cyclic, is_generalized_quaternion
from .errors import CyclicGroup, PreconditionViolated, QuaternionGroup
from .groups import FiniteGroup, QuotientMap, Subgroup, is_prime
from .groupspec import spec_text
from .verify import verify_certificate  # bench/ calls and traces it by this name

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
