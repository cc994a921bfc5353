"""The group specification mini-language.

Three forms:

    perm:<degree>:<cycles>[,<cycles>...]     explicit permutation generators
    preset:<Name>(<int args>)                a catalog construction
    product:<part>|<part>[|<part>...]        direct product of perm/preset parts

Cycle notation is whitespace-separated points in parentheses, "()" for the
identity. A perm group is built on the points its cycles move, so its
degree lives only in its spec text. parse_group_spec builds the group and stamps it with the canonical
form of its spec; spec_text writes a group built without one as its
right-regular representation, which parses back to the same group.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

from . import catalog
from .errors import GroupSpecError
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    direct_product,
    from_generators,
)

_PRESET_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)\((.*)\)$")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(text: str, degree: int) -> list[list[int]]:
    """The cycles of one generator in cycle notation, each point checked to
    lie in 0..degree-1 and in one cycle only."""
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise GroupSpecError(f"stray text {stripped.strip()!r} in generator {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        try:
            cycles.append([int(p) for p in body.split()])
        except ValueError:
            raise GroupSpecError(f"non-integer point in cycle ({body})") from None
    seen: set[int] = set()
    for a in (a for cycle in cycles for a in cycle):
        if not 0 <= a < degree:
            raise GroupSpecError(f"point {a} outside 0..{degree - 1}")
        if a in seen:
            raise GroupSpecError(f"point {a} appears in two cycles")
        seen.add(a)
    return cycles


def _parse_perm(rest: str, cap: int) -> FiniteGroup:
    """The group of a perm spec, built on its support: the points that some
    cycle moves, relabelled 0, 1, ... in order. Every element fixes the
    other points, and the relabelling keeps the order of the points, so the
    image rows sort as over all the points. The degree is kept only in the
    spec text."""
    head, sep, gens_text = rest.partition(":")
    if not sep:
        raise GroupSpecError("perm spec needs perm:<degree>:<generators>")
    try:
        degree = int(head)
    except ValueError:
        raise GroupSpecError(f"bad degree {head!r}") from None
    if degree < 1:
        raise GroupSpecError("degree must be >= 1")
    gen_texts = gens_text.split(",")
    if not any(t.strip() for t in gen_texts):
        raise GroupSpecError("perm spec needs at least one generator (use () for identity)")
    gens = [[c for c in _parse_cycles(t, degree) if len(c) > 1] for t in gen_texts]
    points = sorted({a for cycles in gens for cycle in cycles for a in cycle})
    position = {a: i for i, a in enumerate(points)}
    rows = np.tile(np.arange(max(len(points), 1), dtype=np.int32), (len(gens), 1))
    for row, cycles in zip(rows, gens):
        for cycle in cycles:
            moved = [position[a] for a in cycle]
            row[moved] = moved[1:] + moved[:1]
    group = from_generators(rows, rows.shape[1], cap)
    group.spec = _perm_spec(degree, rows, points)
    return group


def _parse_preset(rest: str, cap: int) -> FiniteGroup:
    match = _PRESET_RE.match(rest.strip())
    if not match:
        raise GroupSpecError("preset spec needs preset:Name(args)")
    name, args_text = match.groups()
    args = []
    if args_text.strip():
        for piece in args_text.split(","):
            try:
                args.append(int(piece.strip()))
            except ValueError:
                raise GroupSpecError(f"non-integer preset argument {piece.strip()!r}") from None
    return catalog.build_preset(name, args, cap)


def parse_group_spec(text: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build the group a spec describes; the result carries the canonical spec."""
    text = text.strip()
    kind, sep, rest = text.partition(":")
    if not sep:
        raise GroupSpecError("spec needs a perm:, preset:, or product: prefix")
    if kind == "perm":
        return _parse_perm(rest, cap)
    if kind == "preset":
        return _parse_preset(rest, cap)
    if kind == "product":
        parts = rest.split("|")
        if len(parts) < 2:
            raise GroupSpecError("product spec needs at least two | separated parts")
        factors = []
        for part in parts:
            part = part.strip()
            if not (part.startswith("perm:") or part.startswith("preset:")):
                raise GroupSpecError("product parts must be perm: or preset: specs")
            factors.append(parse_group_spec(part, cap))
        group = direct_product(factors, cap)
        group.spec = "product:" + "|".join(f.spec for f in factors)
        return group
    raise GroupSpecError(f"unknown spec kind {kind!r}")


def _cycle_string(row: np.ndarray, points: Sequence[int] | None = None) -> str:
    """The nontrivial cycles of an image row, each from its least point and
    in order of it, point i written as points[i] (as i without points).
    Only the moved points are read."""
    moved = (row != np.arange(len(row), dtype=row.dtype)).nonzero()[0].tolist()
    image = dict(zip(moved, row[moved].tolist()))
    out = []
    for point in moved:
        cycle = []
        while point in image:
            cycle.append(str(point if points is None else points[point]))
            point = image.pop(point)
        if cycle:
            out.append("(" + " ".join(cycle) + ")")
    return "".join(out)


def _perm_spec(degree: int, rows: Iterable[np.ndarray],
               points: Sequence[int] | None = None) -> str:
    """The canonical perm spec of the distinct non-identity rows, first seen
    first, or () when there are none; points names the rows' points as in
    _cycle_string."""
    cycles = dict.fromkeys(_cycle_string(row, points) for row in rows)
    cycles.pop("", None)
    return f"perm:{degree}:" + (",".join(cycles) or "()")


def spec_text(G: FiniteGroup) -> str:
    """The group's recorded canonical spec or, for a group built without
    one, its right-regular representation: x's table column sends y to yx,
    and begins with x, so the columns sort as their elements do."""
    if G.spec is not None:
        return G.spec
    return _perm_spec(G.order, (G.mul_table[:, g] for g in G.generators))
