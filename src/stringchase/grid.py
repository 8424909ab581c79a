"""Exact integer geometry of the subdivided unit cube.

A grid point is a tuple of integers in {0, ..., m}^n; the tuple ``a`` stands
for the real point ``a/m`` in [0,1]^n.  A k-string is a chain of k+1 grid
points that climbs one grid step along each of the axes 1..k, in some order.
It is stored canonically as a base vertex plus the order ``perm`` in which
axes are stepped; the vertex set determines that representation uniquely
because the coordinate sums of the vertices form a consecutive ladder.

Axis indices are 1-based everywhere in this module, so ``perm`` contains
values from 1 to k and coordinate i of a point is ``p[i - 1]``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import FrozenInstanceError

GridPoint = tuple[int, ...]

_new = object.__new__


class BoundaryFace(ValueError):
    """The requested pivot step would leave the grid."""


def check_size(what: str, value, least: int, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is an ``int``, not a ``bool``, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{what} must be >= {least}, got {value}")


class Record:
    """A frozen value, equal, hashed and printed as a frozen dataclass over its fields, but
    with no methods ``exec``d at import.  A subclass declares its fields once, in order, as
    its ``__slots__``; the shared ``__init__`` fills them from positional and keyword values,
    raises TypeError for a missing, extra, repeated or unknown field, then calls
    ``__post_init__``, where a subclass checks its fields, as on a dataclass.  A subclass
    writes its own ``__init__`` only to give defaults, or when a hot loop builds it.

    Fields are filled through ``_setters``, each subclass's slot-descriptor setters in
    ``__slots__`` order, found once when the subclass is made: a setter called as
    ``setter(record, value)`` skips the frozen ``__setattr__`` and the lookup by name."""

    __slots__ = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple([cls.__dict__[name].__set__ for name in cls.__slots__])

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs:  # append the keyword values in field order, taking each out of kwargs
            args += tuple([kwargs.pop(name) for name in names[len(args):] if name in kwargs])
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__}() takes each of its fields "
                            f"({', '.join(names)}) once, by position or keyword")
        for setter, value in zip(self._setters, args):
            setter(self, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class GridSpec(Record):
    """Grid shape: dimension ``n``, ``m`` subdivisions per axis.

    The point set is {0, ..., m}^n, of size (m+1)^n.
    """

    __slots__ = ("n", "m")
    def __post_init__(self) -> None:
        check_size("dimension", self.n, 1)
        check_size("resolution", self.m, 1)

    @property
    def point_count(self) -> int:
        return (self.m + 1) ** self.n

    def contains(self, p: GridPoint) -> bool:
        return len(p) == self.n and all(0 <= c <= self.m for c in p)

    def to_real(self, p: GridPoint) -> tuple[float, ...]:
        m = self.m
        return tuple([c / m for c in p])

    def points(self) -> Iterator[GridPoint]:
        """All grid points in lexicographic order: the last axis varies fastest."""
        return itertools.product(range(self.m + 1), repeat=self.n)


class StringK(Record):
    """A k-string, stored as (base vertex, axis order).

    ``perm`` lists the axes stepped on the way from the base to the top
    vertex; it is a permutation of 1..k.  All vertices keep coordinate 0 on
    every axis beyond k.

    Calling ``StringK(...)`` validates all of this.  ``pivot``, ``lift``,
    ``enumerate_strings``, the walk (its end string, and its steps' strings
    when they are read) and the solver, which moves a box's string into its
    grid, build strings valid by construction through ``_derived``, unchecked;
    ``search.verify_trace`` checks a walk's strings apart.
    """

    __slots__ = ("k", "base", "perm")
    def __post_init__(self) -> None:
        if self.k != len(self.perm):
            raise ValueError(f"k={self.k} but perm has {len(self.perm)} entries")
        if sorted(self.perm) != list(range(1, self.k + 1)):
            raise ValueError(f"perm {self.perm} is not a permutation of 1..{self.k}")
        if self.k > len(self.base):
            raise ValueError(f"k={self.k} exceeds dimension {len(self.base)}")
        if self.base and min(self.base) < 0:
            raise ValueError(f"negative coordinate in base {self.base}")
        if any(self.base[self.k:]):
            raise ValueError(f"base {self.base} has nonzero coordinate beyond axis {self.k}")

    @classmethod
    def _derived(cls, k: int, base: GridPoint, perm: tuple[int, ...]) -> StringK:
        """A string that is valid by construction, built without checks."""
        s = _new(cls)
        set_k, set_base, set_perm = cls._setters
        set_k(s, k)
        set_base(s, base)
        set_perm(s, perm)
        return s


def vertices(s: StringK) -> list[GridPoint]:
    """The k+1 vertices of ``s``, from the base up."""
    out = [s.base]
    cur = list(s.base)
    for axis in s.perm:
        cur[axis - 1] += 1
        out.append(tuple(cur))
    return out


def face_vertices(s: StringK, omitted: int) -> frozenset[GridPoint]:
    """Vertex set of the face of ``s`` that drops vertex ``omitted``."""
    verts = vertices(s)
    return frozenset(verts[:omitted] + verts[omitted + 1:])


def lift(c: StringK) -> StringK:
    """Extend a (k-1)-string living below axis k to the unique k-string
    containing it: one extra step on axis k from the top vertex.

    Raises ValueError past the grid's dimension, the one way a lift of a
    valid string can fail; the result is otherwise valid by construction
    and is not checked again (see StringK).
    """
    k = c.k + 1
    if k > len(c.base):
        raise ValueError(f"k={k} exceeds dimension {len(c.base)}")
    return StringK._derived(k, c.base, c.perm + (k,))


def pivot(spec: GridSpec, b: StringK, h: int) -> tuple[StringK, int]:
    """The other k-string sharing the face of ``b`` that omits vertex ``h``,
    and the omitted index of that face in it.

    Three cases, by the position of the omitted vertex:
      * h = 0: drop the base, append a step on the first axis of ``perm``
        beyond the top vertex (base moves up, perm cycles left); the shared
        face omits index k of the new string;
      * 0 < h < k: swap the two steps around the omitted vertex; the shared
        face omits index h;
      * h = k: drop the top, prepend a step below the base on the last axis
        of ``perm`` (base moves down, perm cycles right); the shared face
        omits index 0.

    Pivoting is an involution: ``pivot(spec, *pivot(spec, b, h)) == (b, h)``.
    Raises BoundaryFace when the new vertex would leave the grid; for h = k
    with perm ending in k and a base on the floor of axis k, that face is
    the downward door into the dimension below.  A pivot of a valid string
    is valid, so the result is not checked again (see StringK).
    ``search.path_follow`` makes the same moves from the vertices it
    carries, without calling this; it stays the public move and the one
    the tests' reference walk makes.
    """
    k = b.k
    if k < 1:
        raise ValueError("a 0-string has no faces to pivot through")
    if not 0 <= h <= k:
        raise ValueError(f"omitted index {h} outside 0..{k}")

    if h == 0:
        axis = b.perm[0]
        # top vertex already sits at base[axis]+1; one more step must stay <= m
        if b.base[axis - 1] + 2 > spec.m:
            raise BoundaryFace(f"step on axis {axis} above {b.base} leaves the grid")
        new_base = _bump(b.base, axis, +1)
        return StringK._derived(k, new_base, b.perm[1:] + (axis,)), k
    if h == k:
        axis = b.perm[-1]
        if b.base[axis - 1] == 0:
            raise BoundaryFace(f"step on axis {axis} below {b.base} leaves the grid")
        new_base = _bump(b.base, axis, -1)
        return StringK._derived(k, new_base, (axis,) + b.perm[:-1]), 0
    swapped = list(b.perm)
    swapped[h - 1], swapped[h] = swapped[h], swapped[h - 1]
    return StringK._derived(k, b.base, tuple(swapped)), h


def enumerate_strings(spec: GridSpec, k: int) -> Iterator[StringK]:
    """Every k-string of the grid exactly once, lexicographic by base then
    by perm.  There are m^k * k! of them."""
    if not 0 <= k <= spec.n:
        raise ValueError(f"k={k} outside 0..{spec.n}")
    tail = (0,) * (spec.n - k)
    for head in itertools.product(range(spec.m), repeat=k):
        base = head + tail
        for perm in itertools.permutations(range(1, k + 1)):
            yield StringK._derived(k, base, perm)


def string_count(spec: GridSpec, k: int) -> int:
    """Number of k-strings: m^k * k!."""
    return spec.m ** k * math.factorial(k)


def _bump(p: GridPoint, axis: int, delta: int) -> GridPoint:
    cur = list(p)
    cur[axis - 1] += delta
    return tuple(cur)
