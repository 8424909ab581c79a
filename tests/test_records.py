"""The package's value records: ``grid.Record`` and its subclasses.

Each record behaves as the frozen dataclass it replaced: the same repr,
equality within one class, equal hashes for equal records, no assignment
or deletion, and the same validation messages.  Its fields are its
``__slots__``, filled by position or keyword through the one shared
``Record.__init__`` unless the class gives them defaults, and checked in
its ``__post_init__``.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re

import pytest

import stringchase
from conftest import assert_slotted_record
from stringchase.functions import Binary, Const, MapSpec, Pow, Unary, Var
from stringchase.grid import GridSpec, Record, StringK
from stringchase.search import LevelParity, ParityReport, PathTrace, TraceStep
from stringchase.solver import (
    Certificate,
    ConfigInvalid,
    Resolution,
    ResolutionRecord,
    SolveConfig,
    SolveReport,
)

_LEVEL = LevelParity(1, 1, 2, 1, 2, 1)
_CERT = Certificate(16, StringK(1, (11,), (1,)), (0, 1))
_HISTORY = (ResolutionRecord(2, 0.25, 0.5, 3, 1),)

# one record of every Record class, with the repr its frozen dataclass printed
RECORDS = [
    (GridSpec(2, 3), "GridSpec(n=2, m=3)"),
    (StringK(2, (1, 0), (2, 1)), "StringK(k=2, base=(1, 0), perm=(2, 1))"),
    (Const(0.5), "Const(value=0.5)"),
    (Var(1), "Var(index=1)"),
    (Unary("cos", Var(1)), "Unary(op='cos', arg=Var(index=1))"),
    (Binary("add", Const(1.0), Var(2)),
     "Binary(op='add', left=Const(value=1.0), right=Var(index=2))"),
    (Pow(Var(1), 3), "Pow(base=Var(index=1), exponent=3)"),
    (MapSpec(1, (Var(1),)), "MapSpec(n=1, components=(Var(index=1),))"),
    (_LEVEL, "LevelParity(k=1, s1=1, s2=2, t1=1, t2=2, fully_labeled=1)"),
    (ParityReport((_LEVEL,)),
     "ParityReport(levels=(LevelParity(k=1, s1=1, s2=2, t1=1, t2=2, fully_labeled=1),))"),
    (TraceStep(0, StringK(0, (0,), ()), None, None),
     "TraceStep(level=0, string=StringK(k=0, base=(0,), perm=()), entry=None, exit=None)"),
    (PathTrace((TraceStep(0, StringK(0, (0,), ()), None, None),), "found_fully_labeled"),
     "PathTrace(steps=(TraceStep(level=0, string=StringK(k=0, base=(0,), perm=()), "
     "entry=None, exit=None),), outcome='found_fully_labeled')"),
    (SolveConfig(),
     "SolveConfig(max_m=4503599627370496, tol=1e-06, engine='path', budget=10000000)"),
    (_CERT, "Certificate(m=16, string=StringK(k=1, base=(11,), perm=(1,)), labels=(0, 1))"),
    (_HISTORY[0], "ResolutionRecord(m=2, residual=0.25, diameter=0.5, evals=3, boxes=1)"),
    (Resolution(_CERT, (0.75,), _HISTORY[0]),
     "Resolution(certificate=Certificate(m=16, string=StringK(k=1, base=(11,), perm=(1,)), "
     "labels=(0, 1)), z=(0.75,), record=ResolutionRecord(m=2, residual=0.25, diameter=0.5, "
     "evals=3, boxes=1))"),
    (SolveReport(1, (0.75,), 0.25, 2, False, _CERT, _HISTORY),
     "SolveReport(n=1, z=(0.75,), residual=0.25, m_final=2, converged=False, "
     "certificate=Certificate(m=16, string=StringK(k=1, base=(11,), perm=(1,)), "
     "labels=(0, 1)), history=(ResolutionRecord(m=2, residual=0.25, diameter=0.5, "
     "evals=3, boxes=1),))"),
]
_IDS = [type(record).__name__ for record, _ in RECORDS]


def _fields(record):
    return [getattr(record, name) for name in type(record).__slots__]


def test_every_record_class_is_listed():
    classes = {cls for module in _package_modules() for cls in _classes(module)
               if issubclass(cls, Record) and cls is not Record}
    assert classes == {type(record) for record, _ in RECORDS}


@pytest.mark.parametrize("record, text", RECORDS, ids=_IDS)
def test_record_repr_is_its_dataclass_repr(record, text):
    assert repr(record) == str(record) == text


@pytest.mark.parametrize("record, _", RECORDS, ids=_IDS)
def test_equal_records_have_equal_hashes(record, _):
    twin = type(record)(*_fields(record))
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert not twin != record
    assert_slotted_record(record)


def test_records_that_differ_are_unequal():
    # a tuple-based record (typing.NamedTuple) would compare Const(1.0) and
    # Var(1) equal
    assert Const(1.0) != Var(1) and Var(1) != Const(1.0)
    assert Const(1.0) == Const(1) and hash(Const(1.0)) == hash(Const(1))
    for (a, _), (b, _) in zip(RECORDS, RECORDS[1:] + RECORDS[:1]):
        assert a != b and b != a
        assert a != tuple(_fields(a))
    assert GridSpec(2, 3) != GridSpec(3, 2)
    assert Binary("add", Var(1), Var(2)) != Binary("add", Var(2), Var(1))
    assert StringK(2, (0, 0), (1, 2)) != StringK(2, (0, 0), (2, 1))
    assert SolveConfig(tol=1e-3) != SolveConfig()


@pytest.mark.parametrize("record, _", RECORDS, ids=_IDS)
def test_keyword_and_mixed_construction_equal_positional(record, _):
    cls, names, values = type(record), type(record).__slots__, _fields(record)
    assert cls(**dict(zip(names, values))) == record
    assert cls(**dict(reversed(list(zip(names, values))))) == record
    for i in range(len(names)):
        assert cls(*values[:i], **dict(zip(names[i:], values[i:]))) == record


_SHARED_INIT = [(record, text) for record, text in RECORDS
                if "__init__" not in vars(type(record))]


@pytest.mark.parametrize("record, _", _SHARED_INIT,
                         ids=[type(record).__name__ for record, _ in _SHARED_INIT])
def test_shared_constructor_rejects_a_misfit_field(record, _):
    cls, names, values = type(record), type(record).__slots__, _fields(record)
    misfits = [
        ((), {}),                                        # every field missing
        (values[:-1], {}),                               # the last field missing
        (values[:1], dict(zip(names, values))),          # the first by position and keyword
        (values + [0], {}),                              # an extra positional value
        (values, {names[0]: values[0]}),                 # repeated by keyword
        (values, {"extra": 0}),                          # an unknown keyword
        (values[:-1], {names[-1]: values[-1], "extra": 0}),  # complete, and one unknown
        ((), dict(zip(names[1:], values[1:]))),         # the first missing, the rest by keyword
    ]
    if len(names) > 2:  # a middle field missing between a positional and a keyword one
        misfits.append(((values[0],), {names[-1]: values[-1]}))
    message = re.escape(f"{cls.__name__}() takes each of its fields ({', '.join(names)}) once")
    for args, kwargs in misfits:
        with pytest.raises(TypeError, match=message):
            cls(*args, **kwargs)


@pytest.mark.parametrize("record, _", RECORDS, ids=_IDS)
def test_records_are_frozen(record, _):
    before = _fields(record)
    for name in type(record).__slots__ + ("extra",):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(record, name)
    assert _fields(record) == before


@pytest.mark.parametrize("build, error, message", [
    (lambda: GridSpec(0, 3), ValueError, "dimension must be >= 1, got 0"),
    (lambda: GridSpec(2, 0), ValueError, "resolution must be >= 1, got 0"),
    (lambda: GridSpec(2, 4.0), ValueError, "resolution must be an integer, got 4.0"),
    (lambda: GridSpec(2.0, 4), ValueError, "dimension must be an integer, got 2.0"),
    (lambda: SolveConfig(max_m=64.0), ConfigInvalid, "max_m must be an integer, got 64.0"),
    (lambda: SolveConfig(max_m=1), ConfigInvalid, "max_m must be >= 2, got 1"),
    (lambda: SolveConfig(max_m=2 ** 52 + 1), ConfigInvalid,
     "max_m must be <= 2^52, got 4503599627370497"),
    (lambda: SolveConfig(tol=0.0), ConfigInvalid, "tol must be positive, got 0.0"),
    (lambda: SolveConfig(tol=float("nan")), ConfigInvalid, "tol must be positive, got nan"),
    (lambda: SolveConfig(tol="1e-3"), ConfigInvalid, "tol must be a number, got '1e-3'"),
    (lambda: SolveConfig(engine="magic"), ConfigInvalid,
     "engine must be 'path' or 'oracle', got 'magic'"),
    (lambda: SolveConfig(budget="x"), ConfigInvalid, "budget must be an integer, got 'x'"),
    (lambda: SolveConfig(budget=1.5), ConfigInvalid, "budget must be an integer, got 1.5"),
    (lambda: SolveConfig(budget=-3), ConfigInvalid, "budget must be >= 1, got -3"),
    (lambda: SolveConfig(budget=0), ConfigInvalid, "budget must be >= 1, got 0"),
    (lambda: GridSpec(1, True), ValueError, "resolution must be an integer, got True"),
    (lambda: GridSpec(True, 3), ValueError, "dimension must be an integer, got True"),
    (lambda: SolveConfig(max_m=True), ConfigInvalid, "max_m must be an integer, got True"),
    (lambda: SolveConfig(budget=True), ConfigInvalid, "budget must be an integer, got True"),
    (lambda: SolveConfig(tol=True), ConfigInvalid, "tol must be a number, got True"),
    (lambda: MapSpec(True, (Var(1),)), ValueError, "dimension must be an integer, got True"),
    (lambda: MapSpec(1.0, (Var(1),)), ValueError, "dimension must be an integer, got 1.0"),
    (lambda: MapSpec(0, ()), ValueError, "dimension must be >= 1, got 0"),
])
def test_invalid_records_raise_as_before(build, error, message):
    # StringK's messages are pinned in test_grid.py::test_string_validation
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def _package_modules():
    return [importlib.import_module(info.name)
            for info in pkgutil.iter_modules(stringchase.__path__, "stringchase.")]


def _classes(module):
    return [obj for _, obj in inspect.getmembers(module, inspect.isclass)
            if obj.__module__ == module.__name__]


def _record_subclasses():
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.append(cls)
            todo.append(cls)
    return found


def test_every_record_sets_its_fields_through_its_slot_setters_in_order():
    # Record.__init__, StringK._derived, the walk's TraceStep and the
    # expression nodes fill a record's fields through its class's _setters:
    # setter i must be the __set__ of the slot named by __slots__[i]
    classes = _record_subclasses()
    assert {type(record) for record, _ in RECORDS} <= set(classes)
    for cls in classes:
        names = cls.__slots__
        assert len(cls._setters) == len(names), cls
        for name, setter in zip(names, cls._setters):
            assert setter.__self__ is vars(cls)[name], (cls, name)
            blank, value = object.__new__(cls), object()
            setter(blank, value)
            assert getattr(blank, name) is value


def test_only_map_fns_are_dataclasses():
    # MapFn (and so CompiledMap) stays a dataclass, since dataclasses.replace
    # on it is used; any other value class is a Record
    dataclass_names = {cls.__name__ for module in _package_modules()
                       for cls in _classes(module) if dataclasses.is_dataclass(cls)}
    assert dataclass_names == {"MapFn", "CompiledMap"}, (
        "each @dataclass execs its generated methods when the package is imported, "
        "about 0.6-0.9 ms of import time per class; subclass grid.Record instead")


def test_only_checked_defaulted_or_hot_records_define_init():
    # SolveConfig gives defaults; the expression nodes are built about 16
    # times a refine task.  Every other record fills its __slots__ through
    # Record.__init__, which calls the record's __post_init__ to check them
    own_init = {cls.__name__ for module in _package_modules() for cls in _classes(module)
                if issubclass(cls, Record) and cls is not Record and "__init__" in vars(cls)}
    assert own_init == {"SolveConfig", "Const", "Var", "Unary", "Binary", "Pow"}, (
        "declare a record's fields once, as its __slots__, and let Record.__init__ fill them")


def test_records_share_the_base_equality_and_hash():
    # Record's __eq__ and __hash__ compare and hash the field tuple; a
    # second copy in a subclass would have to be kept equal to them
    own = {cls.__name__ for module in _package_modules() for cls in _classes(module)
           if issubclass(cls, Record) and cls is not Record
           and {"__eq__", "__hash__"} & vars(cls).keys()}
    assert own == set(), "let Record give equality and the hash"
    for k, base, perm in ((0, (0,), ()), (2, (1, 0), (2, 1)), (3, (4, 0, 2), (3, 1, 2))):
        assert hash(StringK(k, base, perm)) == hash((k, base, perm))
