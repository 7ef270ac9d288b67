"""Every record class behaves as a stdlib dataclass declared with the same fields.

The stand-in for each class is a frozen ``dataclasses.make_dataclass`` over
the class's own fields, defaults and ``__post_init__``.  Record and stand-in must agree on repr, equality, hash,
assignment, defaults, field order and the errors of construction.
"""

import dataclasses
import importlib
from array import array

import pytest

from expdens.cli import RunConfig
from expdens.empirical import ComparisonReport, CountReport, GHistogram
from expdens.euler import BoundedValue, DensityEstimate, LocalFactor
from expdens.patterns import ExponentPattern, PrimeAwarePattern
from expdens.primes import PrimeTable
from expdens.series import DensitySeries, ExponentWeight

SQUAREFREE = ExponentPattern((1, 2))
CUBEFREE = ExponentPattern((1, 3))
EXCESS = ExponentWeight.excess().pieces

# Per class: valid argument tuples (at least two, unequal), then argument
# tuples that __post_init__ refuses.
SAMPLES = {
    PrimeTable: ([(10, array("q", [2, 3, 5, 7])), (3, array("q", [2, 3]))], []),
    ExponentPattern: (
        [((),), ((1, 2, 3),), ((1, 3),)],
        [((1, 3, 3, 5),), ((1, 4, 3),), ((0, 2),)],
    ),
    PrimeAwarePattern: (
        [(SQUAREFREE,), (SQUAREFREE, {3: CUBEFREE, 2: SQUAREFREE}), (CUBEFREE, {})],
        [(SQUAREFREE, {4: CUBEFREE}), (SQUAREFREE, {1: CUBEFREE}), (SQUAREFREE, {"7": CUBEFREE})],
    ),
    BoundedValue: ([(1.0, 1e-3), (1.0, 2e-3), (float("nan"), 0.0)], []),
    LocalFactor: ([(2, 0.5), (3, 1.0)], [(2, 1.5), (2, 0.0)]),
    DensityEstimate: (
        [(0.5, 0.4, 0.6, 1000, 1e-3), (0.0, 0.0, 0.0, 1000, 0.0, True), (0.5, 0.5, 0.5, 7, 0.0)],
        [(0.7, 0.4, 0.6, 1000, 1e-3), (0.5, 0.4, 0.6, 1000, -1.0), (0.5, 0.4, 0.6, 1000, 0.0, True)],
    ),
    CountReport: ([(10, 5, 0.5), (10, 0, 0.0)], [(10, 11, 1.1), (10, -1, 0.0)]),
    GHistogram: ([(10, (5, 3), 2), (10, (10,), 0)], [(10, (5, 3), 3)]),
    ComparisonReport: ([(0.1, 0.0, 1.0, 0.2, True), (0.3, 0.0, 1.0, 0.2, False)], []),
    ExponentWeight: (
        [(EXCESS,), (((1, 0, 0), (2, 0, 1)),), (((1, 0, 0), (3, 1, -2)),)],
        [(((2, 0, 0),),), (((1, 2, 0),),), ((),), (((1, 0, 0), (1, 0, 1)),),
         (((1, 0, 0), (3, 0, 1), (2, 0, 0)),), (((1, 0, 0), (2, 1, -3)),)],
    ),
    DensitySeries: (
        [((0.5,), (0.4,), (0.6,), 1000, 0.5), ((0.5, 0.25), (0.5, 0.2), (0.5, 0.3), 2, 0.25)],
        [((0.5,), (0.4, 0.1), (0.6,), 1000, 0.5), ((0.7,), (0.4,), (0.6,), 1000, 0.3),
         ((0.6, 0.6), (0.6, 0.6), (0.6, 0.6), 1000, -0.2)],
    ),
    RunConfig: (
        [("density",), ("series", "1..2", None, None, 1e-9, 16), ("count", None, "s.json", 10)],
        [("density", None, None, 0), ("density", None, None, None, float("nan")),
         ("series", None, None, None, 1e-8, -1), ("density",) + (None,) * 3 + (1e-8, 8, None, "xml")],
    ),
}


def _fields(cls) -> list[str]:
    return list(cls.__dict__["__annotations__"])


def _stand_in(cls):
    """A stdlib dataclass with ``cls``'s name, fields, defaults and __post_init__."""
    specs = []
    for name in _fields(cls):
        if name not in cls.__dict__:
            specs.append((name, cls.__annotations__[name]))
            continue
        default = cls.__dict__[name]
        if isinstance(default, dict):
            spec = dataclasses.field(default_factory=dict)
        else:
            spec = dataclasses.field(default=default)
        specs.append((name, cls.__annotations__[name], spec))
    namespace = {}
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True)


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


def _error(make, args):
    with pytest.raises(Exception) as info:
        make(*args)
    return type(info.value), str(info.value)


def test_every_record_class_is_sampled():
    found = set()
    for module in ("cli", "empirical", "euler", "patterns", "primes", "series"):
        mod = importlib.import_module(f"expdens.{module}")
        found |= {
            obj for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__ == mod.__name__
            and getattr(obj.__init__, "__module__", None) == "expdens._record"
        }
    assert found == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
class TestAgainstDataclass:
    def test_fields_in_order(self, cls):
        std = _stand_in(cls)
        assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(std))

    def test_repr_equality_and_hash(self, cls):
        std = _stand_in(cls)
        valid = SAMPLES[cls][0]
        for a in valid:
            rec, ref = cls(*a), std(*a)
            assert repr(rec) == repr(ref)
            assert (rec == cls(*a)) == (ref == std(*a))
            assert rec != ref and ref != rec  # equal only within one class
            assert _hash_or_error(rec) == _hash_or_error(ref)
            for b in valid:
                assert (rec == cls(*b)) == (ref == std(*b))
                assert (rec != cls(*b)) == (ref != std(*b))

    def test_keywords_and_defaults(self, cls):
        std = _stand_in(cls)
        names = _fields(cls)
        for a in SAMPLES[cls][0]:
            kwargs = dict(zip(names, a))
            rec, ref = cls(**kwargs), std(**kwargs)
            assert repr(rec) == repr(cls(*a))
            assert [getattr(rec, n) for n in names] == [getattr(ref, n) for n in names]

    def test_assignment(self, cls):
        std = _stand_in(cls)
        a = SAMPLES[cls][0][0]
        rec, ref = cls(*a), std(*a)
        name = _fields(cls)[0]
        for obj in (rec, ref):
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                obj.other = 1
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert repr(rec) == repr(ref)

    def test_post_init_errors(self, cls):
        std = _stand_in(cls)
        for a in SAMPLES[cls][1]:
            kind, message = _error(cls, a)
            assert issubclass(kind, ValueError)
            assert (kind, message) == _error(std, a)

    def test_wrong_arguments(self, cls):
        std = _stand_in(cls)
        a = SAMPLES[cls][0][0]
        required = [n for n in _fields(cls) if n not in cls.__dict__]
        for make in (cls, std):
            with pytest.raises(TypeError):
                make(*a, *[None] * (len(_fields(cls)) + 1 - len(a)))
            with pytest.raises(TypeError):
                make(*a, no_such_field=1)
            if required:
                with pytest.raises(TypeError):
                    make()
                with pytest.raises(TypeError):
                    make(*a[:1], **{_fields(cls)[0]: a[0]})
