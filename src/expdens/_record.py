"""The record classes' decorator: a small stand-in for a frozen ``dataclasses.dataclass``.

``@record`` reads a class's own annotated fields, in order, and their
class-level defaults, and adds ``__init__`` (positional or keyword, then
``__post_init__`` if the class has one), ``__repr__`` and ``__eq__`` as a
dataclass would.  A record refuses assignment with ``AttributeError`` and
hashes by value.  ``__match_args__`` holds the field names, as on a
dataclass; machine output reads them for its key order.

It builds methods as closures: it compiles no code and imports nothing, so a
CLI request loads neither ``dataclasses`` nor the ``inspect``, ``ast`` and
``dis`` modules that come with it.
"""


_set = object.__setattr__


def record(cls):
    """Make ``cls`` a frozen record class."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}

    def values(self):
        return tuple([getattr(self, n) for n in names])

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    cls.__init__ = _make_init(cls.__name__, names, defaults, hasattr(cls, "__post_init__"))
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    cls.__match_args__ = names
    cls.__hash__ = lambda self: hash(values(self))
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def _make_init(name, names, defaults, post_init):
    size = len(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != size:
            given = dict(zip(names, args))
            if len(args) > size or not kwargs.keys() <= set(names) - given.keys():
                raise TypeError(
                    f"{name}() takes the fields {', '.join(names)}; got {len(args)} "
                    f"positional arguments and the keywords {sorted(kwargs)}"
                )
            bound = {**defaults, **given, **kwargs}
            missing = [n for n in names if n not in bound]
            if missing:
                raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
            args = [bound[n] for n in names]
        # object.__setattr__ bypasses the record's own and, unlike a
        # __dict__ update, keeps the attributes in the fast per-class layout
        for n, value in zip(names, args):
            _set(self, n, value)
        if post_init:
            self.__post_init__()

    return __init__


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
