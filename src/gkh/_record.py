"""Frozen records: the one class builder behind the package's value types.

record(cls) takes the names annotated in the class body, in order, as the
fields, and a class attribute of the same name as a field's default. It
gives the class __init__, __eq__, __hash__ and __repr__, all compiled from
one generated source per class, with the semantics and the repr format of
a frozen dataclass: __init__ sets every field and then calls
__post_init__ when the class defines one, so its checks also run under
python -O; == holds only between records of the same class with equal
fields, and equal records hash equal; __match_args__ is the fields. Fields
named in omit_repr are left out of the repr. Assigning or deleting an
attribute raises AttributeError. A record keeps its __dict__ (no
__slots__), which functools.cached_property needs; __post_init__ may set
a normalized field with object.__setattr__.

The package does not build these with the standard library's @dataclass:
importing the module that defines it pulls in inspect, ast, dis and
tokenize, and building each class through it costs about half a
millisecond. For gkh's 16 records that was about 15 ms of every kh call's
start-up (2-core Xeon, Python 3.11), where a typical call's own work is
about 1 ms. This builder imports nothing.
"""


def record(cls=None, /, *, omit_repr=()):
    """Class decorator, bare or as record(omit_repr=(...)), building a frozen record."""
    if cls is None:
        return lambda cls: record(cls, omit_repr=omit_repr)
    names = tuple(cls.__annotations__)
    namespace = {"__name__": cls.__module__, "__set": object.__setattr__}
    params = []
    for name in names:
        if name in cls.__dict__:
            namespace[f"__default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=__default_{name}")
        else:
            params.append(name)
    sets = "".join(f"    __set(self, {name!r}, {name})\n" for name in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names if name not in omit_repr)
    source = (
        f"def __init__(self, {', '.join(params)}):\n{sets}{post}"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n"
        "def __repr__(self):\n"
        f'    return f"{{self.__class__.__qualname__}}({shown})"\n'
    )
    exec(source, namespace)
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        function = namespace[method]
        function.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, function)
    cls.__match_args__ = names
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def fields(rec) -> tuple[str, ...]:
    """The field names of a record or record class, in order."""
    return rec.__match_args__


def replace(rec, /, **changes):
    """A new record of the same class with the named fields changed; it is
    built by __init__, so __post_init__ checks it and no cached value is kept."""
    values = {name: getattr(rec, name) for name in rec.__match_args__}
    values.update(changes)
    return rec.__class__(**values)
