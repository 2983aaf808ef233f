"""Schemas with fixed-format tuples.

The paper's instruction packets carry a "Tuple Length & Format" field for
every operand (Figure 4.3), i.e. tuples are fixed-length records whose
layout is known to every instruction processor.  We model exactly that:
a :class:`Schema` is an ordered list of typed attributes that packs each row
into a fixed-width byte record with :mod:`struct`.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError

Row = tuple
"""A row is a plain Python tuple of values, positionally matching a schema."""


class DataType(enum.Enum):
    """Storable attribute types.

    ``INT`` is a 64-bit signed integer, ``FLOAT`` an IEEE double, and
    ``CHAR`` a fixed-width byte string (the width comes from the attribute).
    """

    INT = "int"
    FLOAT = "float"
    CHAR = "char"

    def struct_code(self, width: int) -> str:
        """The :mod:`struct` format code for one value of this type."""
        if self is DataType.INT:
            return "q"
        if self is DataType.FLOAT:
            return "d"
        return f"{width}s"

    def byte_width(self, declared_width: int) -> int:
        """Storage width in bytes for a value of this type."""
        if self is DataType.CHAR:
            return declared_width
        return 8


@dataclass(frozen=True)
class Attribute:
    """One typed column of a schema.

    ``width`` is only meaningful for :attr:`DataType.CHAR` attributes, where
    it is the fixed byte width of the field; values shorter than the width
    are NUL-padded on disk and stripped on read.
    """

    name: str
    dtype: DataType
    width: int = 8

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"attribute name {self.name!r} is not a valid identifier")
        if self.dtype is DataType.CHAR and self.width <= 0:
            raise SchemaError(f"CHAR attribute {self.name!r} needs a positive width")

    @property
    def byte_width(self) -> int:
        """Storage width of this attribute in bytes."""
        return self.dtype.byte_width(self.width)


@dataclass(frozen=True)
class Schema:
    """An ordered, named collection of attributes with a fixed record format.

    >>> s = Schema.build(("id", DataType.INT), ("name", DataType.CHAR, 12))
    >>> s.record_width
    20
    >>> s.unpack(s.pack((7, "alice")))
    (7, 'alice')
    """

    attributes: tuple[Attribute, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError("a schema needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        object.__setattr__(self, "_index", {a.name: i for i, a in enumerate(self.attributes)})
        fmt = "<" + "".join(a.dtype.struct_code(a.width) for a in self.attributes)
        object.__setattr__(self, "_struct", struct.Struct(fmt))
        object.__setattr__(self, "_pack_row", _compile_record_plan(self))

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, *specs: tuple) -> "Schema":
        """Build a schema from ``(name, dtype)`` or ``(name, dtype, width)``.

        This is the idiomatic constructor; passing :class:`Attribute`
        objects directly also works via the dataclass constructor.
        """
        attrs = []
        for spec in specs:
            if len(spec) == 2:
                name, dtype = spec
                attrs.append(Attribute(name, dtype))
            elif len(spec) == 3:
                name, dtype, width = spec
                attrs.append(Attribute(name, dtype, width))
            else:
                raise SchemaError(f"bad attribute spec: {spec!r}")
        return cls(tuple(attrs))

    # -- introspection ------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(a.name for a in self.attributes)

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    @property
    def record_width(self) -> int:
        """Width in bytes of one packed row."""
        return self._struct.size

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Position of attribute ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no attribute {name!r} in schema {self.names}") from None

    def attribute(self, name: str) -> Attribute:
        """The :class:`Attribute` named ``name``."""
        return self.attributes[self.index_of(name)]

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema keeping only ``names``, in the given order."""
        return Schema(tuple(self.attribute(n) for n in names))

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """A new schema with attributes renamed per ``mapping``."""
        attrs = []
        for a in self.attributes:
            new = mapping.get(a.name, a.name)
            attrs.append(Attribute(new, a.dtype, a.width))
        return Schema(tuple(attrs))

    def concat(self, other: "Schema", *, prefix_self: str = "", prefix_other: str = "") -> "Schema":
        """Schema of the cross product ``self x other``.

        Colliding names must be disambiguated with the prefixes; a collision
        that survives prefixing raises :class:`SchemaError`.
        """
        attrs = [Attribute(prefix_self + a.name, a.dtype, a.width) for a in self.attributes]
        attrs += [Attribute(prefix_other + a.name, a.dtype, a.width) for a in other.attributes]
        return Schema(tuple(attrs))

    def concat_unique(self, other: "Schema") -> "Schema":
        """Schema of ``self x other`` keeping self's names unchanged.

        Colliding names from ``other`` get the first free numeric suffix
        (``b`` -> ``b_1`` -> ``b_2`` ...), so left-deep join chains always
        retain the outer relation's attribute names — the join attribute of
        a chain stays addressable at every level.
        """
        return _concat_unique(self, other)

    # -- row packing --------------------------------------------------------

    def validate_row(self, row: Row) -> None:
        """Raise :class:`SchemaError` unless ``row`` matches this schema."""
        if len(row) != self.arity:
            raise _arity_error(self.arity, self.names, row)
        for value, attr_ in zip(row, self.attributes):
            if attr_.dtype is DataType.INT:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise _type_error(attr_, "int", value)
            elif attr_.dtype is DataType.FLOAT:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise _type_error(attr_, "float", value)
            else:
                if not isinstance(value, str):
                    raise _type_error(attr_, "str", value)
                if len(value.encode("utf-8")) > attr_.width:
                    raise _overflow_error(attr_, value)

    def pack(self, row: Row) -> bytes:
        """Pack ``row`` into its fixed-width byte record.

        Runs the schema's compiled record plan: :meth:`validate_row`'s
        checks in the same order with the same :class:`SchemaError`
        messages, then one :mod:`struct` call, encoding each CHAR once.
        """
        return self._pack_row(row)

    def unpack(self, record: bytes) -> Row:
        """Unpack one byte record back into a row tuple."""
        if len(record) != self.record_width:
            raise SchemaError(
                f"record is {len(record)} bytes, schema needs {self.record_width}"
            )
        values = []
        for raw, attr_ in zip(self._struct.unpack(record), self.attributes):
            if attr_.dtype is DataType.CHAR:
                values.append(raw.rstrip(b"\x00").decode("utf-8"))
            else:
                values.append(raw)
        return tuple(values)

    def pack_many(self, rows: Iterable[Row]) -> bytes:
        """Pack a run of rows into contiguous records.

        Each row goes through :meth:`pack`, so a wrapper of ``pack`` (the
        perfbench tracer's, say) still sees every row packed.
        """
        return b"".join(map(self.pack, rows))

    def unpack_many(self, data: bytes) -> list[Row]:
        """Unpack contiguous records produced by :meth:`pack_many`."""
        width = self.record_width
        if len(data) % width:
            raise SchemaError(f"{len(data)} bytes is not a multiple of record width {width}")
        return [self.unpack(data[i : i + width]) for i in range(0, len(data), width)]


def _arity_error(arity: int, names: tuple[str, ...], row: Row) -> SchemaError:
    return SchemaError(f"row arity {len(row)} != schema arity {arity} ({names})")


def _type_error(attr_: Attribute, expected: str, value: object) -> SchemaError:
    return SchemaError(f"attribute {attr_.name!r} expects {expected}, got {value!r}")


def _overflow_error(attr_: Attribute, value: str) -> SchemaError:
    return SchemaError(
        f"value {value!r} overflows CHAR({attr_.width}) attribute {attr_.name!r}"
    )


# One step of the record plan per attribute type.  Each makes
# validate_row's check of attribute ``{i}`` with the same message; an
# exact int, float or str passes on one class test.
_PLAN_STEPS = {
    DataType.INT: """
    if v{i}.__class__ is not int and (
        not isinstance(v{i}, int) or isinstance(v{i}, bool)
    ):
        raise _type_error(attrs[{i}], "int", v{i})""",
    DataType.FLOAT: """
    if v{i}.__class__ is not float:
        if not isinstance(v{i}, (int, float)) or isinstance(v{i}, bool):
            raise _type_error(attrs[{i}], "float", v{i})
        v{i} = float(v{i})""",
    DataType.CHAR: """
    if v{i}.__class__ is not str and not isinstance(v{i}, str):
        raise _type_error(attrs[{i}], "str", v{i})
    e{i} = v{i}.encode("utf-8")
    if len(e{i}) > {width}:
        raise _overflow_error(attrs[{i}], v{i})""",
}

_PLAN = """
def pack_row(row):
    if len(row) != {arity}:
        raise _arity_error({arity}, names, row)
    {values}, = row{steps}
    return pack({fields})
"""


def _compile_record_plan(schema: Schema):
    """Compile ``schema``'s record layout into one checked row packer.

    The generated ``pack_row(row)`` makes :meth:`Schema.validate_row`'s
    checks attribute by attribute in schema order, then hands the fields
    straight to the schema's :class:`struct.Struct`.  Like
    :func:`collections.namedtuple`, it is built from source once per
    schema, so packing a row reads no attribute list and dispatches on
    no type.
    """
    attrs = schema.attributes
    source = _PLAN.format(
        arity=len(attrs),
        values=", ".join(f"v{i}" for i in range(len(attrs))),
        steps="".join(
            _PLAN_STEPS[a.dtype].format(i=i, width=a.width) for i, a in enumerate(attrs)
        ),
        fields=", ".join(
            f"e{i}" if a.dtype is DataType.CHAR else f"v{i}" for i, a in enumerate(attrs)
        ),
    )
    namespace = {
        "attrs": attrs,
        "names": schema.names,
        "pack": schema._struct.pack,
        "_arity_error": _arity_error,
        "_type_error": _type_error,
        "_overflow_error": _overflow_error,
    }
    exec(source, namespace)
    return namespace["pack_row"]


@functools.lru_cache(maxsize=1024)
def _concat_unique(a: Schema, b: Schema) -> Schema:
    """Cached body of :meth:`Schema.concat_unique`.

    Schemas are frozen and hash by value, and join nodes resolve their
    output schema on every dispatch — memoizing skips re-running the
    suffixing loop and, more importantly, recompiling the result's
    :mod:`struct` format each time.
    """
    taken = set(a.names)
    attrs = list(a.attributes)
    for attr_ in b.attributes:
        name = attr_.name
        suffix = 1
        while name in taken:
            name = f"{attr_.name}_{suffix}"
            suffix += 1
        taken.add(name)
        attrs.append(Attribute(name, attr_.dtype, attr_.width))
    return Schema(tuple(attrs))
