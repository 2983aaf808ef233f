"""Differential test of the compiled record plan behind ``Schema.pack_many``.

``pack_many`` builds every page image, the recovery oracle's canonical
bytes included, so a packer bug would move the machines and the oracle
together and no crash trial would see it.  This file checks the plan
against a per-row reference built here from :meth:`Schema.validate_row`
plus the schema's :mod:`struct` format: equal bytes on seeded rows of
seeded schemas, and the same :class:`SchemaError` message for each kind
of invalid row.
"""

import random

import pytest

from repro.errors import SchemaError
from repro.relational.page import Page
from repro.relational.schema import DataType, Schema
from repro.workload.generator import BENCHMARK_SCHEMA

INT_MIN, INT_MAX = -(2**63), 2**63 - 1
#: One-, two-, three- and four-byte UTF-8 characters.
CHARS = "az09_é߿ह€𝄞"


class Count(int):
    """An ``int`` subclass: valid for INT, but not the exact class."""


class Ratio(float):
    """A ``float`` subclass: valid for FLOAT, but not the exact class."""


def reference_pack(schema, row):
    """One record the slow way: validate, then encode field by field."""
    schema.validate_row(row)
    fields = []
    for value, attr in zip(row, schema.attributes):
        if attr.dtype is DataType.CHAR:
            fields.append(value.encode("utf-8"))
        elif attr.dtype is DataType.FLOAT:
            fields.append(float(value))
        else:
            fields.append(value)
    return schema._struct.pack(*fields)


def random_schema(rng):
    specs = []
    for i in range(rng.randint(1, 8)):
        dtype = rng.choice(list(DataType))
        if dtype is DataType.CHAR:
            specs.append((f"c{i}", dtype, rng.randint(1, 40)))
        else:
            specs.append((f"c{i}", dtype))
    return Schema.build(*specs)


def random_text(rng, width):
    """A string whose UTF-8 encoding fits ``width`` bytes (often exactly)."""
    text, used = "", 0
    for _ in range(rng.randint(0, width)):
        ch = rng.choice(CHARS)
        if used + len(ch.encode("utf-8")) > width:
            break
        text += ch
        used += len(ch.encode("utf-8"))
    return text


def random_value(rng, attr):
    if attr.dtype is DataType.INT:
        value = rng.choice(
            [rng.randint(INT_MIN, INT_MAX), rng.randint(-5, 5), INT_MIN, INT_MAX]
        )
        return Count(value) if rng.random() < 0.1 else value
    if attr.dtype is DataType.FLOAT:
        kind = rng.random()
        if kind < 0.2:
            return rng.randint(-(10**6), 10**6)  # ints are valid FLOATs
        if kind < 0.3:
            return Ratio(rng.uniform(-1e9, 1e9))
        return rng.uniform(-1e300, 1e300)
    return random_text(rng, attr.width)


def random_rows(rng, schema, count):
    return [tuple(random_value(rng, a) for a in schema.attributes) for _ in range(count)]


def seeded_schemas():
    rng = random.Random(20)
    schemas = [random_schema(rng) for _ in range(40)]
    return schemas + [BENCHMARK_SCHEMA, BENCHMARK_SCHEMA.concat_unique(BENCHMARK_SCHEMA)]


@pytest.mark.parametrize("index", range(len(seeded_schemas())))
def test_plan_bytes_match_the_reference(index):
    schema = seeded_schemas()[index]
    rng = random.Random(index)
    rows = random_rows(rng, schema, 60)
    expected = [reference_pack(schema, row) for row in rows]
    assert schema.pack_many(rows) == b"".join(expected)
    assert [schema.pack(row) for row in rows] == expected
    assert schema.pack_many([]) == b""
    page = Page(schema, 64 + 10 * schema.record_width)
    page.extend(rows)
    body = b"".join(expected[: page.row_count])
    assert page.to_bytes()[8 : 8 + len(body)] == body


MIXED = Schema.build(("i", DataType.INT), ("f", DataType.FLOAT), ("s", DataType.CHAR, 4))
GOOD = (1, 2.0, "ok")

INVALID = {
    "too_few": (1, 2.0),
    "too_many": (1, 2.0, "ok", 4),
    "bool_in_int": (True, 2.0, "ok"),
    "str_in_int": ("1", 2.0, "ok"),
    "float_in_int": (1.0, 2.0, "ok"),
    "bool_in_float": (1, False, "ok"),
    "str_in_float": (1, "2.0", "ok"),
    "bytes_in_char": (1, 2.0, b"ok"),
    "int_in_char": (1, 2.0, 7),
    # "é" is two UTF-8 bytes: three characters, five bytes, one over.
    "utf8_one_byte_over": (1, 2.0, "aéé"),
    # Several faults in one row: the first attribute's is reported.
    "first_fault_wins": (True, False, 7),
}


@pytest.mark.parametrize("kind", list(INVALID))
def test_plan_rejects_as_validate_row_does(kind):
    row = INVALID[kind]
    with pytest.raises(SchemaError) as reference:
        MIXED.validate_row(row)
    with pytest.raises(SchemaError) as packed:
        MIXED.pack_many([GOOD, row])
    assert str(packed.value) == str(reference.value)
    with pytest.raises(SchemaError) as single:
        MIXED.pack(row)
    assert str(single.value) == str(reference.value)


def test_char_that_exactly_fits_in_utf8_bytes_packs():
    row = (1, 2.0, "éé")  # four bytes in CHAR(4)
    assert MIXED.pack(row) == reference_pack(MIXED, row)
    assert MIXED.unpack(MIXED.pack(row)) == row
