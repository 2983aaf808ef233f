"""Canonical committed-state images and the shared write-apply path.

The three machines deliver result rows in machine-specific arrival
orders (ring IC interleaving, DIRECT task scheduling, dataflow firing
order), while the reference interpreter produces them in scan order.
Committed state must nevertheless be *byte*-comparable against the
oracle, so every commit installs the **canonical form** of the new
relation: rows sorted, then densely packed.  Mid-transaction staged
pages keep their arrival order — those are genuine partial writes the
undo phase must erase — but the images logged at commit, the catalog
relation the next query reads, and the oracle's replayed state all come
from one sorted packing (the pages behind :func:`canonical_pages`) and
therefore agree byte-for-byte.  A commit sorts and packs once: the
images it logs and the relation it installs are the same pages.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.query.tree import AppendNode, DeleteNode, QueryNode, UpdateNode
from repro.relational.catalog import Catalog
from repro.relational.page import Page, pack_rows_into_pages
from repro.relational.relation import Relation
from repro.relational.schema import Row, Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.recovery.txn import Transaction, TransactionManager

__all__ = [
    "apply_write",
    "canonical_pages",
    "write_target",
]


def _canonical_page_list(
    schema: Schema, rows: Sequence[Row], page_bytes: int
) -> List[Page]:
    """Rows sorted, then densely packed — the committed form as pages."""
    return pack_rows_into_pages(schema, sorted(rows), page_bytes, validated=True)


def canonical_pages(
    schema: Schema, rows: Sequence[Row], page_bytes: int
) -> List[bytes]:
    """Sorted, densely packed page images — the committed on-disk form."""
    return [page.to_bytes() for page in _canonical_page_list(schema, rows, page_bytes)]


def write_target(root: QueryNode) -> Optional[str]:
    """The relation a write-root node mutates, or None for read roots."""
    if isinstance(root, (AppendNode, DeleteNode, UpdateNode)):
        return root.target_relation
    return None


def new_relation_rows(
    root: QueryNode, catalog: Catalog, result_rows: Sequence[Row]
) -> List[Row]:
    """The full row content of the target after this write.

    Delete/update kernels emit the *surviving/transformed whole content*
    of the target, so their result already is the new relation; append
    emits only the arriving rows, which extend the old content.  Those
    come off the child's pages, and an append node checks only that the
    child's arity matches the target's, so each arriving row is checked
    against the target's schema here; every other row is valid by
    construction.
    """
    if isinstance(root, AppendNode):
        old = catalog.get(root.target_relation)
        for row in result_rows:
            old.schema.validate_row(row)
        return list(old.rows()) + list(result_rows)
    return list(result_rows)


def apply_write(
    catalog: Catalog,
    root: QueryNode,
    result_rows: Sequence[Row],
    page_bytes: int,
    tm: Optional["TransactionManager"] = None,
    txn: Optional["Transaction"] = None,
) -> Tuple[Relation, List[Row]]:
    """Install a completed write query's new target relation.

    With a transaction manager armed, the canonical images are logged
    (diff against the buffered state), the commit record is forced, and
    the catalog gets the canonical relation.  Without one, this is a
    plain in-memory replace in arrival order — the pre-WAL behavior.

    Returns ``(new_relation, reported_rows)`` where ``reported_rows``
    is the query's result-row list (the whole updated relation, matching
    the ring machine's established reporting convention for writes).
    """
    target = root.target_relation
    schema = catalog.get(target).schema
    rows = new_relation_rows(root, catalog, result_rows)
    if tm is not None:
        if txn is None:
            raise ValueError("apply_write: tm armed but no transaction handle")
        pages = _canonical_page_list(schema, rows, page_bytes)
        tm.commit(txn, [page.to_bytes() for page in pages])
    else:
        pages = pack_rows_into_pages(schema, rows, page_bytes, validated=True)
    relation = Relation(target, schema, pages, page_bytes)
    catalog.replace(relation)
    return relation, rows
