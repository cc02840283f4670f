"""Relations over rings, databases, indexes, and updates (Section 2)."""

from .database import Database
from .io import dump_relation_csv, load_relation_csv, relation_from_rows
from .opcounter import COUNTER, OpCounter, counting, measure_ops
from .relation import GroupIndex, Relation, SharedBaseError
from .schema import EMPTY_SCHEMA, Schema
from .update import (
    Update,
    apply_batch,
    apply_update,
    batches_of,
    delete,
    delta_relation,
    insert,
    permuted,
)

__all__ = [
    "COUNTER",
    "Database",
    "EMPTY_SCHEMA",
    "GroupIndex",
    "OpCounter",
    "Relation",
    "Schema",
    "SharedBaseError",
    "Update",
    "apply_batch",
    "apply_update",
    "batches_of",
    "counting",
    "delete",
    "delta_relation",
    "dump_relation_csv",
    "insert",
    "load_relation_csv",
    "measure_ops",
    "permuted",
    "relation_from_rows",
]
