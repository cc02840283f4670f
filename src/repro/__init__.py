"""repro: incremental view maintenance, reproducing
"Recent Increments in Incremental View Maintenance" (Gems of PODS 2024).

The package implements the paper's full technique catalogue on one shared
substrate of ring relations:

* :mod:`repro.rings` / :mod:`repro.data` — relations over rings (§2);
* :mod:`repro.delta` — classical first-order delta queries (§3.1);
* :mod:`repro.viewtree` — factorized view trees, F-IVM style (§3.2, §4.1);
* :mod:`repro.ivme` — heavy/light adaptive IVM^epsilon (§3.3, §5);
* :mod:`repro.lowerbounds` — the OuMv reduction (§3.4);
* :mod:`repro.cascade` — cascading q-hierarchical queries (§4.2);
* :mod:`repro.cqap` — free access patterns (§4.3);
* :mod:`repro.constraints` — FDs and PK-FK constraints (§4.4);
* :mod:`repro.staticdyn` — static vs dynamic relations (§4.5)
  (these three are analyses plus rewrites the view tree runs);
* :mod:`repro.insertonly` — insert-only maintenance (§4.6);
* :mod:`repro.core` — the planner and the :class:`IVMEngine` facade (§6)
  over the :mod:`repro.backend` protocol.

Quickstart::

    from repro import Database, IVMEngine, parse_query

    db = Database()
    db.create("R", ["A", "B"])
    db.create("S", ["B"])
    engine = IVMEngine(parse_query("Q(A) = R(A, B) * S(B)"), db)
    engine.insert("R", 1, 2)
    engine.insert("S", 2)
    print(dict(engine.enumerate()))
"""

from .core.engine import IVMEngine
from .core.planner import Plan, plan_maintenance
from .data.database import Database
from .data.relation import Relation
from .data.schema import Schema
from .data.update import Update
from .query.ast import Atom, Query, query
from .query.parser import parse_query

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "Database",
    "IVMEngine",
    "Plan",
    "Query",
    "Relation",
    "Schema",
    "Update",
    "parse_query",
    "plan_maintenance",
    "query",
    "__version__",
]
