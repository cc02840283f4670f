"""Flight search with access patterns: tractable CQAPs (Section 4.3).

Run:  python examples/flight_search.py

The paper's motivating example for queries with free access patterns: a
flight-booking interface only answers once the user supplies a date and
an airport.  We model a departures board::

    Departures(flight, gate | origin, date) =
        Schedule(origin, date, flight) * Gates(origin, date, flight, gate)

``origin`` and ``date`` are input variables; ``flight`` and ``gate`` are
outputs.  The fracture is hierarchical, free- and input-dominant, so the
CQAP is *tractable* (Theorem 4.8): O(1) per schedule update and constant
delay per returned row.

The natural-sounding one-stop connection query, by contrast, is NOT a
tractable CQAP — the intermediate ``stop`` variable dominates the input
variables, exactly like the edge-triangle-listing of Example 4.6 — and
the planner says so upfront (it falls back to delta queries and
``answer()`` raises ``NotSupported``) rather than silently degrading.
"""

from repro import Database, IVMEngine, parse_query
from repro.cqap import fracture, is_tractable_cqap
from repro.data import Update

SCHEDULE = [
    # (origin, date, flight)
    ("ZRH", "2026-07-10", "LX318"),
    ("ZRH", "2026-07-10", "LX14"),
    ("ZRH", "2026-07-11", "LX14"),
    ("FRA", "2026-07-10", "LH400"),
]

GATES = [
    # (origin, date, flight, gate)
    ("ZRH", "2026-07-10", "LX318", "A71"),
    ("ZRH", "2026-07-10", "LX14", "E24"),
    ("ZRH", "2026-07-11", "LX14", "E22"),
    ("FRA", "2026-07-10", "LH400", "Z50"),
]


def main() -> None:
    query = parse_query(
        "Departures(flight, gate | origin, date) = "
        "Schedule(origin, date, flight) * Gates(origin, date, flight, gate)"
    )
    print(f"query: {query}")
    print(f"tractable CQAP: {is_tractable_cqap(query)}")
    for component in fracture(query).components:
        print(f"  fracture component: {component}")

    db = Database()
    db.create("Schedule", ("origin", "date", "flight"))
    db.create("Gates", ("origin", "date", "flight", "gate"))
    engine = IVMEngine(query, db)
    print(f"plan: {engine.plan.strategy}")
    for row in SCHEDULE:
        engine.apply(Update("Schedule", row, 1))
    for row in GATES:
        engine.apply(Update("Gates", row, 1))

    def board(origin: str, date: str) -> None:
        rows = sorted(
            key for key, _ in engine.answer({"origin": origin, "date": date})
        )
        print(f"  departures {origin} on {date}:")
        if not rows:
            print("    (none)")
        for flight, gate in rows:
            print(f"    {flight:6s} gate {gate}")

    print("\nsearches (each answered with constant delay):")
    board("ZRH", "2026-07-10")
    board("ZRH", "2026-07-11")

    print("\ngate change: LX14 on 2026-07-10 moves from E24 to E26")
    engine.apply(Update("Gates", ("ZRH", "2026-07-10", "LX14", "E24"), -1))
    engine.apply(Update("Gates", ("ZRH", "2026-07-10", "LX14", "E26"), 1))
    board("ZRH", "2026-07-10")

    # The intractable contrast: one-stop connections bind origin,
    # destination, and date but expose the intermediate stop.
    connections = parse_query(
        "Connections(stop | origin, destination, date) = "
        "Flights(origin, stop, date) * Flights(stop, destination, date)"
    )
    print(
        f"\none-stop connection query tractable? "
        f"{is_tractable_cqap(connections)} "
        "(the stop variable dominates the inputs, cf. Example 4.6)"
    )


if __name__ == "__main__":
    main()
