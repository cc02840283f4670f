"""Command-line interface: classify queries and explain maintenance plans.

Usage::

    python -m repro classify "Q(Y,X,Z) = R(Y,X) * S(Y,Z)"
    python -m repro classify "Q(Z,Y,X,W) = R(X,W) * S(X,Y) * T(Y,Z)" \
        --fd "X -> Y" --fd "Y -> Z"
    python -m repro demo
    python -m repro stats "Q(A) = R(A,B) * S(B)" --updates 2000 \
        --json stats.json
    python -m repro stats "Q(A) = R(A,B) * S(B)" \
        --workload sliding-window --window 128 --batch-size 64

``classify`` runs every syntactic classifier from the paper on the query
and prints the planner's chosen strategy with its complexity guarantees —
the Section 6 "effective guide" as a tool.

``stats`` replays a synthetic workload against the planner's chosen
engine with a :class:`repro.obs.MaintenanceStats` recorder attached and
prints (or dumps as JSON) per-update latency, enumeration delay, delta
sizes, memory, and rebalance events — the observability layer as a tool.
``--oracle`` replays the same stream through the reference
implementation instead (``generated=False``: the generic view-tree walk,
no plans, no generated kernels) for A/B runs against the kernels.

``explain`` prints the chosen plan, and with ``--kernel-source`` dumps
the generated Python source of every delta/enumeration kernel the
plan's engine runs — the ground truth for what the codegen layer
executes.
"""

from __future__ import annotations

import argparse
import sys

from .constraints.fds import FunctionalDependency, sigma_reduct
from .core.planner import plan_maintenance
from .cqap.fracture import is_tractable_cqap
from .query.hypergraph import is_alpha_acyclic, is_free_connex
from .query.parser import parse_query
from .query.properties import is_hierarchical, is_q_hierarchical
from .staticdyn.analysis import is_static_dynamic_tractable


def _yesno(value: bool) -> str:
    return "yes" if value else "no"


def classify(text: str, fd_texts: list[str], insert_only: bool) -> int:
    query = parse_query(text)
    fds = tuple(FunctionalDependency.parse(t) for t in fd_texts)
    print(f"query: {query}")
    print()
    print(f"  self-join free:        {_yesno(query.is_self_join_free())}")
    print(f"  alpha-acyclic:         {_yesno(is_alpha_acyclic(query))}")
    print(f"  free-connex:           {_yesno(is_free_connex(query))}")
    print(f"  hierarchical:          {_yesno(is_hierarchical(query))}")
    print(f"  q-hierarchical:        {_yesno(is_q_hierarchical(query))}")
    if fds:
        reduct = sigma_reduct(query, fds)
        print(f"  Sigma-reduct:          {reduct}")
        print(f"  q-hier. under FDs:     {_yesno(is_q_hierarchical(reduct))}")
    if query.input_variables:
        print(f"  tractable CQAP:        {_yesno(is_tractable_cqap(query))}")
    if query.static_atoms:
        print(
            f"  static/dyn tractable:  "
            f"{_yesno(is_static_dynamic_tractable(query))}"
        )
    print()
    plan = plan_maintenance(query, fds, insert_only)
    print(f"plan: {plan.strategy}")
    print(f"  because:       {plan.reason}")
    print(f"  preprocessing: {plan.preprocessing_time}")
    print(f"  update time:   {plan.update_time}")
    print(f"  enum. delay:   {plan.enumeration_delay}")

    # Static per-relation analysis of the default view-tree order.
    try:
        from .query.analysis import analyse_order
        from .query.variable_order import order_for

        analysis = analyse_order(order_for(query))
    except Exception:  # cyclic orders etc. still work; be permissive here
        analysis = None
    if analysis is not None:
        print()
        print(analysis.render())
    return 0


def demo() -> int:
    """Replay the paper's Fig. 2 / Example 3.1 worked example."""
    from .data.database import Database
    from .data.update import Update
    from .delta.engine import DeltaQueryEngine

    db = Database()
    r = db.create("R", ("A", "B"))
    s = db.create("S", ("B", "C"))
    t = db.create("T", ("C", "A"))
    for relation, rows in (
        (r, {("a1", "b1"): 1, ("a2", "b1"): 3}),
        (s, {("b1", "c1"): 2, ("b1", "c2"): 1}),
        (t, {("c1", "a1"): 1, ("c2", "a2"): 2, ("c2", "a1"): 1}),
    ):
        for key, payload in rows.items():
            relation.add(key, payload)

    query = parse_query("Q() = R(A,B) * S(B,C) * T(C,A)")
    engine = DeltaQueryEngine(query, db)
    print("Fig. 2 -- the triangle count example")
    print()
    for relation in (r, s, t):
        print(relation.pretty())
        print()
    print(f"Q = {engine.scalar()}")
    print()
    print("update dR = {(a2, b1) -> -2}  (a delete of two copies)")
    engine.apply(Update("R", ("a2", "b1"), -2))
    print(f"R(a2, b1) is now {r.get(('a2', 'b1'))}  (3 - 2 = 1)")
    print(f"Q = {engine.scalar()}  (was 9, delta = -4)")
    return 0


def _prefilled_database(query, args):
    """The database ``stats`` and ``serve`` replay into.

    Every relation of the query holds ``--prefill`` random tuples, drawn
    from an RNG of their own so the update stream, seeded ``--seed``
    (:func:`repro.serve.loadgen.update_stream`), does not depend on
    them.  ``None``, with a message, when no relation takes updates.
    """
    import random

    from .data.database import Database
    from .serve.loadgen import value_sampler

    if not query.dynamic_atoms:
        print("query has no dynamic relations; nothing to replay")
        return None
    workload = "uniform" if args.workload == "sliding-window" else args.workload
    value = value_sampler(
        random.Random(args.seed ^ 0xF111), args.domain, workload, args.zipf_s
    )
    db = Database()
    for atom in query.atoms:
        if atom.relation not in db:
            db.create(atom.relation, atom.variables)
            for _ in range(args.prefill):
                db[atom.relation].add(tuple(value() for _ in atom.variables), 1)
    return db


def _print_header(args, query, plan) -> None:
    print(f"query: {query}")
    print(f"plan:  {plan}")
    shape = ""
    if args.workload == "zipf":
        shape = f" (s={args.zipf_s})"
    elif args.workload == "sliding-window":
        shape = f" (window={args.window})"
    print(f"workload: {args.workload}{shape}")


def _workload_meta(args) -> dict:
    """The ``meta`` keys of the options ``stats`` and ``serve`` share."""
    return {
        "shards": args.shards,
        "shard_executor": args.shard_executor if args.shards > 1 else None,
        "workload": args.workload,
        "zipf_s": args.zipf_s if args.workload == "zipf" else None,
        "window": args.window if args.workload == "sliding-window" else None,
    }


def run_stats(args: argparse.Namespace) -> int:
    """Replay a synthetic workload and print/dump the stats recorder."""
    import time
    from itertools import islice

    from .core.engine import IVMEngine
    from .data.opcounter import counting
    from .obs import write_stats_json
    from .serve.loadgen import update_stream

    insert_only, updates, batch = args.insert_only, args.updates, args.batch
    query = parse_query(args.query)
    fds = tuple(FunctionalDependency.parse(t) for t in args.fd)
    db = _prefilled_database(query, args)
    if db is None:
        return 1
    plan = plan_maintenance(query, fds, insert_only, shards=args.shards)
    deletes_ok = not insert_only and plan.strategy != "insert-only"
    if args.workload == "sliding-window" and not deletes_ok:
        print("--workload sliding-window needs deletes (drop --insert-only)")
        return 1

    engine = IVMEngine(
        query,
        db,
        fds,
        insert_only,
        plan=plan,
        shards=args.shards,
        shard_executor=args.shard_executor,
        generated=not args.oracle,
    )
    stats = engine.attach_stats()
    # A CQAP plan is read through access requests, never enumerated whole.
    can_enumerate = plan.input_origin is None
    sharded = plan.strategy == "sharded-viewtree"
    # Batches of ``--batch`` go through ``apply_batch``: the sharded
    # coordinator splits once and runs shards in parallel, the view-tree
    # family coalesces and runs the generated batch kernels.  ``--batch 1``
    # forces the per-update path (except for sharded plans, where the
    # per-update path would serialize the coordinator).
    step = max(batch, 1)
    batched = sharded or step > 1
    stream = update_stream(
        query,
        updates,
        domain=args.domain,
        seed=args.seed,
        workload=args.workload,
        zipf_s=args.zipf_s,
        window=args.window,
        deletes_ok=deletes_ok,
    )
    chunks = iter(lambda: list(islice(stream, step)), [])

    enum_seconds = 0.0

    def drain() -> None:
        nonlocal enum_seconds
        begin = time.perf_counter()
        for _ in engine.enumerate():
            pass
        enum_seconds += time.perf_counter() - begin

    start = time.perf_counter()
    try:
        # One op count over the whole replay; work done inside shard
        # worker processes is not in it.
        with counting() as ops:
            for index, chunk in enumerate(chunks, 1):
                if batched:
                    engine.apply_batch(chunk)
                else:
                    for update in chunk:
                        engine.apply(update)
                if can_enumerate and args.enum_interval and (
                    index % args.enum_interval == 0
                ):
                    drain()
            if can_enumerate:
                drain()
        seconds = time.perf_counter() - start
        if sharded:
            stats = engine.backend.merged_stats()
    finally:
        # Close unconditionally: an exception mid-replay must not leak
        # the sharded backend's worker processes.
        engine.close()
    stats.record_ops(ops.counts)

    _print_header(args, query, plan)
    print()
    print(stats.render())
    print()
    # ``seconds`` includes the periodic drain() enumerations, so the
    # end-to-end rate undersells pure maintenance throughput: report
    # both.
    maintenance_seconds = max(seconds - enum_seconds, 0.0)
    rate_maintenance = (
        updates / maintenance_seconds if maintenance_seconds > 0 else 0.0
    )
    rate_end_to_end = updates / seconds if seconds > 0 else 0.0
    print(
        f"replayed {updates} updates in {seconds:.3f}s "
        f"({rate_maintenance:,.0f} upd/s maintenance-only, "
        f"{rate_end_to_end:,.0f} upd/s end-to-end incl. "
        f"{enum_seconds:.3f}s enumeration)"
    )
    if args.json:
        written = write_stats_json(
            args.json,
            stats,
            meta={
                "query": str(query),
                "plan": plan.strategy,
                "updates": updates,
                "prefill": args.prefill,
                "domain": args.domain,
                "seed": args.seed,
                "seconds": seconds,
                "seconds_maintenance": maintenance_seconds,
                "seconds_enumeration": enum_seconds,
                "rate_maintenance": rate_maintenance,
                "rate_end_to_end": rate_end_to_end,
                **_workload_meta(args),
                "batch": batch,
                "generated": engine.generated,
            },
        )
        print(f"stats written to {written}")
    return 0


def run_explain(
    text: str,
    fd_texts: list[str],
    insert_only: bool,
    kernel_source: bool,
) -> int:
    """Print the maintenance plan and its view tree, optionally with
    generated kernel source.

    The tree is built over empty relations, each with the schema of its
    first atom; its rendering marks every leaf ``= base`` or
    ``copy (why)``.  Each kernel's source is what its own plan emits, a
    pure function of the plan's shape and its ring's operator
    declarations, so the dump is exactly the code a populated engine of
    the same shape executes — deterministic output that tests pin.
    """
    from .core.engine import IVMEngine
    from .data.database import Database

    query = parse_query(text)
    fds = tuple(FunctionalDependency.parse(t) for t in fd_texts)
    plan = plan_maintenance(query, fds, insert_only)
    print(f"query: {query}")
    print(f"plan:  {plan}")
    if plan.query is None:
        if kernel_source:
            print()
            print(f"no generated kernels: plan {plan.strategy!r} runs none")
        return 0

    db = Database()
    for atom in query.atoms:
        if atom.relation not in db:
            db.create(atom.relation, atom.variables)
    # Every view-tree plan is one tree (a CQAP's fracture components are
    # its roots), so its kernels are the whole story.
    tree = IVMEngine(query, db, fds, insert_only, plan=plan).backend
    print()
    print("view tree:")
    print(tree.describe())
    if not kernel_source:
        return 0
    for name in sorted(tree._kernels):
        for anchor, kernel in enumerate(tree._kernels[name]):
            print()
            print(f"-- delta kernel {name}[{anchor}] --")
            print(kernel.source.rstrip("\n"))
    if tree._enum_kernel is not None:
        print()
        print("-- enum kernel --")
        print(tree._enum_kernel.source.rstrip("\n"))
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """Closed-loop load test against the async serving front-end."""
    import asyncio

    from .core.engine import IVMEngine
    from .obs import write_stats_json
    from .serve import AsyncIVMServer, run_load_test

    query = parse_query(args.query)
    fds = tuple(FunctionalDependency.parse(t) for t in args.fd)
    if query.input_variables:
        print("serve needs an enumerable query (no input variables)")
        return 1
    updates = min(args.updates, 500) if args.smoke else args.updates
    db = _prefilled_database(query, args)
    if db is None:
        return 1

    plan = plan_maintenance(query, fds, shards=args.shards)
    engine = IVMEngine(
        query,
        db,
        fds,
        plan=plan,
        shards=args.shards,
        shard_executor=args.shard_executor,
    )

    async def run() -> dict:
        async with server:
            return await run_load_test(
                server,
                query,
                updates,
                writers=args.writers,
                readers=args.readers,
                domain=args.domain,
                seed=args.seed,
                workload=args.workload,
                zipf_s=args.zipf_s,
                window=args.window,
                deletes_ok=plan.strategy != "insert-only",
                change_feed=args.change_feed,
            )

    try:
        server = AsyncIVMServer(
            engine,
            max_batch=args.max_batch,
            max_delay=args.max_delay / 1000.0,
        )
        stats = server.attach_stats()
        summary = asyncio.run(run())
        if plan.strategy == "sharded-viewtree":
            stats = engine.backend.merged_stats()
    finally:
        engine.close()

    _print_header(args, query, plan)
    reads_mode = "epoch snapshots" if server.snapshot_reads else "live"
    print(
        f"serving:  {args.writers} writers + {args.readers} readers, "
        f"max_batch={args.max_batch} max_delay={args.max_delay:g}ms "
        f"reads={reads_mode}"
    )
    print()
    print(stats.render())
    print()
    print(
        f"served {updates} updates in {summary['seconds']:.3f}s "
        f"({summary['rate_maintenance']:,.0f} upd/s maintenance-only, "
        f"{summary['rate_end_to_end']:,.0f} upd/s end-to-end)"
    )
    print(
        f"commit latency p50<={summary['commit_p50']:.2g}s "
        f"p99<={summary['commit_p99']:.2g}s; "
        f"read staleness p50<={summary['staleness_p50']:.2g}s "
        f"p99<={summary['staleness_p99']:.2g}s "
        f"over {summary['reads']} reads ({summary['read_rate']:,.0f}/s)"
    )
    if "feed_deltas" in summary:
        verdict = "identical" if summary["maintained_ok"] else "MISMATCH"
        print(
            f"change feed: {summary['feed_deltas']} deltas "
            f"({summary['feed_tuples']} tuples, "
            f"{summary['feed_gaps']} gaps); maintained state of "
            f"{summary['maintained_entries']} entries {verdict} "
            f"to a fresh drain"
        )
        if not summary["maintained_ok"]:
            return 1
    if args.json:
        written = write_stats_json(
            args.json,
            stats,
            meta={
                "mode": "serve",
                "query": str(query),
                "plan": plan.strategy,
                **_workload_meta(args),
                "prefill": args.prefill,
                "domain": args.domain,
                "seed": args.seed,
                "max_batch": args.max_batch,
                "max_delay_ms": args.max_delay,
                "per_update": args.max_batch == 1,
                "snapshot_reads": server.snapshot_reads,
                "generated": engine.generated,
                **summary,
            },
        )
        print(f"stats written to {written}")
    return 0


def _query_options() -> argparse.ArgumentParser:
    """Parent parser: the query and its functional dependencies."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("query", help='e.g. "Q(A) = R(A,B) * S(B)"')
    parent.add_argument(
        "--fd", action="append", default=[], metavar="'X -> Y'",
        help="functional dependency (repeatable)",
    )
    return parent


def _workload_options(domain: int) -> argparse.ArgumentParser:
    """Parent parser for what ``stats`` and ``serve`` both take.

    Built once per subcommand: argparse shares a parent's actions with
    its children, so a per-command default has to be its own action.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--prefill", type=int, default=50,
        help="tuples preloaded per relation before planning (default 50)",
    )
    parent.add_argument(
        "--domain", type=int, default=domain,
        help=f"attribute value domain size (default {domain})",
    )
    parent.add_argument("--seed", type=int, default=0)
    parent.add_argument(
        "--shards", type=int, default=1,
        help="hash-partition view-tree maintenance across N shards "
        "(default 1 = unsharded)",
    )
    parent.add_argument(
        "--shard-executor", choices=("serial", "process"), default="serial",
        help="shard executor: every shard in-process, or shard 0 "
        "in-process plus N-1 persistent worker processes (default serial)",
    )
    parent.add_argument(
        "--workload", choices=("uniform", "zipf", "sliding-window"),
        default="uniform",
        help="stream shape: uniform / zipf value distributions, or "
        "sliding-window insert+delayed-delete pairs (default uniform)",
    )
    parent.add_argument(
        "--zipf-s", type=float, default=1.2,
        help="Zipf skew exponent for --workload zipf (default 1.2)",
    )
    parent.add_argument(
        "--window", type=int, default=256,
        help="tuples kept live by --workload sliding-window (default 256)",
    )
    parent.add_argument(
        "--json", metavar="PATH", default=None,
        help="also dump the recorder as repro.obs/1 JSON",
    )
    return parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IVM query classification and maintenance planning",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    query_options = _query_options()

    classify_parser = subparsers.add_parser(
        "classify", parents=[query_options],
        help="classify a query and print its maintenance plan",
    )
    classify_parser.add_argument(
        "--insert-only",
        action="store_true",
        help="assume an insert-only update stream (Section 4.6)",
    )

    subparsers.add_parser("demo", help="replay the Fig. 2 worked example")

    stats_parser = subparsers.add_parser(
        "stats", parents=[query_options, _workload_options(domain=10)],
        help="replay a synthetic workload and report maintenance statistics",
    )
    stats_parser.add_argument(
        "--insert-only", action="store_true",
        help="generate an insert-only update stream",
    )
    stats_parser.add_argument(
        "--updates", type=int, default=2000, help="stream length (default 2000)"
    )
    stats_parser.add_argument(
        "--batch", "--batch-size", dest="batch", type=int, default=100,
        help="batch size routed through apply_batch; 1 forces the "
        "per-update path (default 100)",
    )
    stats_parser.add_argument(
        "--enum-interval", type=int, default=4,
        help="full enumeration every N batches; 0 disables (default 4)",
    )
    stats_parser.add_argument(
        "--oracle", action="store_true",
        help="run the reference implementation (generated=False: the "
        "generic view-tree walk, no generated kernels) for A/B runs",
    )

    explain_parser = subparsers.add_parser(
        "explain", parents=[query_options],
        help="print the maintenance plan; --kernel-source dumps the "
        "generated kernel code",
    )
    explain_parser.add_argument(
        "--insert-only", action="store_true",
        help="assume an insert-only update stream (Section 4.6)",
    )
    explain_parser.add_argument(
        "--kernel-source", action="store_true",
        help="dump the generated Python source of every delta/enum kernel",
    )

    serve_parser = subparsers.add_parser(
        "serve", parents=[query_options, _workload_options(domain=16)],
        help="closed-loop load test of the async group-commit serving "
        "front-end (concurrent writers + readers)",
    )
    serve_parser.add_argument(
        "--updates", type=int, default=5000,
        help="total updates across all writers (default 5000)",
    )
    serve_parser.add_argument(
        "--writers", type=int, default=4,
        help="concurrent writer tasks (default 4)",
    )
    serve_parser.add_argument(
        "--readers", type=int, default=2,
        help="concurrent point-lookup reader tasks (default 2)",
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=256,
        help="group-commit size trigger and queue bound: submit() blocks "
        "while a full batch waits to be sealed (default 256)",
    )
    serve_parser.add_argument(
        "--max-delay", type=float, default=2.0, metavar="MS",
        help="group-commit latency trigger in milliseconds (default 2)",
    )
    serve_parser.add_argument(
        "--smoke", action="store_true",
        help="clamp to a short CI-sized run (at most 500 updates)",
    )
    serve_parser.add_argument(
        "--change-feed", action="store_true",
        help="attach a change-feed subscriber that applies every "
        "per-epoch output delta and verifies the maintained state "
        "against a fresh drain (exit 1 on mismatch)",
    )

    args = parser.parse_args(argv)
    if args.command == "classify":
        return classify(args.query, args.fd, args.insert_only)
    if args.command == "demo":
        return demo()
    if args.command == "stats":
        return run_stats(args)
    if args.command == "explain":
        return run_explain(
            args.query, args.fd, args.insert_only, args.kernel_source
        )
    if args.command == "serve":
        return run_serve(args)
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
