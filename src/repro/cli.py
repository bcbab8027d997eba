"""Command-line interface: build, update, query and inspect saved indexes.

The CLI makes the system operable end-to-end without writing Python::

    repro build data.nt.gz -o data.ridx --layout 2tp
    repro info data.ridx
    repro query data.ridx --pattern '<http://example.org/alice> ? ?'
    repro query data.ridx --sparql 'SELECT ?o WHERE { 0 1 ?o }'
    repro explain data.ridx --sparql 'SELECT ?o WHERE { 0 1 ?o }'
    repro update data.ridx more.nt
    repro compact data.ridx

``build`` ingests an N-Triples file (gzip-compressed ``.nt.gz`` works
anywhere a plain file does; with ``--ids``, whitespace-separated integer
triples), builds one of the paper's four layouts and persists it — together
with the string dictionaries when the input was N-Triples — into a single
checksummed container file.  ``query`` loads such a file in a fresh process
and answers triple selection patterns or SPARQL BGPs; ``info`` prints the
file's metadata, per-section sizes and space statistics.  ``update``
inserts (or, with ``--delete``, removes) triples through the dynamic delta
overlay and saves the file back with a ``delta`` section; ``compact`` folds
an accumulated delta into a freshly built index.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from typing import List, Optional, Sequence, Tuple

from repro.errors import ParseError, ReproError

#: Pattern-term tokens accepted by ``query --pattern``: a wildcard (``?`` or
#: ``?name``), an IRI, a literal with optional language tag or datatype, or a
#: plain integer ID.
_PATTERN_TOKEN_RE = re.compile(
    r"""\?[A-Za-z0-9_]*                                 # wildcard
      | <[^>]*>                                         # IRI
      | "(?:[^"\\]|\\.)*"(?:@[A-Za-z][A-Za-z0-9\-]*|\^\^<[^>]*>)?  # literal
      | \d+                                             # integer ID
      """,
    re.VERBOSE,
)


def _tokenize_pattern(text: str) -> List[str]:
    tokens = []
    position = 0
    while position < len(text):
        if text[position].isspace():
            position += 1
            continue
        match = _PATTERN_TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(f"cannot parse pattern term at {text[position:]!r}")
        tokens.append(match.group(0))
        position = match.end()
    return tokens


def _resolve_pattern(text: str, dictionary) -> Optional[Tuple[Optional[int], ...]]:
    """Turn ``--pattern 'S P O'`` into an ``(s, p, o)`` tuple of IDs/wildcards.

    Returns ``None`` when a constant term is absent from the dictionary — the
    pattern then provably matches nothing.
    """
    tokens = _tokenize_pattern(text)
    if len(tokens) != 3:
        raise ParseError(
            f"a pattern needs exactly 3 terms (subject predicate object), "
            f"got {len(tokens)}: {text!r}")
    components: List[Optional[int]] = []
    for role, token in enumerate(tokens):
        if token.startswith("?"):
            components.append(None)
        elif token.isdigit():
            components.append(int(token))
        else:
            if dictionary is None:
                raise ParseError(
                    f"term {token} needs a dictionary, but this index was "
                    f"built without one (--ids); use integer IDs")
            role_dictionary = (dictionary.subjects, dictionary.predicates,
                               dictionary.objects)[role]
            identifier = role_dictionary.get(token)
            if identifier is None:
                return None
            components.append(identifier)
    return tuple(components)


def _format_triple(triple: Tuple[int, int, int], dictionary) -> str:
    if dictionary is None:
        return "{} {} {}".format(*triple)
    # Lenient: IDs inserted dynamically may have no term yet.
    s, p, o = dictionary.decode_lenient(triple)
    return f"{s} {p} {o} ."


# --------------------------------------------------------------------------- #
# build
# --------------------------------------------------------------------------- #

def _read_id_triples(path: str) -> List[Tuple[int, int, int]]:
    from repro.rdf.ntriples import open_text

    triples = []
    with open_text(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 3 or not all(part.isdigit() for part in parts):
                raise ParseError(
                    f"{path}:{line_number}: expected three integer IDs, "
                    f"got {stripped!r}")
            triples.append((int(parts[0]), int(parts[1]), int(parts[2])))
    return triples


def _command_build(args: argparse.Namespace) -> int:
    from repro.core.builder import IndexBuilder
    from repro.queries.planner import QueryPlanner
    from repro.rdf.dictionary import RdfDictionary
    from repro.rdf.ntriples import parse_ntriples_file, term_triples_to_keys
    from repro.rdf.triples import TripleStore
    from repro.storage import save_index

    started = time.perf_counter()
    if args.ids:
        dictionary = None
        store = TripleStore.from_triples(_read_id_triples(args.input))
    else:
        term_triples = term_triples_to_keys(parse_ntriples_file(args.input))
        dictionary, store = RdfDictionary.from_term_triples(term_triples)
    parse_seconds = time.perf_counter() - started
    if len(store) == 0:
        print(f"error: {args.input} contains no triples", file=sys.stderr)
        return 1

    started = time.perf_counter()
    index = IndexBuilder(store).build(args.layout)
    build_seconds = time.perf_counter() - started

    started = time.perf_counter()
    planner_stats = (None if args.no_stats
                     else QueryPlanner.cardinalities_from_store(store))
    written = save_index(index, args.output, dictionary=dictionary,
                         planner_stats=planner_stats, aligned=args.align)
    save_seconds = time.perf_counter() - started

    print(f"indexed {len(store)} triples "
          f"({store.num_subjects} subjects, {store.num_predicates} predicates, "
          f"{store.num_objects} objects)")
    print(f"layout: {index.name}  ({index.bits_per_triple():.2f} bits/triple in memory)")
    print(f"wrote {args.output}: {written} bytes "
          f"({written * 8 / len(store):.2f} bits/triple on disk)")
    print(f"timings: parse {parse_seconds:.3f}s, build {build_seconds:.3f}s, "
          f"save {save_seconds:.3f}s")
    return 0


# --------------------------------------------------------------------------- #
# update / compact
# --------------------------------------------------------------------------- #

def _resolve_update_triples(args: argparse.Namespace, dictionary
                            ) -> List[Tuple[int, int, int]]:
    """The ID triples an ``update`` run applies (terms resolved/minted)."""
    from repro.rdf.ntriples import parse_ntriples_file

    if args.ids:
        return _read_id_triples(args.input)
    if dictionary is None:
        raise ParseError(
            f"{args.index} was built without a dictionary (--ids); pass "
            f"--ids and integer triples to update it")
    triples: List[Tuple[int, int, int]] = []
    for s, p, o in parse_ntriples_file(args.input):
        if args.delete:
            # Unknown terms cannot name an indexed triple: skip, don't mint.
            ids = (dictionary.subjects.get(s.key()),
                   dictionary.predicates.get(p.key()),
                   dictionary.objects.get(o.key()))
            if None in ids:
                continue
            triples.append(ids)
        else:
            triples.append(dictionary.encode_or_add(s.key(), p.key(), o.key()))
    return triples


def _command_update(args: argparse.Namespace) -> int:
    from repro.storage import load_index

    started = time.perf_counter()
    loaded = load_index(args.index)
    index = loaded.queryable(writable=True,
                             compaction_ratio=args.compact_ratio)
    triples = _resolve_update_triples(args, loaded.dictionary)
    result = (index.delete(triples) if args.delete
              else index.insert(triples))
    output = args.output or args.index
    # An auto-compaction recomputed the cardinality histograms; saving the
    # pre-update ones would make every later load plan on stale estimates.
    planner_stats = (result.compaction.cardinalities
                     if result.compaction is not None
                     else loaded.planner_stats)
    written = index.save(output, dictionary=loaded.dictionary,
                         planner_stats=planner_stats)
    seconds = time.perf_counter() - started
    verb = "deleted" if args.delete else "inserted"
    applied = result.deleted if args.delete else result.inserted
    print(f"{verb} {applied} of {len(triples)} triples "
          f"(epoch {index.epoch}, {index.num_triples} total)")
    if result.compaction is not None:
        print(f"compaction triggered: delta folded into a fresh "
              f"{result.compaction.layout} index "
              f"in {result.compaction.seconds:.3f}s")
    compact_error = index.delta_statistics().get("auto_compact_error")
    if compact_error:
        # The update itself applied and is saved below; the operator asked
        # for threshold compaction, so its failure must not be silent.
        print(f"warning: requested auto-compaction failed "
              f"({compact_error}); the delta was saved uncompacted — "
              f"fix the cause and run 'repro compact'", file=sys.stderr)
    delta = index.delta
    print(f"delta: {delta.num_inserted} inserted, "
          f"{delta.num_deleted} tombstones")
    print(f"wrote {output}: {written} bytes in {seconds:.3f}s")
    return 0


def _command_compact(args: argparse.Namespace) -> int:
    from repro.storage import load_index

    started = time.perf_counter()
    loaded = load_index(args.index)
    index = loaded.queryable()
    if not hasattr(index, "compact") or not index.delta:
        print(f"{args.index}: no delta to compact")
        return 0
    result = index.compact()
    output = args.output or args.index
    written = index.save(output, dictionary=loaded.dictionary,
                         planner_stats=result.cardinalities)
    seconds = time.perf_counter() - started
    print(f"compacted {result.absorbed_inserts} inserts and "
          f"{result.absorbed_deletes} tombstones into a fresh "
          f"{result.layout} index ({result.num_triples} triples)")
    print(f"wrote {output}: {written} bytes "
          f"(rebuild {result.seconds:.3f}s, total {seconds:.3f}s)")
    return 0


# --------------------------------------------------------------------------- #
# query
# --------------------------------------------------------------------------- #

def _run_pattern_query(index, dictionary, args: argparse.Namespace) -> int:
    pattern = _resolve_pattern(args.pattern, dictionary)
    # Stream: only --json needs the triples materialised; --count and the
    # plain listing must stay O(1) in memory on huge result sets.
    matched = 0
    collected = [] if args.json else None
    if pattern is not None and (args.limit is None or args.limit > 0):
        for triple in index.select(pattern):
            matched += 1
            if collected is not None:
                collected.append(triple)
            elif not args.count:
                print(_format_triple(triple, dictionary))
            if args.limit is not None and matched >= args.limit:
                break
    if args.json:
        from repro.service import jsonio
        print(jsonio.dumps(jsonio.pattern_results_to_json(
            collected, dictionary=dictionary)))
    elif args.count:
        print(matched)
    else:
        print(f"{matched} matching triples", file=sys.stderr)
    return 0


def _run_sparql_query(index, dictionary, text: str, args: argparse.Namespace,
                      cardinalities=None) -> int:
    from repro.queries.planner import execute_bgp
    from repro.queries.sparql import parse_sparql

    query = parse_sparql(text, dictionary=dictionary)
    engine = getattr(args, "engine", None) or "auto"
    results, statistics = execute_bgp(index, query, max_results=args.limit,
                                      cardinalities=cardinalities,
                                      engine=engine)
    variables = list(query.projection or query.variables())
    if args.json:
        from repro.service import jsonio
        print(jsonio.dumps(jsonio.sparql_results_to_json(
            variables, results, statistics)))
        return 0
    if args.count:
        print(len(results))
        return 0
    print("\t".join(variables))
    for binding in results:
        print("\t".join(str(binding.get(variable, "")) for variable in variables))
    print(f"{len(results)} solutions, {statistics.patterns_executed} atomic "
          f"patterns executed ({statistics.engine} engine)", file=sys.stderr)
    return 0


def _command_query(args: argparse.Namespace) -> int:
    from repro.storage import load_index

    if args.pattern is not None and args.engine is not None:
        # Mirror the HTTP endpoint: the executor knob has no meaning for a
        # single selection pattern, so reject it instead of ignoring it.
        print("error: --engine only applies to SPARQL queries, not --pattern",
              file=sys.stderr)
        return 2
    loaded = load_index(args.index, mmap=args.mmap)
    # A file carrying a delta section must answer through the merged view.
    index = loaded.queryable()
    if args.pattern is not None:
        return _run_pattern_query(index, loaded.dictionary, args)
    if args.sparql is not None:
        return _run_sparql_query(index, loaded.dictionary, args.sparql,
                                 args, cardinalities=loaded.planner_stats)
    with open(args.sparql_file, "r", encoding="utf-8") as handle:
        return _run_sparql_query(index, loaded.dictionary, handle.read(),
                                 args, cardinalities=loaded.planner_stats)


# --------------------------------------------------------------------------- #
# explain
# --------------------------------------------------------------------------- #

def _command_explain(args: argparse.Namespace) -> int:
    from repro.obs import render_profile
    from repro.service.engine import QueryService

    if args.sparql is not None:
        text = args.sparql
    else:
        with open(args.sparql_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    service = QueryService.from_file(args.index, mmap=args.mmap,
                                     engine=args.engine or "auto")
    try:
        result = service.execute(text, limit=args.limit, profile=True)
    finally:
        service.close()
    if args.json:
        from repro.service import jsonio
        print(jsonio.dumps(result.profile))
        return 0
    print(render_profile(result.profile))
    print(f"{result.count} solutions in "
          f"{result.elapsed_seconds * 1000:.2f}ms "
          f"({result.statistics.get('engine', '?')} engine)",
          file=sys.stderr)
    return 0


# --------------------------------------------------------------------------- #
# info
# --------------------------------------------------------------------------- #

def _command_info(args: argparse.Namespace) -> int:
    from repro.storage import file_info

    info = file_info(args.index, include_breakdown=args.breakdown)
    if args.json:
        from repro.service import jsonio
        print(jsonio.dumps(jsonio.info_to_json(info)))
        return 0
    meta = info["meta"]
    print(f"file: {info['path']}")
    print(f"container format version: {info['format_version']}")
    print(f"written by repro version: {meta.get('library_version', '?')}")
    print(f"layout: {meta.get('layout', '?')}")
    num_triples = meta.get("num_triples", 0)
    print(f"triples: {num_triples}")
    if meta.get("has_delta"):
        inserted = meta.get("delta_inserted", 0)
        deleted = meta.get("delta_deleted", 0)
        print(f"delta: {inserted} inserted, {deleted} tombstones "
              f"({num_triples + inserted - deleted} merged triples; "
              f"run 'repro compact' to fold in)")
    print(f"dictionary bundled: {'yes' if meta.get('has_dictionary') else 'no'}")
    total = info["total_bytes"]
    print(f"file size: {total} bytes")
    if num_triples:
        print(f"on-disk bits/triple: {total * 8 / num_triples:.2f}")
        size_in_bits = meta.get("size_in_bits")
        if size_in_bits:
            print(f"in-memory bits/triple: {size_in_bits / num_triples:.2f}")
    print("sections:")
    for name, size in sorted(info["section_bytes"].items()):
        print(f"    {name:<12} {size} bytes")
    if args.breakdown:
        print("space breakdown (bits, in memory):")
        for component, bits in info["space_breakdown"].items():
            print(f"    {component:<18} {bits}")
    return 0


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #

def _command_serve(args: argparse.Namespace) -> int:
    import signal

    if args.workers > 1:
        # Pre-fork pool: master + single writer + N accepting workers over
        # one shared listener and one mmap-shared index.  The pool prints
        # its own "serving on ..." line and handles SIGTERM/SIGINT itself.
        from repro.service.pool import ServerPool
        pool = ServerPool(
            args.index, workers=args.workers,
            host=args.host, port=args.port,
            writable=args.writable or args.wal is not None,
            wal_path=args.wal, compaction_ratio=args.compact_ratio,
            mmap=args.mmap, quiet=args.quiet,
            max_inflight=args.max_inflight,
            rate_limit=args.rate_limit, rate_burst=args.rate_burst,
            log_format=args.log_format,
            service_options=dict(
                plan_cache_size=args.plan_cache,
                result_cache_size=args.result_cache,
                default_timeout=args.timeout,
                max_limit=args.max_limit,
                engine=args.engine,
                slow_log=args.slow_log,
                slow_ms=args.slow_ms))
        return pool.run()

    from repro.service import (
        AdmissionControl,
        MetricsBlock,
        QueryService,
        TokenBucketLimiter,
        build_server,
    )

    started = time.perf_counter()
    service = QueryService.from_file(
        args.index,
        writable=args.writable,
        wal_path=args.wal,
        compaction_ratio=args.compact_ratio,
        plan_cache_size=args.plan_cache,
        result_cache_size=args.result_cache,
        default_timeout=args.timeout,
        max_limit=args.max_limit,
        engine=args.engine,
        mmap=args.mmap,
        slow_log=args.slow_log,
        slow_ms=args.slow_ms)
    load_seconds = time.perf_counter() - started
    block = MetricsBlock(1)
    limiter = (TokenBucketLimiter(args.rate_limit, args.rate_burst)
               if args.rate_limit > 0 else None)
    server = build_server(service, host=args.host, port=args.port,
                          quiet=args.quiet,
                          admission=AdmissionControl(args.max_inflight),
                          rate_limiter=limiter,
                          log_format=args.log_format,
                          metrics=block.worker(0), metrics_block=block)
    host, port = server.server_address[:2]
    print(f"loaded {args.index} in {load_seconds:.3f}s "
          f"({service.index.num_triples} triples, layout "
          f"{getattr(service.index, 'name', '?')})")
    writable = service.statistics()["index"]["writable"]
    endpoints = "POST /query, GET /stats, GET /metrics, GET /healthz"
    if writable:
        endpoints = "POST /query, POST /update, POST /compact, " \
                    "GET /stats, GET /metrics, GET /healthz"
        durability = (f"WAL {args.wal}" if args.wal
                      else "in-memory only (no --wal)")
        print(f"writable: updates accepted, {durability}")
    print(f"serving on http://{host}:{port}  "
          f"({endpoints}; Ctrl-C to stop)",
          flush=True)

    def _sigterm(_signum, _frame):
        # Containers and orchestrators stop services with SIGTERM; route it
        # through the KeyboardInterrupt path so the shutdown is identical
        # to Ctrl-C (server_close + WAL release) instead of the default
        # kill skipping cleanup entirely.
        raise KeyboardInterrupt

    previous_handler = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous_handler)
        server.server_close()
        service.close()
    return 0


# --------------------------------------------------------------------------- #
# verify
# --------------------------------------------------------------------------- #

def _command_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.storage import verify_container

    if Path(args.index).is_dir():
        return _verify_cluster_dir(args)
    report = verify_container(args.index)
    if args.json:
        from repro.service import jsonio
        print(jsonio.dumps(report))
        return 0 if report["ok"] else 1
    print(f"file: {report['path']}")
    print(f"container format version: {report['format_version']}"
          + (" (aligned)" if report["aligned"] else ""))
    print(f"file size: {report['total_bytes']} bytes, "
          f"{report['num_sections']} sections")
    for section in report["sections"]:
        status = "ok" if not section["errors"] else "; ".join(section["errors"])
        print(f"    {section['name']:<12} offset {section['offset']:>10} "
              f"length {section['length']:>10}  {status}")
    if report["ok"]:
        print("all section checksums verified")
        return 0
    print(f"error: {len(report['problems'])} problem(s) found",
          file=sys.stderr)
    return 1


def _verify_cluster_dir(args: argparse.Namespace) -> int:
    """Verify a cluster directory: manifest signature + every container."""
    from pathlib import Path

    from repro.cluster.partition import MANIFEST_NAME, META_NAME, read_manifest
    from repro.storage import verify_container

    cluster_dir = Path(args.index)
    manifest = read_manifest(cluster_dir / MANIFEST_NAME,
                             getattr(args, "key", None))
    containers = [manifest.get("meta_container", META_NAME)]
    for entry in manifest["shards"]:
        containers.append(entry["primary"])
        if entry.get("replica"):
            containers.append(entry["replica"])
    reports = []
    for name in containers:
        reports.append(verify_container(cluster_dir / name))
    ok = all(report["ok"] for report in reports)
    if args.json:
        from repro.service import jsonio
        print(jsonio.dumps({
            "ok": ok,
            "manifest": {"num_shards": manifest["num_shards"],
                         "num_replicas": manifest.get("num_replicas", 1),
                         "version": manifest.get("version", 1),
                         "num_triples": manifest["num_triples"]},
            "containers": reports}))
        return 0 if ok else 1
    print(f"cluster: {cluster_dir}")
    print(f"manifest: signature ok, {manifest['num_shards']} shard(s), "
          f"{manifest.get('num_replicas', 1)} replica(s), topology version "
          f"{manifest.get('version', 1)}, {manifest['num_triples']} triples")
    for name, report in zip(containers, reports):
        status = ("ok" if report["ok"]
                  else "; ".join(str(p) for p in report["problems"]))
        print(f"    {name:<28} {report['total_bytes']:>10} bytes  {status}")
    if ok:
        print("manifest and all container checksums verified")
        return 0
    print("error: container problem(s) found", file=sys.stderr)
    return 1


# --------------------------------------------------------------------------- #
# partition / rebalance / shard / coordinator
# --------------------------------------------------------------------------- #

def _command_partition(args: argparse.Namespace) -> int:
    from repro.cluster.partition import build_cluster

    started = time.perf_counter()
    manifest = build_cluster(
        args.index, args.output, args.shards,
        layout=args.layout, replica_layout=args.replica_layout,
        key=args.key, aligned=not args.no_align,
        num_replicas=args.replicas)
    seconds = time.perf_counter() - started
    total = sum(entry["num_triples"] for entry in manifest["shards"])
    print(f"partitioned {total} triples into {manifest['num_shards']} "
          f"shard(s) x {manifest['num_replicas']} replica(s) under "
          f"{args.output} in {seconds:.3f}s")
    for entry in manifest["shards"]:
        line = (f"    shard {entry['id']}: {entry['num_triples']} primary "
                f"triples ({entry['primary']})")
        if entry.get("replica"):
            line += (f", {entry['replica_num_triples']} replica triples "
                     f"({entry['replica']})")
        print(line)
    print("manifest: signed manifest.json (verify with the same key on load)")
    return 0


def _command_rebalance(args: argparse.Namespace) -> int:
    from repro.cluster.partition import rebalance_cluster

    started = time.perf_counter()
    manifest = rebalance_cluster(
        args.cluster, args.shards, key=args.key,
        aligned=not args.no_align, num_replicas=args.replicas)
    seconds = time.perf_counter() - started
    print(f"rebalanced {manifest['num_triples']} triples into "
          f"{manifest['num_shards']} shard(s) under {args.cluster} in "
          f"{seconds:.3f}s (topology version {manifest['version']})")
    for entry in manifest["shards"]:
        print(f"    shard {entry['id']}: {entry['num_triples']} primary "
              f"triples ({entry['primary']})")
    print("restart the shard servers, then audit with 'repro verify'")
    return 0


def _serve_until_interrupt(serve, close) -> int:
    """Run a blocking serve loop with SIGTERM folded into Ctrl-C."""
    import signal

    def _sigterm(_signum, _frame):
        raise KeyboardInterrupt

    previous_handler = signal.signal(signal.SIGTERM, _sigterm)
    try:
        serve()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous_handler)
        close()
    return 0


def _command_shard(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.cluster.partition import MANIFEST_NAME, read_manifest
    from repro.cluster.shard import ShardServer
    from repro.errors import ClusterError

    cluster_dir = Path(args.cluster)
    manifest = read_manifest(cluster_dir / MANIFEST_NAME, args.key)
    shards = manifest["shards"]
    if not 0 <= args.id < len(shards):
        raise ClusterError(
            f"shard id {args.id} out of range; the manifest describes "
            f"{len(shards)} shard(s)")
    entry = shards[args.id]
    replica = entry.get("replica")
    if args.port is not None:
        port = args.port
    else:
        # Default layout: 8390 + id for leaders, then one block of K
        # ports per extra replica (e.g. K=2: leaders 8390/8391,
        # replica-1 processes 8392/8393).
        port = 8390 + args.id + args.replica * len(shards)
    server = ShardServer(
        args.id, cluster_dir / entry["primary"],
        cluster_dir / replica if replica else None,
        host=args.host, port=port, replica_index=args.replica,
        compaction_ratio=args.compact_ratio, mmap=args.mmap, quiet=False)
    return _serve_until_interrupt(server.serve_forever, server.close)


def _command_coordinator(args: argparse.Namespace) -> int:
    from repro.cluster.coordinator import build_coordinator, parse_replica_set

    addresses = [parse_replica_set(text) for text in args.shard]
    server = build_coordinator(
        args.cluster, addresses, host=args.host, port=args.port,
        key=args.key, quiet=args.quiet, best_effort=args.best_effort,
        default_timeout=args.timeout, max_limit=args.max_limit,
        engine=args.engine, log_format=args.log_format,
        slow_log=args.slow_log, slow_ms=args.slow_ms)
    host, port = server.server_address[:2]
    endpoints = sum(len(group) for group in addresses)
    print(f"coordinating {len(addresses)} shard(s) over {endpoints} "
          f"endpoint(s) on http://{host}:{port}  "
          f"(POST /query, POST /update, POST /compact, GET /stats, "
          f"GET /metrics, GET /healthz; Ctrl-C to stop)", flush=True)

    def _close():
        server.server_close()
        server.service.close()

    return _serve_until_interrupt(server.serve_forever, _close)


# --------------------------------------------------------------------------- #
# Argument parsing.
# --------------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compressed RDF triple indexes: build, query and inspect "
                    "persisted index files.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser(
        "build", help="index an N-Triples file and save it")
    build.add_argument("input", help="input file (N-Triples, or integer "
                                     "triples with --ids)")
    build.add_argument("-o", "--output", required=True,
                       help="output index file path")
    build.add_argument("--layout", default="2tp",
                       choices=("3t", "cc", "2tp", "2to"),
                       help="index layout (default: 2tp, the paper's pick)")
    build.add_argument("--ids", action="store_true",
                       help="input lines are 's p o' integer IDs; no "
                            "dictionary is built")
    build.add_argument("--no-stats", action="store_true",
                       help="skip bundling the planner's cardinality "
                            "histograms into the output file")
    build.add_argument("--align", action="store_true",
                       help="write the v3 container with 64-byte aligned "
                            "sections, the layout 'query --mmap' and "
                            "'serve --mmap' map most efficiently")
    build.set_defaults(handler=_command_build)

    update = subparsers.add_parser(
        "update", help="insert or delete triples through the dynamic delta")
    update.add_argument("index", help="index file written by 'repro build'")
    update.add_argument("input",
                        help="triples to apply (N-Triples, .nt.gz, or "
                             "integer IDs with --ids)")
    update.add_argument("-o", "--output", default=None,
                        help="write the updated index here instead of "
                             "in-place")
    update.add_argument("--delete", action="store_true",
                        help="delete the listed triples instead of "
                             "inserting them")
    update.add_argument("--ids", action="store_true",
                        help="input lines are 's p o' integer IDs")
    update.add_argument("--compact-ratio", type=float, default=None,
                        metavar="RATIO",
                        help="compact before saving when the delta exceeds "
                             "RATIO * base triples (default/0: never)")
    update.set_defaults(handler=_command_update)

    compact = subparsers.add_parser(
        "compact", help="fold an accumulated delta into a fresh index")
    compact.add_argument("index", help="index file with a delta section")
    compact.add_argument("-o", "--output", default=None,
                         help="write the compacted index here instead of "
                              "in-place")
    compact.set_defaults(handler=_command_compact)

    query = subparsers.add_parser(
        "query", help="run a triple pattern or SPARQL BGP against a saved index")
    query.add_argument("index", help="index file written by 'repro build'")
    what = query.add_mutually_exclusive_group(required=True)
    what.add_argument("--pattern",
                      help="triple pattern, e.g. '<iri> ? ?' or '1 ? 4' "
                           "(? is a wildcard)")
    what.add_argument("--sparql", help="SPARQL SELECT query text")
    what.add_argument("--sparql-file", help="file containing a SPARQL query")
    query.add_argument("--count", action="store_true",
                       help="print only the number of results")
    query.add_argument("--limit", type=int, default=None,
                       help="stop after this many results")
    query.add_argument("--json", action="store_true",
                       help="print results as JSON (same shape as the "
                            "serve endpoint)")
    # Kept as literals (mirroring repro.queries.ENGINES) so building the
    # parser stays import-light; the library layer re-validates anyway.
    # Default None = "auto", distinguished so --pattern can reject an
    # explicit --engine the way the HTTP endpoint does.
    query.add_argument("--engine", default=None,
                       choices=("nested", "wcoj", "auto"),
                       help="BGP executor (SPARQL only): nested-loop "
                            "pipeline, leapfrog worst-case-optimal multiway "
                            "join, or auto (default: auto picks wcoj for "
                            "cyclic/multi-join BGPs)")
    query.add_argument("--mmap", action="store_true",
                       help="memory-map the index file instead of reading "
                            "it eagerly (O(1) start-up; skips per-section "
                            "payload checksums)")
    query.set_defaults(handler=_command_query)

    explain = subparsers.add_parser(
        "explain",
        help="run a SPARQL query with profiling on and pretty-print its "
             "span tree (plan choice, estimated vs. actual cardinalities, "
             "per-operator counters)")
    explain.add_argument("index", help="index file written by 'repro build'")
    what = explain.add_mutually_exclusive_group(required=True)
    what.add_argument("--sparql", help="SPARQL SELECT query text")
    what.add_argument("--sparql-file", help="file containing a SPARQL query")
    explain.add_argument("--engine", default=None,
                         choices=("nested", "wcoj", "auto"),
                         help="BGP executor (default: auto)")
    explain.add_argument("--limit", type=int, default=None,
                         help="stop after this many results")
    explain.add_argument("--json", action="store_true",
                         help="print the raw profile span tree as JSON "
                              "instead of rendering it")
    explain.add_argument("--mmap", action="store_true",
                         help="memory-map the index file instead of reading "
                              "it eagerly")
    explain.set_defaults(handler=_command_explain)

    info = subparsers.add_parser(
        "info", help="print size and statistics of a saved index")
    info.add_argument("index", help="index file written by 'repro build'")
    info.add_argument("--breakdown", action="store_true",
                      help="also load the index and print its per-component "
                           "space breakdown")
    info.add_argument("--json", action="store_true",
                      help="print the report as JSON")
    info.set_defaults(handler=_command_info)

    serve = subparsers.add_parser(
        "serve", help="load an index once and serve HTTP queries from it")
    serve.add_argument("index", help="index file written by 'repro build'")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8377,
                       help="TCP port (default: 8377; 0 picks a free port)")
    serve.add_argument("--plan-cache", type=int, default=256, metavar="N",
                       help="plan cache entries (default: 256)")
    serve.add_argument("--result-cache", type=int, default=256, metavar="N",
                       help="result cache entries (default: 256; 0 disables)")
    serve.add_argument("--timeout", type=float, default=30.0, metavar="SECONDS",
                       help="default per-query wall-clock timeout "
                            "(default: 30)")
    serve.add_argument("--max-limit", type=int, default=100_000, metavar="N",
                       help="largest result page a request may ask for "
                            "(default: 100000)")
    serve.add_argument("--engine", default="auto",
                       choices=("nested", "wcoj", "auto"),
                       help="default BGP executor for requests that do not "
                            "choose one (default: auto)")
    serve.add_argument("--writable", action="store_true",
                       help="accept POST /update and POST /compact "
                            "(implied by --wal; a delta-carrying index "
                            "file is served with its merged view but "
                            "stays read-only without this flag)")
    serve.add_argument("--wal", default=None, metavar="PATH",
                       help="write-ahead log path: acknowledged updates "
                            "survive a crash and are replayed on restart "
                            "(implies --writable)")
    serve.add_argument("--compact-ratio", type=float, default=0.25,
                       metavar="RATIO",
                       help="auto-compact when the delta exceeds RATIO * "
                            "base triples; bounds the delta's per-batch "
                            "copy-on-write cost (default: 0.25; 0 disables, "
                            "leaving only explicit POST /compact)")
    serve.add_argument("--mmap", action="store_true",
                       help="memory-map the index file instead of reading "
                            "it eagerly (O(1) start-up; skips per-section "
                            "payload checksums)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes (default: 1 = one threaded "
                            "process; N >= 2 forks a pre-fork pool sharing "
                            "the listener and the mmap-loaded index, with "
                            "writes routed to a single writer process)")
    serve.add_argument("--max-inflight", type=int, default=64, metavar="N",
                       help="admission control: concurrent requests one "
                            "worker executes before shedding with 503 "
                            "(default: 64)")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       metavar="RPS",
                       help="per-client token-bucket rate limit in "
                            "requests/second, answered with 429 beyond it "
                            "(default: 0 = unlimited)")
    serve.add_argument("--rate-burst", type=float, default=None,
                       metavar="N",
                       help="token-bucket depth for --rate-limit "
                            "(default: 2x the rate)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")
    serve.add_argument("--log-format", default="text",
                       choices=("text", "json"),
                       help="structured log format for access and "
                            "supervision lines (default: text)")
    serve.add_argument("--slow-log", default=None, metavar="PATH",
                       help="append a JSONL record (with the full execution "
                            "profile) for every query slower than --slow-ms "
                            "to PATH; safe under --workers (atomic "
                            "appends)")
    serve.add_argument("--slow-ms", type=float, default=500.0, metavar="N",
                       help="slow-query threshold in milliseconds for "
                            "--slow-log (default: 500)")
    serve.set_defaults(handler=_command_serve)

    verify = subparsers.add_parser(
        "verify", help="audit a saved index file (or a whole cluster "
                       "directory) for checksum and layout problems")
    verify.add_argument("index", help="index file written by 'repro build', "
                                      "or a cluster directory written by "
                                      "'repro partition' / 'repro rebalance'")
    verify.add_argument("--json", action="store_true",
                        help="print the integrity report as JSON")
    verify.add_argument("--key", default=None,
                        help="manifest signing key for cluster directories "
                             "(default: $REPRO_CLUSTER_KEY or a built-in "
                             "dev key)")
    verify.set_defaults(handler=_command_verify)

    partition = subparsers.add_parser(
        "partition", help="hash-partition an index file into cluster shards")
    partition.add_argument("index", help="index file written by 'repro build' "
                                         "(must carry a dictionary)")
    partition.add_argument("-o", "--output", required=True,
                           help="output cluster directory (shard containers "
                                "+ signed manifest.json)")
    partition.add_argument("--shards", type=int, required=True, metavar="K",
                           help="number of shards (subject-hash partitions)")
    partition.add_argument("--layout", default=None,
                           choices=("3t", "cc", "2tp", "2to"),
                           help="primary shard layout (default: the source "
                                "file's layout)")
    partition.add_argument("--replica-layout", default="2to",
                           choices=("3t", "cc", "2tp", "2to", "none"),
                           help="object-routed replica layout (default: 2to, "
                                "object-rooted; 'none' skips replicas)")
    partition.add_argument("--key", default=None,
                           help="manifest signing key (default: "
                                "$REPRO_CLUSTER_KEY or a built-in dev key)")
    partition.add_argument("--no-align", action="store_true",
                           help="write unaligned (v2) shard containers")
    partition.add_argument("--replicas", type=int, default=1, metavar="R",
                           help="serving processes per shard (R-way "
                                "replication over shared storage: replica 0 "
                                "is the writable leader, the rest read-only "
                                "WAL-tailing followers; default: 1)")
    partition.set_defaults(handler=_command_partition)

    rebalance = subparsers.add_parser(
        "rebalance",
        help="repartition a cluster directory to a new shard count")
    rebalance.add_argument("cluster", help="cluster directory written by "
                                           "'repro partition'")
    rebalance.add_argument("--shards", type=int, required=True, metavar="K",
                           help="new number of shards")
    rebalance.add_argument("--replicas", type=int, default=None, metavar="R",
                           help="new serving-process count per shard "
                                "(default: keep the manifest's)")
    rebalance.add_argument("--key", default=None,
                           help="manifest signing key (default: "
                                "$REPRO_CLUSTER_KEY or a built-in dev key)")
    rebalance.add_argument("--no-align", action="store_true",
                           help="write unaligned (v2) shard containers")
    rebalance.set_defaults(handler=_command_rebalance)

    shard = subparsers.add_parser(
        "shard", help="serve one cluster shard over the cluster RPC")
    shard.add_argument("cluster", help="cluster directory written by "
                                       "'repro partition'")
    shard.add_argument("--id", type=int, required=True,
                       help="shard id from the manifest")
    shard.add_argument("--replica", type=int, default=0, metavar="N",
                       help="replica index for this process (0 = writable "
                            "leader, >0 = read-only WAL-tailing follower "
                            "over the same containers; default: 0)")
    shard.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    shard.add_argument("--port", type=int, default=None,
                       help="TCP port (default: 8390 + shard id + "
                            "replica * K; 0 picks a free port)")
    shard.add_argument("--key", default=None,
                       help="manifest signing key (default: "
                            "$REPRO_CLUSTER_KEY or a built-in dev key)")
    shard.add_argument("--compact-ratio", type=float, default=0.25,
                       metavar="RATIO",
                       help="auto-compact when the shard delta exceeds "
                            "RATIO * base triples (default: 0.25; 0 "
                            "disables)")
    shard.add_argument("--mmap", action="store_true",
                       help="memory-map the shard containers")
    shard.set_defaults(handler=_command_shard)

    coordinator = subparsers.add_parser(
        "coordinator",
        help="serve scatter-gather HTTP queries over running shards")
    coordinator.add_argument("cluster", help="cluster directory written by "
                                             "'repro partition'")
    coordinator.add_argument("--shard", action="append", required=True,
                             metavar="HOST:PORT[,HOST:PORT...]",
                             help="one --shard flag per shard in manifest "
                                  "shard-id order; comma-separate that "
                                  "shard's replica endpoints, leader first")
    coordinator.add_argument("--host", default="127.0.0.1",
                             help="bind address (default: 127.0.0.1)")
    coordinator.add_argument("--port", type=int, default=8378,
                             help="TCP port (default: 8378; 0 picks a free "
                                  "port)")
    coordinator.add_argument("--key", default=None,
                             help="manifest signing key (default: "
                                  "$REPRO_CLUSTER_KEY or a built-in dev key)")
    coordinator.add_argument("--best-effort", action="store_true",
                             help="serve partial results (marked "
                                  "incomplete) when a shard is down instead "
                                  "of failing the request with 503")
    coordinator.add_argument("--timeout", type=float, default=30.0,
                             metavar="SECONDS",
                             help="default per-query wall-clock timeout "
                                  "(default: 30)")
    coordinator.add_argument("--max-limit", type=int, default=100_000,
                             metavar="N",
                             help="largest result page a request may ask "
                                  "for (default: 100000)")
    coordinator.add_argument("--engine", default="auto",
                             choices=("nested", "wcoj", "auto"),
                             help="default BGP executor (default: auto)")
    coordinator.add_argument("--quiet", action="store_true",
                             help="suppress per-request access logging")
    coordinator.add_argument("--log-format", default="text",
                             choices=("text", "json"),
                             help="structured log format for access lines "
                                  "(default: text)")
    coordinator.add_argument("--slow-log", default=None, metavar="PATH",
                             help="append a JSONL record (with the stitched "
                                  "cluster profile) for every query slower "
                                  "than --slow-ms to PATH")
    coordinator.add_argument("--slow-ms", type=float, default=500.0,
                             metavar="N",
                             help="slow-query threshold in milliseconds "
                                  "for --slow-log (default: 500)")
    coordinator.set_defaults(handler=_command_coordinator)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. ``repro query ... | head``); die
        # quietly like any Unix filter.  Redirect stdout to devnull so the
        # interpreter's shutdown flush cannot raise again.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
