"""Persistence round trip — save/load time vs rebuild time, and on-disk
bits/triple next to the in-memory figures.

This is the build-once/serve-many argument behind the storage subsystem: a
saved index loads directly from its stored words (no re-encoding, no
re-sorting), so process start-up pays file-read time instead of index-build
time.  The table reports, per layout: in-memory and on-disk bits/triple, the
one-off build and save costs, the eager and mmap load costs, and the
build/load speedup.

The mmap rows exercise ``load_index(path, mmap=True)``: the container is
page-mapped and array leaves are zero-copy views, so load time is O(1) in
index size.  Eager load is O(bytes) (read + CRC + copy), so the eager/mmap
ratio grows with the dataset — the ``mmap at scale`` measurement uses a
larger 2Tp index (``REPRO_BENCH_MMAP_TRIPLES``) where the asymptotic gap is
visible, while the per-layout table stays at the quick default size.

Run standalone for a smoke check::

    python benchmarks/bench_persistence.py --mmap --triples 20000
"""

import argparse
import os
import tempfile
import time
from functools import lru_cache
from pathlib import Path

import pytest

import common
from repro.bench.tables import format_table
from repro.core.builder import IndexBuilder
from repro.storage import load_index, save_index

LAYOUTS = ("3t", "cc", "2to", "2tp")
PROFILE = "dbpedia"

#: Dataset size for the dedicated eager-vs-mmap load comparison.  Large
#: enough that eager load is dominated by its per-byte work (read, CRC,
#: array copies) rather than fixed Python overhead.
MMAP_TRIPLES = int(os.environ.get("REPRO_BENCH_MMAP_TRIPLES", "2000000"))

_LOAD_ROUNDS = 5


def _best_load(path: Path, rounds: int = _LOAD_ROUNDS, **kwargs) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        load_index(path, **kwargs)
        best = min(best, time.perf_counter() - started)
    return best


@lru_cache(maxsize=None)
def _measurements():
    store = common.dataset(PROFILE)
    rows = []
    stats = {}
    for layout in LAYOUTS:
        started = time.perf_counter()
        index = IndexBuilder(store).build(layout)
        build_seconds = time.perf_counter() - started

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{layout}.ridx"
            started = time.perf_counter()
            save_index(index, path)
            save_seconds = time.perf_counter() - started
            on_disk_bytes = path.stat().st_size
            load_seconds = _best_load(path)
            mmap_seconds = _best_load(path, mmap=True)

            # Sanity: the loaded index answers like the built one.
            probe = store.sample(1, seed=11)[0]
            loaded = load_index(path, mmap=True).index
            assert loaded.select_list(probe) == index.select_list(probe)

        n = index.num_triples
        rows.append([
            layout.upper(),
            index.bits_per_triple(),
            on_disk_bytes * 8 / n,
            build_seconds,
            save_seconds,
            load_seconds,
            mmap_seconds,
            build_seconds / load_seconds if load_seconds else float("inf"),
        ])
        stats[layout] = {
            "disk_bytes": on_disk_bytes,
            "build_s": build_seconds,
            "save_s": save_seconds,
            "eager_load_s": load_seconds,
            "mmap_load_s": mmap_seconds,
        }
    return rows, stats


@lru_cache(maxsize=None)
def _mmap_at_scale(num_triples: int = MMAP_TRIPLES, layout: str = "2tp"):
    """Eager vs mmap load on one large index (asymptotic regime)."""
    store = common.dataset(PROFILE, num_triples=num_triples)
    index = IndexBuilder(store).build(layout)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{layout}.ridx"
        save_index(index, path, aligned=True)
        on_disk_bytes = path.stat().st_size
        eager_seconds = _best_load(path)
        mmap_seconds = _best_load(path, mmap=True)
        probe = store.sample(1, seed=11)[0]
        loaded = load_index(path, mmap=True).index
        assert loaded.select_list(probe) == index.select_list(probe)
    return {
        "layout": layout,
        "num_triples": num_triples,
        "disk_bytes": on_disk_bytes,
        "eager_load_s": eager_seconds,
        "mmap_load_s": mmap_seconds,
        "speedup": eager_seconds / mmap_seconds if mmap_seconds else float("inf"),
    }


def _tables() -> tuple:
    rows, stats = _measurements()
    headers = ["index", "memory bits/triple", "disk bits/triple",
               "build s", "save s", "load s", "mmap load s", "build/load x"]
    main = format_table(headers, rows, precision=4,
                        title=f"Persistence — save/load round trip ({PROFILE}, "
                              f"{common.DEFAULT_TRIPLES} triples)")
    scale = _mmap_at_scale()
    scale_rows = [[
        scale["layout"].upper() + " (aligned v3)",
        scale["num_triples"],
        scale["disk_bytes"],
        scale["eager_load_s"],
        scale["mmap_load_s"],
        scale["speedup"],
    ]]
    scale_table = format_table(
        ["index", "triples", "disk bytes", "eager load s", "mmap load s",
         "eager/mmap x"],
        scale_rows, precision=4,
        title="Persistence — zero-copy mmap load at scale")
    data = {"layouts": stats, "mmap_at_scale": scale,
            "num_triples": common.DEFAULT_TRIPLES}
    return main + "\n\n" + scale_table, data


def test_report_persistence(benchmark):
    """Emit the persistence table; benchmark one full save+load round trip."""
    index = common.index_for(PROFILE, "2tp")

    def round_trip():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bench.ridx"
            save_index(index, path)
            return load_index(path).index.num_triples

    benchmark.pedantic(round_trip, rounds=3, iterations=1)
    text, data = _tables()
    common.write_result("persistence", text, data=data)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_loaded_index_answers_identically(layout):
    """The loaded index returns byte-identical answers on a sampled workload."""
    store = common.dataset(PROFILE)
    index = common.index_for(PROFILE, layout)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{layout}.ridx"
        save_index(index, path)
        loaded = load_index(path).index
    for s, p, o in store.sample(25, seed=3):
        assert loaded.select_list((s, None, None)) == index.select_list((s, None, None))
        assert loaded.select_list((None, p, o)) == index.select_list((None, p, o))
        assert loaded.select_list((s, None, o)) == index.select_list((s, None, o))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_load_speed(benchmark, layout):
    """Benchmark pure load time per layout (the serve-side start-up cost)."""
    index = common.index_for(PROFILE, layout)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{layout}.ridx"
        save_index(index, path)
        benchmark(lambda: load_index(path).index)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_mmap_load_speed(benchmark, layout):
    """Benchmark zero-copy mmap load per layout."""
    index = common.index_for(PROFILE, layout)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{layout}.ridx"
        save_index(index, path, aligned=True)
        benchmark(lambda: load_index(path, mmap=True).index)


def main(argv=None) -> int:
    """Standalone entry point (used by the CI benchmark-smoke step)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mmap", action="store_true",
                        help="run the eager-vs-mmap load comparison only")
    parser.add_argument("--triples", type=int, default=None,
                        help="dataset size (default: REPRO_BENCH_MMAP_TRIPLES "
                             "for --mmap, REPRO_BENCH_TRIPLES otherwise)")
    parser.add_argument("--layout", default="2tp", choices=LAYOUTS)
    args = parser.parse_args(argv)
    if args.mmap:
        result = _mmap_at_scale(args.triples or MMAP_TRIPLES, args.layout)
        print(f"{result['layout']} x {result['num_triples']} triples "
              f"({result['disk_bytes']} bytes): "
              f"eager {result['eager_load_s'] * 1e3:.3f} ms, "
              f"mmap {result['mmap_load_s'] * 1e3:.3f} ms, "
              f"speedup {result['speedup']:.1f}x")
        return 0
    text, data = _tables()
    common.write_result("persistence", text, data=data)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
