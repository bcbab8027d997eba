"""Tests for the pre-fork serving pool and its supporting machinery.

Two layers:

* in-process unit tests for :class:`AdmissionControl`,
  :class:`TokenBucketLimiter`, :class:`MetricsBlock` and
  :class:`WalReader` — plus 429/503 shedding over a real (threaded,
  single-process) HTTP server;
* subprocess integration tests that start ``repro serve --workers N``
  against a saved index file and exercise the master/writer/worker
  machinery over real HTTP: multi-worker serving, read-your-writes after
  proxied updates, epoch publication after compaction, crash respawn,
  writer respawn, and graceful SIGTERM drain with an in-flight request.

The integration fixture is module-scoped (one pool serves many tests);
tests that mutate the served data use predicate IDs disjoint from the
base graph so the read-only differential test stays order-independent.
"""

import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core.builder import build_index
from repro.rdf.triples import TripleStore
from repro.service import (
    AdmissionControl,
    MetricsBlock,
    QueryService,
    TokenBucketLimiter,
    build_server,
)
from repro.service.metrics import LATENCY_BUCKETS, render_prometheus
from repro.service.pool import WorkerService
from repro.service.writer import Writer
from repro.storage import save_index
from repro.storage.wal import WalReader, WriteAheadLog

KNOWS = 0  # base-graph predicate; update tests use predicates >= 7

BASE_TRIPLES = sorted(
    {(i, KNOWS, (i * 7 + 1) % 97) for i in range(97)}
    | {(i, KNOWS, (i + 13) % 97) for i in range(97)}
    | {(i, 1, 100 + i % 5) for i in range(97)}
)


# --------------------------------------------------------------------------- #
# Unit layer: admission control, rate limiting, metrics, WAL follower.
# --------------------------------------------------------------------------- #

class TestAdmissionControl:
    def test_bounds_inflight(self):
        gate = AdmissionControl(2)
        assert gate.try_acquire() and gate.try_acquire()
        assert gate.inflight == 2
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()

    def test_release_never_goes_negative(self):
        gate = AdmissionControl(1)
        gate.release()
        assert gate.inflight == 0
        assert gate.try_acquire()

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            AdmissionControl(0)


class TestTokenBucketLimiter:
    def test_burst_then_reject(self):
        limiter = TokenBucketLimiter(rate=0.001, burst=2)
        assert limiter.allow("10.0.0.1")
        assert limiter.allow("10.0.0.1")
        assert not limiter.allow("10.0.0.1")
        # Other clients have their own bucket.
        assert limiter.allow("10.0.0.2")

    def test_refills_over_time(self):
        limiter = TokenBucketLimiter(rate=200.0, burst=1)
        assert limiter.allow("c")
        assert not limiter.allow("c")
        time.sleep(0.05)  # 200/s refills a whole token in 5ms
        assert limiter.allow("c")

    def test_default_burst_is_twice_rate(self):
        assert TokenBucketLimiter(rate=5).burst == 10.0
        assert TokenBucketLimiter(rate=0.1).burst == 1.0  # floor of one

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucketLimiter(rate=0)


class TestMetricsBlock:
    def test_slots_are_independent_and_totals_sum(self):
        block = MetricsBlock(2)
        try:
            block.worker(0).add("requests", 3)
            block.worker(1).add("requests", 4)
            block.master().add("restarts")
            totals = block.totals()
            assert totals["requests"] == 7
            assert totals["restarts"] == 0  # master slot excluded
            assert block.master().get("restarts") == 1
        finally:
            block.close()

    def test_worker_slot_range_checked(self):
        block = MetricsBlock(1)
        try:
            with pytest.raises(IndexError):
                block.worker(1)
        finally:
            block.close()

    def test_latency_histogram_buckets(self):
        block = MetricsBlock(1)
        try:
            slot = block.worker(0)
            slot.observe_latency(0.003)   # falls in the <= 0.005 bucket
            slot.observe_latency(99.0)    # beyond every bound: +Inf only
            assert slot.get("latency_count") == 2
            assert slot.get("latency_sum_us") == int(0.003 * 1e6) + int(99e6)
            text = render_prometheus(block)
            bound = LATENCY_BUCKETS[1]
            assert f'repro_request_seconds_bucket{{le="{bound}"}} 1' in text
            assert 'repro_request_seconds_bucket{le="+Inf"} 2' in text
            assert "repro_request_seconds_count 2" in text
        finally:
            block.close()

    def test_render_includes_gauges(self):
        text = render_prometheus(None, {"index_triples": 42.0})
        assert "repro_index_triples 42.0" in text


class TestWalReader:
    def test_incremental_read(self, tmp_path):
        path = tmp_path / "log.wal"
        reader = WalReader(path)
        assert reader.read() == []  # no file yet
        with WriteAheadLog(path) as wal:
            wal.append(inserts=[(1, 2, 3)])
            assert reader.read() == [([(1, 2, 3)], [])]
            assert reader.read() == []  # nothing new
            wal.append(deletes=[(1, 2, 3)])
            wal.append(inserts=[(4, 5, 6)])
            assert reader.read(limit=1) == [([], [(1, 2, 3)])]
            assert reader.read() == [([(4, 5, 6)], [])]
        assert reader.records_read == 3

    def test_torn_tail_stops_then_resumes(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append(inserts=[(1, 1, 1)])
        size = path.stat().st_size
        with WriteAheadLog(path) as wal:
            wal.append(inserts=[(2, 2, 2)])
        whole = path.read_bytes()
        path.write_bytes(whole[:size + 4])  # half a record header
        reader = WalReader(path)
        assert reader.read() == [([(1, 1, 1)], [])]  # stops at the tear
        path.write_bytes(whole)  # the append "completes"
        assert reader.read() == [([(2, 2, 2)], [])]

    def test_shrunk_log_rewinds(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path) as wal:
            wal.append(inserts=[(1, 1, 1)])
            wal.append(inserts=[(2, 2, 2)])
        reader = WalReader(path)
        assert len(reader.read()) == 2
        with WriteAheadLog(path) as wal:  # writer compacted: reset the log
            wal.reset()
            wal.append(inserts=[(9, 9, 9)])
        assert reader.read() == [([(9, 9, 9)], [])]
        assert reader.records_read == 1  # progress restarted from zero


# --------------------------------------------------------------------------- #
# Shedding over real HTTP (single process, in-process server).
# --------------------------------------------------------------------------- #

def _service():
    store = TripleStore.from_triples(BASE_TRIPLES)
    return QueryService(build_index(store, "2tp"))


def _post_json(url, path, body, headers=None):
    data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url + path, data=data, method="POST",
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def _get_json(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestLoadShedding:
    def _serve(self, service=None, **options):
        server = build_server(service or _service(), host="127.0.0.1",
                              port=0, quiet=True, **options)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        return server, thread, f"http://{host}:{port}"

    def test_admission_full_sheds_503(self):
        gate = AdmissionControl(1)
        block = MetricsBlock(1)
        server, thread, url = self._serve(
            admission=gate, metrics=block.worker(0), metrics_block=block)
        try:
            assert gate.try_acquire()  # occupy the only slot
            status, body, headers = _post_json(url, "/query",
                                               {"pattern": [None, None, None]})
            assert status == 503
            assert body["error"]["type"] == "Overloaded"
            assert headers["Retry-After"] == "1"
            # The handler books the response just after writing it.
            assert _wait_until(lambda: block.totals()["overload"] == 1,
                               timeout=5)
            gate.release()
            status, _, _ = _post_json(url, "/query",
                                      {"pattern": [0, None, None]})
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            block.close()

    @staticmethod
    def _worker_service(tmp_path):
        """A pool worker's service over a published index whose writer
        socket nobody listens on."""
        index_path = tmp_path / "idx.bin"
        save_index(build_index(TripleStore.from_triples(BASE_TRIPLES), "2tp"),
                   index_path, aligned=True)
        epoch_path = tmp_path / "idx.wal.epoch"
        Writer(index_path, tmp_path / "idx.wal", epoch_path).close()
        return WorkerService.follow(index_path, epoch_path,
                                    writer_socket=tmp_path / "gone.sock")

    def test_unreachable_writer_is_an_error_not_overload(self, tmp_path):
        """Only admission shedding books ``overload``; a worker whose
        writer is gone answers 503 too, but that is an error."""
        service = self._worker_service(tmp_path)
        block = MetricsBlock(1)
        server, thread, url = self._serve(
            service, metrics=block.worker(0), metrics_block=block)
        try:
            status, body, _ = _post_json(url, "/update",
                                         {"insert": [[1, 2, 3]]})
            assert status == 503
            assert body["error"]["type"] == "WriterUnavailableError"
            _wait_until(lambda: block.totals()["requests"] == 1, timeout=5)
            totals = block.totals()
            assert (totals["requests"], totals["overload"],
                    totals["errors"]) == (1, 0, 1)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
            block.close()

    @pytest.mark.parametrize("status, error_type", [
        (400, "UpdateError"), (500, "StorageError"), (500, "MemoryError")])
    def test_writer_error_reply_passes_through(self, tmp_path, status,
                                               error_type):
        """A worker answers a failed write with the writer's own status
        and error body, whether or not the type is a repro error."""
        service = self._worker_service(tmp_path)
        reply = {"error": {"type": error_type, "message": "boom"}}

        class FailingWriter:
            def request(self, message):
                return status, reply

            def close(self):
                pass

        service._writer = FailingWriter()
        server, thread, url = self._serve(service)
        try:
            assert _post_json(url, "/update", {"insert": [[1, 2, 3]]})[:2] \
                == (status, reply)
            assert _post_json(url, "/compact", {})[:2] == (status, reply)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()

    def test_rate_limit_sheds_429_posts_only(self):
        block = MetricsBlock(1)
        server, thread, url = self._serve(
            rate_limiter=TokenBucketLimiter(rate=0.001, burst=2),
            metrics=block.worker(0), metrics_block=block)
        try:
            body = {"pattern": [0, None, None]}
            statuses = [_post_json(url, "/query", body)[0] for _ in range(4)]
            assert statuses[:2] == [200, 200]
            assert set(statuses[2:]) == {429}
            # Probes are never shed: monitoring keeps working under limit.
            assert _get_json(url, "/healthz")[0] == 200
            status, _ = _get_text(url, "/metrics")
            assert status == 200
            assert block.totals()["ratelimited"] == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            block.close()


# --------------------------------------------------------------------------- #
# The pre-fork pool, over real processes.
# --------------------------------------------------------------------------- #

def _repro_env():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _start_pool(index_path, *extra_args, timeout=45.0):
    """Spawn ``repro serve`` and wait for its "serving on" banner."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(index_path),
         "--port", "0", "--quiet", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_repro_env(), text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    match = re.search(r"http://[\d.]+:(\d+)", line or "")
    if match is None:
        proc.kill()
        raise RuntimeError(
            f"pool failed to start: {line!r}\n{proc.stderr.read()}")
    return proc, f"http://127.0.0.1:{match.group(1)}"


def _stop_pool(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    proc.stdout.close()
    proc.stderr.close()


def _wait_until(predicate, timeout=20.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _metric_value(url, name):
    status, text = _get_text(url, "/metrics")
    assert status == 200
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise AssertionError(f"metric {name} not exposed:\n{text}")


def _get_text(url, path):
    with urllib.request.urlopen(url + path, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool")
    index_path = root / "idx.bin"
    store = TripleStore.from_triples(BASE_TRIPLES)
    save_index(build_index(store, "2tp"), index_path, aligned=True)
    proc, url = _start_pool(index_path, "--workers", "2",
                            "--wal", str(root / "idx.wal"))
    yield {"proc": proc, "url": url, "root": root,
           "index_path": index_path}
    _stop_pool(proc)


class TestPoolServing:
    def test_concurrent_requests_hit_multiple_workers(self, pool):
        pids = set()
        errors = []

        def client():
            try:
                for _ in range(10):
                    status, body = _get_json(pool["url"], "/healthz")
                    assert status == 200
                    pids.add(body["pid"])
            except Exception as error:  # pragma: no cover - diagnostic aid
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(pids) >= 2, f"all requests served by one worker: {pids}"

    def test_healthz_reports_follower_epoch_and_lag(self, pool):
        status, body = _get_json(pool["url"], "/healthz")
        assert status == 200
        # Workers answer through an EpochFollower; the probe must expose
        # its combined (generation, epoch) point and WAL-tail lag so
        # orchestrators can tell a wedged follower from a healthy one.
        assert body["combined_epoch"] == body["epoch"]
        assert body["wal_lag"] == 0
        assert body["generation"] >= 0
        _post_json(pool["url"], "/update", {"insert": [[910, 7, 911]]})

        def converged():
            status, body = _get_json(pool["url"], "/healthz")
            return status == 200 and body["wal_lag"] == 0 \
                and body["combined_epoch"] >= 1
        assert _wait_until(converged, timeout=20)

    def test_differential_vs_single_process(self, pool):
        """Every worker answers base-graph queries byte-identically to an
        in-process service over the same index file."""
        reference = QueryService.from_file(pool["index_path"])
        patterns = ([None, KNOWS, None], [5, KNOWS, None],
                    [None, KNOWS, 13], [None, 1, 102], [3, 1, None])
        for pattern in patterns:
            expected = [list(t) for t in
                        reference.select(pattern).triples]
            for _ in range(4):  # spread over both workers
                status, body, _ = _post_json(pool["url"], "/query",
                                             {"pattern": pattern})
                assert status == 200
                assert body["triples"] == expected

    def test_update_gives_read_your_writes_everywhere(self, pool):
        status, body, _ = _post_json(pool["url"], "/update",
                                     {"insert": [[500, 7, 501]]})
        assert status == 200
        assert body["inserted"] == 1
        # Strict read-your-writes: every subsequent request — whichever
        # worker accepts it — sees the acknowledged triple immediately.
        for _ in range(8):
            status, result, _ = _post_json(pool["url"], "/query",
                                           {"pattern": [500, 7, None],
                                            "cache": False})
            assert status == 200
            assert result["triples"] == [[500, 7, 501]]

    def test_http_conformance(self, pool, http_conformance):
        http_conformance(pool["url"])

    def test_update_validation_stays_local_400(self, pool):
        status, body, _ = _post_json(pool["url"], "/update",
                                     {"insert": [[1, 2]]})
        assert status == 400
        assert body["error"]["type"] in ("ServiceError", "UpdateError")

    def test_compact_publishes_new_generation(self, pool):
        _post_json(pool["url"], "/update", {"insert": [[600, 7, 601]]})
        status, report, _ = _post_json(pool["url"], "/compact", {})
        assert status == 200
        assert report["compacted"] is True
        # The generation bump is folded into the published epoch
        # (generation << 32), so every worker's advertised epoch crosses
        # the next generation boundary once it re-maps.
        def all_remapped():
            epochs = [_get_json(pool["url"], "/healthz")[1]["epoch"]
                      for _ in range(4)]
            return all(epoch >= (1 << 32) for epoch in epochs)
        assert _wait_until(all_remapped, timeout=20)
        status, result, _ = _post_json(pool["url"], "/query",
                                       {"pattern": [600, 7, None],
                                        "cache": False})
        assert result["triples"] == [[600, 7, 601]]

    def test_worker_crash_respawns_and_serving_continues(self, pool):
        before = _metric_value(pool["url"], "repro_worker_restarts_total")
        victim = _get_json(pool["url"], "/healthz")[1]["pid"]
        os.kill(victim, signal.SIGKILL)
        assert _wait_until(
            lambda: _metric_value(pool["url"],
                                  "repro_worker_restarts_total") >= before + 1)
        assert _wait_until(
            lambda: _metric_value(pool["url"], "repro_workers") == 2)
        for _ in range(10):
            status, body = _get_json(pool["url"], "/healthz")
            assert status == 200
        # The fresh worker converged onto the published epoch.
        pids = {_get_json(pool["url"], "/healthz")[1]["pid"]
                for _ in range(12)}
        assert victim not in pids

    def test_writer_crash_respawns_without_losing_acked_writes(self, pool):
        status, _, _ = _post_json(pool["url"], "/update",
                                  {"insert": [[700, 7, 701]]})
        assert status == 200
        epoch_doc = json.loads((pool["root"] / "idx.wal.epoch").read_text())
        os.kill(epoch_doc["pid"], signal.SIGKILL)

        def update_accepted_again():
            status, _, _ = _post_json(pool["url"], "/update",
                                      {"insert": [[701, 7, 702]]})
            return status == 200
        assert _wait_until(update_accepted_again, timeout=25)
        # Both the pre-crash acked write and the post-respawn write serve.
        status, result, _ = _post_json(pool["url"], "/query",
                                       {"pattern": [None, 7, None],
                                        "cache": False})
        triples = result["triples"]
        assert [700, 7, 701] in triples and [701, 7, 702] in triples

    def test_epoch_document_schema_matches_shard_leader(self, pool,
                                                        tmp_path):
        """One epoch-document schema in every shape: the pool writer and
        a shard leader (both container sides) publish the same keys."""
        from repro.cluster.shard import ShardServer

        sides = [tmp_path / "primary.bin", tmp_path / "replica.bin"]
        for path in sides:
            shutil.copyfile(pool["index_path"], path)
        shard = ShardServer(0, sides[0], sides[1]).start()
        try:
            expected = set(json.loads(
                (pool["root"] / "idx.wal.epoch").read_text()))
            assert expected == {"generation", "epoch", "wal", "wal_records",
                                "pid"}
            for path in sides:
                document = json.loads(Path(f"{path}.epoch").read_text())
                assert set(document) == expected
        finally:
            shard.close()

    def test_metrics_aggregate_across_workers(self, pool):
        status, text = _get_text(pool["url"], "/metrics")
        assert status == 200
        assert _metric_value(pool["url"], "repro_http_requests_total") > 0
        assert "repro_request_seconds_bucket" in text
        assert _metric_value(pool["url"], "repro_update_triples_total") >= 3


class TestPoolDrain:
    def test_sigterm_drains_inflight_request(self, tmp_path):
        index_path = tmp_path / "idx.bin"
        store = TripleStore.from_triples(BASE_TRIPLES)
        save_index(build_index(store, "2tp"), index_path, aligned=True)
        proc, url = _start_pool(index_path, "--workers", "2")
        try:
            port = int(url.rsplit(":", 1)[1])
            body = json.dumps({"pattern": [None, KNOWS, None]}).encode()
            conn = socket.create_connection(("127.0.0.1", port), timeout=15)
            head = (f"POST /query HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n").encode()
            # Send the headers and HALF the body: the handler is now
            # in-flight, blocked reading the rest.
            conn.sendall(head + body[:4])
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.5)
            conn.sendall(body[4:])  # complete the request mid-drain
            response = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                response += chunk
            conn.close()
            assert response.startswith(b"HTTP/1.1 200"), response[:200]
            assert proc.wait(timeout=20) == 0
        finally:
            _stop_pool(proc)

    def test_read_only_pool_rejects_updates(self, tmp_path):
        index_path = tmp_path / "idx.bin"
        store = TripleStore.from_triples(BASE_TRIPLES)
        save_index(build_index(store, "2tp"), index_path, aligned=True)
        proc, url = _start_pool(index_path, "--workers", "2")
        try:
            status, body, _ = _post_json(url, "/update",
                                         {"insert": [[1, 1, 1]]})
            assert status == 400
            assert "read-only" in body["error"]["message"]
            status, result, _ = _post_json(url, "/query",
                                           {"pattern": [5, KNOWS, None]})
            assert status == 200 and result["count"] > 0
        finally:
            _stop_pool(proc)


class TestPoolObservability:
    """Slow-log atomicity under worker SIGKILL, plus metrics parity."""

    SPARQL = "SELECT ?x ?y ?c WHERE { ?x 0 ?y . ?y 1 ?c }"

    def test_slow_log_survives_worker_sigkill_untorn(self, tmp_path):
        index_path = tmp_path / "idx.bin"
        slow_path = tmp_path / "slow.jsonl"
        store = TripleStore.from_triples(BASE_TRIPLES)
        save_index(build_index(store, "2tp"), index_path, aligned=True)
        proc, url = _start_pool(index_path, "--workers", "2",
                                "--slow-log", str(slow_path),
                                "--slow-ms", "0")
        stop = threading.Event()
        errors = []

        def client():
            while not stop.is_set():
                try:
                    _post_json(url, "/query",
                               {"sparql": self.SPARQL, "cache": False})
                except Exception as exc:  # dying worker resets are expected
                    errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            assert _wait_until(
                lambda: slow_path.exists()
                and len(slow_path.read_bytes().splitlines()) >= 10)
            victim = _get_json(url, "/healthz")[1]["pid"]
            os.kill(victim, signal.SIGKILL)
            assert _wait_until(
                lambda: _metric_value(url, "repro_workers") == 2)
            before = len(slow_path.read_bytes().splitlines())
            assert _wait_until(
                lambda: len(slow_path.read_bytes().splitlines())
                >= before + 10)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            _stop_pool(proc)
        # The contract under SIGKILL: every line in the file — written
        # concurrently by multiple workers, one of them killed mid-request
        # — is one complete, parseable JSON object.
        lines = slow_path.read_bytes().splitlines()
        assert len(lines) >= 20
        pids = set()
        for line in lines:
            entry = json.loads(line)  # raises on any torn/interleaved line
            assert entry["query"] == self.SPARQL
            pids.add(entry["pid"])
        assert len(pids) >= 2  # both workers actually appended

    def test_metrics_field_set_matches_single_box(self, pool):
        def families(text):
            return sorted({line.split("{")[0].split(" ")[0]
                           for line in text.splitlines()
                           if line and not line.startswith("#")})

        status, pool_text = _get_text(pool["url"], "/metrics")
        assert status == 200

        block = MetricsBlock(1)
        server = build_server(_service(), host="127.0.0.1", port=0,
                              quiet=True, metrics=block.worker(0),
                              metrics_block=block)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            status, single_text = _get_text(f"http://{host}:{port}",
                                            "/metrics")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            block.close()
        # Byte-identical field sets: dashboards written against one
        # deployment shape must work unchanged against the other.
        assert families(single_text) == families(pool_text)

    def test_metrics_content_type_from_pool(self, pool):
        with urllib.request.urlopen(pool["url"] + "/metrics",
                                    timeout=10) as response:
            assert response.headers["Content-Type"] == \
                "text/plain; version=0.0.4; charset=utf-8"
