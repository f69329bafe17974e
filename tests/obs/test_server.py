"""Status endpoint: routes, JSON schemas, concurrent-mutation safety,
and the ``python -m repro.obs`` CLI."""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro import odin
from repro.obs import __main__ as obs_cli
from repro.obs import serve, serve_shutdown
from repro.obs import status as obs_status
from repro.odin.context import OdinContext


@pytest.fixture
def server():
    srv = serve(port=0)
    yield srv
    serve_shutdown()


def _get(srv, path):
    with urllib.request.urlopen(f"{srv.url}{path}", timeout=10) as resp:
        return resp.status, resp.read().decode()


class TestEndpoints:
    def test_index_lists_routes(self, server):
        code, body = _get(server, "/")
        assert code == 200
        for route in ("/metrics", "/status", "/flight", "/profile"):
            assert route in body

    def test_unknown_route_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as ei:
            _get(server, "/nope")
        assert ei.value.code == 404

    def test_metrics_is_prometheus_text(self, server, registry):
        registry.inc("obs.test.counter", 3)
        code, body = _get(server, "/metrics")
        assert code == 200
        assert "obs_test_counter 3" in body

    def test_status_reports_live_context(self, server):
        with OdinContext(2) as ctx:
            x = odin.array(np.arange(8.0), ctx=ctx)
            ctx.flush()
            ctx.plan_cache_stats()
            code, body = _get(server, "/status")
            doc = json.loads(body)
            assert code == 200
            mine = [c for c in doc["contexts"]
                    if c.get("kind") == "odin.context" and c.get("alive")]
            assert mine, doc
            st = mine[-1]
            assert st["nworkers"] == 2
            assert st["op_id"] >= 1 and st["epoch_id"] >= 1
            assert st["plan_cache"]["hits"] >= 0
            # per-rank table: driver + 2 workers, heartbeat ages present
            assert len(st["ranks"]) == 3
            assert all("heartbeat_age_s" in r for r in st["ranks"])
            del x

    def test_flight_route_is_chrome_trace(self, server, flight):
        flight.tracer.instant("obs.test", "marker", rank=0)
        code, body = _get(server, "/flight")
        doc = json.loads(body)
        assert code == 200
        names = [e.get("name") for e in doc["traceEvents"]
                 if e.get("ph") == "i"]
        assert "marker" in names
        assert "last_fault" in doc["otherData"]

    def test_profile_route_returns_folded_stacks(self, server):
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                sum(range(1000))

        t = threading.Thread(target=spin, name="obs-test-spin",
                             daemon=True)
        t.start()
        try:
            code, body = _get(server, "/profile?seconds=0.2")
        finally:
            stop.set()
            t.join()
        assert code == 200
        # folded format: "label;frame;frame count" lines
        lines = [ln for ln in body.splitlines() if ln]
        assert lines
        assert all(ln.rsplit(" ", 1)[1].isdigit() for ln in lines)

    def test_status_under_concurrent_mutation(self, server):
        """Hammer /status from several threads while a context issues
        ops, shuts down and is replaced: every response is 200 + valid
        JSON (stale values are fine, errors are not)."""
        failures = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    code, body = _get(server, "/status")
                    assert code == 200
                    json.loads(body)
                except Exception as exc:  # noqa: BLE001 - collect
                    failures.append(exc)
                    return

        readers = [threading.Thread(target=hammer, daemon=True)
                   for _ in range(4)]
        for t in readers:
            t.start()
        try:
            for _ in range(3):
                with OdinContext(2) as ctx:
                    a = odin.array(np.arange(64.0), ctx=ctx)
                    b = odin.sqrt(a * a + 1.0)
                    np.asarray(b)
                    del a, b
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=10)
        assert not failures

    def test_serve_is_idempotent(self, server):
        assert serve(port=0) is server


class TestAutoserve:
    def test_env_port_autoserves_on_context(self, monkeypatch):
        serve_shutdown()
        obs_status._autoserve_checked = False
        monkeypatch.setenv("REPRO_OBS_PORT", "0")
        with OdinContext(2):
            from repro.obs import server as obs_server
            assert obs_server._server is not None
            port = obs_server._server.port
            code, _body = _get(obs_server._server, "/status")
            assert code == 200 and port > 0
        serve_shutdown()
        obs_status._autoserve_checked = False


class TestCLI:
    def test_cli_status_renders(self, server, capsys):
        with OdinContext(2) as ctx:
            ctx.flush()
            rc = obs_cli.main(["status", "--port", str(server.port)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "odin.context" in out
        assert "rank 0" in out

    def test_cli_flight_summarizes(self, server, flight, capsys):
        flight.tracer.instant("obs.test", "marker", rank=0)
        rc = obs_cli.main(["flight", "--port", str(server.port)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flight recorder" in out
        assert "obs.test" in out

    def test_cli_out_writes_raw_response(self, server, flight, tmp_path,
                                         capsys):
        flight.tracer.instant("obs.test", "marker", rank=0)
        out_file = tmp_path / "flight.json"
        rc = obs_cli.main(["flight", "--port", str(server.port),
                           "--out", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert "traceEvents" in doc
        capsys.readouterr()

    def test_cli_unreachable_port_errors(self, capsys):
        rc = obs_cli.main(["status", "--port", "1"])  # nothing listens
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_cli_requires_port(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_PORT", raising=False)
        with pytest.raises(SystemExit):
            obs_cli.main(["status"])
