"""The execution-backend spec and the refusal of the removed
``threads`` keys.

Two backends remain: ``serial`` and ``processes``.  The removed
``"threads"`` / ``"threads:N"`` keys raise :class:`ReproError` on every
query surface and in a raw wire frame, like any other unknown kind.
"""

import socket

import pytest

import repro
from repro.engine.backend import (
    BACKEND_KINDS,
    ExecutionBackend,
    resolve_backend,
)
from repro.engine.session import Engine
from repro.errors import ReproError
from repro.serve import client as client_mod
from repro.serve.protocol import encode_frame, read_frame
from repro.serve.service import QueryService
from repro.xmlkit.parser import parse

LIBRARY = """
<library>
  <shelf genre="systems">
    <book id="b1"><author>Gray</author><title>Transaction</title></book>
    <book id="b2"><author>Codd</author><title>Relational</title></book>
  </shelf>
  <shelf genre="theory">
    <book id="b3"><title>Automata</title></book>
  </shelf>
</library>
"""

QUERY = "//book[author]/title"


class TestSpec:
    def test_two_backend_kinds(self):
        assert BACKEND_KINDS == ("serial", "processes")

    def test_threads_kind_is_refused_by_the_dataclass(self):
        with pytest.raises(ReproError, match="threads"):
            ExecutionBackend("threads", 4)

    def test_parallel_strategy_defaults_to_processes(self):
        assert resolve_backend(None, "parallel") == \
            ExecutionBackend("processes", 4)
        assert resolve_backend(None) == ExecutionBackend()

    def test_processes_key_roundtrips(self):
        assert ExecutionBackend.from_key("processes").key == "processes:4"
        assert ExecutionBackend.from_key("processes:2").key == "processes:2"

    @pytest.mark.parametrize("key", ["threads", "threads:4"])
    def test_threads_keys_are_refused(self, key):
        with pytest.raises(ReproError, match="threads"):
            ExecutionBackend.from_key(key)


class TestThreadsKeyOnEverySurface:
    def test_engine_query(self):
        engine = Engine(parse(LIBRARY))
        with pytest.raises(ReproError, match="threads"):
            engine.query(QUERY, executor="threads:4")
        assert engine.plan_cache.stats()["size"] == 0

    def test_prepare(self):
        engine = Engine(parse(LIBRARY))
        with pytest.raises(ReproError, match="threads"):
            engine.prepare(QUERY, executor="threads:4")
        assert engine.plan_cache.stats()["size"] == 0

    def test_query_service_submit(self):
        with QueryService(LIBRARY, workers=1) as service:
            with pytest.raises(ReproError, match="threads"):
                service.submit(QUERY, executor="threads:4").result()
            # The refusal leaves the service serving.
            assert len(service.submit(QUERY).result()) == 2

    def test_client_query_over_the_wire(self):
        with repro.connect(LIBRARY) as db:
            server = db.listen()
            with client_mod.connect(*server.address) as cl:
                with pytest.raises(ReproError, match="threads"):
                    cl.query(QUERY, executor="threads:4")
                # A raw frame naming the key is refused server-side.
                with socket.create_connection(server.address,
                                              timeout=5.0) as sock, \
                        sock.makefile("rwb") as stream:
                    assert read_frame(stream)["type"] == "hello"
                    stream.write(encode_frame(
                        {"type": "query", "id": 1, "text": QUERY,
                         "executor": "threads:4"}))
                    stream.flush()
                    reply = read_frame(stream)
                assert len(cl.query(QUERY)) == 2
        assert (reply["type"], reply["id"]) == ("error", 1)
        assert "threads" in reply["message"]
