"""The execution-backend spec and the ``threads`` deprecation shim.

Two backends remain: ``serial`` and ``processes``.  For one release the
removed ``"threads"`` / ``"threads:N"`` keys still parse — to the serial
spec, with one :class:`DeprecationWarning` — so an old caller keeps
getting serial-identical results that share serial's plan-cache and
result-cache entries, on every query surface.
"""

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


def deprecations(record) -> list:
    return [w for w in record if issubclass(w.category, DeprecationWarning)]


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
    def test_threads_keys_parse_to_serial_with_a_warning(self, key):
        with pytest.warns(DeprecationWarning, match="threads") as record:
            backend = ExecutionBackend.from_key(key)
        assert backend == ExecutionBackend()
        assert len(deprecations(record)) == 1


class TestThreadsKeyOnEverySurface:
    def test_engine_query(self):
        engine = Engine(parse(LIBRARY))
        serial = engine.query(QUERY)
        hits = engine.plan_cache.stats()["hits"]
        with pytest.warns(DeprecationWarning) as record:
            threads = engine.query(QUERY, executor="threads:4")
        assert len(deprecations(record)) == 1
        assert threads.serialize() == serial.serialize()
        # Same plan-cache key as serial: the second lookup is a hit.
        assert engine.plan_cache.stats()["hits"] == hits + 1
        assert engine.plan_cache.stats()["size"] == 1

    def test_prepare(self):
        engine = Engine(parse(LIBRARY))
        serial = engine.query(QUERY)
        with pytest.warns(DeprecationWarning) as record:
            prepared = engine.prepare(QUERY, executor="threads:4")
        assert len(deprecations(record)) == 1
        assert prepared.executor == ExecutionBackend()
        assert prepared.execute().serialize() == serial.serialize()
        assert engine.plan_cache.stats()["size"] == 1

    def test_query_service_submit(self):
        with QueryService(LIBRARY, workers=1) as service:
            serial = service.submit(QUERY).result()
            with pytest.warns(DeprecationWarning) as record:
                future = service.submit(QUERY, executor="threads:4")
            threads = future.result()
        assert len(deprecations(record)) == 1
        assert threads.serialize() == serial.serialize()
        # Same result-cache key as serial: answered from the cache.
        assert not serial.cached
        assert threads.cached

    def test_client_query_over_the_wire(self):
        with repro.connect(LIBRARY) as db:
            server = db.listen()
            with client_mod.connect(*server.address) as cl:
                serial = cl.query(QUERY)
                with pytest.warns(DeprecationWarning) as record:
                    threads = cl.query(QUERY, executor="threads:4")
        assert len(deprecations(record)) == 1
        assert threads.serialize() == serial.serialize()
        assert not serial.cached
        assert threads.cached
