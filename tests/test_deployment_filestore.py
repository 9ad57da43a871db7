"""Plain-file routing-table storage and execution GC tests."""

import os

import pytest

from repro.deployment.filestore import RoutingTableStore, _safe_name
from repro.exceptions import DeploymentError
from repro.services.composite import CompositeService
from repro.services.description import (
    OperationSpec,
    ServiceDescription,
    simple_description,
)
from repro.services.elementary import ElementaryService
from repro.statecharts.builder import linear_chart
from repro.demo.travel import deploy_travel_scenario


def make_service(name):
    desc = simple_description(name, f"{name}-co", [("op", [], ["r"])])
    service = ElementaryService(desc)
    service.bind("op", lambda i: {"r": 1})
    return service


def deploy_chain(env):
    env.deployer.deploy_elementary(make_service("A"), "ha")
    env.deployer.deploy_elementary(make_service("B"), "hb")
    composite = CompositeService(ServiceDescription("C"))
    composite.define_operation(
        OperationSpec("run"),
        linear_chart("c", [("a", "A", "op"), ("b", "B", "op")]),
    )
    return env.deployer.deploy_composite(composite, "c-host")


class TestFileStore:
    def test_save_creates_one_file_per_host(self, env, tmp_path):
        deployment = deploy_chain(env)
        store = RoutingTableStore(str(tmp_path))
        written = store.save_deployment(deployment)
        assert len(written) == 3  # ha, hb, c-host
        assert store.hosts() == ["c-host", "ha", "hb"]

    def test_load_roundtrip(self, env, tmp_path):
        deployment = deploy_chain(env)
        store = RoutingTableStore(str(tmp_path))
        store.save_deployment(deployment)
        loaded = store.load_tables("ha", "C", "run")
        assert set(loaded) == {"a"}
        assert loaded["a"].binding.service == "A"
        assert loaded["a"].host == "ha"

    def test_host_file_contains_only_its_tables(self, env, tmp_path):
        deployment = deploy_chain(env)
        store = RoutingTableStore(str(tmp_path))
        store.save_deployment(deployment)
        control = store.load_tables("c-host", "C", "run")
        assert set(control) == {"initial", "final"}

    def test_load_missing_raises(self, tmp_path):
        store = RoutingTableStore(str(tmp_path))
        with pytest.raises(DeploymentError, match="no routing tables"):
            store.load_tables("ghost", "C", "run")

    def test_unplaced_table_rejected(self, tmp_path):
        from repro.routing.generation import generate_routing_tables

        tables = generate_routing_tables(
            linear_chart("c", [("a", "A", "op")])
        )
        store = RoutingTableStore(str(tmp_path))
        with pytest.raises(DeploymentError, match="no host"):
            store.save_tables("C", "run", tables)

    def test_safe_names(self):
        assert _safe_name("trip/__join") == "trip_join" or "/" not in (
            _safe_name("trip/__join")
        )
        assert "/" not in _safe_name("a/b/c")
        assert _safe_name("") == "_"

    def test_travel_deployment_persists(self, platform, tmp_path):
        deployed = deploy_travel_scenario(platform.deployer)
        store = RoutingTableStore(str(tmp_path))
        written = store.save_deployment(deployed.deployment)
        assert len(written) == len(deployed.deployment.hosts_used())
        # every provider host can reload its own knowledge independently
        loaded = store.load_tables(
            "host-ausair", "TravelArrangement", "arrangeTrip",
        )
        assert "trip/r0/DFB" in loaded

    def test_files_for_host(self, env, tmp_path):
        deployment = deploy_chain(env)
        store = RoutingTableStore(str(tmp_path))
        store.save_deployment(deployment)
        files = store.files_for_host("ha")
        assert len(files) == 1
        assert files[0].endswith("C.run.tables.xml")
        assert store.files_for_host("ghost") == []


class TestExecutionGc:
    """A finished execution leaves no coordinator state, with no
    clean-up message: coordinators keep state only while work is open."""

    def test_gc_broadcast_clears_coordinator_state(self, env):
        deployment = deploy_chain(env)
        client = env.client()
        result = client.execute(*deployment.address, "run", {})
        assert result.ok
        sent = env.transport.stats.sent_total
        env.transport.run_until_idle()
        assert env.transport.stats.sent_total == sent  # nothing broadcast
        coordinators = deployment.coordinators["run"]
        assert all(
            c.executions_seen() == 0 for c in coordinators.values()
        )

    def test_gc_does_not_break_subsequent_executions(self, env):
        deployment = deploy_chain(env)
        client = env.client()
        for _ in range(5):
            assert client.execute(*deployment.address, "run", {}).ok
        assert all(
            c.executions_seen() == 0
            for c in deployment.coordinators["run"].values()
        )
