"""Protocol and directory tests."""

import pytest

from repro.exceptions import DeploymentError
from repro.kernel.envelopes import Invoke, InvokeResult, Notify
from repro.runtime.directory import ServiceDirectory
from repro.runtime.protocol import (
    ExecutionResult,
    client_endpoint,
    coordinator_endpoint,
    wrapper_endpoint,
)


class TestEndpointNaming:
    def test_coordinator_endpoint_unique_per_triple(self):
        a = coordinator_endpoint("C", "op", "n1")
        b = coordinator_endpoint("C", "op", "n2")
        c = coordinator_endpoint("C", "op2", "n1")
        assert len({a, b, c}) == 3

    def test_wrapper_endpoint(self):
        assert wrapper_endpoint("S") == "wrapper:S"

    def test_client_endpoint(self):
        assert client_endpoint("alice") == "client:alice"


class TestBodies:
    def test_notify_envelope_copies_env(self):
        env = {"x": 1}
        body = Notify(execution_id="e1", edge_id="edge", from_node="n",
                      env=env).to_body()
        env["x"] = 2
        assert body["env"]["x"] == 1

    def test_invoke_envelope_fields(self):
        body = Invoke(invocation_id="i1", execution_id="e1",
                      operation="op", arguments={"a": 1}).to_body()
        assert body["invocation_id"] == "i1"
        assert body["operation"] == "op"
        assert body["arguments"] == {"a": 1}

    def test_invoke_result_success(self):
        body = InvokeResult.outcome("i1", "e1", True, {"r": 2}).to_body()
        assert body["status"] == "success"
        assert body["outputs"] == {"r": 2}

    def test_invoke_result_fault(self):
        body = InvokeResult.outcome("i1", "e1", False,
                                    fault="boom").to_body()
        assert body["status"] == "fault"
        assert body["fault"] == "boom"


class TestExecutionResult:
    def test_ok_and_duration(self):
        result = ExecutionResult("e1", "success",
                                 started_ms=10.0, finished_ms=35.0)
        assert result.ok
        assert result.duration_ms == 25.0

    def test_fault_not_ok(self):
        assert not ExecutionResult("e1", "fault").ok
        assert not ExecutionResult("e1", "timeout").ok


class TestDirectory:
    def test_register_and_resolve(self):
        directory = ServiceDirectory()
        directory.register("S", "host-1")
        assert directory.resolve("S") == ("host-1", "wrapper:S")
        assert directory.node_of("S") == "host-1"
        assert directory.knows("S")

    def test_custom_endpoint(self):
        directory = ServiceDirectory()
        directory.register("S", "host-1", "custom:ep")
        assert directory.resolve("S") == ("host-1", "custom:ep")

    def test_reregistration_overwrites(self):
        directory = ServiceDirectory()
        directory.register("S", "host-1")
        directory.register("S", "host-2")
        assert directory.node_of("S") == "host-2"

    def test_unknown_service_raises(self):
        with pytest.raises(DeploymentError, match="no registered location"):
            ServiceDirectory().resolve("ghost")

    def test_unregister(self):
        directory = ServiceDirectory()
        directory.register("S", "h")
        directory.unregister("S")
        assert not directory.knows("S")
        with pytest.raises(DeploymentError):
            directory.unregister("S")

    def test_services_sorted(self):
        directory = ServiceDirectory()
        directory.register("B", "h")
        directory.register("A", "h")
        assert directory.services() == ["A", "B"]
