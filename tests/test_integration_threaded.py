"""End-to-end execution on the real-clock transport.

The exact same runtime code that runs on the deterministic simulator must
work on :class:`WireTransport`: wall-clock timers, every host's handlers
on one event loop, and the test thread submitting and waiting from
outside it — the concurrency the original platform's socket listeners
saw.
"""

import pytest

from repro.deployment.deployer import Deployer
from repro.net.wire.transport import WireTransport
from repro.runtime.client import RuntimeClient
from repro.services.composite import CompositeService
from repro.services.description import (
    OperationSpec,
    ServiceDescription,
    simple_description,
)
from repro.services.elementary import ElementaryService
from repro.services.profile import ServiceProfile
from repro.statecharts.builder import StatechartBuilder, linear_chart
from repro.demo.travel import deploy_travel_scenario


def make_service(name, latency_ms=1.0):
    desc = simple_description(name, f"{name}-co", [("op", [], ["r"])])
    service = ElementaryService(desc, ServiceProfile(
        latency_mean_ms=latency_ms,
    ))
    service.bind("op", lambda i: {"r": f"{name}-out"})
    return service


@pytest.fixture
def threaded():
    transport = WireTransport()
    transport.start()
    yield transport
    transport.stop()


class TestThreadedExecution:
    def test_chain_executes(self, threaded):
        deployer = Deployer(threaded)
        deployer.deploy_elementary(make_service("A"), "ha")
        deployer.deploy_elementary(make_service("B"), "hb")
        composite = CompositeService(ServiceDescription("C"))
        composite.define_operation(
            OperationSpec("run"),
            linear_chart("c", [("a", "A", "op"), ("b", "B", "op")]),
        )
        deployment = deployer.deploy_composite(composite, "c-host")
        threaded.add_node("client-host")
        client = RuntimeClient("u", "client-host", threaded)
        result = client.execute(*deployment.address, "run", {},
                                timeout_ms=10_000)
        assert result.ok

    def test_parallel_regions_execute(self, threaded):
        deployer = Deployer(threaded)
        deployer.deploy_elementary(make_service("A", 20.0), "ha")
        deployer.deploy_elementary(make_service("B", 20.0), "hb")
        region = lambda sid, svc, out: (
            StatechartBuilder(f"r{sid}")
            .initial()
            .task(sid, svc, "op", outputs={out: "r"})
            .final()
            .chain("initial", sid, "final")
            .build()
        )
        chart = (
            StatechartBuilder("c")
            .initial()
            .parallel("P", [region("a", "A", "ra"),
                            region("b", "B", "rb")])
            .final()
            .chain("initial", "P", "final")
            .build()
        )
        composite = CompositeService(ServiceDescription("C"))
        composite.define_operation(OperationSpec("run"), chart)
        deployment = deployer.deploy_composite(composite, "c-host")
        threaded.add_node("client-host")
        client = RuntimeClient("u", "client-host", threaded)
        result = client.execute(*deployment.address, "run", {},
                                timeout_ms=10_000)
        assert result.ok
        assert result.outputs["ra"] == "A-out"
        assert result.outputs["rb"] == "B-out"

    def test_concurrent_submissions(self, threaded):
        deployer = Deployer(threaded)
        deployer.deploy_elementary(make_service("A", 5.0), "ha")
        composite = CompositeService(ServiceDescription("C"))
        composite.define_operation(
            OperationSpec("run"), linear_chart("c", [("a", "A", "op")]),
        )
        deployment = deployer.deploy_composite(composite, "c-host")
        threaded.add_node("client-host")
        client = RuntimeClient("u", "client-host", threaded)
        node, endpoint = deployment.address
        for i in range(20):
            client.submit(node, endpoint, "run", {"i": i})
        results = client.wait_all(20, timeout_ms=10_000)
        assert len(results) == 20
        assert all(r.ok for r in results.values())

    def test_travel_scenario_on_threads(self, threaded):
        deployer = Deployer(threaded)
        deployed = deploy_travel_scenario(deployer)
        threaded.add_node("client-host")
        client = RuntimeClient("u", "client-host", threaded)
        result = client.execute(
            *deployed.address, "arrangeTrip",
            {"customer": "Thready", "destination": "cairns",
             "departure_date": "d1", "return_date": "d2"},
            timeout_ms=15_000,
        )
        assert result.ok
        assert result.outputs["car_ref"]
