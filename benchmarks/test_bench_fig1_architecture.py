"""FIG-1 — Architecture of SELF-SERV.

Figure 1 is the system diagram: service manager (discovery engine,
editor, deployer), UDDI registry, and the pool of services.  The
regenerable artefact is the *full platform bring-up*: register every
travel-scenario provider, deploy the community and the composite, and
publish everything in UDDI.  The benchmark measures bring-up cost; the
assertions check the architecture is complete (every box of the figure
is populated).
"""

from repro import Platform, PlatformConfig, SimTransport
from repro.demo.travel import build_travel_scenario, deploy_travel_scenario

from _utils import write_result


def bring_up_platform():
    """Stand up the whole Figure-1 architecture from scratch."""
    transport = SimTransport()
    platform = Platform(PlatformConfig(trace=False), transport=transport)
    deployed = deploy_travel_scenario(platform.deployer)
    for service in deployed.scenario.all_services():
        platform.discovery.publish(service.description, category="travel")
    platform.discovery.publish(
        deployed.scenario.community.description, category="travel",
    )
    platform.discovery.publish(
        deployed.scenario.composite.description, category="composite",
    )
    return platform, deployed


def test_bench_fig1_platform_bring_up(benchmark):
    platform, deployed = benchmark(bring_up_platform)

    stats = platform.discovery.registry.statistics()
    scenario = deployed.scenario
    # Every box of Figure 1 is populated:
    assert stats["businesses"] >= 9          # provider organisations
    assert stats["services"] == 10           # 8 elementary + community + composite
    assert stats["bindings"] == stats["services"]
    assert len(scenario.elementary) == 5
    assert len(scenario.community_members) == 3
    assert deployed.deployment.coordinator_count() >= 15
    assert len(deployed.deployment.hosts_used()) >= 7

    rows = [
        ("businesses (providers)", stats["businesses"]),
        ("services in UDDI", stats["services"]),
        ("bindings in UDDI", stats["bindings"]),
        ("elementary services", len(scenario.elementary)),
        ("community members", len(scenario.community_members)),
        ("coordinators installed",
         deployed.deployment.coordinator_count()),
        ("provider hosts", len(deployed.deployment.hosts_used())),
    ]
    write_result(
        "FIG-1", "architecture bring-up inventory",
        ["component", "count"], rows,
        notes="Paper: Figure 1 shows the service manager, UDDI registry "
              "and pool of services; all boxes are instantiated here.",
    )
