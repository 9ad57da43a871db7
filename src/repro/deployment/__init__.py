"""Service deployment: the Service Deployer of the architecture (Fig. 1).

"This process takes as input the XML description of the composite service
and involves two steps: (i) generating the control-flow routing tables of
each state of the composite service statechart, and (ii) uploading these
tables into the hosts of the component services." (paper §4)

:class:`Deployer` performs both steps against a transport: it installs
wrappers for elementary services, communities and composites, generates
and places routing tables, and instantiates one coordinator per table on
the chosen provider host.  It also compiles each operation's placed
tables into one shared
:class:`~repro.perf.CompiledRoutingPlan`, stored on the
:class:`CompositeDeployment` and consumed by every coordinator's hot
path.
"""

from repro.deployment.placement import (
    AdjacentPlacement,
    CompositeHostPlacement,
    PlacementPolicy,
)
from repro.deployment.deployer import CompositeDeployment, Deployer

__all__ = [
    "AdjacentPlacement",
    "CompositeDeployment",
    "CompositeHostPlacement",
    "Deployer",
    "PlacementPolicy",
]
