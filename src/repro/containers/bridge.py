"""Tap bridges: graft a container onto the simulated network.

DDoSim connects each Docker container to NS-3 through a veth/tap pair and
a ghost node.  Here the :class:`TapBridge` creates the ghost
:class:`~repro.sim.node.Node`, attaches it to a LAN, and hands it to the
container, so container processes do socket I/O directly on the simulated
stack — the same "container speaks through the simulation" topology as
the paper's Figure 1.
"""

from __future__ import annotations

from repro.sim.core import Simulator
from repro.sim.node import Node
from repro.sim.topology import CsmaLan


class TapBridge:
    """Builds ghost nodes on a LAN for containers to use."""

    def __init__(self, sim: Simulator, lan: CsmaLan) -> None:
        self.sim = sim
        self.lan = lan

    def create_ghost_node(self, name: str) -> Node:
        """Create and attach the ghost node backing one container.

        Placement goes through ``lan.attach`` so hierarchical topologies
        (:class:`~repro.sim.topology.SegmentedLan`) can put the node on
        the right segment; a flat :class:`CsmaLan` attaches it directly.
        """
        node = Node(self.sim, name=f"ghost-{name}")
        self.lan.attach(node)
        return node

    def reconnect(self, node: Node) -> None:
        """Re-graft a ghost node whose devices were unplugged (crash restart).

        The node keeps its interfaces, addresses, and MACs across a
        container crash; reconnecting simply re-attaches each device to
        its channel, the same veth/tap re-plumbing a supervisor performs
        when it restarts a bridged container.
        """
        for iface in node.interfaces:
            if not iface.device.attached:
                iface.device.channel.attach(iface.device)
