"""Container images: the named recipe a container is booted from.

An :class:`Image` plays the role of a Dockerfile build product.  The
testbed ships one image per role (attacker, device, tserver, ids); a
role's processes are ``exec``-ed into its container once it runs, the
way DDoShield-IoT's run scripts start each binary.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Image:
    """An immutable container image description."""

    name: str
    tag: str = "latest"

    @property
    def reference(self) -> str:
        """The ``name:tag`` image reference."""
        return f"{self.name}:{self.tag}"
