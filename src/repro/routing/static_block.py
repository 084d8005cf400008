"""Static faulty-block routing (Wu, ICPP 2000) as a registry router.

Wu's minimal adaptive routing keeps block information only at the nodes
*adjacent* to a block (its frame), with no boundary propagation.  The
router shares the Algorithm-3 probe with the limited-global model and
differs only in which nodes hold information: an adjacent-only view is
derived from the current labeling — and, online, re-derived whenever the
labeling changes, so the simulator (object path and probe table alike)
can sweep this policy too.
"""

from __future__ import annotations

from repro.core.block_construction import LabelingState, extract_blocks
from repro.core.routing import RoutingPolicy
from repro.core.state import BlockRecord, InformationState
from repro.mesh.topology import Mesh
from repro.routing.algorithm import AlgorithmRouter
from repro.routing.registry import SimulationInfo


def adjacent_only_information(
    mesh: Mesh, labeling: LabelingState, *, version: int = 0
) -> InformationState:
    """Information state with block records at adjacent-frame nodes only.

    This is exactly what the identification back-propagation produces,
    *without* the subsequent boundary construction.
    """
    info = InformationState(mesh=mesh, labeling=labeling, version=version)
    for block in extract_blocks(labeling):
        record = BlockRecord(extent=block.extent, version=version)
        for node in block.frame_nodes(mesh):
            info.add_block_info(node, record)
    return info


class StaticBlockRouter(AlgorithmRouter):
    """Block information at block-adjacent nodes only; no boundaries.

    Offline and online alike, the router decides against the adjacent-only
    view of the labeling at hand, cached until that labeling mutates — so a
    labeling change costs one rebuild per simulation, not one per probe.
    """

    name = "static-block"

    def __init__(self) -> None:
        super().__init__(RoutingPolicy(name="static-block", use_boundary_info=False))

    def _derive_view(self, mesh: Mesh, labeling: LabelingState) -> InformationState:
        return adjacent_only_information(mesh, labeling)

    def decision_information(self, info: SimulationInfo) -> InformationState:
        """The adjacent-only view of the simulator's current labeling."""
        return self.offline_view(info.mesh, info.labeling)  # type: ignore[return-value]
