"""MPI-like simulated runtime (substrate).

Replaces LAM-MPI/MPICH on the paper's clusters; see DESIGN.md §2.
"""

from .collectives import (
    ALLTOALLV_VARIANTS,
    MATRIX_ALGORITHMS,
    alltoall_bruck,
    alltoall_direct,
    alltoall_ring,
    alltoall_rounds,
    alltoallv_direct,
    alltoallv_rounds,
)
from .lowering import LoweredMessage, LoweredProgram, Segment, lower_program
from .request import ANY_SOURCE, ANY_TAG, RecvRequest, Request, SendRequest
from .runtime import RankContext, RankProgram, RunResult, Runtime
from .transport import TransportParams

__all__ = [
    "ALLTOALLV_VARIANTS",
    "MATRIX_ALGORITHMS",
    "alltoall_bruck",
    "alltoall_direct",
    "alltoall_ring",
    "alltoall_rounds",
    "alltoallv_direct",
    "alltoallv_rounds",
    "LoweredMessage",
    "LoweredProgram",
    "Segment",
    "lower_program",
    "ANY_SOURCE",
    "ANY_TAG",
    "RecvRequest",
    "Request",
    "SendRequest",
    "RankContext",
    "RankProgram",
    "RunResult",
    "Runtime",
    "TransportParams",
]
