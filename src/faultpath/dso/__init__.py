from .static import IncrementalDso, IntervalNotOnPath
from .incremental import DuplicateEdge, TieDetected, insert_edge
from .offline import DeletionSweep, OfflineDso, Timeline, build_timeline

__all__ = [
    "IncrementalDso", "IntervalNotOnPath",
    "DuplicateEdge", "TieDetected", "insert_edge",
    "DeletionSweep", "OfflineDso", "Timeline", "build_timeline",
]
