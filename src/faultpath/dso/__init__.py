from .static import IncrementalDso, IntervalNotOnPath, TieDetected
from .incremental import DuplicateEdge, insert_edge
from .offline import DeletionSweep, OfflineDso, Timeline, build_timeline

__all__ = [
    "IncrementalDso", "IntervalNotOnPath",
    "DuplicateEdge", "TieDetected", "insert_edge",
    "DeletionSweep", "OfflineDso", "Timeline", "build_timeline",
]
