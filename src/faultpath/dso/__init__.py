from .static import IncrementalDso, IntervalNotOnPath
from .incremental import DuplicateEdge, TieDetected, insert_edge
from .offline import OfflineDso, Timeline, build_timeline

__all__ = [
    "IncrementalDso", "IntervalNotOnPath",
    "DuplicateEdge", "TieDetected", "insert_edge",
    "OfflineDso", "Timeline", "build_timeline",
]
