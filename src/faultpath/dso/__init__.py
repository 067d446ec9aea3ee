from .static import IncrementalDso, IntervalNotOnPath, TieDetected

__all__ = ["IncrementalDso", "IntervalNotOnPath", "TieDetected"]
