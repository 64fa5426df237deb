"""VoLTE call-quality analytics toolkit.

Pipeline pieces: CDR ingestion, receiver-side jitter-buffer emulation,
E-Model R-factor/MOS scoring for AMR and AMR-WB flows, seeded impairment
simulation, and binned quality-versus-loss regression.
"""

from volteqa.ingest import Codec, Bandwidth, CdrTable, RejectReason
from volteqa.jitter_buffer import PacketTimeline, JbeConfig, JbeResult
from volteqa.emodel import CodecProfile, QualityScore
from volteqa.analytics import FitResult, BinnedSeries, SurfaceGrid

__version__ = "0.1.0"

__all__ = [
    "Codec",
    "Bandwidth",
    "CdrTable",
    "RejectReason",
    "PacketTimeline",
    "JbeConfig",
    "JbeResult",
    "CodecProfile",
    "QualityScore",
    "FitResult",
    "BinnedSeries",
    "SurfaceGrid",
    "__version__",
]
