"""drivetriad: drive recordings in, annotated vision-language-action data out.

A GPS track log, a timestamped navigation-voice transcript, and a video
metadata sidecar go in; synchronized, auto-annotated instruction-action
records come out. Instructions are multi-labeled by the kind of cue they
reference (road name, distance, static object, ...), pinned to position,
heading, and video frame, and paired with the trajectory window they
govern.

The names below are the whole public API, the same list as the README's
Library section. Errors are imported from ``drivetriad.errors``; every
other module-level name is internal.
"""

from ._version import __version__
from .classifier import CommandClass, classify, load_lexicon
from .core import (
    GeoPoint, TrackLog, haversine_distance, initial_bearing, interpolate_position,
)
from .emitter import export_triads, make_triads, read_triads
from .ingest import (
    Transcript, TranscriptSegment, VideoIndex, parse_gpx, parse_transcript,
    parse_video_meta,
)
from .pipeline import PipelineConfig, run_pipeline
from .segmenter import Maneuver, segment_actions
from .stats import corpus_stats, render_report
from .sync import build_events, frame_index_at
from .synth import STYLES, RoutePlan, generate_instructions, parse_legs, write_corpus

__all__ = [
    "__version__",
    # ingestion
    "parse_gpx", "parse_transcript", "parse_video_meta",
    "Transcript", "TranscriptSegment", "VideoIndex",
    # classification
    "classify", "load_lexicon", "CommandClass",
    # geometry
    "GeoPoint", "TrackLog", "haversine_distance", "initial_bearing",
    "interpolate_position",
    # synchronization
    "build_events", "frame_index_at", "segment_actions", "Maneuver",
    # emission
    "make_triads", "export_triads", "read_triads",
    # statistics
    "corpus_stats", "render_report",
    # one-call pipeline
    "run_pipeline", "PipelineConfig",
    # synthetic corpora
    "RoutePlan", "STYLES", "parse_legs", "generate_instructions", "write_corpus",
]
