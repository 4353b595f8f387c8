"""drivetriad: drive recordings in, annotated vision-language-action data out.

A GPS track log, a timestamped navigation-voice transcript, and a video
metadata sidecar go in; synchronized, auto-annotated instruction-action
records come out. Instructions are multi-labeled by the kind of cue they
reference (road name, distance, static object, ...), pinned to position,
heading, and video frame, and paired with the trajectory window they
govern.
"""

from ._version import __version__
from .classifier import (
    Classification,
    CommandClass,
    DEFAULT_LEXICON,
    Evidence,
    Lexicon,
    classify,
    load_lexicon,
    normalize_text,
    sort_classes,
)
from .core import (
    DEFAULT_TOLERANCE_MS,
    EARTH_RADIUS_M,
    GeoPoint,
    TrackLog,
    format_iso8601_ms,
    haversine_distance,
    heading_at,
    initial_bearing,
    interpolate_position,
    normalize_bearing,
    parse_iso8601_ms,
    signed_bearing_delta,
)
from .emitter import (
    Manifest,
    ManifestInput,
    VlaTriad,
    build_manifest,
    config_digest,
    export_triads,
    make_triads,
    manifest_input,
    read_triads,
    render_manifest,
    serialize_triad,
    sha256_hex,
    write_manifest,
)
from .errors import DataError, DriveTriadError, InternalError
from .ingest import (
    TRANSCRIPT_FORMATS,
    Transcript,
    TranscriptSegment,
    VideoIndex,
    absolutize,
    parse_gpx,
    parse_transcript,
    parse_video_meta,
)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline
from .segmenter import (
    ActionSegment,
    Maneuver,
    Mismatch,
    classify_maneuver,
    collect_mismatches,
    consistency_check,
    net_bearing_change,
    segment_actions,
)
from .stats import (
    CorpusStats,
    class_frequencies,
    combo_frequencies,
    combo_label,
    corpus_stats,
    render_report,
)
from .sync import InstructionEvent, build_events, frame_index_at
from .synth import (
    GroundTruth,
    GroundTruthEntry,
    Leg,
    RoutePlan,
    STYLES,
    StyledCorpus,
    generate_instructions,
    generate_route,
    parse_legs,
    read_ground_truth,
    write_corpus,
    write_gpx,
    write_ground_truth,
    write_transcript_json,
    write_video_meta,
)

__all__ = [
    "__version__",
    # core
    "EARTH_RADIUS_M",
    "DEFAULT_TOLERANCE_MS",
    "GeoPoint",
    "TrackLog",
    "parse_iso8601_ms",
    "format_iso8601_ms",
    "normalize_bearing",
    "haversine_distance",
    "initial_bearing",
    "signed_bearing_delta",
    "interpolate_position",
    "heading_at",
    # errors
    "DriveTriadError",
    "DataError",
    "InternalError",
    # ingest
    "TRANSCRIPT_FORMATS",
    "TranscriptSegment",
    "Transcript",
    "VideoIndex",
    "parse_gpx",
    "parse_transcript",
    "parse_video_meta",
    "absolutize",
    # classifier
    "CommandClass",
    "Evidence",
    "Classification",
    "Lexicon",
    "DEFAULT_LEXICON",
    "classify",
    "load_lexicon",
    "normalize_text",
    "sort_classes",
    # sync
    "InstructionEvent",
    "frame_index_at",
    "build_events",
    # segmenter
    "Maneuver",
    "ActionSegment",
    "Mismatch",
    "net_bearing_change",
    "classify_maneuver",
    "segment_actions",
    "consistency_check",
    "collect_mismatches",
    # stats
    "CorpusStats",
    "class_frequencies",
    "combo_frequencies",
    "combo_label",
    "corpus_stats",
    "render_report",
    # emitter
    "VlaTriad",
    "Manifest",
    "ManifestInput",
    "make_triads",
    "serialize_triad",
    "export_triads",
    "read_triads",
    "sha256_hex",
    "manifest_input",
    "config_digest",
    "build_manifest",
    "render_manifest",
    "write_manifest",
    # synth
    "Leg",
    "RoutePlan",
    "StyledCorpus",
    "STYLES",
    "parse_legs",
    "generate_route",
    "generate_instructions",
    "write_corpus",
    "write_gpx",
    "write_transcript_json",
    "write_video_meta",
    "write_ground_truth",
    "read_ground_truth",
    "GroundTruth",
    "GroundTruthEntry",
    # pipeline
    "PipelineConfig",
    "PipelineResult",
    "run_pipeline",
]
