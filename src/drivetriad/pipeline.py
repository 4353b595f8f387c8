"""The full batch flow: raw capture files in, dataset directory out.

One call runs ingest → classify → synchronize → segment → stats → emit
and writes four artifacts into the output directory:

* triads.jsonl    — the vision-language-action records
* manifest.json   — provenance (input digests, config digest, warnings)
* report.txt      — class and combination frequency tables over the triads
* mismatches.txt  — one line per cue whose spoken turn side or cardinal
                    the drive contradicts

Every stream is put on the shared clock here, once: ``audio_start`` anchors
the transcript and each stream's offset shifts it, or is refused by it.
Everything is computed before anything is written, so a data error never
leaves a file behind. A failed write raises IoError and removes every
artifact the run wrote. Warnings never abort; they are collected into
the manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .classifier import load_lexicon
from .core import TOLERANCE_MS, check_fields, parse_iso8601_ms, track_profile
from .emitter import (
    build_manifest,
    config_digest,
    export_triads,
    make_triads,
    manifest_input,
    output_dir,
    write_manifest,
    write_text,
)
from .errors import ParseError, parse_input
from .ingest import TRANSCRIPT_FORMATS, Transcript, parse_gpx, parse_transcript, parse_video_meta
from .segmenter import MANEUVER_RULE, PROFILE_RULE, collect_mismatches, segment_actions
from .stats import check_label, corpus_stats, render_report
from .sync import build_events

REPORT_FILENAME = "report.txt"
MISMATCHES_FILENAME = "mismatches.txt"


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one pipeline run needs; paths stay untouched on disk.

    The one home of each setting's default, type and range: a bad value
    raises ValueError naming the field.
    """

    gpx_path: Path
    transcript_path: Path
    out_dir: Path
    transcript_format: str = "segment-json"
    video_meta_path: Path | None = None
    audio_start: str | None = None
    gps_offset_ms: int = 0
    audio_offset_ms: int = 0
    video_offset_ms: int = 0
    lexicon_path: Path | None = None
    source_label: str | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.transcript_format not in TRANSCRIPT_FORMATS:
            raise ValueError(
                f"transcript_format must be one of {', '.join(TRANSCRIPT_FORMATS)}"
                f", got {self.transcript_format!r}"
            )
        # The report label is source_label, else the GPX file stem. Only a
        # directory has no stem, and reading it is refused later.
        if self.source_label is not None:
            check_label("source_label", self.source_label)
        elif self.gpx_path.stem:
            check_label(
                "source_label (by default the GPX file stem)", self.gpx_path.stem
            )
        if self.audio_start is not None:
            try:
                parse_iso8601_ms(self.audio_start)
            except ParseError as exc:
                raise ValueError(f"audio_start: {exc}") from exc


@dataclass(frozen=True)
class PipelineResult:
    """What a run produced, for summaries and tests."""

    out_dir: Path
    event_count: int
    segment_count: int
    warning_count: int
    mismatch_count: int
    triads_path: Path
    mismatches_path: Path


def _effective_config(config: PipelineConfig, lexicon_version: str) -> dict:
    """The settings and the fixed rule that the manifest's config digest records.

    Input file content is covered by the per-input digests, so paths are
    deliberately excluded here.
    """
    knobs = {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if "Path" not in f.type
    }
    return {**knobs, **MANEUVER_RULE, **PROFILE_RULE, "tolerance_ms": TOLERANCE_MS,
            "lexicon_version": lexicon_version}


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run the whole flow and write the four artifacts.

    Every output byte is a pure function of the input bytes, the input
    file names and the settings: the manifest records no clock and no
    directory.
    """
    # Each input is digested as soon as it is read, so the GPX bytes can be
    # dropped once parsed: parse_gpx streams them and keeps only the fixes.
    raw: dict[str, bytes] = {}
    inputs = []
    for path, role in (
        (config.gpx_path, "track"),
        (config.transcript_path, "transcript"),
        (config.video_meta_path, "video-meta"),
        (config.lexicon_path, "lexicon"),
    ):
        if path is not None:
            raw[role] = path.read_bytes()
            inputs.append(manifest_input(path, role, raw[role]))

    lexicon = parse_input(config.lexicon_path, load_lexicon, raw.get("lexicon"))
    track = parse_input(config.gpx_path, parse_gpx, raw.pop("track"))
    transcript = parse_input(
        config.transcript_path, parse_transcript, raw["transcript"],
        config.transcript_format,
    )
    if config.audio_start is not None:
        transcript = Transcript(transcript.segments, parse_iso8601_ms(config.audio_start))
    video = (
        parse_input(config.video_meta_path, parse_video_meta, raw["video-meta"])
        if "video-meta" in raw
        else None
    )
    # The three clock corrections are applied here, once; sync and
    # segmentation only ever see the shifted streams. A transcript segment
    # moved out of range is refused by absolutize, inside build_events.
    track = track.shifted(config.gps_offset_ms)
    video = video.shifted(config.video_offset_ms) if video is not None else None
    transcript = transcript.shifted(config.audio_offset_ms)

    events, warnings = build_events(transcript, track, video, lexicon)
    segments, segment_warnings = segment_actions(events, track, video)
    warnings += segment_warnings
    triads = make_triads(events, segments)
    mismatches, mismatch_warnings = collect_mismatches(triads, track_profile(track))
    warnings += mismatch_warnings

    label = config.gpx_path.stem if config.source_label is None else config.source_label
    # The report counts what triads.jsonl holds, so that ``stats`` over
    # the run's own triads prints the same report.
    report = render_report([corpus_stats(label, [t.event for t in triads])])

    manifest = build_manifest(
        inputs=inputs,
        config_sha256=config_digest(_effective_config(config, lexicon.version)),
        event_count=len(events),
        segment_count=len(segments),
        warnings=warnings,
    )

    with output_dir(config.out_dir) as out_dir:
        triads_path = export_triads(triads, out_dir)
        write_manifest(manifest, out_dir)
        write_text(out_dir / REPORT_FILENAME, report)
        lines = "".join(line + "\n" for line in mismatches)
        mismatches_path = write_text(out_dir / MISMATCHES_FILENAME, lines)

    return PipelineResult(
        out_dir=out_dir,
        event_count=len(events),
        segment_count=len(segments),
        warning_count=len(warnings),
        mismatch_count=len(mismatches),
        triads_path=triads_path,
        mismatches_path=mismatches_path,
    )
