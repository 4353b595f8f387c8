"""Deterministic on-disk dataset format: triads.jsonl + manifest.json.

A triad pairs one instruction event with its action segment, whose frame
range is set when video is present. Records are serialized by hand rather
than through a generic JSON dumper so that key order, float rendering
(fixed 6 decimals), and line order are byte-stable across runs and
machines — reruns on identical inputs must produce identical bytes.

The manifest records provenance: tool version, content digests of every
input, a digest of the effective configuration, counts, and all warnings
raised along the way.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ._version import __version__
from .classifier import CommandClass, Evidence, Statement, read_statement, sort_classes
from .core import GeoPoint, member, read_text
from .errors import InternalError, InternalOrderingError, IoError, ParseError
from .segmenter import ActionSegment, Maneuver
from .sync import InstructionEvent

TRIADS_FILENAME = "triads.jsonl"
MANIFEST_FILENAME = "manifest.json"


@dataclass(frozen=True)
class VlaTriad:
    """One vision-language-action record."""

    event: InstructionEvent
    action: ActionSegment


def make_triads(
    events: Sequence[InstructionEvent],
    segments: Sequence[ActionSegment],
) -> list[VlaTriad]:
    """Pair events with their segments; an event without one has no triad
    (segment_actions has already warned about its empty window)."""
    by_event = {segment.event_id: segment for segment in segments}
    return [VlaTriad(e, by_event[e.id]) for e in events if e.id in by_event]


# --- serialization ----------------------------------------------------------


def _float6(value: float) -> str:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InternalError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise InternalError(f"non-finite number in output: {value!r}")
    rendered = f"{value:.6f}"
    return "0.000000" if rendered == "-0.000000" else rendered


def _opt_float6(value: float | None) -> str:
    return "null" if value is None else _float6(value)


def _opt_int(value: int | None) -> str:
    return "null" if value is None else str(value)


def _string(value: str) -> str:
    return json.dumps(value, ensure_ascii=True)


def _geo_members(point: GeoPoint) -> str:
    """The lat, lon and ele members of a point, for a waypoint and a geo."""
    return '"lat": %s, "lon": %s, "ele": %s' % (
        _float6(point.lat_deg), _float6(point.lon_deg), _opt_float6(point.ele_m)
    )


def labels_fragment(text: str, evidence: Sequence[Evidence]) -> str:
    """The text, classes and evidence members of a labels record: the one
    writer of that JSON fragment, for triads lines and ``classify`` lines.
    The classes are those the evidence names, each once."""
    classes = {ev.command_class for ev in evidence}
    class_list = ", ".join(_string(c.value) for c in sort_classes(classes))
    evidence_list = ", ".join(
        '{"class": %s, "start": %d, "end": %d, "matched": %s}'
        % (_string(ev.command_class.value), ev.start, ev.end, _string(ev.matched))
        for ev in evidence
    )
    return '"text": %s, "classes": [%s], "evidence": [%s]' % (
        _string(text), class_list, evidence_list
    )


# A waypoint in one format step: the bulk of a triads file. A GeoPoint
# holds finite float coordinates and an int time, so only a value that
# renders as -0 needs the fold _float6 makes.
_WAYPOINT = '{"t_ms": %d, "lat": %.6f, "lon": %.6f, "ele": %.6f}'
_WAYPOINT_NO_ELE = '{"t_ms": %d, "lat": %.6f, "lon": %.6f, "ele": null}'


def _waypoint(point: GeoPoint) -> str:
    """One waypoint object, each member as ``_float6`` writes it."""
    ele = point.ele_m
    text = (
        _WAYPOINT_NO_ELE % (point.t_ms, point.lat_deg, point.lon_deg)
        if ele is None
        else _WAYPOINT % (point.t_ms, point.lat_deg, point.lon_deg, ele)
    )
    return text.replace("-0.000000", "0.000000")


def serialize_triad(triad: VlaTriad) -> str:
    """One JSON line; fixed key order, 6-decimal floats, ASCII only."""
    event, action = triad.event, triad.action
    waypoints = ", ".join(map(_waypoint, action.waypoints))
    action_json = (
        '{"t_start_ms": %d, "t_end_ms": %d, "maneuver": %s, '
        '"net_bearing_change_deg": %s, "distance_m": %s, "waypoints": [%s], '
        '"frame_start": %s, "frame_end": %s}'
        % (
            action.t_start_ms,
            action.t_end_ms,
            _string(action.maneuver.value),
            _float6(action.net_bearing_change_deg),
            _float6(action.distance_m),
            waypoints,
            _opt_int(action.frame_start),
            _opt_int(action.frame_end),
        )
    )
    return (
        '{"id": %d, "t_utc_ms": %d, %s, "geo": {%s}, "heading_deg": %s, '
        '"frame_index": %s, "action": %s}'
        % (
            event.id,
            event.t_ms,
            labels_fragment(event.text, event.evidence),
            _geo_members(event.geo),
            _opt_float6(event.heading_deg),
            _opt_int(event.frame_index),
            action_json,
        )
    )


def export_triads(triads: Sequence[VlaTriad], out_dir: Path | str) -> Path:
    """Write triads.jsonl (LF lines, UTF-8). Input must be time-ordered."""
    for previous, current in zip(triads, triads[1:]):
        if current.event.t_ms < previous.event.t_ms:
            raise InternalOrderingError(
                f"triads out of time order at events "
                f"{previous.event.id} -> {current.event.id}"
            )
    return write_text(
        Path(out_dir) / TRIADS_FILENAME,
        "".join(serialize_triad(t) + "\n" for t in triads),
    )


# The list of files written so far inside the current output_dir block, or
# None outside one; a context variable, so each thread collects its own.
_written = contextvars.ContextVar("written", default=None)


def write_text(target: Path | str, text: str) -> Path:
    """Write one artifact as UTF-8 with its newlines untranslated: the one
    writer of every output file. A failure raises IoError naming the file;
    a file it opened is removed rather than left half written, and one it
    could not open stays as it was."""
    target = Path(target)
    opened = False
    try:
        with open(target, "w", encoding="utf-8", newline="") as handle:
            opened = True
            handle.write(text)
    except OSError as exc:
        if opened:
            with contextlib.suppress(OSError):
                target.unlink()
        raise IoError(f"cannot write {target}: {exc}") from exc
    written = _written.get()
    if written is not None:
        written.append(target)
    return target


@contextlib.contextmanager
def output_dir(path: Path | str) -> Iterator[Path]:
    """Create the directory a run writes into and yield it. An IoError in
    the block removes the files the block wrote, so no partial output
    looks complete; a file that cannot be removed stays."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    written: list[Path] = []
    token = _written.set(written)
    try:
        yield out
    except IoError:
        for done in written:
            with contextlib.suppress(OSError):
                done.unlink()
        raise
    finally:
        _written.reset(token)


# --- reading back -----------------------------------------------------------


def read_triads(data: bytes) -> list[VlaTriad]:
    """Parse a triads.jsonl byte stream, read by ``core.read_text``, back
    into triad objects. A schema violation raises ParseError naming the
    line number.
    """
    triads = []
    # The records of one text repeat its evidence, so each distinct evidence
    # is built and read for its statement once.
    labels: dict[tuple, tuple[tuple[Evidence, ...], Statement]] = {}
    for line_no, line in enumerate(read_text(data).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            triads.append(_triad_from_json(line, labels))
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
    return triads


def _enum(kind: type[enum.Enum], what: str, name: object) -> enum.Enum:
    """The member of ``kind`` whose value is ``name``."""
    try:
        return kind(name)
    except ValueError:
        raise ValueError(f"unknown {what} {name!r}") from None


def _geo_from(obj: object, t_ms: int) -> GeoPoint:
    return GeoPoint(
        member(obj, "lat", "float"), member(obj, "lon", "float"), t_ms,
        member(obj, "ele", "float", nullable=True),
    )


def _waypoint_from(obj: object) -> GeoPoint:
    """A waypoint object as a point, in one step; an error is worded as
    reading each member through ``member`` words it."""
    try:
        return GeoPoint(obj["lat"], obj["lon"], obj["t_ms"], obj["ele"])
    except (KeyError, TypeError, ValueError):
        return _geo_from(obj, member(obj, "t_ms", "int"))


def _triad_from_json(
    line: str, labels: dict[tuple, tuple[tuple[Evidence, ...], Statement]]
) -> VlaTriad:
    """One record as a triad; ``labels`` maps the evidence members already
    read to their evidence and its statement."""
    obj = json.loads(line)
    event_id = member(obj, "id", "int")
    t_ms = member(obj, "t_utc_ms", "int")
    names = member(obj, "classes", "list")
    classes = frozenset(_enum(CommandClass, "class", name) for name in names)
    members = tuple(
        (
            _enum(CommandClass, "class", member(ev, "class", "str")),
            member(ev, "start", "int"),
            member(ev, "end", "int"),
            member(ev, "matched", "str"),
        )
        for ev in member(obj, "evidence", "list")
    )
    if members not in labels:
        evidence = tuple(Evidence(*row) for row in members)
        labels[members] = evidence, read_statement(evidence)
    evidence, statement = labels[members]
    event = InstructionEvent(
        id=event_id,
        t_ms=t_ms,
        text=member(obj, "text", "str"),
        evidence=evidence,
        statement=statement,
        geo=_geo_from(member(obj, "geo", "object"), t_ms),
        heading_deg=member(obj, "heading_deg", "float", nullable=True),
        frame_index=member(obj, "frame_index", "int", nullable=True),
    )
    raw_action = member(obj, "action", "object")
    waypoints = tuple(map(_waypoint_from, member(raw_action, "waypoints", "list")))
    maneuver = _enum(Maneuver, "maneuver", member(raw_action, "maneuver", "str"))
    action = ActionSegment(
        event_id=event_id,
        t_start_ms=member(raw_action, "t_start_ms", "int"),
        t_end_ms=member(raw_action, "t_end_ms", "int"),
        waypoints=waypoints,
        net_bearing_change_deg=member(raw_action, "net_bearing_change_deg", "float"),
        distance_m=member(raw_action, "distance_m", "float"),
        maneuver=maneuver,
        frame_start=member(raw_action, "frame_start", "int", nullable=True),
        frame_end=member(raw_action, "frame_end", "int", nullable=True),
    )
    for what, start, end in (
        ("window", action.t_start_ms, action.t_end_ms),
        ("frame range", action.frame_start, action.frame_end),
    ):
        if start is not None and end is not None and start > end:
            raise ValueError(f"{what} inverted: [{start}, {end}]")
    # A frame range is exact or absent: both ends, or neither.
    if (action.frame_start is None) != (action.frame_end is None):
        raise ValueError(
            f"frame range has one null end: [{action.frame_start}, {action.frame_end}]"
        )
    # Each evidence item is what Evidence documents: a span of the text,
    # never an empty one.
    for ev in evidence:
        if not (0 <= ev.start < ev.end <= len(event.text)
                and event.text[ev.start:ev.end] == ev.matched):
            raise ValueError(
                f"evidence [{ev.start}, {ev.end}] is not {ev.matched!r} in the text"
            )
    # The classes are what classify gives: the evidence's classes, each once.
    if len(names) != len(classes) or classes != event.classes:
        raise ValueError(f"classes {names!r} are not the evidence's classes, each once")
    return VlaTriad(event, action)


# --- manifest ---------------------------------------------------------------


def manifest_input(path: str | Path, role: str, data: bytes) -> dict[str, str]:
    """Digest one input under its basename: the directory a run was
    started from is no part of its provenance."""
    sha256 = hashlib.sha256(data).hexdigest()
    return {"path": Path(path).name, "role": role, "sha256": sha256}


def config_digest(config: Mapping[str, object]) -> str:
    """Digest of the effective configuration, canonicalized."""
    canonical = json.dumps(
        config, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(
    inputs: Sequence[dict[str, str]],
    config_sha256: str,
    event_count: int,
    segment_count: int,
    warnings: Sequence[str],
) -> dict:
    """The manifest document, keys in on-disk order. It records no clock:
    ``created_at_utc_ms`` is always null, so two runs on the same inputs
    write the same bytes."""
    return {
        "tool_version": __version__,
        "created_at_utc_ms": None,
        "inputs": list(inputs),
        "config_sha256": config_sha256,
        "event_count": event_count,
        "segment_count": segment_count,
        "warnings": list(warnings),
    }


def json_document(doc: object) -> str:
    """A whole JSON file: indent 2, ASCII only, one final LF."""
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def write_manifest(manifest: dict, out_dir: Path | str) -> Path:
    return write_text(Path(out_dir) / MANIFEST_FILENAME, json_document(manifest))
