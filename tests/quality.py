"""Score a pipeline run against the truth that synth planted.

``score`` takes a synthetic drive's ground truth and the events and action
segments the pipeline made of it, and returns:

- maneuver hits: cues whose action segment has the planted maneuver;
- heading errors: at each cue more than 45 m past the turn before it and
  more than 20 m short of the one after, the event's heading against the
  planned leg heading;
- length ratios: each window's ``distance_m`` over its planned length.

``locate`` scores the turns a track profile located against the planted
turns, and ``cardinal_lines`` counts the cardinal check's lines on a
cardinal-heavy drive, with its cardinals as planted or each one flipped.

Run as a script, it prints the quality matrix: two drives, at 1, 5 and
10 Hz, with GPS noise of sigma 0, 3 and 5 m, over seeds 1 and 2. Each row
sums the hits of the two seeds and takes the mean of their median heading
error and of their median length ratio. It sums the planted turns
located, the spurious ones and the cardinal lines of the two seeds, and
takes the median and the maximum turn error over both::

    PYTHONPATH=src python3 tests/quality.py
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

from drivetriad import Transcript, TranscriptSegment, build_events, make_triads, segment_actions
from drivetriad.core import Turn, track_profile
from drivetriad.segmenter import ActionSegment, collect_mismatches
from drivetriad.sync import InstructionEvent
from drivetriad.synth import GroundTruth, RoutePlan, StyledCorpus, generate_instructions, parse_legs

from helpers import circular_diff_deg

# A cue this close to a planted turn, after it or before it, gets no
# heading error: the track's heading there still reads part of the turn.
AFTER_TURN_M = 45.0
BEFORE_TURN_M = 20.0

# (legs, speed in m/s) of each drive in the matrix: 30 mixed turns on
# 400-700 m city legs, and twelve alternating turns on 3 km highway legs.
DRIVES = {
    "city30": (
        ",".join(f"{400 + (i * 37) % 300}{'L' if i % 3 == 0 else 'R'}" for i in range(30)) + ",500",
        15.0,
    ),
    "hwy": (",".join(["3000R", "3000L"] * 6) + ",3000", 30.0),
}
RATES_HZ = (1.0, 5.0, 10.0)
SIGMAS_M = (0.0, 3.0, 5.0)
SEEDS = (1, 2)


@dataclass(frozen=True)
class Score:
    """How one run compares with its drive's planted truth."""

    hits: int
    cues: int
    heading_errors: tuple[float, ...]
    length_ratios: tuple[float, ...]


def score(
    truth: GroundTruth,
    events: Sequence[InstructionEvent],
    segments: Sequence[ActionSegment],
) -> Score:
    """Score a run's events and segments against ``truth``.

    An event is matched to the cue spoken at its instant; an event at no
    cue's instant, or a segment whose event is unmatched, scores nothing,
    and a cue with no segment is a miss. An eligible cue whose event has
    no heading scores the worst error, 180 degrees.
    """
    cue_at_ms = {
        truth.audio_start_ms + round(entry.start_s * 1000): j
        for j, entry in enumerate(truth.instructions)
    }
    cue_of_event = {e.id: cue_at_ms[e.t_ms] for e in events if e.t_ms in cue_at_ms}
    turns = [entry.turn.along_m for entry in truth.instructions if entry.turn is not None]
    heading_errors = []
    for event in events:
        j = cue_of_event.get(event.id)
        if j is None:
            continue
        entry = truth.instructions[j]
        if any(-AFTER_TURN_M <= turn - entry.along_m <= BEFORE_TURN_M for turn in turns):
            continue
        heading = event.heading_deg
        heading_errors.append(
            180.0 if heading is None else circular_diff_deg(heading, entry.heading_deg)
        )
    hits = 0
    length_ratios = []
    for segment in segments:
        j = cue_of_event.get(segment.event_id)
        if j is None:
            continue
        hits += segment.maneuver is truth.expected_maneuvers[j]
        length_ratios.append(segment.distance_m / truth.instructions[j].window_m)
    return Score(hits, len(truth.instructions), tuple(heading_errors), tuple(length_ratios))


@dataclass(frozen=True)
class TurnScore:
    """How the turns a profile located compare with the planted ones."""

    planted: int
    found: int
    spurious: int
    errors_m: tuple[float, ...]


def locate(truth: GroundTruth, turns: Sequence[Turn]) -> TurnScore:
    """Score located ``turns`` against the turns ``truth`` planted.

    Each located turn belongs to the planted turn nearest it along the
    route, measured as the time between them at the drive's constant
    speed. A planted turn is found when at least one located turn belongs
    to it, and each located turn past the first of its planted turn is
    spurious. A found turn's error is its nearest located turn's distance.
    """
    planted = [entry.turn for entry in truth.instructions if entry.turn is not None]
    nearest: dict[int, list[float]] = {}
    for turn in turns:
        t_s = (turn.t_ms - truth.audio_start_ms) / 1000
        errors = [abs(t_s - p.t_s) * p.along_m / p.t_s for p in planted]
        best = min(range(len(planted)), key=errors.__getitem__)
        nearest.setdefault(best, []).append(errors[best])
    return TurnScore(
        planted=len(planted),
        found=len(nearest),
        spurious=len(turns) - len(nearest),
        errors_m=tuple(min(errors) for _, errors in sorted(nearest.items())),
    )


_OPPOSITE = {"North": "South", "South": "North", "East": "West", "West": "East"}


def flip_cardinals(transcript: Transcript) -> Transcript:
    """The transcript with the cardinal each cue heads toward turned to
    its opposite: "head North" reads "head South"."""
    segments = []
    for segment in transcript.segments:
        text = segment.text
        for cardinal, opposite in _OPPOSITE.items():
            if f"head {cardinal}" in text:
                text = text.replace(f"head {cardinal}", f"head {opposite}")
                break
        segments.append(TranscriptSegment(segment.start_s, segment.end_s, text))
    return Transcript(tuple(segments), transcript.audio_start_ms)


def cardinal_lines(corpus: StyledCorpus, transcript: Transcript | None = None) -> list[str]:
    """The cardinal check's mismatches.txt lines on ``corpus``'s track,
    for its own transcript or for ``transcript``."""
    events, _ = build_events(transcript or corpus.transcript, corpus.track)
    segments, _ = segment_actions(events, corpus.track)
    lines, _ = collect_mismatches(make_triads(events, segments), track_profile(corpus.track))
    return [line for line in lines if ", observed bearing " in line]


def drive(
    name: str, sample_hz: float, sigma_m: float, seed: int, style: str = "distance-heavy"
) -> StyledCorpus:
    """One drive of the matrix."""
    legs, speed_mps = DRIVES[name]
    plan = RoutePlan(
        parse_legs(legs),
        speed_mps=speed_mps,
        sample_hz=sample_hz,
        noise_sigma_m=sigma_m,
        seed=seed,
    )
    return generate_instructions(plan, style)


def run(corpus: StyledCorpus) -> Score:
    """Place and segment a drive as the pipeline does, and score it."""
    events, _ = build_events(corpus.transcript, corpus.track)
    segments, _ = segment_actions(events, corpus.track)
    return score(corpus.ground_truth, events, segments)


def matrix_row(name: str, sample_hz: float, sigma_m: float) -> tuple[int, int, float, float]:
    """(hits, cues, heading error, length ratio) over the seeds: hits and
    cues summed, the error and the ratio the mean of the seeds' medians."""
    scores = [run(drive(name, sample_hz, sigma_m, seed)) for seed in SEEDS]
    return (
        sum(s.hits for s in scores),
        sum(s.cues for s in scores),
        statistics.fmean(statistics.median(s.heading_errors) for s in scores),
        statistics.fmean(statistics.median(s.length_ratios) for s in scores),
    )


def profile_row(name: str, sample_hz: float, sigma_m: float) -> tuple[TurnScore, int, int, int]:
    """Over the seeds' cardinal-heavy drives: their located turns, pooled;
    and the cardinal lines with the cardinals as planted, the lines with
    each one flipped, and the cues that state a cardinal, summed."""
    scores = []
    planted = flipped = cues = 0
    for seed in SEEDS:
        corpus = drive(name, sample_hz, sigma_m, seed, "cardinal-heavy")
        scores.append(locate(corpus.ground_truth, track_profile(corpus.track).turns))
        planted += len(cardinal_lines(corpus))
        flipped += len(cardinal_lines(corpus, flip_cardinals(corpus.transcript)))
        cues += sum(e.stated_cardinal is not None for e in corpus.ground_truth.instructions)
    turns = TurnScore(
        planted=sum(s.planted for s in scores),
        found=sum(s.found for s in scores),
        spurious=sum(s.spurious for s in scores),
        errors_m=tuple(e for s in scores for e in s.errors_m),
    )
    return turns, planted, flipped, cues


def main() -> None:
    print(
        "| drive | maneuvers | heading error | length ratio | turns | spurious "
        "| turn error (median, max) | cardinal lines (planted, flipped) |"
    )
    print("| --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: |")
    for name in DRIVES:
        for sample_hz in RATES_HZ:
            for sigma_m in SIGMAS_M:
                hits, cues, heading, ratio = matrix_row(name, sample_hz, sigma_m)
                turns, planted, flipped, stated = profile_row(name, sample_hz, sigma_m)
                noise = f"σ {sigma_m:g} m" if sigma_m else "σ 0"
                print(
                    f"| {name} {sample_hz:g} Hz, {noise} | {hits}/{cues} | "
                    f"{heading:.1f}° | ×{ratio:.2f} | {turns.found}/{turns.planted} | "
                    f"{turns.spurious} | {statistics.median(turns.errors_m):.0f} m, "
                    f"{max(turns.errors_m):.0f} m | {planted}/{stated}, {flipped}/{stated} |"
                )


if __name__ == "__main__":
    main()
