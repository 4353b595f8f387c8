"""Score a pipeline run against the truth that synth planted.

``score`` takes a synthetic drive's ground truth and the events and action
segments the pipeline made of it, and returns:

- maneuver hits: cues whose action segment has the planted maneuver;
- heading errors: at each cue more than 45 m past the turn before it and
  more than 20 m short of the one after, the event's heading against the
  planned leg heading;
- length ratios: each window's ``distance_m`` over its planned length.

Run as a script, it prints the quality matrix: two drives, at 1, 5 and
10 Hz, with GPS noise of sigma 0, 3 and 5 m, over seeds 1 and 2. Each row
sums the hits of the two seeds and takes the mean of their median heading
error and of their median length ratio::

    PYTHONPATH=src python3 tests/quality.py
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

from drivetriad import build_events, segment_actions
from drivetriad.segmenter import ActionSegment
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


def drive(name: str, sample_hz: float, sigma_m: float, seed: int) -> StyledCorpus:
    """One drive of the matrix."""
    legs, speed_mps = DRIVES[name]
    plan = RoutePlan(
        parse_legs(legs),
        speed_mps=speed_mps,
        sample_hz=sample_hz,
        noise_sigma_m=sigma_m,
        seed=seed,
    )
    return generate_instructions(plan, "distance-heavy")


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


def main() -> None:
    print("| drive | maneuvers | heading error | length ratio |")
    print("| --- | ---: | ---: | ---: |")
    for name in DRIVES:
        for sample_hz in RATES_HZ:
            for sigma_m in SIGMAS_M:
                hits, cues, heading, ratio = matrix_row(name, sample_hz, sigma_m)
                noise = f"σ {sigma_m:g} m" if sigma_m else "σ 0"
                print(
                    f"| {name} {sample_hz:g} Hz, {noise} | {hits}/{cues} | "
                    f"{heading:.1f}° | ×{ratio:.2f} |"
                )


if __name__ == "__main__":
    main()
