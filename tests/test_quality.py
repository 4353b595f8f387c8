"""The quality scorer: hand-built runs, the floors that hold on
noise-free drives, and the track profile's on drives with up to 3 m of
GPS noise."""

from __future__ import annotations

import dataclasses

import pytest

from drivetriad import GeoPoint, Maneuver
from drivetriad.classifier import read_statement
from drivetriad.core import Turn
from drivetriad.segmenter import ActionSegment
from drivetriad.sync import InstructionEvent
from drivetriad.synth import RoutePlan, generate_instructions, parse_legs

from quality import DRIVES, RATES_HZ, locate, matrix_row, profile_row, score

# Cues at 450, 950, 1650 and 2115 m along the route, with turns at 600,
# 1100 and 1800 m: every cue is far enough from a turn to score a heading.
_TRUTH = generate_instructions(
    RoutePlan(parse_legs("600R,500L,700R,400"), seed=1), "distance-heavy"
).ground_truth


def _perfect_run(truth):
    """Events and segments that state exactly what ``truth`` planted."""
    events, segments = [], []
    for j, (entry, maneuver) in enumerate(zip(truth.instructions, truth.expected_maneuvers)):
        t_ms = truth.audio_start_ms + round(entry.start_s * 1000)
        events.append(
            InstructionEvent(
                j, t_ms, entry.text, (), read_statement(()), GeoPoint(0.0, 0.0, t_ms),
                entry.heading_deg, None,
            )
        )
        segments.append(
            ActionSegment(j, t_ms, t_ms + 1, (), 0.0, entry.window_m, maneuver, None, None)
        )
    return events, segments


class TestScore:
    def test_perfect_run_scores_every_hit(self):
        result = score(_TRUTH, *_perfect_run(_TRUTH))
        assert (result.hits, result.cues) == (4, 4)
        assert result.heading_errors == (0.0,) * 4
        assert result.length_ratios == (1.0,) * 4

    def test_one_flipped_label_costs_one_hit(self):
        events, segments = _perfect_run(_TRUTH)
        segments[1] = dataclasses.replace(segments[1], maneuver=Maneuver.RIGHT_TURN)
        assert score(_TRUTH, events, segments).hits == 3

    def test_a_missing_segment_is_a_miss(self):
        events, segments = _perfect_run(_TRUTH)
        result = score(_TRUTH, events, segments[:-1])
        assert (result.hits, result.cues, len(result.length_ratios)) == (3, 4, 3)

    def test_heading_error_wraps(self):
        # A leg planned at 1 degree, driven at 359 degrees, is 2 degrees off.
        entries = list(_TRUTH.instructions)
        entries[0] = dataclasses.replace(entries[0], heading_deg=1.0)
        truth = dataclasses.replace(_TRUTH, instructions=tuple(entries))
        events, segments = _perfect_run(_TRUTH)
        events[0] = dataclasses.replace(events[0], heading_deg=359.0)
        assert score(truth, events, segments).heading_errors[0] == pytest.approx(2.0)

    def test_no_heading_is_the_worst_error(self):
        events, segments = _perfect_run(_TRUTH)
        events[2] = dataclasses.replace(events[2], heading_deg=None)
        assert score(_TRUTH, events, segments).heading_errors == (0.0, 0.0, 180.0, 0.0)

    def test_cue_near_a_turn_scores_no_heading(self):
        # Cues 30 m after the first turn, and 10 m before the second.
        entries = list(_TRUTH.instructions)
        entries[1] = dataclasses.replace(entries[1], along_m=630.0)
        entries[2] = dataclasses.replace(entries[2], along_m=1090.0)
        truth = dataclasses.replace(_TRUTH, instructions=tuple(entries))
        assert len(score(truth, *_perfect_run(_TRUTH)).heading_errors) == 2


@pytest.mark.parametrize("sample_hz", RATES_HZ)
@pytest.mark.parametrize("name", DRIVES)
def test_noise_free_drive_gets_every_maneuver(name, sample_hz):
    hits, cues, heading_error, _ = matrix_row(name, sample_hz, 0.0)
    assert hits == cues
    assert heading_error < 0.05


def _turn_at(along_m):
    """A located turn at ``along_m`` along _TRUTH's 15 m/s route."""
    return Turn(_TRUTH.audio_start_ms + round(along_m / 15.0 * 1000), 0, 0)


class TestLocate:
    # _TRUTH plants turns at 600, 1100 and 1800 m.
    def test_exact_turns_score_no_error(self):
        result = locate(_TRUTH, [_turn_at(600.0), _turn_at(1100.0), _turn_at(1800.0)])
        assert (result.planted, result.found, result.spurious) == (3, 3, 0)
        # 1100 m is 73.333 s along, which the turn's instant rounds to 1 ms.
        assert result.errors_m == pytest.approx((0.0, 0.0, 0.0), abs=0.01)

    def test_a_second_turn_near_one_planted_is_spurious(self):
        turns = [_turn_at(570.0), _turn_at(630.0), _turn_at(1110.0), _turn_at(1500.0)]
        result = locate(_TRUTH, turns)
        # 1500 m is nearest the turn at 1800 m, so that one is found too.
        assert (result.found, result.spurious) == (3, 1)
        assert result.errors_m == pytest.approx((30.0, 10.0, 300.0))

    def test_a_missed_turn_is_not_found(self):
        result = locate(_TRUTH, [_turn_at(600.0)])
        assert (result.planted, result.found, result.spurious) == (3, 1, 0)


# Planted turns lie at least 400 m apart on these drives, so a located turn
# within this distance of one is that turn.
TURN_ERROR_MAX_M = 80.0


@pytest.mark.parametrize("sigma_m", [0.0, 3.0])
@pytest.mark.parametrize("sample_hz", RATES_HZ)
@pytest.mark.parametrize("name", DRIVES)
def test_profile_locates_every_turn_and_checks_every_cardinal(name, sample_hz, sigma_m):
    turns, planted, flipped, cues = profile_row(name, sample_hz, sigma_m)
    assert (turns.found, turns.spurious) == (turns.planted, 0)
    assert max(turns.errors_m) <= TURN_ERROR_MAX_M
    # No cardinal as planted is flagged, and each flipped one is.
    assert (planted, flipped) == (0, cues)
