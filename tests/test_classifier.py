"""Rule-based multi-label instruction classification."""

from __future__ import annotations

import json
import re
import time
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from drivetriad import CommandClass, classify, load_lexicon
from drivetriad.classifier import (
    DEFAULT_DISTANCE_UNITS,
    DEFAULT_LEXICON,
    DEFAULT_PATTERNS,
    DEFAULT_ROAD_SUFFIXES,
    FRACTION_WORDS,
    STRUCTURE_WORDS,
    Classification,
    Evidence,
    Lexicon,
    Statement,
    _maximal_spans,
    has_word,
    read_statement,
    sort_classes,
    tokenize,
)
from drivetriad.errors import LexiconError, ParseError
from drivetriad.synth import STYLES, RoutePlan, generate_instructions, parse_legs
from helpers import reference_all_cardinals_inside_roads, reference_maximal_spans
from test_acceptance import APP_SENTENCES, PROTOTYPES as ACCEPTANCE_PROTOTYPES

C = CommandClass


def classes_of(text, lex=None):
    return {c.value for c in classify(text, lex).classes}


MIXED_SENTENCES = [
    (
        "In 1000 feet turn left onto East 15th Street.",
        {"Distance", "Turn", "Road"},
    ),
    (
        "Head West towards Lake Road, North Lake Road.",
        {"Cardinal", "Road"},
    ),
    (
        "Arrived at Pretty Good Burger.",
        {"LocationName"},
    ),
    (
        "Go past these lights, and at the next set, turn left.",
        {"StaticObject", "LightInformation", "Turn"},
    ),
    (
        "Continue for half a mile.",
        {"Distance"},
    ),
]

PROTOTYPES = [
    ("Continue for half a mile.", "Distance"),
    ("Make a left turn.", "Turn"),
    ("Head West.", "Cardinal"),
    ("Turn onto Main Street.", "Road"),
    ("Arrived at (location name).", "LocationName"),
    ("Use the right two lanes.", "LaneInformation"),
    ("Go past these lights.", "LightInformation"),
    ("Go past the stop sign.", "StaticObject"),
]


def ref_normalize(text):
    """The per-character normalizer tokenize replaced, kept as its reference:
    the normalized string (lowercased, final sigma folded to "σ", punctuation
    to single spaces, but a "." or "," between two decimal digits kept) and
    the original index of each of its characters, or None for a text that
    normalizes to nothing."""
    if not text.strip():
        return None
    chars = []
    origins = []
    for i, ch in enumerate(text):
        if ch == "’":
            ch_norm = "'"
        elif ch in ".," and 0 < i < len(text) - 1 and (
            text[i - 1].isdecimal() and text[i + 1].isdecimal()
        ):
            ch_norm = ch
        elif ch.isalnum() or ch in "'-":
            ch_norm = ch.lower().replace("ς", "σ")
        else:
            ch_norm = " "
        for out in ch_norm:
            if out == " " and (not chars or chars[-1] == " "):
                continue
            chars.append(out)
            origins.append(i)
    while chars and chars[-1] == " ":
        chars.pop()
        origins.pop()
    if not chars:
        return None
    return "".join(chars), tuple(origins)


def ref_to_original(origins, start, end):
    """The original span of normalized characters [start, end)."""
    return origins[start], origins[end - 1] + 1


def assert_tokenize_matches_reference(text):
    reference = ref_normalize(text)
    tokens, spans = tokenize(text)
    if reference is None:
        assert tokens == spans == []
        return
    normalized, origins = reference
    assert " ".join(tokens) == normalized
    start = 0
    for token, span in zip(tokens, spans):
        assert span == ref_to_original(origins, start, start + len(token))
        start += len(token) + 1


class TestNormalizeText:
    def test_lowercase_and_punctuation(self):
        tokens, _ = tokenize("Turn left onto Main St.")
        assert " ".join(tokens) == "turn left onto main st"

    def test_whitespace_collapse(self):
        tokens, _ = tokenize("  HEAD   West  ")
        assert " ".join(tokens) == "head west"

    def test_keeps_apostrophes_and_hyphens(self):
        tokens, _ = tokenize("Make a U-turn at O'Neil's.")
        assert " ".join(tokens) == "make a u-turn at o'neil's"

    def test_offsets_map_back_to_original(self):
        text = "  Turn LEFT,  now!"
        tokens, spans = tokenize(text)
        start, end = spans[tokens.index("left")]
        assert text[start:end] == "LEFT"

    @pytest.mark.parametrize("bad", ["", "   ", "...", "!?!"])
    def test_blank_input_rejected(self, bad):
        assert tokenize(bad) == ([], [])
        assert classify(bad) is None

    @given(
        text=st.text(
            st.one_of(
                st.sampled_from("İΣσς’'²١_\u00a0\u0307-. ,aZ9"),
                st.characters(),
            ),
            max_size=16,
        )
    )
    def test_matches_per_character_reference(self, text):
        assert_tokenize_matches_reference(text)

    @given(text=st.text(st.sampled_from("7٣²a.,- _"), max_size=12))
    def test_number_tokens_match_per_character_reference(self, text):
        assert_tokenize_matches_reference(text)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("In 0.3 miles", ["in", "0.3", "miles"]),
            ("In 1,000 feet", ["in", "1,000", "feet"]),
            ("1,234.5", ["1,234.5"]),
            ("٣.٥ km", ["٣.٥", "km"]),
            # One "." or "," between two decimal digits, and nothing else.
            ("1..5 1.,5 1. 5 .5 5.", ["1", "5", "1", "5", "1", "5", "5", "5"]),
            ("a.5 5.a", ["a", "5", "5", "a"]),
            ("².5 2.²", ["²", "5", "2", "²"]),
            ("Exit 12.Turn left", ["exit", "12", "turn", "left"]),
        ],
    )
    def test_number_token(self, text, expected):
        assert tokenize(text)[0] == expected


class TestMixedSentences:
    @pytest.mark.parametrize("text,expected", MIXED_SENTENCES)
    def test_exact_class_sets(self, text, expected):
        assert classes_of(text) == expected

    def test_lane_sentence_superset(self):
        # "turn left" also fires Turn here; the other three labels are the
        # required core.
        got = classes_of(
            "At the light use the left two lanes to turn left onto "
            "M Street Veterans boulevard."
        )
        assert {"StaticObject", "LaneInformation", "Road"} <= got
        assert got == {"StaticObject", "LaneInformation", "Road", "Turn"}


class TestPrototypes:
    @pytest.mark.parametrize("text,named", PROTOTYPES)
    def test_each_prototype_contains_named_class(self, text, named):
        assert named in classes_of(text)


class TestIndividualRules:
    def test_distance_number_unit(self):
        assert classes_of("In 500 feet, merge.") == {"Distance"}

    def test_distance_fraction_with_article(self):
        c = classify("In a quarter mile, turn right onto East North Bear Creek Drive.")
        values = {k.value for k in c.classes}
        assert values == {"Distance", "Turn", "Road"}
        matched = {e.matched.lower() for e in c.evidence}
        assert "quarter mile" in matched

    def test_half_a_mile_span(self):
        c = classify("Continue for half a mile.")
        (ev,) = [e for e in c.evidence if e.command_class is C.DISTANCE]
        assert ev.matched == "half a mile"

    def test_cardinal_requires_context(self):
        assert "Cardinal" not in classes_of("The north wall is painted.")
        assert classes_of("Head north.") == {"Cardinal"}
        assert classes_of("You are northbound.") == {"Cardinal"}

    def test_cardinal_inside_road_name_suppressed(self):
        got = classes_of("Head North Lake Road please.")
        assert got == {"Road"}

    def test_bound_inside_road_name_suppressed(self):
        assert classes_of("Take Northbound Road.") == {"Road"}

    def test_cardinal_survives_next_to_road(self):
        got = classes_of("Head West towards Lake Road, North Lake Road.")
        assert got == {"Cardinal", "Road"}

    def test_road_requires_suffix(self):
        assert "Road" not in classes_of("Walk toward the sunrise.")
        assert "Road" in classes_of("Continue on Maple Avenue.")

    def test_bare_suffixed_name(self):
        assert "Road" in classes_of("Granite Court is closed today.")

    def test_static_objects(self):
        assert classes_of("Stop at the stop sign.") == {"StaticObject"}
        assert "StaticObject" in classes_of("Watch for the roundabout.")

    def test_light_needs_motion_pattern(self):
        assert classes_of("At the light, wait.") == {"StaticObject"}
        got = classes_of("Go through the lights.")
        assert got == {"StaticObject", "LightInformation"}

    def test_lane_patterns(self):
        assert "LaneInformation" in classes_of("Use the right two lanes.")
        assert "LaneInformation" in classes_of("Merge into the left lane.")
        assert "LaneInformation" in classes_of("Keep in the middle lane.")

    def test_lane_as_road_suffix_not_lane_info(self):
        got = classes_of("Turn onto Memory Lane.")
        assert "LaneInformation" not in got
        assert "Road" in got

    def test_destination(self):
        assert "Destination" in classes_of("Your destination is ahead.")
        assert "Destination" in classes_of("Your destination will be on the right.")

    def test_location_name_excludes_road_suffixed(self):
        got = classes_of("Arrived at Harbor Way.")
        assert "LocationName" not in got
        assert "Road" in got

    def test_uturn_variants(self):
        assert "Turn" in classes_of("Make a U-turn.")
        assert "Turn" in classes_of("Make a u turn here.")


class TestEvidence:
    @pytest.mark.parametrize("text,_", MIXED_SENTENCES)
    def test_matched_equals_original_slice(self, text, _):
        c = classify(text)
        for ev in c.evidence:
            assert ev.matched == text[ev.start : ev.end]
            assert 0 <= ev.start < ev.end <= len(text)

    def test_evidence_sorted(self):
        c = classify("Go past these lights, and at the next set, turn left.")
        keys = [(e.start, e.end, e.command_class.value) for e in c.evidence]
        assert keys == sorted(keys)

    def test_classes_are_union_of_evidence(self):
        for text, _ in MIXED_SENTENCES:
            c = classify(text)
            assert c.classes == frozenset(e.command_class for e in c.evidence)

    def test_classes_is_not_a_constructor_argument(self):
        # The classes are read from the evidence, so the two cannot disagree.
        evidence = classify("Turn left onto Oak Street.").evidence
        assert Classification(evidence).classes == {CommandClass.TURN, CommandClass.ROAD}
        with pytest.raises(TypeError):
            Classification(frozenset({CommandClass.DESTINATION}), evidence)

    def test_no_same_class_containment(self):
        for text, _ in MIXED_SENTENCES:
            c = classify(text)
            spans = {}
            for e in c.evidence:
                spans.setdefault(e.command_class, []).append((e.start, e.end))
            for pairs in spans.values():
                for a in pairs:
                    for b in pairs:
                        if a != b:
                            assert not (b[0] <= a[0] and a[1] <= b[1])

    def test_single_maximal_lane_span(self):
        c = classify(
            "At the light use the left two lanes to turn left onto "
            "M Street Veterans boulevard."
        )
        lanes = [e for e in c.evidence if e.command_class is C.LANE_INFORMATION]
        assert len(lanes) == 1
        assert lanes[0].matched == "use the left two lanes"


class TestInvariance:
    @pytest.mark.parametrize("text,expected", MIXED_SENTENCES)
    def test_case_insensitive(self, text, expected):
        assert classes_of(text.upper()) == expected

    @pytest.mark.parametrize("text,expected", MIXED_SENTENCES)
    def test_whitespace_insensitive(self, text, expected):
        doubled = text.replace(" ", "  ")
        assert classes_of(doubled) == expected

    def test_empty_rejected(self):
        assert classify("") is None

    @given(text=st.text(st.sampled_from("a9.,-'’ \t…!²_"), max_size=8))
    def test_none_exactly_for_a_wordless_text(self, text):
        assert (classify(text) is None) == (not has_word(text))


class TestSortClasses:
    def test_alphabetical_by_value(self):
        shuffled = [C.TURN, C.CARDINAL, C.ROAD, C.DISTANCE]
        assert [c.value for c in sort_classes(shuffled)] == [
            "Cardinal",
            "Distance",
            "Road",
            "Turn",
        ]

    def test_labels(self):
        assert C.STATIC_OBJECT.label == "Static Object"
        assert C.LANE_INFORMATION.label == "Lane Information"
        assert C.ROAD.label == "Road"


class TestLexicon:
    def test_default_version(self):
        assert DEFAULT_LEXICON.version == "builtin-1"
        assert load_lexicon(None).version == "builtin-1"

    def test_every_class_has_patterns(self):
        assert {cls for cls, _ in DEFAULT_LEXICON.sources} == set(CommandClass)

    def test_append_road_suffix(self):
        lex = load_lexicon(json.dumps({"road_suffixes": ["motorway"]}).encode())
        assert "motorway" in lex.suffixes
        assert "highway" in lex.suffixes
        assert "Road" in classes_of("Turn onto Kings Motorway.", lex)
        # Default lexicon untouched.
        assert "motorway" not in DEFAULT_LEXICON.suffixes

    def test_append_is_deduplicating(self):
        lex = load_lexicon(
            json.dumps({"road_suffixes": ["street", "Motorway", "motorway "]}).encode()
        )
        assert lex.suffixes == {*DEFAULT_ROAD_SUFFIXES, "motorway"}

    def test_append_distance_unit(self):
        lex = load_lexicon(json.dumps({"distance_units": ["yards"]}).encode())
        assert "Distance" in classes_of("In 300 yards, turn left.", lex)

    def test_class_pattern_list_replaces(self):
        lex = load_lexicon(
            json.dumps({"Destination": ["final stop"]}).encode()
        )
        assert "Destination" in classes_of("This is your final stop.", lex)
        assert "Destination" not in classes_of("Your destination is ahead.", lex)
        # Other classes keep their defaults.
        assert "Turn" in classes_of("Turn left.", lex)

    def test_version_override_and_default_suffix(self):
        lex = load_lexicon(
            json.dumps({"version": "custom-7", "road_suffixes": ["via"]}).encode()
        )
        assert lex.version == "custom-7"
        lex2 = load_lexicon(json.dumps({"road_suffixes": ["via"]}).encode())
        assert lex2.version == "builtin-1+override"

    def test_unknown_key_rejected(self):
        with pytest.raises(LexiconError, match="Sideways"):
            load_lexicon(json.dumps({"Sideways": ["x"]}).encode())

    @pytest.mark.parametrize("pattern", ["*", "* *", " * "])
    def test_gap_only_pattern_rejected(self, pattern):
        with pytest.raises(LexiconError, match=r"Turn\[0\]: needs an element other than '\*'"):
            load_lexicon(json.dumps({"Turn": [pattern]}).encode())

    @pytest.mark.parametrize("pattern", ["", "   "])
    def test_empty_pattern_rejected(self, pattern):
        with pytest.raises(LexiconError, match=r"Turn\[1\]: empty pattern"):
            load_lexicon(json.dumps({"Turn": ["turn", pattern]}).encode())

    def test_bad_pattern_element_rejected(self):
        with pytest.raises(LexiconError, match=r"Turn\[0\]"):
            load_lexicon(json.dumps({"Turn": ["<bogus> token"]}).encode())

    def test_no_lexicon_holds_a_bad_pattern(self):
        with pytest.raises(LexiconError) as raised:
            Lexicon("x", {C.TURN: ("<bogus> token",)}, (), ())
        assert str(raised.value) == "Turn[0]: unknown element '<bogus>'"

    def test_non_list_patterns_rejected(self):
        with pytest.raises(LexiconError):
            load_lexicon(json.dumps({"Turn": "not-a-list"}).encode())

    def test_non_object_document_rejected(self):
        with pytest.raises(ParseError, match="^not a JSON object$"):
            load_lexicon(b"[1, 2]")

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError, match="^not valid JSON: "):
            load_lexicon(b"{not json")

    @pytest.mark.parametrize(
        "data",
        [b'{"version": ' + b"9" * 5000 + b"}", b"[" * 200_000 + b"]" * 200_000],
        ids=["long-integer", "deep-nesting"],
    )
    def test_json_limits_rejected(self, data):
        with pytest.raises(ParseError, match="^not valid JSON: "):
            load_lexicon(data)

    def test_words_lower_like_the_text(self):
        # Whole-string lower() spells a final capital sigma "ς"; words and
        # text tokens read both small sigmas as "σ", in either direction.
        assert classes_of("ΟΔΟΣ", lexicon({"Road": ["ΟΔΟΣ"]})) == {"Road"}
        for text in ("οδος", "Οδος", "οδοσ"):
            assert classes_of(text, lexicon({"Road": ["ΟΔΟΣ"]})) == {"Road"}
        assert classes_of("ΟΔΟΣ", lexicon({"Road": ["οδος"]})) == {"Road"}
        lex = lexicon({"distance_units": ["ΣΤΑΔΙΟΣ"]})
        assert "Distance" in classes_of("In 5 ΣΤΑΔΙΟΣ turn", lex)


class TestMonotonicity:
    # Adding a pattern that cannot interact with road-name detection must
    # never remove classes from any result.
    @given(
        st.sampled_from([text for text, _ in MIXED_SENTENCES]),
        st.sampled_from(["proceed carefully", "mind the gap", "all aboard"]),
    )
    def test_extension_never_removes_classes(self, text, extra_phrase):
        base = classify(text).classes
        defaults = list(DEFAULT_PATTERNS[C.STATIC_OBJECT])
        lex = load_lexicon(
            json.dumps({"StaticObject": defaults + [extra_phrase]}).encode()
        )
        extended = classify(text, lex).classes
        assert base <= extended


def lexicon(override):
    return load_lexicon(json.dumps(override).encode())


def matched(text, cls, lex=None):
    return [e.matched for e in classify(text, lex).evidence if e.command_class is cls]


class TestPatternSemantics:
    def test_gap_takes_the_shortest_span(self):
        lex = lexicon({"Destination": ["go * stop"]})
        # "go up stop then stop" also fits a three-token gap.
        assert matched("Go up, stop, then stop.", C.DESTINATION, lex) == ["Go up, stop"]

    def test_name_run_gives_back_its_last_token(self):
        lex = lexicon({"Road": ["<name+> plaza"], "Cardinal": ["<name+> <bound>"]})
        # The run first takes every name-like token, "plaza" included.
        assert matched("Meet at Union Square Plaza.", C.ROAD, lex) == ["Union Square Plaza"]
        assert matched("Take Lake Shore northbound.", C.CARDINAL, lex) == [
            "Lake Shore northbound"
        ]

    def test_leading_gap(self):
        lex = lexicon({"Turn": ["* left"]})
        assert matched("Bear to the left.", C.TURN, lex) == ["Bear to the left"]
        assert matched("Left.", C.TURN, lex) == ["Left"]

    def test_trailing_gap_takes_nothing(self):
        lex = lexicon({"Turn": ["left *"]})
        assert matched("Keep left now, then left.", C.TURN, lex) == ["left", "left"]

    def test_unit_with_a_space_never_matches(self):
        lex = lexicon({"distance_units": ["per hour"]})
        assert "Distance" not in classes_of("Go 60 per hour.", lex)
        # Neither word is a unit, so both stay name-like.
        assert matched("Turn onto Per Hour Street.", C.ROAD, lex) == ["onto Per Hour Street"]

    def test_regex_syntax_in_words_is_literal(self):
        lex = lexicon({"road_suffixes": [".*", "[["], "distance_units": ["\\d+"]})
        for text in ["Turn left now", "Turn onto Main Street now.", "In 10 feet, stop."]:
            assert classify(text, lex) == classify(text)
        assert classes_of("Turn left now", lexicon({"Turn": ["l.ft", "(turn)"]})) == set()

    def test_num_means_decimal_digits(self):
        assert "Distance" in classes_of("In 2 feet, turn left.")
        assert "Distance" in classes_of("In ٣ feet, turn left.")
        # "²" is a digit to str.isdigit but not a decimal digit.
        assert "Distance" not in classes_of("In ² feet, turn left.")

    @pytest.mark.parametrize(
        "text, evidence",
        [
            ("In 0.3 miles, turn left.", "0.3 miles"),
            ("In 1.5 kilometers keep right.", "1.5 kilometers"),
            ("In 1,000 feet, turn right.", "1,000 feet"),
        ],
    )
    def test_distance_evidence_holds_the_whole_number(self, text, evidence):
        assert matched(text, C.DISTANCE) == [evidence]

    @pytest.mark.parametrize("unit", DEFAULT_DISTANCE_UNITS)
    @given(
        whole=st.integers(0, 10**7),
        fraction=st.one_of(st.none(), st.text("0123456789", min_size=1, max_size=3)),
        marks=st.sampled_from([("", "."), (",", "."), (".", ","), ("", ",")]),
    )
    def test_decimal_and_grouped_quantities(self, unit, whole, fraction, marks):
        group, point = marks
        number = f"{whole:,}".replace(",", group) if group else str(whole)
        if fraction is not None:
            number += point + fraction
        text = f"In {number} {unit}, turn left."
        assert matched(text, C.DISTANCE) == [f"{number} {unit}"]

    def test_a_name_run_takes_at_most_eight_words(self):
        eight = "Turn onto Big Old Red Oak Elm Ash Fir Yew Street."
        assert matched(eight, C.ROAD) == ["onto Big Old Red Oak Elm Ash Fir Yew Street"]
        # From "Bay", nine names lie before the suffix: the road starts at "Big".
        nine = "Turn onto Bay Big Old Red Oak Elm Ash Fir Yew Street."
        assert matched(nine, C.ROAD) == ["Big Old Red Oak Elm Ash Fir Yew Street"]


# --- token-level reference matcher -------------------------------------------

_CARDINALS = {"north", "south", "east", "west"}


def inputs(override=None):
    """The words a lexicon is built from, which the reference reads: an
    override's class lists replace the defaults and its words add on."""
    override = override or {}
    return SimpleNamespace(
        patterns={c: override.get(c.value, DEFAULT_PATTERNS[c]) for c in CommandClass},
        road_suffixes=(*DEFAULT_ROAD_SUFFIXES, *override.get("road_suffixes", ())),
        distance_units=(*DEFAULT_DISTANCE_UNITS, *override.get("distance_units", ())),
    )


def ref_accepts(elem, token, lex):
    if elem == "<num>":
        return all(part.isdecimal() for part in re.split("[.,]", token))
    if elem == "<frac>":
        return token in FRACTION_WORDS
    if elem == "<unit>":
        return token in lex.distance_units
    if elem == "<suffix>":
        return token in lex.road_suffixes
    if elem == "<cardinal>":
        return token in _CARDINALS
    if elem == "<bound>":
        return re.fullmatch(r"(north|south|east|west)-?bound", token) is not None
    return token == "".join("'" if ch == "’" else ch.lower() for ch in elem)


def ref_name_like(token, lex):
    return not (
        token in STRUCTURE_WORDS or token in lex.road_suffixes or token in lex.distance_units
    )


def ref_match(tokens, i, elems, lex):
    """End of the first match of elems from token i: gaps try 0-3 tokens
    shortest first, name runs of up to eight longest first, backtracking on
    failure."""
    if not elems:
        return i
    head, rest = elems[0], elems[1:]
    if head == "*":
        takes = range(4)
    elif head == "<name+>":
        run = 0
        while i + run < len(tokens) and ref_name_like(tokens[i + run], lex):
            run += 1
        takes = range(min(run, 8), 0, -1)
    else:
        takes = [1] if i < len(tokens) and ref_accepts(head, tokens[i], lex) else []
    for take in takes:
        if i + take <= len(tokens):
            end = ref_match(tokens, i + take, rest, lex)
            if end is not None:
                return end
    return None


def ref_evidence(text, lex):
    """Sorted (start, end, class) of every evidence span, matched on tokens."""
    normalized, origins = ref_normalize(text)
    tokens = normalized.split(" ")
    starts = [0]
    for token in tokens:
        starts.append(starts[-1] + len(token) + 1)
    by_class = {}
    for cls in CommandClass:
        raw = []
        for pattern in lex.patterns[cls]:
            for i in range(len(tokens)):
                end = ref_match(tokens, i, pattern.split(), lex)
                if end is not None:
                    raw.append((i, end))
        if cls is C.CARDINAL:
            roads = by_class[C.ROAD]
            kept = []
            for start, end in raw:
                found = [
                    j for j in range(start, end)
                    if ref_accepts("<cardinal>", tokens[j], lex)
                    or ref_accepts("<bound>", tokens[j], lex)
                ]
                if not found or not all(any(a <= j < b for a, b in roads) for j in found):
                    kept.append((start, end))
            raw = kept
        elif cls is C.LOCATION_NAME:
            names = []
            for start, anchor_end in raw:
                end = anchor_end
                while end < len(tokens) and not (
                    tokens[end] in STRUCTURE_WORDS or tokens[end] in lex.distance_units
                ):
                    end += 1
                if end > anchor_end and tokens[end - 1] not in lex.road_suffixes:
                    names.append((start, end))
            raw = names
        by_class[cls] = reference_maximal_spans(raw)
    evidence = []
    for cls, spans in by_class.items():
        for start, end in spans:
            evidence.append(
                (*ref_to_original(origins, starts[start], starts[end] - 1), cls.value)
            )
    return sorted(evidence)


_GAPPY_OVERRIDE = {
    "Turn": ["* left", "right *", "<name+> * <suffix>"],
    "Destination": ["<name+> <name+>", "* <num> * <unit>", "arrived at * <name+>"],
    "Cardinal": ["<name+> <cardinal> *", "* <bound>"],
    "road_suffixes": ["plaza", "per hour"],
    "distance_units": ["clicks"],
}
_GAPPY = lexicon(_GAPPY_OVERRIDE)
_VOCAB = sorted(
    STRUCTURE_WORDS
    | set(DEFAULT_ROAD_SUFFIXES)
    | set(DEFAULT_DISTANCE_UNITS)
    | _CARDINALS
    | {"northbound", "south-bound", "plaza", "per", "hour", "clicks", "main", "oak",
       "15th", "2", "1000", "0.3", "1,000", "²", "o'neil's", "u", "pretty", "good"}
)
_TEXTS = st.lists(
    st.tuples(
        st.sampled_from(_VOCAB).map(lambda w: w.title() if len(w) % 3 == 0 else w),
        st.sampled_from([" ", " ", ", ", ". ", " - ", "  "]),
    ),
    min_size=1,
    max_size=12,
).map(lambda words: "".join(w + sep for w, sep in words))


class TestAgainstReference:
    @pytest.mark.parametrize(
        "lex, words",
        [(DEFAULT_LEXICON, inputs()), (_GAPPY, inputs(_GAPPY_OVERRIDE))],
        ids=["default", "gaps"],
    )
    @given(text=_TEXTS)
    def test_classify_matches_token_reference(self, lex, words, text):
        got = classify(text, lex)
        assert [(e.start, e.end, e.command_class.value) for e in got.evidence] == (
            ref_evidence(text, words)
        )


# --- patterns compiled on first use -----------------------------------------


def fresh_lexicon(override=None):
    """A new lexicon built from ``override``, none of its patterns compiled yet."""
    return lexicon(override or {})


def compiled_indices(lex):
    return {i for i, regex in enumerate(lex.regexes) if regex is not None}


def synth_texts():
    """The instruction texts of one synth drive in each style."""
    plan = RoutePlan(legs=parse_legs("600R,500L,700U,400R,120L,90R,300"), seed=5)
    return [
        entry.text
        for style in STYLES
        for entry in generate_instructions(plan, style).ground_truth.instructions
    ]


class TestCompileOnDemand:
    def test_classify_compiles_only_the_patterns_its_tokens_trigger(self):
        lex = fresh_lexicon()
        assert compiled_indices(lex) == set()
        text = "In 500 feet turn left onto Oak Street."
        classify(text, lex)
        first = lex.triggered(tokenize(text)[0])
        assert compiled_indices(lex) == first and len(first) == 6
        classify("Head north.", lex)
        assert compiled_indices(lex) == first | lex.triggered(["head", "north"])
        for i in compiled_indices(lex):
            assert lex.regexes[i].pattern == lex.sources[i][1]
            assert lex.regex(i) is lex.regexes[i]

    def test_load_lexicon_checks_every_override_pattern_without_compiling(self):
        lex = load_lexicon(json.dumps({"road_suffixes": ["via"]}).encode())
        assert len(lex.sources) == 59 and compiled_indices(lex) == set()
        assert load_lexicon(None) is DEFAULT_LEXICON

    @pytest.mark.parametrize(
        "pattern, message",
        [
            ("<bogus> token", "Turn[0]: unknown element '<bogus>'"),
            ("", "Turn[0]: empty pattern"),
            ("* *", "Turn[0]: needs an element other than '*'"),
        ],
    )
    def test_bad_pattern_raises_before_any_text(self, pattern, message):
        with pytest.raises(LexiconError) as raised:
            load_lexicon(json.dumps({"Turn": [pattern]}).encode())
        assert str(raised.value) == message
        # A pattern no text could trigger is checked all the same.
        with pytest.raises(LexiconError) as raised:
            Lexicon("x", {C.TURN: (pattern,)}, (), ())
        assert str(raised.value) == message

    @pytest.mark.parametrize("override", [None, _GAPPY_OVERRIDE], ids=["default", "gaps"])
    def test_labels_equal_with_every_pattern_compiled_first(self, override):
        texts = (
            [text for text, _, _ in APP_SENTENCES]
            + [text for text, _ in ACCEPTANCE_PROTOTYPES]
            + synth_texts()
        )
        eager = fresh_lexicon(override)
        for i in range(len(eager.sources)):
            eager.regex(i)
        lazy = fresh_lexicon(override)
        for text in texts:
            assert classify(text, lazy) == classify(text, eager), text
        assert compiled_indices(lazy) < compiled_indices(eager)


# --- trigger index -------------------------------------------------------------

_TRIGGERS_OVERRIDE = {
    "Turn": ["TURN", "l.ft", "Keep * RIGHT"],
    "Distance": ["<num> <unit>", "<num> <name+>"],
    "Cardinal": ["<bound>", "Go <bound>", "<cardinal> ON"],
    "Destination": ["* <num> *"],
    "distance_units": ["per hour", "Clicks"],
}
_TRIGGERS = lexicon(_TRIGGERS_OVERRIDE)
# Words that sit on a trigger's edge: both <bound> spellings, case, regex
# syntax, the halves of a multi-word unit and digits <num> does or does not
# take.
_EDGE = [
    "north-bound", "West-Bound", "southbound", "EASTBOUND", "l.ft", "L.FT", "lift",
    "TURN", "keep", "RIGHT", "go", "on", "per", "hour", "per hour", "clicks", "7",
    "٣", "²",
]
_EDGE_TEXTS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_VOCAB), st.sampled_from(_EDGE)),
        st.sampled_from([" ", ", ", ". ", " - "]),
    ),
    min_size=1,
    max_size=12,
).map(lambda words: "".join(w + sep for w, sep in words))


def unfiltered_classify(text, lex):
    """classify with the trigger index switched off: every compiled regex of
    the lexicon runs on the text."""
    with patch.object(lex, "triggered", return_value=range(len(lex.sources))) as run_all:
        result = classify(text, lex)
    run_all.assert_called_once()
    return result


def flat_patterns(override=None):
    """Every pattern of ``lexicon(override)``, in the order of its sources."""
    patterns = inputs(override).patterns
    return [(cls, p) for cls in CommandClass for p in patterns[cls]]


class TestTriggerIndex:
    @pytest.mark.parametrize(
        "lex", [DEFAULT_LEXICON, _GAPPY, _TRIGGERS], ids=["default", "gaps", "triggers"]
    )
    @given(text=st.one_of(_TEXTS, _EDGE_TEXTS))
    def test_classify_equals_unfiltered_scan(self, lex, text):
        assert classify(text, lex) == unfiltered_classify(text, lex)

    def test_no_default_pattern_runs_on_every_text(self):
        assert DEFAULT_LEXICON.always == []
        flat = flat_patterns(_TRIGGERS_OVERRIDE)
        assert [flat[i] for i in _TRIGGERS.always] == [
            (C.DISTANCE, "<num> <name+>"),
            (C.DESTINATION, "* <num> *"),
        ]

    def test_sentence_triggers_exactly_its_patterns(self):
        flat = flat_patterns()
        assert len(flat) == len(DEFAULT_LEXICON.sources) == 59
        tokens, _ = tokenize("In 500 feet turn left onto Oak Street.")
        got = sorted(DEFAULT_LEXICON.triggered(tokens))
        assert [flat[i] for i in got] == [
            (C.ROAD, "onto <name+> <suffix>"),
            (C.ROAD, "<name+> <suffix>"),
            (C.DISTANCE, "<num> <unit>"),
            (C.TURN, "turn"),
            (C.TURN, "left"),
            # Its trigger is "onto", the smaller of its two word sets.
            (C.CARDINAL, "<cardinal> onto"),
        ]


# --- span rules against their references ----------------------------------------

_SPANS = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 12)).map(lambda s: (s[0], s[0] + s[1])),
    max_size=40,
)
_DIRECTION_WORDS = _CARDINALS | {c + b for c in _CARDINALS for b in ("bound", "-bound")}
# Cardinal patterns that hold no direction word, two of them, or one, and
# that can match inside a road name.
_CARDINAL_OVERRIDE = {
    "Cardinal": ["onto <name+>", "<name+> <suffix>", "<cardinal> * <cardinal>", "head <cardinal>",
                 "<bound>"],
}
# Texts dense in direction words, their contexts and road names.
_ROADY_TEXTS = st.lists(
    st.tuples(
        st.sampled_from(sorted(_DIRECTION_WORDS) + [
            "head", "go", "continue", "on", "onto", "toward", "lake", "oak", "main", "road",
            "street", "way",
        ]),
        st.sampled_from([" ", ", "]),
    ),
    min_size=1,
    max_size=12,
).map(lambda words: "".join(w + sep for w, sep in words))


def ref_cardinal_spans(text, lex):
    """The (start, end) of classify's Cardinal evidence by the former rule:
    every Cardinal pattern match, less those the reference drops given
    classify's Road evidence, kept maximal by the reference."""
    tokens, token_spans = tokenize(text)
    at_offset, offset = {}, 0
    for i, token in enumerate(tokens):
        at_offset[offset] = i
        offset += len(token) + 1
    at_offset[offset] = len(tokens)
    padded = " ".join(tokens) + " "
    raw = [
        (at_offset[m.start(1)], at_offset[m.end(1)])
        for i, (cls, _) in enumerate(lex.sources)
        if cls is C.CARDINAL
        for m in lex.regex(i).finditer(padded)
    ]
    first = {start: i for i, (start, _) in enumerate(token_spans)}
    last = {end: i + 1 for i, (_, end) in enumerate(token_spans)}
    roads = [
        (first[e.start], last[e.end])
        for e in classify(text, lex).evidence
        if e.command_class is C.ROAD
    ]
    cardinals = [i for i, token in enumerate(tokens) if token in _DIRECTION_WORDS]
    kept = reference_maximal_spans(
        [s for s in raw if not reference_all_cardinals_inside_roads(s, cardinals, roads)]
    )
    return [(token_spans[a][0], token_spans[b - 1][1]) for a, b in kept]


class TestSpanRules:
    @given(spans=_SPANS)
    def test_maximal_spans_matches_reference(self, spans):
        assert _maximal_spans(spans) == reference_maximal_spans(spans)

    @pytest.mark.parametrize(
        "lex", [DEFAULT_LEXICON, lexicon(_CARDINAL_OVERRIDE)], ids=["default", "no-direction"]
    )
    @given(text=st.one_of(_TEXTS, _ROADY_TEXTS))
    def test_cardinal_evidence_matches_reference(self, lex, text):
        got = [(e.start, e.end) for e in classify(text, lex).evidence if e.command_class is C.CARDINAL]
        assert got == ref_cardinal_spans(text, lex)

    def test_span_without_direction_word_is_kept_inside_a_road(self):
        lex = lexicon(_CARDINAL_OVERRIDE)
        assert matched("Turn onto Oak Street.", C.CARDINAL, lex) == ["onto Oak", "Oak Street"]
        assert matched("Turn onto Oak Street.", C.ROAD, lex) == ["onto Oak Street"]
        # A span whose one direction word is in the road is dropped.
        assert matched("Take Northbound Road.", C.CARDINAL, lex) == []


class TestLinearTime:
    # The rules once compared every span with every other, and a name run
    # read the whole run from each token: minutes for these texts.
    @pytest.mark.parametrize(
        "text",
        ["turn " * 100_000, "x " * 40_000 + "street", "street " + "x " * 40_000,
         "head north lake road " * 10_000],
        ids=["turns", "long-name", "suffix-first", "cardinals-in-roads"],
    )
    def test_long_text_classifies_in_bounded_time(self, text):
        started = time.perf_counter()
        classify(text)
        assert time.perf_counter() - started < 10

    def test_long_name_reach_of_a_custom_anchor(self):
        # Every "x" is an anchor whose name reach runs to the text's end.
        lex = lexicon({"LocationName": ["x"]})
        started = time.perf_counter()
        assert len(classify("x " * 40_000, lex).evidence) == 1
        assert time.perf_counter() - started < 10


# --- what a text states ----------------------------------------------------------

# Metres per default unit, written out apart from the classifier's table.
_FACTORS = {
    "feet": 0.3048, "foot": 0.3048, "ft": 0.3048, "mile": 1609.344, "miles": 1609.344,
    "meter": 1.0, "meters": 1.0, "kilometer": 1000.0, "kilometers": 1000.0,
}
_MIRROR = {
    "left": "right", "right": "left", "east": "west", "west": "east",
    "eastbound": "westbound", "westbound": "eastbound",
    "east-bound": "west-bound", "west-bound": "east-bound",
}
_SWAP = {"left": "right", "right": "left", "East": "West", "West": "East"}
_MIRROR_VOCAB = sorted(set(_VOCAB) | set(_MIRROR) | {"u-turn", "half", "quarter"})
_WORD_LISTS = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from(_MIRROR_VOCAB),
            st.sampled_from(sorted(_MIRROR) + ["turn", "head", "go", "keep", "on", "road"]),
        ),
        st.sampled_from([" ", ", ", ". ", " - "]),
    ),
    min_size=1,
    max_size=12,
)


def statement_of(text, lex=None):
    return read_statement(classify(text, lex).evidence)


def spoken(words):
    return "".join((w.title() if len(w) % 3 == 0 else w) + sep for w, sep in words)


class TestStatement:
    def test_default_units_all_have_a_factor(self):
        assert set(DEFAULT_DISTANCE_UNITS) == set(_FACTORS)

    @pytest.mark.parametrize("unit", DEFAULT_DISTANCE_UNITS)
    @given(
        whole=st.integers(0, 10**7),
        fraction=st.one_of(st.none(), st.text("0123456789", min_size=1, max_size=3)),
        grouped=st.booleans(),
    )
    def test_distance_is_quantity_times_factor(self, unit, whole, fraction, grouped):
        number = f"{whole:,}" if grouped else str(whole)
        quantity = str(whole)
        if fraction is not None:
            number += "." + fraction
            quantity += "." + fraction
        stated = statement_of(f"In {number} {unit}, turn left.")
        assert stated.distance_m == float(quantity) * _FACTORS[unit]

    @pytest.mark.parametrize(
        "text, distance_m",
        [
            ("Continue for half a mile.", 0.5 * 1609.344),
            ("In a quarter mile, turn right.", 0.25 * 1609.344),
            ("In a third of a mile, keep left.", 1609.344 / 3),
            ("In 1,000,000.5 meters, stop.", 1_000_000.5),
            ("In ٣ feet, stop.", 3 * 0.3048),
            # A comma groups only three digits, so "1,5" states no distance.
            ("In 1,5 kilometers, stop.", None),
            ("In 12,34 feet, stop.", None),
            ("In 1.000.5 feet, stop.", None),
            # Two distances state one only when they are the same.
            ("In 500 feet, then in 500 feet, stop.", 500 * 0.3048),
            ("In 500 feet, then in 1 mile, stop.", None),
            ("In " + "9" * 400 + " feet, stop.", None),
            ("Turn left.", None),
        ],
    )
    def test_distance_rule(self, text, distance_m):
        assert statement_of(text).distance_m == distance_m

    def test_unit_an_override_adds_has_no_factor(self):
        lex = lexicon({"distance_units": ["clicks"]})
        assert "Distance" in classes_of("In 3 clicks, turn left.", lex)
        assert statement_of("In 3 clicks, turn left.", lex).distance_m is None
        assert statement_of("In 3 feet, turn left.", lex).distance_m == 3 * 0.3048

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("In 500 feet turn left onto Oak Street.", ("left", 152.4, None, "turn")),
            ("Turn left, then turn right.", (None, None, None, "turn")),
            ("Make a U-turn and head North.", (None, None, "North", "u-turn")),
            ("Make a u turn here.", (None, None, None, "u-turn")),
            ("Keep right.", ("right", None, None, "keep")),
            ("Take the exit.", (None, None, None, "exit")),
            ("Arrived at Pretty Good Burger.", (None, None, None, "arrive")),
            ("Your destination is ahead.", (None, None, None, "arrive")),
            # The Turn evidence "right" and the Destination state two maneuvers.
            ("Your destination is on the right.", ("right", None, None, None)),
            ("You are northbound.", (None, None, "North", None)),
            ("Head north, then go south-bound.", (None, None, None, None)),
            # "North" inside the road name states no cardinal.
            ("Head West towards Lake Road, North Lake Road.", (None, None, "West", None)),
            ("Head North Lake Road please.", (None, None, None, None)),
            ("Continue.", (None, None, None, None)),
        ],
    )
    def test_reading(self, text, expected):
        assert statement_of(text) == Statement(*expected)

    def test_reads_no_evidence_and_empty_evidence(self):
        nothing = Statement(None, None, None, None)
        assert read_statement(()) == nothing
        assert read_statement([Evidence(C.TURN, 0, 0, "")]) == nothing

    @given(words=_WORD_LISTS)
    def test_mirror_swaps_side_and_cardinal(self, words):
        mirrored = [(_MIRROR.get(w, w), sep) for w, sep in words]
        before, after = statement_of(spoken(words)), statement_of(spoken(mirrored))
        assert after == Statement(
            _SWAP.get(before.side, before.side), before.distance_m,
            _SWAP.get(before.cardinal, before.cardinal), before.maneuver,
        )

    @pytest.mark.parametrize("style", STYLES)
    def test_every_synth_cue_states_its_planted_distance_and_cardinal(self, style):
        plan = RoutePlan(legs=parse_legs("600R,500L,700U,400R,120L,90U,300L,500"), seed=5)
        entries = generate_instructions(plan, style).ground_truth.instructions
        for entry in entries:
            stated = statement_of(entry.text)
            assert (stated.distance_m, stated.cardinal) == (entry.stated_m, entry.stated_cardinal)
        if style == "distance-heavy":
            assert 492 * 0.3048 in {entry.stated_m for entry in entries}
