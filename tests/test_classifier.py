"""Rule-based multi-label instruction classification."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from drivetriad import CommandClass, classify, load_lexicon
from drivetriad.classifier import (
    DEFAULT_LEXICON,
    FRACTION_WORDS,
    STRUCTURE_WORDS,
    Lexicon,
    normalize_text,
    sort_classes,
)
from drivetriad.errors import EmptyInstruction, LexiconError

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


class TestNormalizeText:
    def test_lowercase_and_punctuation(self):
        normalized, _ = normalize_text("Turn left onto Main St.")
        assert normalized == "turn left onto main st"

    def test_whitespace_collapse(self):
        normalized, _ = normalize_text("  HEAD   West  ")
        assert normalized == "head west"

    def test_keeps_apostrophes_and_hyphens(self):
        normalized, _ = normalize_text("Make a U-turn at O'Neil's.")
        assert normalized == "make a u-turn at o'neil's"

    def test_offsets_map_back_to_original(self):
        text = "  Turn LEFT,  now!"
        normalized, offsets = normalize_text(text)
        idx = normalized.index("left")
        start, end = offsets.to_original(idx, idx + 4)
        assert text[start:end] == "LEFT"

    @pytest.mark.parametrize("bad", ["", "   ", "...", "!?!"])
    def test_blank_input_rejected(self, bad):
        with pytest.raises(EmptyInstruction):
            normalize_text(bad)


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
        with pytest.raises(EmptyInstruction):
            classify("")


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
        assert C.from_name("LightInformation") is C.LIGHT_INFORMATION
        with pytest.raises(KeyError):
            C.from_name("Sideways")


class TestLexicon:
    def test_default_version(self):
        assert DEFAULT_LEXICON.version == "builtin-1"
        assert load_lexicon(None).version == "builtin-1"

    def test_every_class_has_patterns(self):
        for cls in CommandClass:
            assert DEFAULT_LEXICON.patterns[cls], cls

    def test_append_road_suffix(self):
        lex = load_lexicon(json.dumps({"road_suffixes": ["motorway"]}).encode())
        assert "motorway" in lex.road_suffixes
        assert "highway" in lex.road_suffixes
        assert "Road" in classes_of("Turn onto Kings Motorway.", lex)
        # Default lexicon untouched.
        assert "motorway" not in DEFAULT_LEXICON.road_suffixes

    def test_append_is_deduplicating(self):
        lex = load_lexicon(
            json.dumps({"road_suffixes": ["street", "Motorway", "motorway "]}).encode()
        )
        assert lex.road_suffixes.count("street") == 1
        assert lex.road_suffixes.count("motorway") == 1

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

    def test_non_list_patterns_rejected(self):
        with pytest.raises(LexiconError):
            load_lexicon(json.dumps({"Turn": "not-a-list"}).encode())

    def test_non_object_document_rejected(self):
        with pytest.raises(LexiconError):
            load_lexicon(b"[1, 2]")

    def test_invalid_json_rejected(self):
        with pytest.raises(LexiconError):
            load_lexicon(b"{not json")

    @pytest.mark.parametrize(
        "data",
        [b'{"version": ' + b"9" * 5000 + b"}", b"[" * 200_000 + b"]" * 200_000],
        ids=["long-integer", "deep-nesting"],
    )
    def test_json_limits_rejected(self, data):
        with pytest.raises(LexiconError, match="not valid JSON"):
            load_lexicon(data)

    def test_compiled_patterns_are_cached_outside_equality(self):
        lex = load_lexicon(json.dumps({"road_suffixes": ["via"]}).encode())
        assert lex._compiled is lex._compiled
        fresh = Lexicon(lex.version, lex.patterns, lex.road_suffixes, lex.distance_units)
        assert fresh == lex


class TestMonotonicity:
    # Adding a pattern that cannot interact with road-name detection must
    # never remove classes from any result.
    @given(
        st.sampled_from([text for text, _ in MIXED_SENTENCES]),
        st.sampled_from(["proceed carefully", "mind the gap", "all aboard"]),
    )
    def test_extension_never_removes_classes(self, text, extra_phrase):
        base = classify(text).classes
        defaults = [
            p for p in DEFAULT_LEXICON.patterns[C.STATIC_OBJECT]
        ]
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


# --- token-level reference matcher -------------------------------------------

_CARDINALS = {"north", "south", "east", "west"}


def ref_accepts(elem, token, lex):
    if elem == "<num>":
        return token.isdecimal()
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
    return token == elem.lower()


def ref_name_like(token, lex):
    return not (
        token in STRUCTURE_WORDS or token in lex.road_suffixes or token in lex.distance_units
    )


def ref_match(tokens, i, elems, lex):
    """End of the first match of elems from token i: gaps try 0-3 tokens
    shortest first, name runs longest first, backtracking on failure."""
    if not elems:
        return i
    head, rest = elems[0], elems[1:]
    if head == "*":
        takes = range(4)
    elif head == "<name+>":
        run = 0
        while i + run < len(tokens) and ref_name_like(tokens[i + run], lex):
            run += 1
        takes = range(run, 0, -1)
    else:
        takes = [1] if i < len(tokens) and ref_accepts(head, tokens[i], lex) else []
    for take in takes:
        if i + take <= len(tokens):
            end = ref_match(tokens, i + take, rest, lex)
            if end is not None:
                return end
    return None


def ref_maximal(spans):
    kept = []
    for start, end in sorted(set(spans), key=lambda s: (s[0], -s[1])):
        if not any(ks <= start and end <= ke for ks, ke in kept):
            kept.append((start, end))
    return kept


def ref_evidence(text, lex):
    """Sorted (start, end, class) of every evidence span, matched on tokens."""
    normalized, omap = normalize_text(text)
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
        by_class[cls] = ref_maximal(raw)
    evidence = []
    for cls, spans in by_class.items():
        for start, end in spans:
            evidence.append((*omap.to_original(starts[start], starts[end] - 1), cls.value))
    return sorted(evidence)


_GAPPY = lexicon(
    {
        "Turn": ["* left", "right *", "<name+> * <suffix>"],
        "Destination": ["<name+> <name+>", "* <num> * <unit>", "arrived at * <name+>"],
        "Cardinal": ["<name+> <cardinal> *", "* <bound>"],
        "road_suffixes": ["plaza", "per hour"],
        "distance_units": ["clicks"],
    }
)
_VOCAB = sorted(
    STRUCTURE_WORDS
    | set(DEFAULT_LEXICON.road_suffixes)
    | set(DEFAULT_LEXICON.distance_units)
    | _CARDINALS
    | {"northbound", "south-bound", "plaza", "per", "hour", "clicks", "main", "oak",
       "15th", "2", "1000", "²", "o'neil's", "u", "pretty", "good"}
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
    @pytest.mark.parametrize("lex", [DEFAULT_LEXICON, _GAPPY], ids=["default", "gaps"])
    @given(text=_TEXTS)
    def test_classify_matches_token_reference(self, lex, text):
        got = classify(text, lex)
        assert [(e.start, e.end, e.command_class.value) for e in got.evidence] == (
            ref_evidence(text, lex)
        )
