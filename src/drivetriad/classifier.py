"""Rule-based multi-label classification of navigation instruction text.

Every instruction is matched against nine attribute classes describing the
kind of cue it references (a road name, a distance, a static object, ...).
All rules run on every input and their results union, so multi-attribute
instructions come out multi-labeled. Each detected class carries evidence:
the character span of the match in the original text, so automatic labels
stay auditable against raw transcripts.

Matching happens on a normalized copy of the text (lowercased, punctuation
stripped, whitespace collapsed) and spans are mapped back to the original
through an offset map.

Patterns are plain strings of space-separated elements, each compiled
once to a ``re`` pattern that yields the first match from every token:

* a bare word matches that token exactly ("turn", "u-turn");
* ``*`` matches a gap of up to three arbitrary tokens, shortest first,
  and a pattern needs at least one element other than ``*``;
* ``<num>`` matches a token of decimal digits (``\\d``, so not "²"),
  ``<frac>`` a fraction word (half/quarter/third);
* ``<unit>`` matches a distance unit, ``<suffix>`` a road-type suffix
  (both lists live on the lexicon);
* ``<cardinal>`` matches north/south/east/west and ``<bound>`` a
  direction-suffixed token like "southbound";
* ``<name+>`` matches a run of one or more name-like tokens (anything that
  is not a structure word, road suffix, or unit).

Two rules need structure beyond patterns: the name reach of "arrived at"
phrases (with rejection of road-suffixed names), and the suppression of
cardinal words that sit inside a detected road name ("North Lake Road" is
a road, not a heading).
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import EmptyInstruction, LexiconError


class CommandClass(enum.Enum):
    """The attribute classes an instruction can reference."""

    ROAD = "Road"
    DISTANCE = "Distance"
    STATIC_OBJECT = "StaticObject"
    TURN = "Turn"
    CARDINAL = "Cardinal"
    LOCATION_NAME = "LocationName"
    LANE_INFORMATION = "LaneInformation"
    LIGHT_INFORMATION = "LightInformation"
    DESTINATION = "Destination"

    @property
    def label(self) -> str:
        """Human-readable form used in reports."""
        return _LABELS[self]

    @classmethod
    def from_name(cls, name: str) -> "CommandClass":
        try:
            return cls(name)
        except ValueError:
            raise KeyError(name) from None


_LABELS = {
    CommandClass.ROAD: "Road",
    CommandClass.DISTANCE: "Distance",
    CommandClass.STATIC_OBJECT: "Static Object",
    CommandClass.TURN: "Turn",
    CommandClass.CARDINAL: "Cardinal",
    CommandClass.LOCATION_NAME: "Location Name",
    CommandClass.LANE_INFORMATION: "Lane Information",
    CommandClass.LIGHT_INFORMATION: "Light Information",
    CommandClass.DESTINATION: "Destination",
}


def sort_classes(classes: Iterable[CommandClass]) -> list[CommandClass]:
    """Canonical ordering: alphabetical by class name."""
    return sorted(classes, key=lambda c: c.value)


@dataclass(frozen=True)
class Evidence:
    """One matched span supporting one class.

    start/end index into the original (pre-normalization) text and
    ``matched`` equals ``text[start:end]``.
    """

    command_class: CommandClass
    start: int
    end: int
    matched: str


@dataclass(frozen=True)
class Classification:
    """The full labeling of one instruction."""

    text: str
    classes: frozenset[CommandClass]
    evidence: tuple[Evidence, ...]


@dataclass(frozen=True)
class OffsetMap:
    """Maps normalized character positions back to original ones."""

    origins: tuple[int, ...]

    def to_original(self, start: int, end: int) -> tuple[int, int]:
        if not 0 <= start < end <= len(self.origins):
            raise IndexError(f"span [{start}, {end}) outside normalized text")
        return self.origins[start], self.origins[end - 1] + 1


def normalize_text(text: str) -> tuple[str, OffsetMap]:
    """Lowercase, strip punctuation except apostrophes/hyphens, collapse spaces.

    Returns the normalized string and an offset map translating normalized
    spans back to the original. Empty or whitespace-only input raises
    EmptyInstruction.
    """
    if not text.strip():
        raise EmptyInstruction("instruction text is empty")
    chars: list[str] = []
    origins: list[int] = []
    for i, ch in enumerate(text):
        if ch == "’":
            ch_norm = "'"
        elif ch.isalnum() or ch in "'-":
            ch_norm = ch.lower()
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
        raise EmptyInstruction("instruction text is empty after normalization")
    return "".join(chars), OffsetMap(tuple(origins))


# --- lexicon ----------------------------------------------------------------

DEFAULT_PATTERNS: dict[CommandClass, tuple[str, ...]] = {
    CommandClass.ROAD: (
        "on <name+> <suffix>",
        "onto <name+> <suffix>",
        "toward <name+> <suffix>",
        "towards <name+> <suffix>",
        "<name+> <suffix>",
    ),
    CommandClass.DISTANCE: (
        "<num> <unit>",
        "<frac> <unit>",
        "<num> a <unit>",
        "<frac> a <unit>",
        "<num> an <unit>",
        "<frac> an <unit>",
        "<num> of a <unit>",
        "<frac> of a <unit>",
    ),
    CommandClass.STATIC_OBJECT: (
        "stop sign",
        "stop",
        "traffic light",
        "light",
        "lights",
        "intersection",
        "roundabout",
        "crosswalk",
        "sign",
    ),
    CommandClass.TURN: (
        "turn",
        "left",
        "right",
        "u-turn",
        "u turn",
        "keep left",
        "keep right",
        "exit",
    ),
    CommandClass.CARDINAL: (
        "head <cardinal>",
        "go <cardinal>",
        "continue <cardinal>",
        "<cardinal> on",
        "<cardinal> onto",
        "<cardinal> toward",
        "<cardinal> towards",
        "<bound>",
    ),
    CommandClass.LOCATION_NAME: (
        "arrived at",
        "arrive at",
    ),
    CommandClass.LANE_INFORMATION: (
        "use the * lane",
        "use the * lanes",
        "two lanes",
        "three lanes",
        "four lanes",
        "<num> lanes",
        "keep in * lane",
        "keep in * lanes",
        "merge into * lane",
        "merge into * lanes",
    ),
    CommandClass.LIGHT_INFORMATION: (
        "past * light",
        "past * lights",
        "through * light",
        "through * lights",
        "at the next set",
    ),
    CommandClass.DESTINATION: (
        "destination",
        "your destination * ahead",
        "your destination * on the left",
        "your destination * on the right",
    ),
}

DEFAULT_ROAD_SUFFIXES = (
    "street", "st", "road", "rd", "drive", "dr", "avenue", "ave",
    "boulevard", "blvd", "highway", "freeway", "court", "place", "way",
    "lane",
)

DEFAULT_DISTANCE_UNITS = (
    "feet", "foot", "ft", "mile", "miles", "meter", "meters",
    "kilometer", "kilometers",
)

FRACTION_WORDS = frozenset({"half", "quarter", "third"})

# Words that never belong to a name phrase: articles, prepositions,
# connective verbs, and the tokens other rules key on.
STRUCTURE_WORDS = frozenset({
    "the", "a", "an",
    "on", "onto", "to", "toward", "towards", "at", "in", "for", "of",
    "into", "from", "by", "past", "through", "over", "near",
    "and", "then", "or",
    "turn", "keep", "use", "merge", "take", "head", "go", "continue",
    "arrive", "arrived", "make", "exit", "stay", "bear", "proceed", "follow",
    "your", "you", "is", "are", "will", "be", "it", "this", "these", "that",
    "left", "right", "u-turn", "straight",
    "stop", "sign", "light", "lights", "lane", "lanes", "intersection",
    "roundabout", "crosswalk", "destination", "set", "next", "ahead",
    "half", "quarter", "third",
})


@dataclass(frozen=True)
class Lexicon:
    """The configurable pattern bank driving classification."""

    version: str
    patterns: Mapping[CommandClass, tuple[str, ...]]
    road_suffixes: tuple[str, ...]
    distance_units: tuple[str, ...]

    @cached_property
    def _compiled(self) -> "_CompiledLexicon":
        # Kept in the instance __dict__, which frozen allows and eq ignores.
        return _CompiledLexicon(self)


DEFAULT_LEXICON = Lexicon(
    version="builtin-1",
    patterns=dict(DEFAULT_PATTERNS),
    road_suffixes=DEFAULT_ROAD_SUFFIXES,
    distance_units=DEFAULT_DISTANCE_UNITS,
)

_OVERRIDE_LIST_KEYS = ("road_suffixes", "distance_units")


def load_lexicon(data: bytes | None = None) -> Lexicon:
    """Build the default lexicon, optionally merged with a JSON override.

    The override document is a single object whose keys are class names
    (pattern lists, which replace the defaults), "road_suffixes" and
    "distance_units" (which append unknown entries), and an optional
    "version" tag. Anything else raises LexiconError naming the key.
    """
    if data is None:
        return DEFAULT_LEXICON
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise LexiconError(f"lexicon override is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise LexiconError("lexicon override must be a JSON object")

    patterns = dict(DEFAULT_PATTERNS)
    suffixes = list(DEFAULT_ROAD_SUFFIXES)
    units = list(DEFAULT_DISTANCE_UNITS)
    version = None
    for key, value in doc.items():
        if key == "version":
            if not isinstance(value, str):
                raise LexiconError("version: must be a string")
            version = value
        elif key in _OVERRIDE_LIST_KEYS:
            target = suffixes if key == "road_suffixes" else units
            _extend_unique(key, target, value)
        else:
            try:
                cls = CommandClass.from_name(key)
            except KeyError:
                valid = ", ".join(c.value for c in CommandClass)
                raise LexiconError(
                    f"{key}: not a class name (expected one of {valid}, "
                    f"road_suffixes, distance_units, version)"
                ) from None
            patterns[cls] = _pattern_list(key, value)
    if version is None:
        version = DEFAULT_LEXICON.version + "+override"
    lex = Lexicon(version, patterns, tuple(suffixes), tuple(units))
    lex._compiled  # validate every pattern now, not at first classify
    return lex


def _extend_unique(key: str, target: list[str], value: object) -> None:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise LexiconError(f"{key}: must be a list of strings")
    for word in value:
        cleaned = word.strip().lower()
        if cleaned and cleaned not in target:
            target.append(cleaned)


def _pattern_list(key: str, value: object) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise LexiconError(f"{key}: must be a list of pattern strings")
    return tuple(value)


# --- pattern compilation and matching ---------------------------------------

# Matching runs on the normalized text plus one trailing space, so every
# token reads "word " and each pattern element consumes whole tokens.
_CARDINAL = "(?:north|south|east|west)"
_CARDINAL_TOKEN = re.compile(f"(?<![^ ]){_CARDINAL}(?:-?bound)? ")
_GAP = "(?:[^ ]+ ){0,3}?"  # up to three tokens, shortest first


def _words(words: Iterable[str]) -> str:
    """A regex matching one token equal to any of ``words``.

    A word holding whitespace can never equal a token, so it is left out.
    """
    kept = sorted({w for w in words if w.split() == [w]})
    return "(?:" + "|".join(map(re.escape, kept)) + ") "


def _compile_pattern(
    owner: str, index: int, pattern: str, elements: Mapping[str, str]
) -> re.Pattern[str]:
    """One regex whose group 1 is the first match from each token start."""
    parts = []
    for raw in pattern.split():
        if raw == "*":
            parts.append(_GAP)
        elif raw.startswith("<") and raw.endswith(">"):
            if raw[1:-1] not in elements:
                raise LexiconError(f"{owner}[{index}]: unknown element {raw!r}")
            parts.append(elements[raw[1:-1]])
        else:
            parts.append(re.escape(raw.lower()) + " ")
    if not parts:
        raise LexiconError(f"{owner}[{index}]: empty pattern")
    if all(part == _GAP for part in parts):
        raise LexiconError(f"{owner}[{index}]: needs an element other than '*'")
    return re.compile(f"(?<![^ ])(?=({''.join(parts)}))")


class _CompiledLexicon:
    def __init__(self, lex: Lexicon) -> None:
        self.suffixes = frozenset(lex.road_suffixes)
        units = frozenset(lex.distance_units)
        not_name = _words(STRUCTURE_WORDS | self.suffixes | units)
        elements = {
            "num": r"\d+ ",
            "frac": _words(FRACTION_WORDS),
            "unit": _words(units),
            "suffix": _words(self.suffixes),
            "cardinal": _CARDINAL + " ",
            "bound": _CARDINAL + "-?bound ",
            "name+": f"(?:(?!{not_name})[^ ]+ )+",
        }
        # The "arrived at" name reach flows through road suffixes; group 1
        # is its last token.
        self.name_reach = re.compile(
            f"(?:(?!{_words(STRUCTURE_WORDS | units)})([^ ]+) )*"
        )
        self.patterns = {
            cls: [
                _compile_pattern(cls.value, i, pattern, elements)
                for i, pattern in enumerate(lex.patterns.get(cls, ()))
            ]
            for cls in CommandClass
        }


def _pattern_spans(padded: str, patterns: list[re.Pattern[str]]) -> list[tuple[int, int]]:
    return [m.span(1) for pattern in patterns for m in pattern.finditer(padded)]


def _maximal_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drop spans contained in another span of the same class."""
    kept: list[tuple[int, int]] = []
    for start, end in sorted(set(spans), key=lambda s: (s[0], -s[1])):
        if not any(ks <= start and end <= ke for ks, ke in kept):
            kept.append((start, end))
    return kept


def _locate_names(
    padded: str,
    anchors: list[tuple[int, int]],
    comp: _CompiledLexicon,
) -> list[tuple[int, int]]:
    """Extend "arrived at" anchors over the following name, rejecting roads.

    The name reach stops at structure words and units but may flow through
    road-suffix words, so "arrived at Lake Road" is recognized as a road
    reference (and rejected here) rather than a location name.
    """
    spans = []
    for start, anchor_end in anchors:
        reach = comp.name_reach.match(padded, anchor_end)
        if reach.end() > anchor_end and reach.group(1) not in comp.suffixes:
            spans.append((start, reach.end()))
    return spans


def _all_cardinals_inside_roads(
    span: tuple[int, int],
    cardinals: list[int],
    road_spans: list[tuple[int, int]],
) -> bool:
    """True when every direction word in the span belongs to a road name."""
    found = [pos for pos in cardinals if span[0] <= pos < span[1]]
    return bool(found) and all(
        any(r_start <= pos < r_end for r_start, r_end in road_spans) for pos in found
    )


def classify(text: str, lex: Lexicon | None = None) -> Classification:
    """Label one instruction with every matching attribute class.

    Deterministic for a given text and lexicon. The returned evidence list
    is sorted by position and never contains a span fully inside another
    span of the same class.
    """
    if lex is None:
        lex = DEFAULT_LEXICON
    comp = lex._compiled
    normalized, omap = normalize_text(text)
    padded = normalized + " "

    spans_by_class: dict[CommandClass, list[tuple[int, int]]] = {}
    for cls in CommandClass:  # ROAD comes first: CARDINAL reads its spans
        raw = _pattern_spans(padded, comp.patterns[cls])
        if cls is CommandClass.CARDINAL:
            road_spans = spans_by_class[CommandClass.ROAD]
            cardinals = [m.start() for m in _CARDINAL_TOKEN.finditer(padded)]
            raw = [
                span
                for span in raw
                if not _all_cardinals_inside_roads(span, cardinals, road_spans)
            ]
        elif cls is CommandClass.LOCATION_NAME:
            raw = _locate_names(padded, raw, comp)
        spans_by_class[cls] = _maximal_spans(raw)

    evidence = []
    for cls, spans in spans_by_class.items():
        for start, end in spans:
            # Each span ends after its last token's trailing space.
            orig_start, orig_end = omap.to_original(start, end - 1)
            evidence.append(
                Evidence(cls, orig_start, orig_end, text[orig_start:orig_end])
            )
    evidence.sort(key=lambda e: (e.start, e.end, e.command_class.value))
    classes = frozenset(e.command_class for e in evidence)
    return Classification(text, classes, tuple(evidence))
