"""Rule-based multi-label classification of navigation instruction text.

Every instruction is matched against nine attribute classes describing the
kind of cue it references (a road name, a distance, a static object, ...).
Every rule that can match runs and their results union, so multi-attribute
instructions come out multi-labeled. Each detected class carries evidence:
the character span of the match in the original text, so automatic labels
stay auditable against raw transcripts.

The text is read once, as tokens: runs of letters, digits, apostrophes
and hyphens, lowercased, each with its span in the original text; a ``.``
or ``,`` between two decimal digits stays inside its token, so "0.3" and
"1,000" are one token each. Patterns match on the tokens joined by single
spaces, every match becomes a range of tokens, and its evidence runs from
the first token's start to the last token's end.

Patterns are plain strings of space-separated elements, each read into
a ``re`` pattern that yields the first match from every token, and compiled
the first time a text triggers it:

* a bare word matches that token exactly ("turn", "u-turn");
* ``*`` matches a gap of up to three arbitrary tokens, shortest first,
  and a pattern needs at least one element other than ``*``;
* ``<num>`` matches a number token: runs of decimal digits (``\\d``, so
  not "²") joined by single ``.`` or ``,`` ("3", "0.3", "1,000"), and
  ``<frac>`` a fraction word (half/quarter/third);
* ``<unit>`` matches a distance unit, ``<suffix>`` a road-type suffix
  (both lists live on the lexicon);
* ``<cardinal>`` matches north/south/east/west and ``<bound>`` a
  direction-suffixed token like "southbound";
* ``<name+>`` matches a run of one to eight name-like tokens (anything
  that is not a structure word, road suffix, or unit), longest first.

A pattern runs only on texts holding one of its trigger words, the words of
its element that takes the fewest; a pattern made only of ``*``, ``<num>``
and ``<name+>`` runs on every text.

Two rules need structure beyond patterns: the name reach of "arrived at"
phrases (with rejection of road-suffixed names), and the suppression of
cardinal words that sit inside a detected road name ("North Lake Road" is
a road, not a heading). Every element takes a bounded number of tokens,
and each rule reads each token a bounded number of times, so ``classify``
takes time linear in the text's length.

``read_statement`` reads back what a labelled text states: its side,
distance in metres, cardinal and maneuver.
"""

from __future__ import annotations

import enum
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping

from .core import read_object
from .errors import LexiconError


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
        """The report form: "StaticObject" reads "Static Object"."""
        return re.sub(r"(?<=[a-z])(?=[A-Z])", " ", self.value)


def sort_classes(classes: Iterable[CommandClass]) -> list[CommandClass]:
    """Canonical ordering: alphabetical by class name."""
    return sorted(classes, key=lambda c: c.value)


@dataclass(frozen=True)
class Evidence:
    """One matched span supporting one class.

    start/end index into the original text and
    ``matched`` equals ``text[start:end]``.
    """

    command_class: CommandClass
    start: int
    end: int
    matched: str


@dataclass(frozen=True)
class Classification:
    """The full labeling of one instruction: its evidence, and the classes
    that evidence names."""

    evidence: tuple[Evidence, ...]

    @property
    def classes(self) -> frozenset[CommandClass]:
        return frozenset(e.command_class for e in self.evidence)


# [^\W_] is exactly str.isalnum; a "." or "," joins two decimal digits.
_TOKEN = re.compile(r"(?:[^\W_]|['’-]|(?<=\d)[.,](?=\d))+")


def _fold(word: str) -> str:
    """The one spelling rule for text tokens and lexicon words."""
    # Both small sigmas read as "σ": whole-string lower() turns a final "Σ"
    # into "ς", and text may spell a word either way ("ΟΔΟΣ", "οδος").
    return word.replace("’", "'").lower().replace("ς", "σ")


def has_word(text: str) -> bool:
    """Whether ``text`` holds a token, so that ``classify`` labels it."""
    return _TOKEN.search(text) is not None


def tokenize(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Split text into folded tokens and their ``(start, end)`` in ``text``.

    A token is a run of letters, digits, apostrophes and hyphens, and of a
    ``.`` or ``,`` between two decimal digits; every other character
    separates tokens. Text with no token gives two empty lists.
    """
    tokens = []
    spans = []
    for m in _TOKEN.finditer(text):
        tokens.append(_fold(m.group()))
        spans.append(m.span())
    return tokens, spans


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

# Metres per default distance unit. A unit that a lexicon override adds
# has no factor, so a distance stated in it reads as None.
UNIT_METRES = {
    "feet": 0.3048, "foot": 0.3048, "ft": 0.3048,
    "mile": 1609.344, "miles": 1609.344,
    "meter": 1.0, "meters": 1.0,
    "kilometer": 1000.0, "kilometers": 1000.0,
}
DEFAULT_DISTANCE_UNITS = tuple(UNIT_METRES)

FRACTIONS = {"half": 1 / 2, "quarter": 1 / 4, "third": 1 / 3}
FRACTION_WORDS = frozenset(FRACTIONS)

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


# Matching runs on the space-joined tokens plus one trailing space, so every
# token reads "word " and each pattern element consumes whole tokens.
_CARDINALS = frozenset({"north", "south", "east", "west"})
# Each direction word and the cardinal it names: "northbound" reads North.
_CARDINAL_OF = {c + b: c.capitalize() for c in _CARDINALS for b in ("", "bound", "-bound")}
_BOUNDS = frozenset(_CARDINAL_OF) - _CARDINALS
_GAP = "(?:[^ ]+ ){0,3}?"  # up to three tokens, shortest first


def _words(words: Iterable[str]) -> str:
    """A regex matching one token equal to any of ``words``.

    A word holding whitespace can never equal a token, so it is left out.
    """
    kept = sorted({w for w in words if w.split() == [w]})
    return "(?:" + "|".join(map(re.escape, kept)) + ") "


def _pattern_source(
    owner: str, index: int, pattern: str, vocab: Mapping[str, str | frozenset[str]]
) -> tuple[str, frozenset[str] | None]:
    """The source of one regex whose group 1 is the first match from each
    token start.

    ``vocab`` maps each element to its regex, or to the word set that both
    builds its regex and says which tokens it can consume. The second result
    is the pattern's trigger: its smallest word set, which the text's tokens
    must meet for the pattern to match, or None when no element has one.
    """
    parts = []
    triggers = []
    for raw in pattern.split():
        if raw == "*" or (raw.startswith("<") and raw.endswith(">")):
            if raw not in vocab:
                raise LexiconError(f"{owner}[{index}]: unknown element {raw!r}")
            words = vocab[raw]
        else:
            words = frozenset({_fold(raw)})
        if isinstance(words, str):
            parts.append(words)
        else:
            parts.append(_words(words))
            triggers.append(words)
    if not parts:
        raise LexiconError(f"{owner}[{index}]: empty pattern")
    if all(part == _GAP for part in parts):
        raise LexiconError(f"{owner}[{index}]: needs an element other than '*'")
    trigger = min(triggers, key=len, default=None)
    return f"(?<![^ ])(?=({''.join(parts)}))", trigger


class Lexicon:
    """The configurable pattern bank driving classification.

    Building one checks every pattern, raising LexiconError for a bad one,
    and indexes it by its trigger; its regex compiles the first time a text
    triggers it.
    """

    def __init__(
        self,
        version: str,
        patterns: Mapping[CommandClass, Iterable[str]],
        road_suffixes: Iterable[str],
        distance_units: Iterable[str],
    ) -> None:
        self.version = version
        self.suffixes = frozenset(road_suffixes)
        units = frozenset(distance_units)
        not_name = _words(STRUCTURE_WORDS | self.suffixes | units)
        vocab: dict[str, str | frozenset[str]] = {
            "*": _GAP,
            "<num>": r"\d+(?:[.,]\d+)* ",
            # Bounded, so each token start reads at most eight names ahead.
            "<name+>": f"(?:(?!{not_name})[^ ]+ ){{1,8}}",
            "<frac>": FRACTION_WORDS,
            "<unit>": units,
            "<suffix>": self.suffixes,
            "<cardinal>": _CARDINALS,
            "<bound>": _BOUNDS,
        }
        # The "arrived at" name reach stops at these words but flows
        # through road suffixes.
        self.name_stops = STRUCTURE_WORDS | units
        # Every pattern in class order with its regex source, each regex
        # once compiled, the patterns without a trigger, and for each
        # trigger word the patterns it triggers.
        self.sources: list[tuple[CommandClass, str]] = []
        self.regexes: list[re.Pattern[str] | None] = []
        self.always: list[int] = []
        self.index: dict[str, list[int]] = {}
        for cls in CommandClass:
            for i, pattern in enumerate(patterns.get(cls, ())):
                source, trigger = _pattern_source(cls.value, i, pattern, vocab)
                if trigger is None:
                    self.always.append(len(self.sources))
                for word in trigger or ():
                    self.index.setdefault(word, []).append(len(self.sources))
                self.sources.append((cls, source))
                self.regexes.append(None)

    def regex(self, index: int) -> re.Pattern[str]:
        """The regex of ``sources[index]``, compiled on its first use."""
        regex = self.regexes[index]
        if regex is None:
            regex = self.regexes[index] = re.compile(self.sources[index][1])
        return regex

    def triggered(self, tokens: Iterable[str]) -> set[int]:
        """Indices into ``sources`` of every pattern that ``tokens`` can match."""
        found = set(self.always)
        for token in tokens:
            found.update(self.index.get(token, ()))
        return found


DEFAULT_LEXICON = Lexicon(
    "builtin-1", DEFAULT_PATTERNS, DEFAULT_ROAD_SUFFIXES, DEFAULT_DISTANCE_UNITS
)


def load_lexicon(data: bytes | None = None) -> Lexicon:
    """Build the default lexicon, optionally merged with a JSON override.

    The override document is a single object whose keys are class names
    (pattern lists, which replace the defaults), "road_suffixes" and
    "distance_units" (which add their words), and an optional "version"
    tag. Anything else raises LexiconError naming the key, and so does a
    bad pattern.
    """
    if data is None:
        return DEFAULT_LEXICON
    doc = read_object(data)
    patterns = dict(DEFAULT_PATTERNS)
    suffixes = set(DEFAULT_ROAD_SUFFIXES)
    units = set(DEFAULT_DISTANCE_UNITS)
    word_sets = {"road_suffixes": suffixes, "distance_units": units}
    version = DEFAULT_LEXICON.version + "+override"
    for key, value in doc.items():
        if key == "version":
            if not isinstance(value, str):
                raise LexiconError("version: must be a string")
            version = value
            continue
        target = word_sets.get(key)
        if target is None:
            try:
                cls = CommandClass(key)
            except ValueError:
                valid = ", ".join(c.value for c in CommandClass)
                raise LexiconError(
                    f"{key}: not a class name (expected one of {valid}, "
                    f"road_suffixes, distance_units, version)"
                ) from None
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise LexiconError(f"{key}: must be a list of strings")
        if target is None:
            patterns[cls] = value
        else:
            target.update(_fold(word.strip()) for word in value)
    return Lexicon(version, patterns, suffixes, units)


# --- matching ---------------------------------------------------------------


def _maximal_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drop spans contained in another span of the same class. In (start,
    longest first) order a span lies inside a kept one exactly when it ends
    no further than the last kept span, which reaches furthest."""
    kept: list[tuple[int, int]] = []
    for start, end in sorted(set(spans), key=lambda s: (s[0], -s[1])):
        if not kept or end > kept[-1][1]:
            kept.append((start, end))
    return kept


def _locate_names(
    tokens: list[str],
    anchors: list[tuple[int, int]],
    lex: Lexicon,
) -> list[tuple[int, int]]:
    """Extend "arrived at" anchors over the following name, rejecting roads.

    The name reach stops at structure words and units but may flow through
    road-suffix words, so "arrived at Lake Road" is recognized as a road
    reference (and rejected here) rather than a location name. Each reach
    ends at the first stop at or after its anchor, found by bisecting the
    stops, so anchors inside one long name do not each walk it.
    """
    stops = [i for i, token in enumerate(tokens) if token in lex.name_stops]
    stops.append(len(tokens))
    spans = []
    for start, anchor_end in anchors:
        end = stops[bisect_left(stops, anchor_end)]
        if end > anchor_end and tokens[end - 1] not in lex.suffixes:
            spans.append((start, end))
    return spans


def classify(text: str, lex: Lexicon | None = None) -> Classification | None:
    """Label one instruction with every matching attribute class.

    Deterministic for a given text and lexicon. The returned evidence list
    is sorted by position and never contains a span fully inside another
    span of the same class. A text with no words (empty, blank or
    punctuation only, such as "...") has no labelling: None.
    """
    if lex is None:
        lex = DEFAULT_LEXICON
    tokens, token_spans = tokenize(text)
    if not tokens:
        return None
    padded = " ".join(tokens) + " "
    # Offset in ``padded`` of each token start, and of the end, -> token index.
    token_at = {}
    offset = 0
    for i, token in enumerate(tokens):
        token_at[offset] = i
        offset += len(token) + 1
    token_at[offset] = len(tokens)

    # Every element consumes one whole token, so a pattern whose trigger
    # misses the text's tokens cannot match and is not run. Pattern indices
    # follow class order, so ROAD's spans are final before CARDINAL reads them.
    # Spans are [first, last + 1) token ranges.
    sources = lex.sources
    road_spans: list[tuple[int, int]] = []
    evidence = []
    for cls, indices in groupby(
        sorted(lex.triggered(tokens)), key=lambda i: sources[i][0]
    ):
        spans = [
            (token_at[m.start(1)], token_at[m.end(1)])
            for i in indices
            for m in lex.regex(i).finditer(padded)
        ]
        if not spans:
            continue
        if cls is CommandClass.CARDINAL:
            # Drop a span that holds a direction word and has every one in a
            # road name: the in-road flags of its direction words are {True}.
            in_roads = {i for first, end in road_spans for i in range(first, end)}
            spans = [
                (first, end)
                for first, end in spans
                if {i in in_roads for i in range(first, end) if tokens[i] in _CARDINAL_OF}
                != {True}
            ]
        elif cls is CommandClass.LOCATION_NAME:
            spans = _locate_names(tokens, spans, lex)
        spans = _maximal_spans(spans)
        if cls is CommandClass.ROAD:
            road_spans = spans
        for first, end in spans:
            start, stop = token_spans[first][0], token_spans[end - 1][1]
            evidence.append(Evidence(cls, start, stop, text[start:stop]))
    evidence.sort(key=lambda e: (e.start, e.end, e.command_class.value))
    return Classification(tuple(evidence))


# --- what a text states -----------------------------------------------------

# A quantity written with grouping commas, each followed by three digits,
# or without, and an optional decimal part: "1,000.5" but not "1,5".
_QUANTITY = re.compile(r"(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?")


@dataclass(frozen=True)
class Statement:
    """What an instruction states, as ``read_statement`` reads it. Each
    field is the one value its text states, or None where it states none
    or two different ones."""

    side: str | None  # "left" or "right"
    distance_m: float | None
    cardinal: str | None  # "North", "East", "South" or "West"
    maneuver: str | None  # "turn", "u-turn", "keep", "exit" or "arrive"


def _distance_m(words: list[str]) -> float | None:
    """The metres a Distance evidence states: its first word a number or a
    fraction word, its last a unit with a factor, else None."""
    factor = UNIT_METRES.get(words[-1])
    quantity = FRACTIONS.get(words[0])
    if quantity is None and _QUANTITY.fullmatch(words[0]):
        quantity = float(words[0].replace(",", ""))
    if factor is None or quantity is None:
        return None
    # A number too large for a float states no distance.
    distance = quantity * factor
    return distance if math.isfinite(distance) else None


def _turn_kind(words: list[str]) -> str:
    """The maneuver a Turn evidence names."""
    if "u-turn" in words or ("u", "turn") in zip(words, words[1:]):
        return "u-turn"
    for kind in ("keep", "exit"):
        if kind in words:
            return kind
    return "turn"


def read_statement(evidence: Iterable[Evidence]) -> Statement:
    """What a text states, read from the words of its evidence.

    A Turn evidence states the side of each ``left`` or ``right`` it holds,
    and a maneuver: "u-turn" when it holds ``u-turn`` or ``u turn``, else
    "keep" or "exit" when it holds that word, else "turn". LocationName
    and Destination evidence state "arrive". A Distance evidence states a
    distance when its first word is a number (``_QUANTITY``) or a fraction
    word and its last a unit with a factor (``UNIT_METRES``); a cardinal
    comes from each direction word in a Cardinal evidence.
    """
    sides, distances, cardinals, maneuvers = set(), set(), set(), set()
    for ev in evidence:
        words = [_fold(word) for word in _TOKEN.findall(ev.matched)]
        if not words:
            continue
        cls = ev.command_class
        if cls is CommandClass.TURN:
            sides.update(word for word in words if word in ("left", "right"))
            maneuvers.add(_turn_kind(words))
        elif cls is CommandClass.DISTANCE:
            distances.add(_distance_m(words))
        elif cls is CommandClass.CARDINAL:
            cardinals.update(_CARDINAL_OF[word] for word in words if word in _CARDINAL_OF)
        elif cls in (CommandClass.LOCATION_NAME, CommandClass.DESTINATION):
            maneuvers.add("arrive")
    return Statement(*(
        values.pop() if len(values) == 1 else None
        for values in (sides, distances, cardinals, maneuvers)
    ))
