"""C-speed fast-pattern prefilter built on CPython's ``re`` engine.

:class:`RegexPrefilter` answers the same question as
:class:`repro.nids.automaton.AhoCorasick` — *which fast patterns occur in
this payload?* — but drives the scan through ``sre``'s compiled C loop
instead of a pure-Python per-byte state machine.  On the study archive this
is the difference between ~60 ns/byte and memory-bandwidth-class scanning,
the same trick real multi-pattern engines (Snort's MPSE, Hyperscan) rely on.

Three non-obvious choices make the regex route both fast and *exact*:

* **Trie-factored alternations.**  A flat ``p1|p2|...|pN`` alternation makes
  ``sre`` try all N branches at every candidate position (measured ~10 us
  per 160-byte payload at N=72 — the "alternation-size cliff").  Factoring
  the patterns into a byte trie (``ab(?:c|d)`` instead of ``abc|abd``) means
  a position is rejected after at most one comparison per distinct leading
  byte.  Patterns are additionally batched into chunks of at most
  ``chunk_size`` so a pathological ruleset cannot produce one enormous
  program.

* **No capture groups.**  Wrapping alternatives in groups (to learn *which*
  pattern matched) disables ``sre``'s branch optimisations — a measured
  ~50x slowdown.  Instead the matched *text* identifies the pattern: every
  trie match spells out exactly one pattern, so ``match.group()`` is a dict
  key into the pattern table.

* **Occurrence closure.**  ``finditer`` reports non-overlapping matches,
  and the greedy trie yields the *longest* pattern at each position.  Two
  completeness fixes recover full Aho-Corasick semantics: (1) every proper
  prefix of a reported pattern that is itself a pattern also occurs at the
  reported position (prefix closure); (2) a pattern can hide *inside* a
  reported span — it must then be a substring of the reported pattern at
  offset >= 1, or start with one of its proper suffixes (overlap sets) —
  and those few candidates are confirmed with a single C-level ``in``
  check.  Any pattern occurrence not covered by these cases would have
  been the leftmost match of some ``finditer`` step, hence reported.  Both
  tables are precomputed per chunk from a sorted index of the patterns'
  proper suffixes: one hash probe per proper prefix of each pattern plus
  one ``bisect`` range scan per pattern, so the build grows with chunk
  size times pattern length rather than with chunk size squared.

Matching is case-insensitive exactly like the automaton: patterns are
lowercased at build time and haystacks are lowercased (or declared already
lowered) at search time, so the two engines are drop-in interchangeable and
differentially tested against each other (``tests/test_prefilter.py``).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import islice
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Patterns per compiled chunk.  Far below any hard ``sre`` limit; bounds
#: the size of each compiled program and of each chunk's overlap tables.
DEFAULT_CHUNK_SIZE = 256

#: Patterns longer than this are kept out of the trie (deeply nested
#: ``(?:...)`` groups stress ``sre_parse`` recursion) and confirmed with a
#: direct ``in`` scan instead — a single C substring search each.
MAX_TRIE_PATTERN = 64

#: ``re.escape`` of every byte value: emitting a trie edge is one table
#: lookup, not one ``re.escape`` call.
_ESCAPED: Tuple[bytes, ...] = tuple(re.escape(bytes([byte])) for byte in range(256))


def _trie_regex(texts: Sequence[bytes]) -> "re.Pattern[bytes]":
    """Compile a byte-trie regex matching the *longest* of ``texts`` at
    each position (greedy descent, so extensions are tried before accepting
    a shorter terminal)."""
    root: Dict = {}
    for text in texts:
        node = root
        for byte in text:
            node = node.setdefault(byte, {})
        node[None] = True  # terminal marker

    def emit(node: Dict) -> bytes:
        # A run of single-edge, non-terminal nodes is one literal.
        literal = b""
        while len(node) == 1 and None not in node:
            ((byte, node),) = node.items()
            literal += _ESCAPED[byte]
        terminal = None in node
        branches = [
            _ESCAPED[byte] + emit(node[byte])
            for byte in sorted(key for key in node if key is not None)
        ]
        if not branches:
            return literal
        body = b"|".join(branches)
        if terminal:
            return literal + b"(?:" + body + b")?"
        return literal + b"(?:" + body + b")"

    return re.compile(emit(root))


class _Chunk:
    """One compiled batch of patterns plus its occurrence-closure tables."""

    __slots__ = (
        "regex",
        "ids_by_text",
        "prefix_closure",
        "overlap_texts",
        "any_overlaps",
    )

    def __init__(self, texts: List[bytes], ids_by_text: Dict[bytes, Tuple[int, ...]]) -> None:
        self.regex = _trie_regex(texts)
        self.ids_by_text = ids_by_text
        # Every table is keyed and ordered by a text's position in the chunk.
        position = {text: index for index, text in enumerate(texts)}
        # Each proper suffix of each text, indexed once with the positions
        # of the texts that own it.  Only a suffix opening with some text's
        # first byte can start an occurrence of that text, so only those are
        # kept.  Sorted, the suffixes starting with a given text form one
        # contiguous ``bisect`` range.
        leads = {text[0] for text in texts}
        suffix_owners: Dict[bytes, List[int]] = {}
        for index, text in enumerate(texts):
            for cut in range(1, len(text)):
                if text[cut] in leads:
                    suffix_owners.setdefault(text[cut:], []).append(index)
        suffixes = sorted(suffix_owners)
        # Proper prefixes of a matched text that are themselves patterns
        # occur at the same position; fold their ids in up front.
        prefixes: Dict[int, List[int]] = {}
        # Texts that can hide inside (or straddle out of) a reported match
        # of the owner; confirmed per haystack with an ``in`` check.  For a
        # proper suffix ``s`` of the owner, ``other`` hides inside when
        # ``s.startswith(other)`` and straddles out when a proper prefix of
        # ``other`` equals ``s``.  Both are looked up from ``other``'s side
        # (one bisect range scan, one hash probe per proper prefix), so the
        # cost grows with chunk · pattern length, not chunk².
        overlaps: Dict[int, Set[int]] = {}
        for index, other in enumerate(texts):
            for cut in range(1, len(other)):
                head = other[:cut]
                member = position.get(head)
                if member is not None:
                    prefixes.setdefault(index, []).append(member)
                for owner in suffix_owners.get(head, ()):
                    overlaps.setdefault(owner, set()).add(index)
            start = bisect_left(suffixes, other)
            for suffix in islice(suffixes, start, None):
                if not suffix.startswith(other):
                    break
                for owner in suffix_owners[suffix]:
                    overlaps.setdefault(owner, set()).add(index)
        self.prefix_closure: Dict[bytes, Tuple[int, ...]] = {}
        self.overlap_texts: Dict[bytes, Tuple[bytes, ...]] = {}
        for index, text in enumerate(texts):
            ids = list(ids_by_text[text])
            members = sorted(prefixes.get(index, ()))
            for member in members:
                ids.extend(ids_by_text[texts[member]])
            hidden = overlaps.get(index, set()).difference(members, (index,))
            self.prefix_closure[text] = tuple(ids)
            self.overlap_texts[text] = tuple(texts[i] for i in sorted(hidden))
        self.any_overlaps = any(self.overlap_texts.values())


class RegexPrefilter:
    """A multi-pattern matcher over byte strings, API-compatible with
    :class:`repro.nids.automaton.AhoCorasick`.

    Pattern ids are indices into ``patterns``; duplicate patterns all
    report, empty patterns are rejected — identical contracts to the
    automaton so the two engines can be swapped and differentially tested.
    """

    def __init__(
        self,
        patterns: Sequence[bytes],
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.patterns: List[bytes] = [p.lower() for p in patterns]
        for index, pattern in enumerate(self.patterns):
            if not pattern:
                raise ValueError(f"empty pattern at index {index}")
        ids_by_text: Dict[bytes, List[int]] = {}
        for index, pattern in enumerate(self.patterns):
            ids_by_text.setdefault(pattern, []).append(index)
        frozen = {text: tuple(ids) for text, ids in ids_by_text.items()}

        # Long patterns bypass the trie; each is one C ``in`` scan.
        self._long: List[Tuple[bytes, Tuple[int, ...]]] = []
        short_texts: List[bytes] = []
        for text in frozen:  # first-seen order
            if len(text) > MAX_TRIE_PATTERN:
                self._long.append((text, frozen[text]))
            else:
                short_texts.append(text)

        self._chunks: List[_Chunk] = [
            _Chunk(
                short_texts[start : start + chunk_size],
                frozen,
            )
            for start in range(0, len(short_texts), chunk_size)
        ]

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def pattern_count(self) -> int:
        """Number of compiled patterns (API parity across engines)."""
        return len(self.patterns)

    def search(self, haystack: bytes, *, lowered: bool = False) -> Set[int]:
        """Ids of every pattern occurring in the haystack.

        ``lowered`` declares the haystack already lowercased, skipping the
        ``bytes.lower`` allocation (see :meth:`AhoCorasick.search`).

        The scan itself is ``findall`` — the entire haystack sweep and the
        per-occurrence extraction stay inside the C engine; Python touches
        only the (few) *distinct* matched texts.
        """
        if not lowered:
            haystack = haystack.lower()
        found: Set[int] = set()
        for chunk in self._chunks:
            texts = set(chunk.regex.findall(haystack))
            if not texts:
                continue
            closure = chunk.prefix_closure
            for text in texts:
                found.update(closure[text])
            if chunk.any_overlaps:
                overlap_texts = chunk.overlap_texts
                for text in tuple(texts):
                    for candidate in overlap_texts[text]:
                        if candidate not in texts and candidate in haystack:
                            texts.add(candidate)
                            found.update(closure[candidate])
        for text, ids in self._long:
            if text in haystack:
                found.update(ids)
        return found

    def contains_any(self, haystack: bytes, *, lowered: bool = False) -> bool:
        """Whether any pattern occurs (early-exit variant of search)."""
        if not lowered:
            haystack = haystack.lower()
        for chunk in self._chunks:
            if chunk.regex.search(haystack) is not None:
                return True
        for text, _ in self._long:
            if text in haystack:
                return True
        return False


#: Fast patterns per prefilter shard.  At Snort-realistic rule counts (tens
#: of thousands of distinct fast patterns) one monolithic engine pays its
#: entire compile + closure-precompute cost up front and in one piece;
#: sharding bounds each compile unit and lets it happen lazily, on the
#: first payload that actually searches.
DEFAULT_SHARD_SIZE = 2048


class ShardedPrefilter:
    """Fast patterns partitioned across independently compiled shards.

    API-compatible with :class:`RegexPrefilter` / :class:`AhoCorasick`
    (``search`` / ``contains_any`` over global pattern ids), so
    :class:`repro.nids.ruleset.Ruleset` can swap it in without touching the
    candidate-merge logic: shard hits are translated back to global ids and
    the publication-ordered heap merge downstream is unchanged.

    Shards are **lazy**: each one compiles its engine (``engine_factory``
    over its contiguous pattern slice) on first search, and the compile
    counters (:attr:`shards_compiled`, :attr:`compile_seconds`,
    :attr:`searches`) feed :class:`repro.nids.engine.ScanTelemetry` as
    deltas per scan.  Laziness matters in the workers of a parallel scan:
    each forked worker compiles only the shards its own ranges search.
    """

    def __init__(
        self,
        patterns: Sequence[bytes],
        *,
        shard_size: int = DEFAULT_SHARD_SIZE,
        shard_count: Optional[int] = None,
        engine: str = "regex",
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.patterns: List[bytes] = [p.lower() for p in patterns]
        for index, pattern in enumerate(self.patterns):
            if not pattern:
                raise ValueError(f"empty pattern at index {index}")
        if engine not in ("regex", "aho"):
            raise ValueError(f"unknown shard engine {engine!r}")
        self.engine = engine
        total = len(self.patterns)
        if shard_count is not None:
            if shard_count < 1:
                raise ValueError("shard_count must be >= 1")
            shard_size = max(1, -(-total // shard_count))
        self.shard_size = shard_size
        self._bounds: List[Tuple[int, int]] = [
            (start, min(start + shard_size, total))
            for start in range(0, total, shard_size)
        ] or [(0, 0)]
        self._engines: List[Optional[object]] = [None] * len(self._bounds)
        self.shards_compiled = 0
        self.compile_seconds = 0.0
        self.searches = 0

    @property
    def shard_count(self) -> int:
        return len(self._bounds)

    @property
    def pattern_count(self) -> int:
        """Number of compiled patterns (API parity across engines)."""
        return len(self.patterns)

    def _shard(self, index: int):
        """The shard's engine, compiled on first use."""
        engine = self._engines[index]
        if engine is None:
            start, stop = self._bounds[index]
            clock = perf_counter()
            if self.engine == "aho":
                from repro.nids.automaton import AhoCorasick

                engine = AhoCorasick(self.patterns[start:stop])
            else:
                engine = RegexPrefilter(self.patterns[start:stop])
            self.compile_seconds += perf_counter() - clock
            self.shards_compiled += 1
            self._engines[index] = engine
        return engine

    def search(self, haystack: bytes, *, lowered: bool = False) -> Set[int]:
        """Global ids of every pattern occurring in the haystack: the union
        of the per-shard searches, each shard's local ids offset back to
        the global pattern table."""
        if not lowered:
            haystack = haystack.lower()
        self.searches += 1
        found: Set[int] = set()
        for index, (start, stop) in enumerate(self._bounds):
            if start == stop:  # empty pattern table
                continue
            hits = self._shard(index).search(haystack, lowered=True)
            if hits:
                if start:
                    found.update(local + start for local in hits)
                else:
                    found.update(hits)
        return found

    def contains_any(self, haystack: bytes, *, lowered: bool = False) -> bool:
        """Whether any pattern occurs (early-exit across shards)."""
        if not lowered:
            haystack = haystack.lower()
        self.searches += 1
        for index, (start, stop) in enumerate(self._bounds):
            if start == stop:
                continue
            if self._shard(index).contains_any(haystack, lowered=True):
                return True
        return False

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without compiled shard engines: a worker re-compiles its
        shards lazily (and caches the ruleset by digest), so shipping the
        compiled automata would only bloat the transfer blob."""
        state = self.__dict__.copy()
        state["_engines"] = [None] * len(self._bounds)
        state["shards_compiled"] = 0
        state["compile_seconds"] = 0.0
        state["searches"] = 0
        return state
