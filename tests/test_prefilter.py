"""Tests for the C-speed regex fast-pattern prefilter.

The unit tests mirror ``tests/test_automaton.py`` case for case — the two
engines advertise the same contract — and the hypothesis properties check
the strong form directly: :class:`RegexPrefilter` and
:class:`AhoCorasick` nominate *identical* pattern-id sets on arbitrary
inputs, including dense self-overlapping alphabets and awkward chunk
boundaries.  The per-chunk closure tables are also held tuple for tuple to
the pairwise sweep they replaced (``_pairwise_tables``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nids.automaton import AhoCorasick
from repro.nids.prefilter import (
    DEFAULT_CHUNK_SIZE,
    MAX_TRIE_PATTERN,
    RegexPrefilter,
    _Chunk,
    _trie_regex,
)
from repro.nids.scale import ScaleConfig, generate_scaled


class TestRegexPrefilter:
    def test_basic_search(self):
        prefilter = RegexPrefilter([b"he", b"she", b"his", b"hers"])
        assert prefilter.search(b"ushers") == {0, 1, 3}
        assert prefilter.search(b"his hen") == {0, 2}
        assert prefilter.search(b"nothing") == set()

    def test_case_insensitive(self):
        prefilter = RegexPrefilter([b"${JNDI:"])
        assert prefilter.search(b"x=${jndi:ldap}") == {0}
        assert prefilter.contains_any(b"X=${JnDi:LDAP}")

    def test_overlapping_patterns(self):
        prefilter = RegexPrefilter([b"ab", b"abc", b"bc", b"c"])
        assert prefilter.search(b"abc") == {0, 1, 2, 3}

    def test_pattern_is_prefix_of_other(self):
        prefilter = RegexPrefilter([b"jndi", b"jndi:ldap"])
        assert prefilter.search(b"${jndi:ldap://x}") == {0, 1}
        assert prefilter.search(b"${jndi:rmi://x}") == {0}

    def test_duplicate_patterns_both_reported(self):
        prefilter = RegexPrefilter([b"dup", b"dup"])
        assert prefilter.search(b"a dup b") == {0, 1}

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            RegexPrefilter([b"ok", b""])

    def test_empty_haystack(self):
        prefilter = RegexPrefilter([b"x"])
        assert prefilter.search(b"") == set()
        assert not prefilter.contains_any(b"")

    def test_binary_patterns(self):
        prefilter = RegexPrefilter([b"\x00\xff", b"\xde\xad\xbe\xef"])
        assert prefilter.search(b"aa\x00\xffbb\xde\xad\xbe\xef") == {0, 1}

    def test_pattern_hidden_inside_reported_match(self):
        # The greedy trie reports "aaba" at position 0; "abab" starts inside
        # that span and must be recovered by the occurrence closure.
        prefilter = RegexPrefilter([b"aaba", b"abab"])
        assert prefilter.search(b"aabab") == {0, 1}

    def test_lowered_flag_skips_lowering(self):
        prefilter = RegexPrefilter([b"NeEdLe"])
        haystack = b"xx NEEDLE xx"
        assert prefilter.search(haystack) == {0}
        assert prefilter.search(haystack.lower(), lowered=True) == {0}
        # Declaring an *unlowered* haystack lowered is the caller's bug:
        # uppercase bytes are then matched literally, like the automaton.
        assert prefilter.search(haystack, lowered=True) == set()
        assert prefilter.contains_any(haystack.lower(), lowered=True)

    def test_chunking_preserves_results(self):
        patterns = [b"ab", b"abc", b"bc", b"c", b"xyz", b"yz"]
        whole = RegexPrefilter(patterns)
        chunked = RegexPrefilter(patterns, chunk_size=2)
        assert whole.chunk_count == 1
        assert chunked.chunk_count == 3
        for haystack in (b"abc", b"xyzc", b"", b"nothing", b"abcxyz"):
            assert chunked.search(haystack) == whole.search(haystack)
            assert chunked.contains_any(haystack) == whole.contains_any(
                haystack
            )

    def test_long_patterns_bypass_trie(self):
        long_pattern = b"L" * (MAX_TRIE_PATTERN + 1)
        prefilter = RegexPrefilter([b"short", long_pattern])
        assert prefilter.search(b"x" + long_pattern.lower() + b"x") == {1}
        assert prefilter.search(b"a short one") == {0}
        assert prefilter.contains_any(long_pattern)
        # Only the short pattern occupies the trie.
        assert prefilter.chunk_count == 1

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            RegexPrefilter([b"x"], chunk_size=0)

    def test_default_chunk_size_sane(self):
        assert 1 <= DEFAULT_CHUNK_SIZE
        patterns = [bytes([65 + i % 26, 97 + i // 26]) for i in range(40)]
        prefilter = RegexPrefilter(patterns)
        assert prefilter.chunk_count == 1

    def test_trie_regex_source(self):
        # Single-edge runs emit as one literal; a terminal with extensions
        # becomes an optional group, tried greedily first.
        assert _trie_regex([b"abc", b"abd", b"a"]).pattern == b"a(?:b(?:c|d))?"
        assert _trie_regex([b"he", b"she", b"his", b"hers"]).pattern == (
            b"(?:h(?:e(?:rs)?|is)|she)"
        )
        assert _trie_regex([b".*", b"a+b"]).pattern == b"(?:\\.\\*|a\\+b)"

    def test_regex_metacharacters_are_literal(self):
        prefilter = RegexPrefilter([b".*", b"a+b", b"(x)"])
        assert prefilter.search(b"literal .* here") == {0}
        assert prefilter.search(b"a+b and (x)") == {1, 2}
        assert prefilter.search(b"aab xx") == set()


@given(
    st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=8),
    st.binary(max_size=120),
)
@settings(max_examples=300)
def test_search_equivalent_to_automaton(patterns, haystack):
    """Property: the regex prefilter nominates exactly the automaton's
    candidate set — the differential-equivalence guarantee the detection
    engines rely on."""
    automaton = AhoCorasick(patterns)
    prefilter = RegexPrefilter(patterns)
    expected = automaton.search(haystack)
    assert prefilter.search(haystack) == expected
    assert prefilter.contains_any(haystack) == automaton.contains_any(
        haystack
    )
    lowered = haystack.lower()
    assert prefilter.search(lowered, lowered=True) == expected
    assert automaton.search(lowered, lowered=True) == expected


@given(
    st.lists(
        st.text(alphabet="ab", min_size=1, max_size=5).map(
            lambda s: s.encode()
        ),
        min_size=1,
        max_size=10,
    ),
    st.text(alphabet="ab", max_size=60).map(lambda s: s.encode()),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=300)
def test_dense_overlaps_equivalent_to_automaton(patterns, haystack, chunk):
    """Property: a two-letter alphabet maximises self-overlap (prefixes,
    suffix bridges, patterns hidden inside greedy matches) and small chunk
    sizes force patterns apart — the closure logic must still agree with
    the automaton exactly."""
    automaton = AhoCorasick(patterns)
    prefilter = RegexPrefilter(patterns, chunk_size=chunk)
    assert prefilter.search(haystack) == automaton.search(haystack)
    assert prefilter.contains_any(haystack) == automaton.contains_any(
        haystack
    )


def _pairwise_tables(texts, ids_by_text):
    """Oracle: the pairwise O(chunk²) closure sweep the suffix index
    replaced, kept verbatim so the two can be compared table for table."""
    prefix_closure = {}
    overlap_texts = {}
    suffix_owners = {}
    for text in texts:
        for cut in range(1, len(text)):
            suffix_owners.setdefault(text[cut:], []).append(text)
    straddle_for = {}
    for other in texts:
        for j in range(1, len(other)):  # proper prefixes: j < len(other)
            owners = suffix_owners.get(other[:j])
            if owners:
                for text in owners:
                    if text is not other:
                        straddle_for.setdefault(text, set()).add(other)
    empty = set()
    for text in texts:
        ids = list(ids_by_text[text])
        interior = text[1:]
        straddlers = straddle_for.get(text, empty)
        overlaps = []
        for other in texts:
            if other is text:
                continue
            if text.startswith(other):  # proper prefix (texts are unique)
                ids.extend(ids_by_text[other])
                continue
            if other in straddlers or other in interior:
                overlaps.append(other)
        prefix_closure[text] = tuple(ids)
        overlap_texts[text] = tuple(overlaps)
    return prefix_closure, overlap_texts


def _chunk_inputs(patterns, chunk_size):
    """The (texts, ids_by_text) each :class:`_Chunk` of a
    ``RegexPrefilter(patterns, chunk_size=chunk_size)`` is built from."""
    ids_by_text = {}
    for index, pattern in enumerate(patterns):
        ids_by_text.setdefault(pattern.lower(), []).append(index)
    frozen = {text: tuple(ids) for text, ids in ids_by_text.items()}
    short = [text for text in frozen if len(text) <= MAX_TRIE_PATTERN]
    return [
        (short[start : start + chunk_size], frozen)
        for start in range(0, len(short), chunk_size)
    ]


def _assert_tables_match_oracle(patterns, chunk_size):
    for texts, ids_by_text in _chunk_inputs(patterns, chunk_size):
        chunk = _Chunk(texts, ids_by_text)
        prefix_closure, overlap_texts = _pairwise_tables(texts, ids_by_text)
        # Same keys, same tuples, same order — not merely equivalent sets.
        assert list(chunk.prefix_closure.items()) == list(
            prefix_closure.items()
        )
        assert list(chunk.overlap_texts.items()) == list(
            overlap_texts.items()
        )
        assert chunk.any_overlaps == any(overlap_texts.values())


_boundary_lengths = st.sampled_from(
    [1, 2, 3, MAX_TRIE_PATTERN - 1, MAX_TRIE_PATTERN, MAX_TRIE_PATTERN + 1]
)


@given(
    st.lists(
        st.one_of(
            # Two-letter alphabet: maximal self-overlap.
            st.text(alphabet="ab", min_size=1, max_size=6).map(str.encode),
            # Mixed case: duplicates appear only after lowercasing.
            st.text(alphabet="aAbB", min_size=1, max_size=4).map(str.encode),
            st.binary(min_size=1, max_size=5),
            # Lengths either side of the trie cut-off.
            st.builds(
                lambda unit, length: (unit * length)[:length],
                st.sampled_from([b"a", b"ab", b"ba", b"aab"]),
                _boundary_lengths,
            ),
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=400)
def test_closure_tables_match_pairwise_oracle(patterns, chunk_size):
    """Property: the suffix-index closure build reproduces the pairwise
    sweep's ``prefix_closure`` and ``overlap_texts`` exactly."""
    _assert_tables_match_oracle(patterns, chunk_size)


def test_closure_tables_match_oracle_on_scaled_corpus():
    """Every chunk of the 2,000-rule scaled corpus's fast-pattern table
    builds the oracle's tables, tuple for tuple."""
    patterns = []
    seen = set()
    for scaled in generate_scaled(ScaleConfig(size=2000)):
        fast = scaled.rule.fast_pattern
        if fast is not None and fast.pattern.lower() not in seen:
            seen.add(fast.pattern.lower())
            patterns.append(fast.pattern.lower())
    assert len(patterns) > DEFAULT_CHUNK_SIZE
    _assert_tables_match_oracle(patterns, DEFAULT_CHUNK_SIZE)
