"""Tests for the regex parser, automata, and multi-pattern engine."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.regex import (
    MultiPatternMatcher,
    RegexSyntaxError,
    compile_ruleset,
    load_ruleset,
    parse,
)
from repro.functions.regex.parser import Alternate, Concat, Literal, Repeat


class TestParser:
    def test_literal(self):
        node = parse("a")
        assert isinstance(node, Literal)
        assert node.bytes_allowed == frozenset({ord("a")})

    def test_concat(self):
        node = parse("ab")
        assert isinstance(node, Concat)
        assert len(node.parts) == 2

    def test_alternation(self):
        node = parse("a|b|c")
        assert isinstance(node, Alternate)
        assert len(node.options) == 3

    def test_class_with_range(self):
        node = parse("[a-c]")
        assert node.bytes_allowed == frozenset({97, 98, 99})

    def test_negated_class(self):
        node = parse("[^\\x00]")
        assert 0 not in node.bytes_allowed
        assert len(node.bytes_allowed) == 255

    def test_hex_escape(self):
        node = parse("\\xff")
        assert node.bytes_allowed == frozenset({255})

    def test_counted_repeat(self):
        node = parse("a{2,4}")
        assert isinstance(node, Repeat)
        assert (node.minimum, node.maximum) == (2, 4)

    def test_unbounded_repeat(self):
        node = parse("a{3,}")
        assert (node.minimum, node.maximum) == (3, None)

    @pytest.mark.parametrize(
        "bad", ["(", ")", "a{", "[", "a{3,1}", "*a", "\\x5", "a\\", "[]"]
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(RegexSyntaxError):
            parse(bad)

    def test_dot_matches_everything(self):
        node = parse(".")
        assert len(node.bytes_allowed) == 256


class TestMatcher:
    def match_ends(self, pattern, payload):
        matcher = MultiPatternMatcher([pattern])
        matches, _ = matcher.scan(payload)
        return [end for _, end in matches]

    def test_plain_literal(self):
        assert self.match_ends("abc", b"xxabcxx") == [5]

    def test_multiple_occurrences(self):
        assert self.match_ends("ab", b"abab") == [2, 4]

    def test_alternation(self):
        matcher = MultiPatternMatcher(["cat|dog"])
        matches, _ = matcher.scan(b"hotdog and cats")
        assert [end for _, end in matches] == [6, 14]

    def test_star(self):
        # a b* c : "ac", "abc", "abbc"
        assert self.match_ends("ab*c", b"ac abc abbc") == [2, 6, 11]

    def test_plus_requires_one(self):
        assert self.match_ends("ab+c", b"ac abc") == [6]

    def test_question(self):
        assert self.match_ends("colou?r", b"color colour") == [5, 12]

    def test_class_and_counted(self):
        assert self.match_ends("[0-9]{3}", b"ab 1234 cd") == [6, 7]

    def test_binary_patterns(self):
        matcher = MultiPatternMatcher(["\\xff\\xd8\\xff"])
        matches, _ = matcher.scan(b"\x00\xff\xd8\xff\x00")
        assert matches == [(0, 4)]

    def test_multi_pattern_ids(self):
        matcher = MultiPatternMatcher(["aaa", "bbb"])
        matches, _ = matcher.scan(b"aaabbb")
        ids = {pid for pid, _ in matches}
        assert ids == {0, 1}

    def test_overlapping_patterns_both_report(self):
        matcher = MultiPatternMatcher(["abc", "bcd"])
        matches, _ = matcher.scan(b"abcd")
        assert (0, 3) in matches
        assert (1, 4) in matches

    def test_contains_match_early_exit(self):
        matcher = MultiPatternMatcher(["needle"])
        assert matcher.contains_match(b"hay needle hay")
        assert not matcher.contains_match(b"just hay")

    def test_empty_pattern_list_rejected(self):
        with pytest.raises(ValueError):
            MultiPatternMatcher([])

    @pytest.mark.parametrize("nullable", ["a*", "a?b*", "x*|yz", "(ab)?"])
    def test_nullable_patterns_rejected(self, nullable):
        """Hyperscan semantics: empty-string-matching patterns are errors."""
        with pytest.raises(ValueError, match="empty string"):
            MultiPatternMatcher([nullable])

    def test_stats_count_bytes(self):
        matcher = MultiPatternMatcher(["zz"])
        _, stats = matcher.scan(b"a" * 100)
        assert stats.bytes_scanned == 100
        assert stats.matches == 0

    def test_work_units_kinds(self):
        matcher = MultiPatternMatcher(["ab"])
        _, stats = matcher.scan(b"abab")
        units = stats.work_units()
        assert units.get("dfa_byte") == 4.0
        assert units.get("regex_report") == 2.0

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_agree_with_python_re(self, payload):
        """Literal matching must agree with the stdlib on arbitrary bytes."""
        import re as stdlib_re

        matcher = MultiPatternMatcher(["\\x41\\x42"])  # "AB"
        matches, _ = matcher.scan(payload)
        expected = [m.end() for m in stdlib_re.finditer(b"AB", payload)]
        assert [end for _, end in matches] == expected

    @given(st.binary(min_size=0, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_deep_visits_bounded_by_bytes(self, payload):
        matcher = compile_ruleset("file_image")
        _, stats = matcher.scan(payload)
        assert 0 <= stats.deep_visits <= stats.bytes_scanned


class TestRulesets:
    def test_names_load(self):
        for name in ("file_image", "file_flash", "file_executable"):
            ruleset = load_ruleset(name)
            assert ruleset.patterns
            assert ruleset.seed_fragments

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_ruleset("file_nonsense")

    def test_deterministic(self):
        assert load_ruleset("file_image").patterns == load_ruleset("file_image").patterns

    def test_fragments_trigger_their_ruleset(self):
        for name in ("file_image", "file_flash", "file_executable"):
            ruleset = load_ruleset(name)
            matcher = compile_ruleset(name)
            hits = sum(
                1
                for fragment in ruleset.seed_fragments
                if matcher.contains_match(b"  " + fragment + b"  ")
            )
            # The clear majority of seed fragments must really match.
            assert hits >= len(ruleset.seed_fragments) * 0.7, name

    def test_density_ordering_on_text_traffic(self):
        """file_image must be the densest rule set on ASCII-ish traffic —
        this drives Key Observation 4."""
        payload = (b"GET /index.html HTTP/1.1 host example payload data " * 30)[:1500]
        densities = {}
        for name in ("file_image", "file_flash", "file_executable"):
            _, stats = compile_ruleset(name).scan(payload)
            densities[name] = stats.deep_visits / stats.bytes_scanned
        assert densities["file_image"] > densities["file_flash"]
        assert densities["file_image"] > 3 * densities["file_executable"]


def _reference_scan(dfa, payload):
    """Byte-at-a-time DFA walk: the oracle for the matcher's root skip."""
    state, matches, deep_visits = dfa.start, [], 0
    for offset, byte in enumerate(payload):
        state = dfa.transitions[state * 256 + byte]
        if dfa.depth_class[state] >= 2:
            deep_visits += 1
        matches.extend((pattern_id, offset + 1) for pattern_id in dfa.accepts[state])
    return matches, deep_visits


class TestScanAgainstReference:
    @pytest.mark.parametrize("name", ["file_image", "file_flash", "file_executable"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_and_stats_equal_byte_walk(self, name, data):
        # Random bytes and text mixed with the rule set's own seed
        # fragments, so scans leave the root and reach accepting states.
        fragments = load_ruleset(name).seed_fragments
        pieces = data.draw(st.lists(st.one_of(
            st.binary(max_size=40),
            st.sampled_from(fragments),
            st.sampled_from([b"GET /index.html HTTP/1.1\r\n", b"content data "]),
        ), max_size=12))
        payload = b"".join(pieces)
        matcher = compile_ruleset(name)
        matches, stats = matcher.scan(payload)
        expected, deep_visits = _reference_scan(matcher.dfa, payload)
        assert matches == expected
        assert (stats.bytes_scanned, stats.deep_visits, stats.matches) == (
            len(payload), deep_visits, len(expected))


class TestPinnedDfas:
    """The subset construction's output for the named rule sets, pinned:
    state numbering, accept sets and depth classes all feed the scan's
    work counts, so a faster construction must reproduce them exactly."""

    PINNED = {
        "file_image": (
            1100, "ab2f8a15c61ab670b9edb867ec958ffe4326972f423b80e14ca23d72e65428a6"),
        "file_flash": (
            98, "c75c7ac87b0abe913c03acbc0d0b0433ba00b39efb50f730ef4a12ed2fee348b"),
        "file_executable": (
            171, "7e0ba910bf13791e3d41ebc8d79146c2e9882c124e793494aec664714e43a683"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_dfa_tables_match_pinned_digest(self, name):
        dfa = compile_ruleset(name).dfa
        digest = hashlib.sha256(
            repr((dfa.transitions, dfa.accepts, dfa.depth_class)).encode()
        ).hexdigest()
        assert (dfa.state_count, digest) == self.PINNED[name]
