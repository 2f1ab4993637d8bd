"""Containment semantics against hand scans and naive re-enumeration."""

import math
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vincular import perms
from vincular.perms import (
    VincularPattern,
    avoids_circular,
    avoids_linear,
    closes,
)

from occurrences import iter_occurrences

P2_31 = VincularPattern((2, 3, 1), bonds={1})
P12_3 = VincularPattern((1, 2, 3), bonds={0})
P41_23 = VincularPattern((4, 1, 2, 3), bonds={2})
CIRC = VincularPattern((2, 3, 4, 1), bonds={0})
REDUCED = (P12_3, P41_23)


def ranks(values):
    """Each of distinct values replaced by its rank, smallest -> 1: the
    brute-force references compare patterns by it."""
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def test_single_occurrence_in_41523():
    # 4,5,2 at 0-based indices (0,2,3) is the only occurrence: the final
    # two pattern letters are glued, so 4,5,3 does not count.
    assert list(iter_occurrences((4, 1, 5, 2, 3), P2_31)) == [(0, 2, 3)]


def test_host_shorter_than_pattern():
    assert list(iter_occurrences((2, 1, 3), P41_23)) == []
    assert avoids_linear((1, 2), REDUCED)


def test_glued_ascent_occurrences_in_identity():
    assert list(iter_occurrences((1, 2, 3, 4), P12_3)) == [(0, 1, 2), (0, 1, 3), (1, 2, 3)]


def test_45132_avoids_both_reduced_patterns():
    assert avoids_linear((4, 5, 1, 3, 2), REDUCED)


def test_3142_avoids_glued_tail_pattern():
    # The only length-4 index tuple is the whole word, and 3142 is not
    # order-isomorphic to 4123.
    assert list(iter_occurrences((3, 1, 4, 2), P41_23)) == []
    assert avoids_linear((3, 1, 4, 2), (P41_23,))


def test_identity_word_contains_circular_pattern():
    # Rotating 1234 produces 2341 itself, a literal occurrence.
    assert not avoids_circular((1, 2, 3, 4), (CIRC,))


def test_five_of_six_classes_avoid_at_n4():
    hits = sum(avoids_circular((1,) + rest, (CIRC,)) for rest in permutations((2, 3, 4)))
    assert hits == 5


def test_short_words_avoid_circularly():
    for n in (1, 2, 3):
        for w in permutations(range(1, n + 1)):
            assert avoids_circular(w, (CIRC,))


def test_pattern_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        VincularPattern((1, 3), bonds=set())
    with pytest.raises(ValueError, match="bond positions"):
        VincularPattern((1, 2), bonds={5})
    with pytest.raises(ValueError, match="not a permutation"):
        P12_3._replace(entries=(1, 1, 3))
    with pytest.raises(AttributeError):
        P12_3.bonds = frozenset()


def _classical_contains(host, pat):
    k = len(pat)
    return any(
        ranks([host[i] for i in idx]) == pat
        for idx in combinations(range(len(host)), k)
    )


def test_no_bonds_matches_classical_containment():
    pats = [(1, 2, 3), (2, 3, 1), (3, 2, 1), (1, 3, 2)]
    for n in range(1, 7):
        for host in permutations(range(1, n + 1)):
            for entries in pats:
                pat = VincularPattern(entries)
                got = bool(list(iter_occurrences(host, pat)))
                assert got == _classical_contains(host, entries)


def test_all_bonds_matches_window_scan():
    pat = VincularPattern((2, 1, 3), bonds={0, 1})
    for host in permutations(range(1, 6)):
        got = list(iter_occurrences(host, pat))
        want = [
            (i, i + 1, i + 2)
            for i in range(3)
            if ranks(host[i:i + 3]) == (2, 1, 3)
        ]
        assert got == want


def threshold_scan(pattern, side):
    """The scan that perms generates for pattern, side 1 or -1, and the
    oracle's walks inline: scan(w, bound)."""
    namespace = {}
    exec(perms._closes_source(pattern.entries, pattern.bonds, side), namespace)
    return namespace["scan"]


def test_closes_matches_backtracking():
    # every pattern of length 1..4 with every subset of bonds, on every
    # word of length <= 6: closed iff some occurrence ends at the last
    # index; and both scans, at a bound below, inside and above the
    # word's letters, give the least (greatest) letter in the pattern's
    # largest (smallest) place over those occurrences, if beyond the bound
    patterns = [
        VincularPattern(entries, bonds)
        for k in range(1, 5)
        for entries in permutations(range(1, k + 1))
        for r in range(k)
        for bonds in combinations(range(k - 1), r)
    ]
    assert len(patterns) == 1 + 2 * 2 + 6 * 4 + 24 * 8
    words = [w for m in range(7) for w in permutations(range(1, m + 1))]
    for pat in patterns:
        test = closes(pat)
        k = len(pat.entries)
        top, bottom = pat.entries.index(k), pat.entries.index(1)
        scans = threshold_scan(pat, 1), threshold_scan(pat, -1)
        for w in words:
            ends = [occ for occ in iter_occurrences(w, pat) if occ[-1] == len(w) - 1]
            assert test(w) == bool(ends), (pat, w)
            for bound in (0, len(w) // 2 + 1, len(w) + 1):
                assert scans[0](w, bound) == min([bound, *(w[o[top]] for o in ends)]), (
                    pat, w, bound)
                assert scans[1](w, bound) == max([bound, *(w[o[bottom]] for o in ends)]), (
                    pat, w, bound)


def test_closes_on_letters_that_are_not_1_to_n():
    # prefixes handed over by the oracle hold any distinct letters
    assert closes(P12_3)((7, 9, 2, 11))
    assert not closes(P12_3)((9, 12, 7, 11))
    assert closes(P41_23)((9, 1, 3, 2, 5, 6))


def test_empty_pattern_closes_every_word():
    empty = VincularPattern(())
    assert closes(empty)(()) and closes(empty)((2, 1))
    assert not avoids_linear((), (empty,))
    assert list(iter_occurrences((), empty)) == [()]


def test_pattern_compiled_once():
    closes.cache_clear()
    for _ in range(3):
        for host in permutations(range(1, 5)):
            avoids_linear(host, (VincularPattern((1, 2, 3), bonds={0}),))
            avoids_circular(host, (VincularPattern((2, 3, 4, 1), bonds={0}),))
    assert closes.cache_info().misses == 2
    assert closes(VincularPattern((1, 2, 3), bonds={0})) is closes(P12_3)
    # the entries and bonds are normalised, so any iterables give one pattern
    listed = VincularPattern([2, 3, 4, 1], {0})
    assert listed == CIRC and hash(listed) == hash(CIRC)
    assert (listed.entries, listed.bonds) == ((2, 3, 4, 1), frozenset({0}))
    assert closes(listed) is closes(CIRC)
    assert closes.cache_info().misses == 2


def _word(n):
    return st.permutations(tuple(range(1, n + 1))).map(tuple)


@given(st.integers(1, 6).flatmap(_word))
def test_avoidance_iff_no_occurrence(host):
    rots = [host[m:] + host[:m] for m in range(len(host))]
    for pat in (P12_3, P41_23, CIRC, P2_31):
        assert avoids_linear(host, (pat,)) == (not list(iter_occurrences(host, pat)))
        assert avoids_circular(host, (pat,)) == (
            not any(list(iter_occurrences(rot, pat)) for rot in rots))
    assert avoids_linear(host, REDUCED) == (
        not any(list(iter_occurrences(host, pat)) for pat in REDUCED))


@given(st.integers(1, 6).flatmap(_word))
def test_circular_avoidance_is_rotation_invariant(host):
    values = {avoids_circular(host[m:] + host[:m], (CIRC,)) for m in range(len(host))}
    assert len(values) == 1


# Every pattern of length 2 to 4 whose last gap is unbonded and whose last
# letter is its largest or its smallest: those the oracle's walk carries a
# threshold for.
LOOKAHEAD_PATTERNS = [
    VincularPattern(entries, bonds)
    for k in range(2, 5)
    for entries in permutations(range(1, k + 1)) if entries[-1] in (1, k)
    for r in range(k - 1)
    for bonds in combinations(range(k - 2), r)
]


@given(st.lists(st.integers(-40, 40), unique=True, max_size=7), st.integers(-45, 45))
def test_threshold_scan_is_the_extreme_letter_of_the_front(word, x):
    # P' is P less its last letter (one letter when P has two); the scan
    # tracks the letter in P's largest place (side 1) or smallest (side -1)
    assert len(LOOKAHEAD_PATTERNS) == 2 + 8 + 48
    word = tuple(word)
    for pat in LOOKAHEAD_PATTERNS:
        k = len(pat.entries)
        side = 1 if pat.entries[-1] == k else -1
        front = VincularPattern(ranks(pat.entries[:-1]), pat.bonds)
        place = front.entries.index(k - 1 if side == 1 else 1)
        scan = threshold_scan(front, side)
        extreme, inf = (min, math.inf) if side == 1 else (max, -math.inf)
        occs = list(iter_occurrences(word, front))
        ends = [word[occ[place]] for occ in occs if occ[-1] == len(word) - 1]
        assert scan(word, inf) == extreme(ends, default=inf), (pat, word)
        assert scan(word, x) == extreme([*ends, x]), (pat, word, x)
        # folded over the prefixes: the extreme over every occurrence, which
        # decides whether P closes the word followed by any new letter x
        t = inf
        for m in range(1, len(word) + 1):
            t = scan(word[:m], t)
        assert t == extreme((word[occ[place]] for occ in occs), default=inf)
        if x not in word:
            assert closes(pat)(word + (x,)) == (x > t if side == 1 else x < t), (pat, word, x)
