import itertools
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainalign import lexical
from chainalign.lexical import (
    LabelNorm,
    SimilarityConfig,
    edit_similarity,
    label_set_confidence,
    label_set_weights,
    labels_share_exact_match,
    levenshtein,
    levenshtein_matrix,
    normalize_label,
)

from oracles import (
    bag_distance,
    label_set_weights_full,
    levenshtein_memoized,
    levenshtein_recursive,
)

short_text = st.text(alphabet="abcxyz_- ", max_size=8)


class TestLevenshtein:
    def test_both_empty(self):
        assert levenshtein("", "") == 0

    def test_one_empty_costs_length(self):
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "abcd") == 4

    def test_flaw_lawn(self):
        # frozen from the plain recursive oracle
        assert levenshtein_recursive("flaw", "lawn") == 2
        assert levenshtein("flaw", "lawn") == 2

    def test_exhaustive_small_against_plain_recursion(self):
        words = [
            "".join(p)
            for n in range(4)
            for p in itertools.product("ab", repeat=n)
        ]
        for a in words:
            for b in words:
                assert levenshtein(a, b) == levenshtein_recursive(a, b)

    @given(short_text, short_text)
    def test_matches_memoized_recursion(self, a, b):
        assert levenshtein(a, b) == levenshtein_memoized(a, b)

    @given(short_text, short_text)
    def test_symmetric(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text, short_text)
    def test_bounded_by_longer_string(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    def test_triangle_inequality_random_triples(self):
        rng = random.Random(11)
        for _ in range(500):
            a, b, c = (
                "".join(rng.choices("abcde", k=rng.randrange(9))) for _ in range(3)
            )
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def oracle_matrix(a, b):
    """levenshtein_memoized over every pair, each distinct pair computed once."""
    distinct = {(x, y): levenshtein_memoized(x, y) for x in set(a) for y in set(b)}
    return [[distinct[x, y] for y in b] for x in a]


class TestLevenshteinMatrix:
    def test_abc_strings_against_memoized_recursion(self):
        words = [
            "".join(p)
            for n in range(5)
            for p in itertools.product("abc", repeat=n)
        ]
        assert levenshtein_matrix(words, words).tolist() == oracle_matrix(words, words)

    def test_seeded_lists_with_empty_and_non_ascii_labels(self):
        rng = random.Random(23)
        alphabet = "ab_-é字ßẞ"
        for _ in range(150):
            a, b = (
                ["".join(rng.choices(alphabet, k=rng.randrange(9)))
                 for _ in range(rng.randrange(7))] + rng.choice([[], [""]])
                for _ in range(2)
            )
            got = levenshtein_matrix(a, b)
            assert got.shape == (len(a), len(b))
            assert got.tolist() == oracle_matrix(a, b)

    def test_folded_labels(self):
        raw = ["_-", "Straße", "STRASSE", "Has_A", "hasa", "x"]
        for norm in LabelNorm:
            labels = [normalize_label(s, SimilarityConfig(label_normalization=norm)) for s in raw]
            assert levenshtein_matrix(labels, labels).tolist() == oracle_matrix(labels, labels)
        folded = [normalize_label(s, SimilarityConfig()) for s in raw]
        assert folded[0] == "" and folded[1] == folded[2] == "strasse"

    def test_list_spanning_several_blocks(self):
        rng = random.Random(29)
        b = ["".join(rng.choices("abc", k=rng.randrange(31))) for _ in range(30)]
        a = ["".join(rng.choices("abc", k=rng.randrange(4))) for _ in range(900)]
        rows_per_block = lexical._BLOCK_CELLS // (len(b) * (max(map(len, b)) + 1))
        assert len(a) > 2 * rows_per_block
        assert levenshtein_matrix(a, b).tolist() == oracle_matrix(a, b)

    # NUL is a code point like any other (the kernel pads with -1); a lone
    # surrogate is a code point of its own
    kernel_labels = st.lists(st.text(alphabet="ab_é字ß\x00\ud800\U0010ffff", max_size=70),
                             max_size=6)

    @settings(max_examples=60, deadline=None)
    @given(kernel_labels, kernel_labels, st.integers(1, 1 << 9))
    @example(["a" * 70, "", "字b" * 35], ["ab" * 35, "b" * 69, "\x00"], 1 << 9)
    def test_matches_scalar_levenshtein(self, a, b, block_cells):
        # a small block forces one to several rows per block; the label
        # lengths set the number of steps and of insertion columns
        with mock.patch.object(lexical, "_BLOCK_CELLS", block_cells):
            got = levenshtein_matrix(a, b)
        assert got.dtype == np.int32
        assert got.tolist() == [[levenshtein(x, y) for y in b] for x in a]


class TestDistances:
    """``_distances``, the one blocked driver, over a grid and over the same
    pairs as a flat list."""

    labels = st.lists(st.text(alphabet="ab\x00\ud800é", max_size=9), min_size=1, max_size=5)

    @settings(max_examples=80, deadline=None)
    @given(labels, labels, st.integers(1, 1 << 9))
    # one row: j, shaped (1, columns), is as long as the grid
    @example(["ab"], ["", "b\x00", "\ud800a"], 1)
    @example(["", "a"], ["ba"], 1)
    def test_grid_and_pair_list_agree(self, a, b, block_cells):
        points_a, len_a = lexical._code_points(a)
        points_b, len_b = lexical._code_points(b)
        rows, columns = np.arange(len(a))[:, None], np.arange(len(b))[None]
        i, j = (x.ravel() for x in np.broadcast_arrays(rows, columns))
        with mock.patch.object(lexical, "_BLOCK_CELLS", block_cells):
            grid = lexical._distances(points_a, len_a, points_b, len_b, rows, columns)
            pairs = lexical._distances(points_a, len_a, points_b, len_b, i, j)
        assert grid.shape == (len(a), len(b)) and pairs.shape == (len(a) * len(b),)
        assert grid.ravel().tolist() == pairs.tolist()
        assert grid.tolist() == [[levenshtein(x, y) for y in b] for x in a]


class TestCutoff:
    """``levenshtein_matrix`` with a cutoff, and the label-set weights that
    use it, against the full distance of every pair."""

    # short labels over few letters, so that many pairs lie within a small
    # cutoff; NUL (code point 0) sorts just after the padding value -1, a
    # lone surrogate is its own code point
    near_labels = st.lists(st.text(alphabet="abé\x00\ud800", max_size=12), min_size=1, max_size=6)

    @settings(max_examples=80, deadline=None)
    @given(near_labels, near_labels)
    @example(["ab", "abcdef", ""], ["ba", "abdcfe", "\x00"])  # anagrams: bag 0
    def test_bag_distance_bounds_edit_distance(self, a, b):
        bound = np.vstack([block for _, block in lexical._bag_distances(
            *lexical._code_points(a), *lexical._code_points(b))])
        assert bound.tolist() == [[bag_distance(x, y) for y in b] for x in a]
        assert all(bag_distance(x, y) <= levenshtein_memoized(x, y) for x in a for y in b)

    @settings(max_examples=80, deadline=None)
    @given(near_labels, near_labels, st.integers(0, 13), st.integers(1, 1 << 9))
    @example(["ab", "abcdef", "é" * 12], ["ba", "abdcfe", "éaé"], 2, 1)
    def test_caps_scalar_levenshtein(self, a, b, cutoff, block_cells):
        # a small block spreads the bag bound and the pair list over
        # several blocks
        with mock.patch.object(lexical, "_BLOCK_CELLS", block_cells):
            got = levenshtein_matrix(a, b, cutoff)
        assert got.dtype == np.int32
        assert got.tolist() == [[min(levenshtein(x, y), cutoff + 1) for y in b] for x in a]

    @pytest.mark.parametrize("cutoff", [-1, -5, 1.0, 2.5, "2"])
    def test_cutoff_other_than_a_non_negative_integer_rejected(self, cutoff):
        # a negative cutoff would cap every distance at cutoff + 1 <= 0, as
        # if every pair matched
        with pytest.raises(ValueError, match=re.escape(repr(cutoff))):
            levenshtein_matrix(["abc", "x"], ["abd", "yyy"], cutoff)

    def test_pairs_past_the_cutoff_never_reach_the_recurrence(self):
        a = ["abcdef", "ghijkl", "abcdeg", "fedcba"]
        b = ["abcdef", "zzzzzzzz", "bacdef"]
        near = [(i, j) for i, x in enumerate(a) for j, y in enumerate(b) if bag_distance(x, y) <= 2]
        assert near == [(0, 0), (0, 2), (2, 0), (2, 2), (3, 0), (3, 2)]
        with mock.patch.object(lexical, "_wagner_fischer", wraps=lexical._wagner_fischer) as dp:
            got = levenshtein_matrix(a, b, 2)
        (call,) = dp.call_args_list
        steps_a, columns_b = call.args
        assert steps_a.shape == (6, len(near)) and columns_b.shape == (6, len(near))
        assert got.tolist() == [[min(levenshtein(x, y), 3) for y in b] for x in a]

    def test_cutoff_reaching_the_longest_label_runs_one_grid(self):
        a, b = ["abc", "x"], ["cba", "", "xyz"]
        with mock.patch.object(lexical, "_bag_distances") as bound:
            got = levenshtein_matrix(a, b, 3)
        assert bound.call_count == 0
        assert got.tolist() == [[levenshtein(x, y) for y in b] for x in a]

    gammas = st.one_of(
        st.sampled_from([0.0, 0.25, 1 / 3, 0.5, math.nextafter(0.5, 1), 0.75,
                         math.nextafter(0.75, 1), 1.0]),
        st.floats(0.0, 1.0))
    # "_- " folds away, so a label can be empty after folding; "ß" folds to
    # "ss"; repeated letters and anagrams come from the small alphabet
    set_labels = st.text(alphabet="abAB_- é字ß\ud800\U0010ffff", max_size=9)
    label_sets = st.lists(st.frozensets(set_labels, min_size=1, max_size=3),
                          min_size=1, max_size=6)

    @settings(max_examples=100, deadline=None)
    @given(label_sets, label_sets, gammas, st.sampled_from(list(LabelNorm)),
           st.integers(1, 1 << 9))
    @example([frozenset({"abcd"}), frozenset({"ba", "_-"})],
             [frozenset({"abdc"}), frozenset({"AB"})], 0.5, LabelNorm.FOLD, 1 << 18)
    # distance 3 and bag 3: weight 3 at gamma = 1/3 (K = 3), 0 just above (K = 2)
    @example([frozenset({"abcdef"})], [frozenset({"abcxyz"})], 1 / 3, LabelNorm.NONE, 1 << 18)
    @example([frozenset({"abcdef"})], [frozenset({"abcxyz"})], math.nextafter(1 / 3, 1),
             LabelNorm.NONE, 1 << 18)
    def test_label_set_weights_match_full_matrix(self, sets1, sets2, gamma, norm, block_cells):
        cfg = SimilarityConfig(gamma=gamma, label_normalization=norm)
        expected = label_set_weights_full(sets1, sets2, cfg)
        with mock.patch.object(lexical, "_BLOCK_CELLS", block_cells):
            got = label_set_weights(sets1, sets2, cfg)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert (got == expected).all()

    def test_label_set_weights_over_several_blocks(self):
        rng = random.Random(31)

        def label():
            return "".join(rng.choices("abcdef", k=rng.randrange(1, 10)))

        sets1 = [frozenset(label() for _ in range(rng.randrange(1, 3))) for _ in range(900)]
        sets2 = [frozenset({label()}) for _ in range(500)]
        distinct = [len({s for group in sets for s in group}) for sets in (sets1, sets2)]
        assert distinct[0] * distinct[1] > lexical._BLOCK_CELLS  # two bag-bound blocks or more
        cfg = SimilarityConfig()
        assert (label_set_weights(sets1, sets2, cfg) == label_set_weights_full(sets1, sets2, cfg)).all()


class TestEditSimilarity:
    def test_identical_strings(self):
        assert edit_similarity("same", "same") == 1.0

    def test_distance_one_gives_three_quarters(self):
        assert edit_similarity("cat", "cats") == 0.75

    def test_reciprocal_branch(self):
        # distance computed by the plain recursive oracle: 4
        assert levenshtein_recursive("ab", "xyxy") == 4
        assert edit_similarity("ab", "xyxy") == 0.25

    @pytest.mark.parametrize("dist", range(11))
    def test_exact_branch_values(self, dist):
        a, b = "z" * 0, "q" * dist  # unequal letters: distance is exactly dist
        expected = 1.0 if dist == 0 else (0.75 if dist == 1 else 1.0 / dist)
        assert edit_similarity(a, b) == expected

    @given(short_text, short_text)
    def test_range_is_half_open_unit(self, a, b):
        sigma = edit_similarity(a, b)
        assert 0.0 < sigma <= 1.0

    def test_non_increasing_in_distance(self):
        sigmas = [edit_similarity("", "x" * d) for d in range(12)]
        assert all(s1 >= s2 for s1, s2 in zip(sigmas, sigmas[1:]))


class TestEdgeConfidence:
    """Edge confidence of two single labels, as singleton label sets."""

    def test_identical_labels(self):
        assert label_set_confidence({"hasA"}, {"hasA"}) == 1.0

    def test_distance_one_pair(self):
        # sigma = 3/4 over the default gamma = 0.5, confidence 1/sigma
        cfg = SimilarityConfig(label_normalization="none")
        assert label_set_confidence({"m"}, {"m'"}, cfg) == pytest.approx(4 / 3)

    def test_below_threshold_is_zero(self):
        cfg = SimilarityConfig(label_normalization="none")
        assert edit_similarity("ab", "xyxy") == 0.25
        assert label_set_confidence({"ab"}, {"xyxy"}, cfg) == 0.0

    def test_normalization_equates_underscore_variants(self):
        assert label_set_confidence({"hasA"}, {"has_a"}) == 1.0

    def test_without_normalization_they_differ(self):
        cfg = SimilarityConfig(label_normalization="none")
        assert label_set_confidence({"hasA"}, {"has_a"}, cfg) != 1.0

    @given(st.text(alphabet="abcx", min_size=1, max_size=6),
           st.text(alphabet="abcx", min_size=1, max_size=6))
    def test_symmetric(self, a, b):
        assert label_set_confidence({a}, {b}) == label_set_confidence({b}, {a})

    @given(st.text(alphabet="abcx", min_size=1, max_size=6),
           st.text(alphabet="abcx", min_size=1, max_size=6),
           st.floats(min_value=0.0, max_value=1.0))
    def test_positive_iff_sigma_reaches_gamma(self, a, b, gamma):
        cfg = SimilarityConfig(gamma=gamma)
        sigma = edit_similarity(normalize_label(a, cfg), normalize_label(b, cfg))
        conf = label_set_confidence({a}, {b}, cfg)
        assert (conf > 0) == (sigma >= gamma)

    @given(st.text(alphabet="abcx", min_size=1, max_size=6),
           st.text(alphabet="abcx", min_size=1, max_size=6))
    def test_nonzero_range(self, a, b):
        cfg = SimilarityConfig(gamma=0.5)
        conf = label_set_confidence({a}, {b}, cfg)
        assert conf == 0.0 or 1.0 <= conf <= 1.0 / cfg.gamma

    def test_gamma_one_is_exact_match_regime(self):
        cfg = SimilarityConfig(gamma=1.0)
        assert label_set_confidence({"hasA"}, {"has_a"}, cfg) == 1.0  # equal after folding
        assert label_set_confidence({"hasA"}, {"hasB"}, cfg) == 0.0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            SimilarityConfig(gamma=1.5)


class TestLabelSetConfidence:
    def test_empty_set_scores_zero(self):
        assert label_set_confidence(set(), {"m'"}) == 0.0
        assert label_set_confidence({"m"}, set()) == 0.0

    def test_singletons_reduce_to_edge_confidence(self):
        cfg = SimilarityConfig(label_normalization="none")
        assert label_set_confidence({"m"}, {"m'"}, cfg) == 1.0 / edit_similarity("m", "m'")

    def test_best_pair_wins(self):
        # enumerating the cross product by hand: ("hasA", "has_a") folds to
        # an exact match, which beats every ("partOf", ...) pairing
        cfg = SimilarityConfig()
        assert label_set_confidence({"hasA", "partOf"}, {"has_a"}, cfg) == 1.0

    def test_no_pair_reaching_gamma_scores_zero(self):
        cfg = SimilarityConfig(label_normalization="none")
        assert label_set_confidence({"ab"}, {"xyxy"}, cfg) == 0.0

    @given(
        st.sets(st.text(alphabet="abx", min_size=1, max_size=4), min_size=1, max_size=3),
        st.sets(st.text(alphabet="abx", min_size=1, max_size=4), min_size=1, max_size=3),
    )
    def test_matches_exhaustive_cross_product(self, s1, s2):
        cfg = SimilarityConfig()
        best_sigma = max(
            edit_similarity(normalize_label(a, cfg), normalize_label(b, cfg))
            for a in s1
            for b in s2
        )
        expected = 1.0 / best_sigma if best_sigma >= cfg.gamma else 0.0
        assert label_set_confidence(s1, s2, cfg) == expected


class TestLabelsShareExactMatch:
    # "_-" and "-" fold to ""; "Straße" and "STRASSE" fold to one label
    labels = st.sets(st.sampled_from(["isA", "is_a", "IS-A", "isAn", "_-", "-", "Straße",
                                      "STRASSE", "x"]), max_size=3)

    @given(labels, labels, st.sampled_from(list(LabelNorm)))
    @example(set(), set(), LabelNorm.FOLD)
    @example({"x"}, set(), LabelNorm.FOLD)
    @example({"_-"}, {"-"}, LabelNorm.FOLD)
    @example({"_-"}, {"-"}, LabelNorm.NONE)
    def test_matches_set_intersection(self, s1, s2, norm):
        cfg = SimilarityConfig(label_normalization=norm)
        expected = bool({normalize_label(a, cfg) for a in s1} & {normalize_label(b, cfg) for b in s2})
        assert labels_share_exact_match(s1, s2, cfg) is expected


class TestNormalizeLabel:
    def test_fold_strips_separators_and_case(self):
        cfg = SimilarityConfig()
        assert normalize_label("Has_A Part-Of", cfg) == "hasapartof"

    def test_none_keeps_label_verbatim(self):
        cfg = SimilarityConfig(label_normalization=LabelNorm.NONE)
        assert normalize_label("Has_A", cfg) == "Has_A"


# text that folds in every way that matters to batched folding: the joining
# NUL itself, final and non-final sigma, characters that fold to several
# (ß, İ, the ﬁ ligature), separators, a lone surrogate, and any other
label_text = st.text(alphabet=st.sampled_from("aAΣσςßİiﬁ_- \0\udc80") | st.characters(),
                     max_size=6)


class TestDistinct:
    """_distinct folds all labels of a call as one joined text; each label
    must come out as normalize_label folds it on its own."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(label_text, max_size=8), st.sampled_from(list(LabelNorm)))
    @example([], LabelNorm.FOLD)
    @example(["\0"], LabelNorm.FOLD)
    @example(["ΣΑΣ", "a\0b", "ß", "İ"], LabelNorm.FOLD)
    @example(["ΣΑΣ", "σας", "SS", "ß"], LabelNorm.FOLD)
    def test_matches_per_label_normalize(self, labels, norm):
        cfg = SimilarityConfig(label_normalization=norm)
        distinct, inverse = lexical._distinct(labels, cfg)
        folded = [normalize_label(s, cfg) for s in labels]
        assert distinct == list(dict.fromkeys(folded))
        assert [distinct[i] for i in inverse] == folded
        assert inverse.dtype == np.intp and inverse.shape == (len(labels),)
