import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainalign import lexical
from chainalign.lexical import (
    LabelNorm,
    SimilarityConfig,
    edge_confidence,
    edit_similarity,
    label_set_confidence,
    labels_share_exact_match,
    levenshtein,
    levenshtein_matrix,
    normalize_label,
)

from oracles import levenshtein_memoized, levenshtein_recursive

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
    def test_identical_labels(self):
        assert edge_confidence("hasA", "hasA") == 1.0

    def test_distance_one_pair(self):
        # sigma = 3/4 over the default gamma = 0.5, confidence 1/sigma
        assert edge_confidence("m", "m'", SimilarityConfig(label_normalization="none")) == pytest.approx(4 / 3)

    def test_below_threshold_is_zero(self):
        cfg = SimilarityConfig(label_normalization="none")
        assert edit_similarity("ab", "xyxy") == 0.25
        assert edge_confidence("ab", "xyxy", cfg) == 0.0

    def test_normalization_equates_underscore_variants(self):
        assert edge_confidence("hasA", "has_a") == 1.0

    def test_without_normalization_they_differ(self):
        cfg = SimilarityConfig(label_normalization="none")
        assert edge_confidence("hasA", "has_a", cfg) != 1.0

    def test_label_empty_after_normalization_rejected(self):
        with pytest.raises(ValueError):
            edge_confidence("_-", "hasA")

    @given(st.text(alphabet="abcx", min_size=1, max_size=6),
           st.text(alphabet="abcx", min_size=1, max_size=6))
    def test_symmetric(self, a, b):
        assert edge_confidence(a, b) == edge_confidence(b, a)

    @given(st.text(alphabet="abcx", min_size=1, max_size=6),
           st.text(alphabet="abcx", min_size=1, max_size=6),
           st.floats(min_value=0.0, max_value=1.0))
    def test_positive_iff_sigma_reaches_gamma(self, a, b, gamma):
        cfg = SimilarityConfig(gamma=gamma)
        sigma = edit_similarity(normalize_label(a, cfg), normalize_label(b, cfg))
        conf = edge_confidence(a, b, cfg)
        assert (conf > 0) == (sigma >= gamma)

    @given(st.text(alphabet="abcx", min_size=1, max_size=6),
           st.text(alphabet="abcx", min_size=1, max_size=6))
    def test_nonzero_range(self, a, b):
        cfg = SimilarityConfig(gamma=0.5)
        conf = edge_confidence(a, b, cfg)
        assert conf == 0.0 or 1.0 <= conf <= 1.0 / cfg.gamma

    def test_gamma_one_is_exact_match_regime(self):
        cfg = SimilarityConfig(gamma=1.0)
        assert edge_confidence("hasA", "has_a", cfg) == 1.0  # equal after folding
        assert edge_confidence("hasA", "hasB", cfg) == 0.0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            SimilarityConfig(gamma=1.5)


class TestLabelSetConfidence:
    def test_empty_set_scores_zero(self):
        assert label_set_confidence(set(), {"m'"}) == 0.0
        assert label_set_confidence({"m"}, set()) == 0.0

    def test_singletons_reduce_to_edge_confidence(self):
        cfg = SimilarityConfig(label_normalization="none")
        assert label_set_confidence({"m"}, {"m'"}, cfg) == edge_confidence("m", "m'", cfg)

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
