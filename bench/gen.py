"""Seeded input generators for the benchmark, independent of ``chainalign``.

Two families of ontology pairs, each written as ontology JSON together
with the identity reference (every term id maps to itself), plus the
ROADMAP's baseline recipe:

* ``ring_hub_chord``: a ring whose every hop carries its own predicate,
  ``partOf`` edges from every term to a hub, and chords labelled from
  further predicates. All predicates (and ``partOf``) lie at
  pairwise edit distance >= ``MIN_PRED_DISTANCE`` after label folding, so
  the mutant's 1-2 character edits keep each predicate within ``gamma`` of
  itself and of no other predicate. Term labels are random words. The
  mutant edits every edge label and shuffles the letters of every term
  label, which leaves only a weak lexical trace of which term was which.
* ``single_label_ring``: one predicate on every edge, a ring plus random
  chords, rejected until aperiodic (the ring already makes it strongly
  connected), so the uniform walk on it has a unique stationary vector
  and the pair chain of two copies is irreducible. The mutant flips the
  case of every label, which label folding undoes.

Nothing here imports the package under test: a later change to the
program cannot change the benchmark's inputs.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
MIN_PRED_DISTANCE = 5
HUB_LABEL = "partOf"
SINGLE_LABEL = "linksTo"
TIE_GAP = 1e-4


@dataclass(frozen=True)
class Graph:
    """Terms as (id, label) pairs and edges as (source, target, label)."""

    terms: tuple[tuple[str, str], ...]
    edges: tuple[tuple[str, str, str], ...]

    def to_json(self) -> str:
        doc = {
            "terms": [{"id": t, "label": lab} for t, lab in self.terms],
            "edges": [
                {"from": s, "to": d, "label": lab, "kind": "object"}
                for s, d, lab in self.edges
            ],
        }
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@dataclass(frozen=True)
class Case:
    name: str
    g1: Graph
    g2: Graph

    @property
    def reference(self) -> frozenset[tuple[str, str]]:
        return frozenset((t, t) for t, _ in self.g1.terms)

    def write(self, directory: Path) -> tuple[Path, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        p1 = directory / f"{self.name}.g1.json"
        p2 = directory / f"{self.name}.g2.json"
        p1.write_text(self.g1.to_json(), encoding="utf-8")
        p2.write_text(self.g2.to_json(), encoding="utf-8")
        return p1, p2


def fold(label: str) -> str:
    """The package's default label canonicalization, restated."""
    return label.casefold().replace("_", "").replace("-", "").replace(" ", "")


def edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _term_ids(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"t{i:0{width}d}" for i in range(n)]


def _edit_once(label: str, rng: random.Random) -> str:
    op = rng.choice("ids" if len(label) > 1 else "is")
    pos = rng.randrange(len(label) + (op == "i"))
    if op == "i":
        return label[:pos] + rng.choice(ALPHABET) + label[pos:]
    if op == "d":
        return label[:pos] + label[pos + 1:]
    return label[:pos] + rng.choice(ALPHABET.replace(label[pos].lower(), "")) + label[pos + 1:]


def _label_edit(g: Graph, rng: random.Random) -> Graph:
    """Every edge label takes 1-2 random character edits."""
    edges = []
    for s, d, lab in g.edges:
        for _ in range(rng.randint(1, 2)):
            lab = _edit_once(lab, rng)
        edges.append((s, d, lab))
    return Graph(g.terms, tuple(edges))


def _label_scramble(g: Graph, rng: random.Random) -> Graph:
    terms = []
    for t, lab in g.terms:
        chars = list(lab)
        rng.shuffle(chars)
        terms.append((t, "".join(chars)))
    return Graph(tuple(terms), g.edges)


def _label_case(g: Graph) -> Graph:
    return Graph(
        tuple((t, lab.swapcase()) for t, lab in g.terms),
        tuple((s, d, lab.swapcase()) for s, d, lab in g.edges),
    )


def distant_vocabulary(count: int, seed: int, length: int = 9) -> list[str]:
    """``count`` random words, pairwise (and from ``partOf``) >= MIN_PRED_DISTANCE apart."""
    rng = random.Random(seed)
    words: list[str] = []
    taken = [fold(HUB_LABEL)]
    while len(words) < count:
        w = "".join(rng.choice(ALPHABET) for _ in range(length))
        if all(edit_distance(w, o) >= MIN_PRED_DISTANCE for o in taken):
            words.append(w)
            taken.append(w)
    return words


def _random_words(n: int, rng: random.Random, length: int = 7) -> list[str]:
    words: list[str] = []
    while len(words) < n:
        word = "".join(rng.choice(ALPHABET) for _ in range(length))
        if word not in words:
            words.append(word)
    return words


def ring_hub_chord(seed: int, n: int, chords: int, vocabulary: list[str]) -> Case:
    """Base ring+hub+chord ontology against its label-edit + label-scramble mutant.

    Ring hops take the first ``n`` words of ``vocabulary`` in a random
    order, chords the remaining words.
    """
    rng = random.Random(seed)
    ids = _term_ids(n)
    labels = _random_words(n, rng)
    ring_preds, chord_preds = vocabulary[:n], vocabulary[n:]
    ring_preds = rng.sample(ring_preds, n)
    edges = {(ids[i], ids[(i + 1) % n], ring_preds[i]) for i in range(n)}
    edges |= {(t, ids[0], HUB_LABEL) for t in ids[1:]}
    for t in ids:
        for _ in range(chords):
            edges.add((t, ids[rng.randrange(n)], rng.choice(chord_preds)))
    g1 = Graph(tuple(zip(ids, labels)), tuple(sorted(edges)))
    g2 = _label_scramble(_label_edit(g1, rng), rng)
    return Case(f"rhc-s{seed}-n{n}-c{chords}", g1, g2)


def period(n: int, edges: list[tuple[int, int]]) -> int:
    """Period of a strongly connected digraph: gcd of level differences over edges."""
    adj: dict[int, list[int]] = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)
    level = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for s, d in edges:
        g = math.gcd(g, level[s] + 1 - level[d])
    return g


def uniform_walk_stationary(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Stationary vector of the uniform random walk on a strongly connected digraph."""
    adj = np.zeros((n, n))
    for s, d in edges:
        adj[s, d] = 1.0
    p = adj / adj.sum(axis=1, keepdims=True)
    system = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return pi


def single_label_ring(seed: int, n: int, chords: int) -> Case:
    """Aperiodic single-label ring+chord graph against its case-flipped copy.

    Graphs whose stationary vector has two entries within ``TIE_GAP`` of
    each other are redrawn: with distinct entries identity is the unique
    optimal matching of pi1 (x) pi2, so the identity reference is what a
    correct solve must return rather than one of several tied optima.
    """
    rng = random.Random(seed)
    ids = _term_ids(n)
    while True:
        pairs = {(i, (i + 1) % n) for i in range(n)}
        while len(pairs) < n + chords:
            s, d = rng.randrange(n), rng.randrange(n)
            if s != d:
                pairs.add((s, d))
        if period(n, sorted(pairs)) != 1:
            continue
        pi = np.sort(uniform_walk_stationary(n, sorted(pairs)))
        if np.diff(pi).min() > TIE_GAP * pi[-1]:
            break
    g1 = Graph(
        tuple((t, t) for t in ids),
        tuple((ids[s], ids[d], SINGLE_LABEL) for s, d in sorted(pairs)),
    )
    return Case(f"slr-s{seed}-n{n}-c{chords}", g1, _label_case(g1))


ROADMAP_PREDICATES = (
    "hasPart", "partOf", "locatedIn", "contains", "precedes", "follows", "regulates",
    "inhibits", "produces", "consumes", "adjacentTo", "memberOf", "derivesFrom",
    "connectsTo", "dependsOn",
)


def roadmap_baseline(n: int, seed: int = 7) -> Case:
    """The ROADMAP's baseline recipe: 3 random out-edges per term over 15
    predicates, against the label-edit mutant seeded with 7."""
    rng = random.Random(seed)
    ids = _term_ids(n)
    edges = [
        (t, d, rng.choice(ROADMAP_PREDICATES)) for t in ids for d in rng.sample(ids, 3)
    ]
    g1 = Graph(tuple((t, t) for t in ids), tuple(edges))
    return Case(f"roadmap-n{n}", g1, _label_edit(g1, rng))
