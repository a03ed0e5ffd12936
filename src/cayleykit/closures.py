"""Orbit colorings of k-tuples and the automorphism backtracker.

The k-closure of a group is computed as the automorphism group of its
orbit coloring on k-tuples: the largest group with the same orbits on
ordered k-tuples.
"""

from __future__ import annotations

import itertools

from .perm import PermGroup, Permutation, orbit

# Degree budgets per arity; each bounds the run time, not only the tables.
DEGREE_BUDGET = {1: 32, 2: 256, 3: 64}


class BudgetExceededError(RuntimeError):
    """Degree too large for the requested tuple arity."""


class ColoredStructure:
    """A total coloring of the k-tuples over {0,...,n-1}.

    Tuples are encoded in mixed radix with the first coordinate most
    significant; color ids are contiguous, first occurrence in encoding
    order gives the canonical numbering.
    """

    __slots__ = ("degree", "arity", "colors")

    def __init__(self, degree, arity, colors, canonicalize=True):
        colors = list(colors)
        if len(colors) != degree ** arity:
            raise ValueError("color table has the wrong length")
        if canonicalize:
            relabel = {}
            for c in colors:
                if c not in relabel:
                    relabel[c] = len(relabel)
            colors = [relabel[c] for c in colors]
        self.degree = degree
        self.arity = arity
        self.colors = tuple(colors)

    @property
    def num_colors(self):
        return max(self.colors) + 1 if self.colors else 0

    def encode(self, tup):
        idx = 0
        for x in tup:
            idx = idx * self.degree + x
        return idx

    def decode(self, idx):
        out = []
        for _ in range(self.arity):
            out.append(idx % self.degree)
            idx //= self.degree
        return tuple(reversed(out))

    def __eq__(self, other):
        return (isinstance(other, ColoredStructure)
                and (self.degree, self.arity, self.colors)
                == (other.degree, other.arity, other.colors))

    def __hash__(self):
        return hash((self.degree, self.arity, self.colors))

    def to_json(self):
        return {"degree": self.degree, "arity": self.arity,
                "colors": list(self.colors)}

    @classmethod
    def from_json(cls, data):
        return cls(data["degree"], data["arity"], data["colors"])


def _check_budget(n, k):
    if k not in DEGREE_BUDGET:
        raise ValueError("arity must be 1, 2 or 3")
    if n > DEGREE_BUDGET[k]:
        raise BudgetExceededError(
            f"degree {n} exceeds budget {DEGREE_BUDGET[k]} for arity {k}")


def _tuple_codes(digit, radix, k):
    """The radix-`radix` number with digits digit[x_1]..digit[x_k] of every
    k-tuple (x_1..x_k), in encoding order."""
    table = digit
    for _ in range(k - 1):
        table = [a * radix + b for a in table for b in digit]
    return table


def _tuple_action_table(g, n, k):
    """Index map of the componentwise action of g on encoded k-tuples."""
    return _tuple_codes([g(x) for x in range(n)], n, k)


def orbit_coloring(G, k):
    """Color two k-tuples alike iff they lie in one G-orbit."""
    n = G.degree
    _check_budget(n, k)
    total = n ** k
    tables = [_tuple_action_table(g, n, k) for g in G.generators]
    colors = [-1] * total
    color = 0
    for start in range(total):
        if colors[start] != -1:
            continue
        for t in orbit(start, tables, lambda t, tab: tab[t]):
            colors[t] = color
        color += 1
    return ColoredStructure(n, k, colors, canonicalize=False)


def is_automorphism(S, p):
    """True iff p preserves the color of every tuple."""
    n, k = S.degree, S.arity
    if p.degree != n:
        raise ValueError("degree mismatch")
    # the image of tuple (x_1..x_k) is encoded as the sum of p(x_i) * n^(k-i);
    # product() walks the tuples in encoding order
    digits = [[p(x) * n ** (k - 1 - i) for x in range(n)] for i in range(k)]
    colors = S.colors
    return all(colors[t] == c
               for t, c in zip(map(sum, itertools.product(*digits)), colors))


def _point_invariants(S):
    """Iterated refinement classes of points under the coloring.

    Returns a list class_id[x]; automorphisms preserve classes.  A point's
    signature lists, per position, the sorted (color, classes of the
    coordinates) of the tuples holding it there; each round splits classes
    by signature until no class splits.
    """
    n, k = S.degree, S.arity
    total = n ** k
    colors = S.colors
    # tuples with x at position i: runs of n^(k-1-i) every n^(k-i)
    runs = [(n ** (k - 1 - i), n ** (k - i)) for i in range(k)]
    classes = [0] * n
    num_classes = 1
    while True:
        # one int per tuple packs its color and its coordinates' classes
        shift = num_classes ** k
        keys = [c * shift + t for c, t in
                zip(colors, _tuple_codes(classes, num_classes, k))]
        rank = {}
        new = []
        for x in range(n):
            sig = []
            for run, step in runs:
                if run == 1:
                    sig += sorted(keys[x::n])
                else:
                    sig += sorted(itertools.chain.from_iterable(
                        keys[s:s + run] for s in range(x * run, total, step)))
            new.append(rank.setdefault(tuple(sig), len(rank)))
        # each signature determines the old class, so the partition only
        # refines; it is stable once the class count stops growing
        if len(rank) == num_classes:
            return classes
        classes, num_classes = new, len(rank)


def automorphisms(S):
    """The full automorphism group of a colored structure.

    Strong generators are found base point by base point: for each level i
    and candidate image y, a depth-first completion search either produces
    an automorphism fixing 0..i-1 and sending i to y, or proves none exists.
    """
    n, k = S.degree, S.arity
    _check_budget(n, k)
    if n == 0:
        return PermGroup.trivial(0)
    colors = S.colors
    classes = _point_invariants(S)
    # candidate images sorted ascending, per class
    members = {}
    for x in range(n):
        members.setdefault(classes[x], []).append(x)

    if k == 1:
        def consistent(partial, x, y):
            return colors[x] == colors[y]
    elif k == 2:
        def consistent(partial, x, y):
            for a, b in partial.items():
                if colors[x * n + a] != colors[y * n + b]:
                    return False
                if colors[a * n + x] != colors[b * n + y]:
                    return False
            return colors[x * n + x] == colors[y * n + y]
    else:
        def consistent(partial, x, y):
            items = list(partial.items()) + [(x, y)]
            for a, fa in items:
                xa, ya = x * n + a, y * n + fa
                for b, fb in items:
                    if colors[(xa) * n + b] != colors[(ya) * n + fb]:
                        return False
                    if colors[(a * n + x) * n + b] != colors[(fa * n + y) * n + fb]:
                        return False
                    if colors[(a * n + b) * n + x] != colors[(fa * n + fb) * n + y]:
                        return False
            return True

    def complete(partial, used):
        """Extend a consistent partial map over all points; None if stuck."""
        if len(partial) == n:
            return Permutation(partial[x] for x in range(n))
        x = min(set(range(n)) - set(partial))
        for y in members[classes[x]]:
            if y in used or not consistent(partial, x, y):
                continue
            partial[x] = y
            used.add(y)
            result = complete(partial, used)
            if result is not None:
                return result
            del partial[x]
            used.remove(y)
        return None

    gens = []

    def point_orbit(x):
        return set(orbit(x, gens, lambda y, g: g(y)))

    for i in range(n - 1, -1, -1):
        orb = point_orbit(i)
        fixed = {j: j for j in range(i)}
        for y in members[classes[i]]:
            if y in orb or y <= i or not consistent(fixed, i, y):
                continue
            partial = dict(fixed)
            partial[i] = y
            g = complete(partial, set(partial.values()))
            if g is not None:
                gens.append(g)
                orb = point_orbit(i)
    return PermGroup(n, gens)


def k_closure(G, k):
    """The largest group with G's orbits on ordered k-tuples."""
    return automorphisms(orbit_coloring(G, k))


def is_k_closed(G, k):
    return k_closure(G, k).order == G.order


def brute_force_automorphisms(S):
    """Filter all n! permutations; oracle for small degrees.

    The group is built from the automorphisms, in filter order, that are
    not in the closure of those kept before them: at most log2 of the
    order many generators.  The closure must hold exactly the automorphisms
    found, or RuntimeError is raised.
    """
    n = S.degree
    if n > 8:
        raise ValueError("brute force oracle limited to degree 8")
    found = [p for p in map(Permutation, itertools.permutations(range(n)))
             if is_automorphism(S, p)]
    gens = []
    closure = [tuple(range(n))]
    seen = set(closure)
    for p in found:
        if p.images in seen:
            continue
        # grow the closure by right multiplication: every old element
        # times p, then every new element times every kept generator
        last = [p.images]
        gens += last
        old = len(closure)
        for i, a in enumerate(closure):
            for b in (last if i < old else gens):
                c = tuple([a[x] for x in b])
                if c not in seen:
                    seen.add(c)
                    closure.append(c)
    if len(closure) != len(found):
        raise RuntimeError(
            f"{len(found)} automorphisms found, but they generate "
            f"{len(closure)} permutations")
    return PermGroup(n, [Permutation(g) for g in gens])
