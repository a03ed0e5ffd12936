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


def _tuple_action_table(g, n, k):
    """Index map of the componentwise action of g on encoded k-tuples."""
    # image(idx) = sum over digits of g[digit] * n^pos
    powers = [n ** (k - 1 - i) for i in range(k)]
    table = [0] * (n ** k)
    for idx in range(n ** k):
        rest, img = idx, 0
        for p in powers:
            d, rest = divmod(rest, p) if p > 1 else (rest, 0)
            img += g(d) * p
        table[idx] = img
    return table


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
    if p.degree != S.degree:
        raise ValueError("degree mismatch")
    tab = _tuple_action_table(p, S.degree, S.arity)
    colors = S.colors
    return all(colors[tab[t]] == colors[t] for t in range(len(colors)))


def _point_invariants(S):
    """Iterated refinement classes of points under the coloring.

    Returns a list class_id[x]; automorphisms preserve classes.
    """
    n, k = S.degree, S.arity
    colors = S.colors
    classes = [0] * n
    tuples = [S.decode(t) for t in range(n ** k)]
    while True:
        sigs = [[] for _ in range(n)]
        for idx, tup in enumerate(tuples):
            c = colors[idx]
            key = (c,) + tuple(classes[x] for x in tup)
            for pos, x in enumerate(tup):
                sigs[x].append((pos,) + key)
        canon = [tuple(sorted(s)) for s in sigs]
        order = sorted(set(canon))
        new = [order.index(c) for c in canon]
        if new == classes:
            return classes
        classes = new


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
        for y in members[classes[i]]:
            if y in orb or y <= i:
                continue
            partial = {j: j for j in range(i)}
            if not consistent(partial, i, y):
                continue
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
    """Filter all n! permutations; oracle for small degrees."""
    n = S.degree
    if n > 8:
        raise ValueError("brute force oracle limited to degree 8")
    gens = [p for p in map(Permutation, itertools.permutations(range(n)))
            if is_automorphism(S, p)]
    return PermGroup(n, gens)
