"""Orbit colorings of k-tuples and the automorphism backtracker.

The k-closure of a group is computed as the automorphism group of its
orbit coloring on k-tuples: the largest group with the same orbits on
ordered k-tuples.
"""

from __future__ import annotations

import itertools
from operator import itemgetter, mul

from .perm import PermGroup, Permutation, orbit

# Degree budgets per arity; each bounds the run time, not only the tables.
DEGREE_BUDGET = {1: 32, 2: 256, 3: 64}


class BudgetExceededError(RuntimeError):
    """Degree too large for the requested tuple arity."""


class ColoredStructure:
    """A total coloring of the k-tuples over {0,...,n-1}.

    Tuples are encoded in mixed radix with the first coordinate most
    significant; color ids are contiguous, first occurrence in encoding
    order gives the canonical numbering.  At k = 3 the table is kept as n
    rows, row x holding the colors of (x, ., .); below k = 3 as one row.
    """

    __slots__ = ("degree", "arity", "rows")

    def __init__(self, degree, arity, colors):
        colors = list(colors)
        if len(colors) != degree ** arity:
            raise ValueError("color table has the wrong length")
        # dict.fromkeys keeps the colors in order of first occurrence
        relabel = {c: i for i, c in enumerate(dict.fromkeys(colors))}
        self.degree = degree
        self.arity = arity
        self.rows = _rows(tuple(map(relabel.__getitem__, colors)),
                          degree, arity)

    @property
    def colors(self):
        """The table as one tuple: a copy, for the oracles."""
        return tuple(itertools.chain.from_iterable(self.rows))

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
                and (self.degree, self.arity, self.rows)
                == (other.degree, other.arity, other.rows))

    def __hash__(self):
        return hash((self.degree, self.arity, self.rows))


def _rows(colors, n, k):
    """A flat color table as ColoredStructure keeps it."""
    if k < 3:
        return (colors,)
    size = n ** (k - 1)
    return tuple(colors[x * size:x * size + size] for x in range(n))


def _canonical(degree, arity, rows):
    """A ColoredStructure from rows already numbered by first occurrence,
    so renumbering them again is waste."""
    S = object.__new__(ColoredStructure)
    S.degree, S.arity, S.rows = degree, arity, rows
    return S


def check_budget(n, k):
    """Refuse an arity without a budget, or a degree over its budget."""
    if k not in DEGREE_BUDGET:
        raise ValueError(f"arity must be one of {sorted(DEGREE_BUDGET)}")
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


def _orbit_labels(gens, n, k):
    """A label for every k-tuple, as the rows of a ColoredStructure, such
    that two tuples share a label iff they lie in one orbit of the group
    that gens (image tuples) generate.  The labels are the canonical ones:
    contiguous from 0, numbered by first occurrence.

    For each orbit O with least point r, u_x in a transversal sends r to
    x, and (x, t) lies in the orbit of (r, u_x^-1 t).  So the tuples that
    start in O take a running count plus the labels of the (k-1)-tuples
    under the stabilizer of r, which Schreier's lemma generates by
    u_sx^-1 s u_x, the identity on an edge of the breadth-first tree, so
    those are skipped; the count then grows by the number of those labels.
    Orbits are met in order of least points, every label of row r is new
    and, by induction, rises in order of first occurrence, and the rows of
    the other points of O reuse row r's labels: so the labels come out
    canonical with no renumbering pass.  At k = 1 a point's label is the
    index of its orbit.

    The rows are filled along the breadth-first search of O: if y = s x,
    then (y, t) = s (x, s^-1 t), so row y is row x gathered through the
    codes of s^-1 on (k-1)-tuples.  Each generator's code table is built
    once, on first use, not once per point.  Rows, transversal elements
    and Schreier generators are all itemgetter gathers, so no Python loop
    runs over a row or a permutation.  Below k = 3 the rows are joined.
    """
    if not gens or n < 2:  # below two points every tuple is its own orbit
        return _rows(tuple(range(n ** k)), n, k)
    count = 0  # labels given so far
    if k == 1:
        rows = [None] * n
        for r in range(n):
            if rows[r] is None:
                for x in orbit(r, gens, lambda x, s: s[x]):
                    rows[x] = count
                count += 1
        return (tuple(rows),)
    identity = tuple(range(n))
    inverses = [tuple(sorted(identity, key=s.__getitem__)) for s in gens]
    # as image tuples, by[j](t) is t gens[j] and by_inverse[j](t) is
    # t gens[j]^-1
    by = [itemgetter(*s) for s in gens]
    by_inverse = [itemgetter(*s) for s in inverses]
    gathers = [None] * len(gens)  # row gathers through s^-1, on first use
    rows = [None] * n  # rows[x]: the labels of the tuples starting with x
    for r in range(n):
        if rows[r] is not None:
            continue
        u = {r: identity}
        inv = {r: identity}
        reach = [r]
        parent = {}  # parent[y]: (x, j) with y = gens[j] x
        stab = set()
        for x in reach:
            via = itemgetter(*u[x])  # via(t) is t u_x
            for j, s in enumerate(gens):
                y = s[x]
                if y not in u:  # a tree edge: u_y = s u_x
                    u[y] = via(s)
                    inv[y] = by_inverse[j](inv[x])
                    parent[y] = (x, j)
                    reach.append(y)
                else:
                    stab.add(via(by[j](inv[y])))
        stab.discard(identity)
        sub, = _orbit_labels(list(stab), n, k - 1)
        # the first orbit's labels are sub's own, so no second copy
        rows[r] = tuple([count + c for c in sub]) if count else sub
        count += max(sub) + 1
        for y in reach[1:]:
            x, j = parent[y]
            if gathers[j] is None:
                gathers[j] = itemgetter(*_tuple_codes(inverses[j], n, k - 1))
            rows[y] = gathers[j](rows[x])
    if k < 3:
        return (tuple(itertools.chain.from_iterable(rows)),)
    return tuple(rows)


def orbit_coloring(G, k):
    """Color two k-tuples alike iff they lie in one G-orbit."""
    n = G.degree
    check_budget(n, k)
    return _canonical(
        n, k, _orbit_labels([g.images for g in G.generators], n, k))


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


def automorphisms(S, known=()):
    """The full automorphism group of a colored structure.

    Strong generators are found base point by base point: for each level i
    and candidate image y, a depth-first completion search either produces
    an automorphism fixing 0..i-1 and sending i to y, or proves none exists.
    Points are assigned in order 0, 1, ..., so a partial map f is the list
    f(0), ..., f(len(f)-1).

    An automorphism keeps the color of each diagonal tuple (x, ..., x);
    level 0 tries every point, and `consistent` drops those whose diagonal
    tuple lacks 0's color.  On an orbit coloring of G these point classes
    are the G-orbits, which are the orbits of the automorphism group.
    Every later point x is tried only on the points y, ascending, whose
    tuple (y, f(0), ..., f(0)) has the color of (x, 0, ..., 0): bucket(b)
    groups the points by the color of (y, b, ..., b), built once per b.
    That pair of tuples is one of the comparisons `consistent` makes, so a
    bucket drops only candidates that `consistent` rejects, and the search
    accepts the same images in the same order as a scan of the whole point
    class.

    `consistent(partial, x, y)` compares every tuple over 0..x that holds
    x with its image under f = partial + [y].  The diagonal tuple comes
    first; at x = 0 it is the only one.  The rest are taken by the position
    j of x: the tuples run along the last coordinate other than j, over
    0..x, for every choice of the k - 2 coordinates left over 0..x.  Since
    f holds 0..x in order, such a run is a slice of one row of the table,
    of length x+1, and its image is one itemgetter pick at f(0), ..., f(x)
    from the image slice of length n: no per-tuple Python work.

    Levels run from n-1 down to 0, so a generator found at level i fixes
    0..i-1 and moves i, and the orbit of i is complete when the search
    leaves level i.  The generators are thus a strong generating set for
    the ascending levels that found one: the chain is built on that base.

    `known` holds automorphisms of S already in hand, trusted as the
    search trusts its own finds.  Each joins the generators at the level of
    its least moved point, whose stabilizer holds it, before that level's
    orbit is taken; the search then tries only the images they miss.  Each
    level still ends with the orbit of its stabilizer, so the argument
    above is unchanged.
    """
    n, k = S.degree, S.arity
    check_budget(n, k)
    rows = S.rows
    # the code of (x_1..x_k) is the sum of x_i * strides[i], so (x, ..., x)
    # is x * diagonal, and (y, b, ..., b) is y * lead + b * home.  Row x
    # holds (x, ...) at k = 3, and row 0 every tuple below, so (x, ...)
    # lies in rows[x * split], at its code less x * (lead - first)
    strides = [n ** (k - 1 - i) for i in range(k)]
    diagonal, lead = sum(strides), strides[0]
    home = diagonal - lead
    split = k == 3
    first = 0 if split else lead
    inner = [first, *strides[1:]]
    # per position j of the new point: its stride, the stride of the slice
    # (the last coordinate other than j) and the strides left, in a row;
    # there is no slice at k = 1, where the diagonal is the whole check.  No
    # slice runs along x_1 at k = 3, so each lies in one row: the new
    # point's if j = 0, else that of x_1, the one coordinate left
    shapes = [(own, step, rest[:-1], split and j > 0)
              for j, own in enumerate(inner)
              for rest in [inner[:j] + inner[j + 1:]]
              for step in rest[-1:]]
    buckets = {}

    def bucket(b):
        if b not in buckets:
            row = buckets[b] = {}
            # the color of (y, b, ..., b) is at y * first + off in row y
            off = b * home
            column = (map(itemgetter(off), rows) if split
                      else rows[0][off::lead])
            for y, c in enumerate(column):
                row.setdefault(c, []).append(y)
        return buckets[b]

    def consistent(partial, x, y):
        # partial is any sequence f(0), ..., f(x-1)
        # the diagonal first: at x = 0 it is the only tuple, and an
        # itemgetter of one index would return no tuple
        if rows[x * split][x * (first + home)] \
                != rows[y * split][y * (first + home)]:
            return False
        if not x:
            return True
        ys = (*partial, y)
        pick = itemgetter(*ys)
        for own, step, rest, by_row in shapes:
            # the starts of the lines over 0..x, and of their images
            here, there = [x * own], [y * own]
            for o in rest:
                here = [s + a * o for s in here for a in range(x + 1)]
                there = [t + b * o for t in there for b in ys]
            if by_row:  # line a lies in row a, and its image in row f(a)
                ins, outs = rows, pick(rows)
            else:
                ins = itertools.repeat(rows[x * split])
                outs = itertools.repeat(rows[y * split])
            stop, span = x * step + 1, n * step
            for r, s, q, t in zip(ins, here, outs, there):
                if r[s:s + stop:step] != pick(q[t:t + span:step]):
                    return False
        return True

    def complete(f):
        """Extend f, a consistent partial map, over all points in place: a
        Permutation, or None if stuck.  A stack of candidate iterators, not
        recursion, so no reference cycle outlives the call."""
        by_color = bucket(f[0])
        used, top = set(f), len(f)
        stack = []  # stack[j]: the images of point top + j not yet tried
        while len(f) < n:
            x = len(f)
            if len(stack) == x - top:  # x is new: its candidates
                stack.append(
                    iter(by_color.get(rows[x * split][x * first], ())))
            for y in stack[-1]:
                if y not in used and consistent(f, x, y):
                    f.append(y)
                    used.add(y)
                    break
            else:
                stack.pop()
                if not stack:
                    return None
                used.remove(f.pop())
        return Permutation(f)

    gens = []
    base = []
    placed = {}  # placed[i]: the known automorphisms moving i, fixing 0..i-1
    for g in known:
        least = next((x for x in range(n) if g(x) != x), n)
        placed.setdefault(least, []).append(g)

    def point_orbit(x):
        return set(orbit(x, gens, lambda y, g: g(y)))

    for i in range(n - 1, -1, -1):
        gens += placed.get(i, ())
        orb = point_orbit(i)
        for y in bucket(0)[rows[i * split][i * first]] if i else range(n):
            if y in orb or y <= i or not consistent(range(i), i, y):
                continue
            g = complete([*range(i), y])
            if g is not None:
                gens.append(g)
                orb = point_orbit(i)
        if len(orb) > 1:  # only a generator found at level i moves i
            base.append(i)
    return PermGroup(n, gens, base=base[::-1])


def k_closure(G, k):
    """The largest group with G's orbits on ordered k-tuples.  It holds G
    (Wielandt), so G's generators seed the search, which then looks only
    for what G lacks; no Schreier-Sims runs on G.

    A regular group is 2-closed: (0, y) is the only pair of its G-orbit
    that starts at 0, so the stabilizer of 0 in G^(2) fixes every y, and
    |G^(2)| = n = |G|.  For k >= 2, G <= G^(k) <= G^(2) (Wielandt 1969),
    so a regular G is its own k-closure, with no color table and no
    search: one listing of G decides it.  The group, generators and base
    are those the seeded search returns: every seed moves 0, and the n
    pairs (y, 0) have n colors, so no level past 0 has a candidate.
    """
    n = G.degree
    check_budget(n, k)
    if k >= 2 and n > 1 and G.is_regular():
        return PermGroup(n, G.generators, base=[0])
    return automorphisms(orbit_coloring(G, k), G.generators)


def _color_preserving(S):
    """The image tuples of every permutation that keeps each tuple's
    color, in itertools.permutations order.  Images are picked point by
    point, and a partial map f(0), ..., f(j) is dropped at the first tuple
    over 0..j that holds j and changes color, so each tuple is checked
    once.  A stack of iterators, not recursion, so no cycle outlives it.
    """
    n, k = S.degree, S.arity
    if not n:
        yield ()
        return
    colors = S.colors
    strides = [n ** (k - 1 - i) for i in range(k)]
    # checks[j]: the color and points of every tuple over 0..j holding j
    checks = [[(colors[sum(map(mul, t, strides))], t)
               for t in itertools.product(range(j + 1), repeat=k) if j in t]
              for j in range(n)]
    f = []
    stack = [iter(range(n))]  # stack[j]: the images of j not yet tried
    while stack:
        for y in stack[-1]:
            if y in f:
                continue
            f.append(y)
            if all(c == colors[sum(map(mul, map(f.__getitem__, t), strides))]
                   for c, t in checks[len(f) - 1]):
                if len(f) < n:
                    stack.append(iter(range(n)))
                    break
                yield tuple(f)
            f.pop()
        else:
            stack.pop()
            if f:
                f.pop()


def brute_force_automorphisms(S):
    """Every color-preserving permutation, by a pruned walk over all n!;
    oracle for small degrees.

    The group is built from the automorphisms, in walk order, that are
    not in the closure of those kept before them: at most log2 of the
    order many generators, each confirmed by is_automorphism.  The walk
    is streamed: automorphisms are counted and the closure grown as they
    come, none of them kept.  The closure must hold exactly as many as
    were counted, or RuntimeError is raised.
    """
    n = S.degree
    if n > 8:
        raise ValueError("brute force oracle limited to degree 8")
    found = 0
    gens, gathers = [], []
    closure = [tuple(range(n))]
    seen = set(closure)
    for p in _color_preserving(S):
        found += 1
        if p in seen:
            continue
        if not is_automorphism(S, Permutation(p)):
            raise RuntimeError(f"{p} changes a color")
        # grow the closure by right multiplication: every old element
        # times p, then every new element times every kept generator;
        # a times b is one gather of a's entries at b's images
        last = (itemgetter(*p),)
        gens.append(p)
        gathers += last
        old = len(closure)
        for i, a in enumerate(closure):
            for gather in (last if i < old else gathers):
                c = gather(a)
                if c not in seen:
                    seen.add(c)
                    closure.append(c)
    if len(closure) != found:
        raise RuntimeError(
            f"{found} automorphisms found, but they generate "
            f"{len(closure)} permutations")
    return PermGroup(n, [Permutation(g) for g in gens])
