"""Permutations and permutation groups with a stabilizer-chain backbone.

Points are 0-based.  Permutations act on the left: ``(p * q)(x) == p(q(x))``,
and conjugation is ``h^c = c^-1 h c``.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import itemgetter

# Operations that touch every group element refuse groups larger than this.
BRUTE_FORCE_CAP = 10**6


class CapExceededError(RuntimeError):
    """An enumeration-based operation was asked to walk too many elements."""


class Permutation:
    """A bijection of {0, ..., n-1}, stored as its image sequence.

    The constructor validates its input.  Products, inverses and identities
    are built by ``_unchecked``: composing or inverting bijections of one
    degree always gives a bijection, so checking the result again is waste.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for x in images:
            if type(x) is not int or not 0 <= x < n or seen[x]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
            seen[x] = True
        self.images = images

    @classmethod
    def identity(cls, n):
        return _unchecked(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n, cycles):
        """Build a permutation of degree n from disjoint cycles."""
        images = list(range(n))
        for cyc in cycles:
            if not cyc:
                raise ValueError("empty cycle")
            for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                if type(a) is not int or not 0 <= a < n:
                    raise ValueError(f"cycle point {a!r} not in 0..{n - 1}")
                if images[a] != a:
                    raise ValueError("cycles are not disjoint")
                images[a] = b
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        """Composition: (p * q)(x) = p(q(x)), gathered in one C call."""
        im, at = self.images, other.images
        if len(im) != len(at):
            raise ValueError("degree mismatch")
        if len(at) > 1:
            return _unchecked(itemgetter(*at)(im))
        # itemgetter() cannot be built, and itemgetter(0) returns an int
        return _unchecked(tuple([im[x] for x in at]))

    def inverse(self):
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return _unchecked(tuple(inv))

    def is_identity(self):
        return self.images == tuple(range(len(self.images)))

    def order(self):
        n = 1
        for cyc in self.cycles():
            n = n * len(cyc) // gcd(n, len(cyc))
        return n

    def cycles(self):
        """Nontrivial cycles, each starting at its smallest point."""
        seen = set()
        out = []
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return f"Permutation.identity({self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return f"<{body} deg={self.degree}>"

    def to_json(self):
        return list(self.images)


def _unchecked(images):
    """A Permutation from an image tuple known to be a bijection."""
    p = object.__new__(Permutation)
    p.images = images
    return p


def orbit(start, gens, act):
    """Every state reachable from start by act(state, g) for g in gens,
    in breadth-first discovery order."""
    seen = {start}
    out = [start]
    for x in out:
        for g in gens:
            y = act(x, g)
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


class _Chain:
    """Stabilizer chain of a base and a strong generating set.  Each
    level keeps the inverses of its transversal elements as they are
    asked for, until the level is recomputed."""

    def __init__(self, degree, base, strong):
        """Transversals built by orbit; no Schreier generator is sifted."""
        self.degree = degree
        self.identity = Permutation.identity(degree)
        self.base = list(base)
        self.strong = list(strong)
        self.transversals = [None] * len(self.base)
        self.inverses = [None] * len(self.base)
        for i in range(len(self.base)):
            self._recompute(i)

    @classmethod
    def schreier_sims(cls, degree, gens, base_hint=()):
        """The deterministic Schreier-Sims chain of the group gens generate."""
        chain = cls(degree, base_hint, [])
        for g in gens:
            if not g.is_identity():
                chain.strong.append(g)
                if all(g(b) == b for b in chain.base):
                    chain._new_base_point(g)
        chain._close()
        return chain

    def _new_base_point(self, g):
        pt = min(x for x in range(self.degree) if g(x) != x)
        self.base.append(pt)
        self.transversals.append({pt: self.identity})
        self.inverses.append({})

    def _level_gens(self, i):
        if i == 0:
            return list(self.strong)
        # one gather of the base prefix per generator
        at_prefix = itemgetter(*self.base[:i])
        fixed = at_prefix(self.identity.images)
        return [s for s in self.strong if at_prefix(s.images) == fixed]

    def _recompute(self, i):
        """Level i's transversal, by orbit; returns its generators."""
        b = self.base[i]
        gens = self._level_gens(i)
        t = {b: self.identity}
        frontier = [b]
        while frontier:
            new = []
            for x in frontier:
                tx = t[x]
                for s in gens:
                    y = s(x)
                    if y not in t:
                        t[y] = s * tx
                        new.append(y)
            frontier = sorted(new)
        self.transversals[i] = t
        self.inverses[i] = {}
        return gens

    def _inverse(self, i, x):
        """The inverse of transversals[i][x]."""
        inv = self.inverses[i]
        if x not in inv:
            inv[x] = self.transversals[i][x].inverse()
        return inv[x]

    def strip(self, g, start=0):
        """Sift g through levels >= start; returns (residue, stuck_level)."""
        for j in range(start, len(self.base)):
            x = g(self.base[j])
            t = self.transversals[j]
            if x not in t:
                return g, j
            g = self._inverse(j, x) * g
        return g, len(self.base)

    def _close(self):
        """Schreier-Sims: sift the Schreier generators of each level i
        through the levels after it, restarting at the level a non-trivial
        residue sticks at.

        A Schreier generator sifted at level i lies in the group of strong
        generators fixing base[:i + 1]: it sifted to the identity, or its
        residue joined them.  That group only grows, and level i is checked
        only while every level after it is complete, so the generator would
        sift to the identity whenever met again.  It is kept in `proven[i]`
        and never sifted twice.
        """
        proven = {}
        i = len(self.base) - 1
        while i >= 0:
            gens = self._recompute(i)
            t = self.transversals[i]
            known = proven.setdefault(i, set())
            dirty_level = None
            for x in sorted(t):
                # on image tuples: s * u_x is s gathered at u_x
                at_tx = itemgetter(*t[x].images)
                for s in gens:
                    y = s.images[x]
                    stx = at_tx(s.images)
                    if stx == t[y].images:
                        continue  # u_y^-1 s u_x is the identity
                    sg = itemgetter(*stx)(self._inverse(i, y).images)
                    if sg in known:
                        continue
                    known.add(sg)
                    residue, j = self.strip(_unchecked(sg), i + 1)
                    if not residue.is_identity():
                        self.strong.append(residue)
                        if j == len(self.base):
                            self._new_base_point(residue)
                        dirty_level = j
                        break
                if dirty_level is not None:
                    break
            if dirty_level is None:
                i -= 1
            else:
                i = dirty_level

    @property
    def order(self):
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def contains(self, p):
        if p.degree != self.degree:
            return False
        residue, _ = self.strip(p)
        return residue.is_identity()

    def elements(self, start=0):
        """All elements of the stabilizer of base[:start], level start most
        significant and each level's points sorted; built from the last
        level up, one product per element."""
        out = [self.identity]
        for t in reversed(self.transversals[start:]):
            out = [t[x] * r for x in sorted(t) for r in out]
        return out

    def element_with_base_images(self, images):
        """An element mapping base[i] -> images[i] for i < len(images), or None."""
        g = self.identity
        for i, want in enumerate(images):
            t = self.transversals[i]
            x = g.images.index(want)
            if x not in t:
                return None
            g = g * t[x]
        return g


class PermGroup:
    """A permutation group given by generators.  Its chain is built when
    first read: by Schreier-Sims, or, when a base is given or the group
    is regular, from the orbits alone, with the generators trusted as a
    strong set."""

    def __init__(self, degree, generators, base=None):
        gens = []
        seen = set()
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if not g.is_identity() and g.images not in seen:
                seen.add(g.images)
                gens.append(g)
        self.degree = degree
        self.generators = tuple(sorted(gens))
        self._base = None if base is None else tuple(base)

    @cached_property
    def _chain(self):
        """A regular group, decided by `_listed_regular`, takes the base
        [0]: that is its Schreier-Sims chain, since every other element
        moves 0, so no Schreier generator survives."""
        if self._base is not None:
            return _Chain(self.degree, self._base, self.generators)
        if self.generators and self._listed_regular:
            return _Chain(self.degree, [0], self.generators)
        return _Chain.schreier_sims(self.degree, self.generators)

    def _regular_rows(self):
        """The image rows of a regular group, row y the element moving 0
        to y, or None when it is not regular.  The group is listed by right
        multiplication with no chain built, and the listing stops at two
        elements that move 0 to one point, so it holds at most n rows."""
        n = self.degree
        out = [tuple(range(n))]
        rows = out + [None] * (n - 1)
        gathers = [itemgetter(*g.images) for g in self.generators]
        for x in out:
            for gather in gathers:
                y = gather(x)
                z = rows[y[0]]
                if z is None:
                    rows[y[0]] = y
                    out.append(y)
                elif z != y:
                    return None
        return rows if len(out) == n else None

    @cached_property
    def _listed_regular(self):
        """Regular, from one `_regular_rows` listing whose rows are dropped."""
        return self._regular_rows() is not None

    @cached_property
    def order(self):
        return self._chain.order

    @classmethod
    def trivial(cls, degree):
        return cls(degree, ())

    @classmethod
    def symmetric(cls, degree):
        if degree <= 1:
            return cls.trivial(degree)
        gens = [Permutation.from_cycles(degree, [(0, 1)]),
                Permutation.from_cycles(degree, [tuple(range(degree))])]
        return cls(degree, gens)

    def contains(self, p):
        return self._chain.contains(p)

    def __eq__(self, other):
        return (isinstance(other, PermGroup)
                and self.degree == other.degree
                and self.order == other.order
                and all(self.contains(g) for g in other.generators))

    def __hash__(self):
        return hash((self.degree, self.order))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def is_subgroup_of(self, other):
        return (self.degree == other.degree
                and all(other.contains(g) for g in self.generators))

    def elements(self, cap=BRUTE_FORCE_CAP):
        if self.order > cap:
            raise CapExceededError(
                f"group order {self.order} exceeds cap {cap}")
        return self._chain.elements()

    def element_at(self, i):
        """elements()[i] without listing the elements: i in mixed radix
        over the sorted transversal keys, the last level least significant."""
        if not 0 <= i < self.order:
            raise IndexError(f"element index {i} out of range")
        g = self._chain.identity
        for t in reversed(self._chain.transversals):
            i, d = divmod(i, len(t))
            g = t[sorted(t)[d]] * g
        return g

    def orbit(self, x):
        return sorted(orbit(x, self.generators, lambda y, g: g(y)))

    def orbits(self):
        seen = set()
        out = []
        for x in range(self.degree):
            if x not in seen:
                orb = self.orbit(x)
                seen.update(orb)
                out.append(orb)
        return out

    def is_transitive(self):
        return self.degree > 0 and len(self.orbit(0)) == self.degree

    def is_semiregular(self):
        # all point stabilizers trivial <=> |orbit(x)| == |G| for every x
        return all(len(orb) == self.order for orb in self.orbits())

    def is_regular(self):
        """Transitive of order n: one listing, reused by a later chain."""
        return self._listed_regular

    def transitivity_profile(self):
        semi = self.is_semiregular()
        trans = self.is_transitive()
        return {"transitive": trans, "semiregular": semi,
                "regular": trans and semi}

    def conjugate(self, c):
        """The group c^-1 G c."""
        if c.degree != self.degree:
            raise ValueError("degree mismatch")
        cinv = c.inverse()
        return PermGroup(self.degree, [cinv * g * c for g in self.generators])

    def to_json(self):
        return {"degree": self.degree,
                "generators": [list(g.images) for g in self.generators]}


def parse_group_json(data):
    """The degree and generators of a group JSON object, with its keys
    and types checked; no stabilizer chain is built."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object with degree and generators")
    for key in ("degree", "generators"):
        if key not in data:
            raise ValueError(f"group JSON has no {key!r} key")
    degree, gens = data["degree"], data["generators"]
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
        raise ValueError(f"degree must be a non-negative int: {degree!r}")
    if not isinstance(gens, list) \
            or not all(isinstance(g, list) for g in gens):
        raise ValueError("generators must be a list of image lists")
    return degree, [Permutation(imgs) for imgs in gens]


def is_normal_in(N, G):
    if not N.is_subgroup_of(G):
        raise ValueError("N is not a subgroup of G")
    for g in G.generators:
        ginv = g.inverse()
        for n in N.generators:
            if not N.contains(ginv * n * g):
                return False
    return True


def normalizer(G, H):
    """Elements of G normalizing H (brute force)."""
    out = []
    for g in G.elements():
        ginv = g.inverse()
        if all(H.contains(ginv * h * g) for h in H.generators):
            out.append(g)
    return PermGroup(G.degree, out)


def _is_prime(n):
    return prime_factors(n) == [n]


def prime_factors(n):
    """Prime factorization as a sorted list with multiplicity ([] for
    n < 2): the package's one trial division."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def sylow_subgroup(G, p, containing=None):
    """A Sylow p-subgroup of G, grown one element at a time.

    The growth starts from the p-subgroup `containing` when given, else
    from the cyclic group of the least element of order p.  While P is
    below the p-part of |G|, P becomes <P, g> for the first element g of
    one listing of G that is a p-element outside P and conjugates P's
    generators into P.  Such a g normalizes P, so <P, g> = P<g>, whose
    order divides |P| |<g>|, a power of p: no candidate group is built.
    One exists while P is not Sylow, since a p-subgroup properly inside a
    p-group is properly inside its normalizer there.  G is listed only
    when P must grow.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if G.order % p != 0:
        raise ValueError(f"{p} does not divide the group order {G.order}")
    target = p ** prime_factors(G.order).count(p)
    P = containing
    if P is None or P.order < target:
        elements = G.elements()
    if P is None:
        P = PermGroup(G.degree, [min(g for g in elements if g.order() == p)])
    while P.order < target:
        keys = {h.images for h in P.elements()}
        for g in elements:
            if g.images in keys or not _is_power_of(g.order(), p):
                continue
            ginv = g.inverse()
            if all((ginv * h * g).images in keys for h in P.generators):
                break
        else:  # cannot happen by Sylow theory
            raise RuntimeError("sylow extension failed")
        P = PermGroup(G.degree, P.generators + (g,))
    return P


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1
