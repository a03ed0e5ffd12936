"""Block systems, quotient and restricted actions, and imprimitivity towers."""

from __future__ import annotations

from .perm import PermGroup, Permutation, _Chain, orbit


class BlockSystem:
    """An equal-cell partition of {0,...,n-1}, canonically ordered.

    Cells are sorted internally and listed by smallest element.  Whether the
    partition is actually invariant under a group is checked by the
    operations that require it, not by the constructor.
    """

    __slots__ = ("degree", "blocks")

    def __init__(self, degree, blocks):
        cells = sorted(tuple(sorted(cell)) for cell in blocks)
        covered = [x for cell in cells for x in cell]
        if sorted(covered) != list(range(degree)):
            raise ValueError("cells must partition the point set")
        sizes = {len(c) for c in cells}
        if len(sizes) != 1:
            raise ValueError("cells must have equal size")
        self.degree = degree
        self.blocks = tuple(cells)

    @classmethod
    def singletons(cls, degree):
        return cls(degree, [(x,) for x in range(degree)])

    @classmethod
    def one_block(cls, degree):
        return cls(degree, [tuple(range(degree))])

    @property
    def block_size(self):
        return len(self.blocks[0])

    def __len__(self):
        return len(self.blocks)

    def is_trivial(self):
        return self.block_size in (1, self.degree)

    def block_index_of(self):
        """point -> index of its cell."""
        idx = [0] * self.degree
        for i, cell in enumerate(self.blocks):
            for x in cell:
                idx[x] = i
        return idx

    def __eq__(self, other):
        return (isinstance(other, BlockSystem)
                and self.degree == other.degree
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.degree, self.blocks))

    def __lt__(self, other):
        return (self.block_size, self.blocks) < (other.block_size, other.blocks)

    def __repr__(self):
        return f"BlockSystem({self.degree}, {[list(b) for b in self.blocks]})"

    def is_invariant_under(self, G):
        if G.degree != self.degree:
            raise ValueError("degree mismatch")
        cellset = set(self.blocks)
        return all(tuple(sorted(g(x) for x in cell)) in cellset
                   for g in G.generators for cell in self.blocks)

    def apply(self, p):
        """The image partition {p(B) : B}."""
        return BlockSystem(self.degree,
                           [tuple(p(x) for x in cell) for cell in self.blocks])

    def to_json(self):
        return {"degree": self.degree,
                "blocks": [list(b) for b in self.blocks]}


def _join(gens, labels, classes, a, b):
    """The labels of the finest G-invariant partition coarser than the
    G-invariant one that labels gives, with a and b in one class; gens
    are the image tuples of G's generators, a partition is labeled by
    giving each point the least point of its class, and classes[r] lists
    the class labeled r.  A merge relabels the smaller class and queues
    the images of the merged pair under every generator; pairs inside
    one class of labels need none, as G maps them into one class."""
    label = list(labels)
    least = list(range(len(label)))  # least[r]: least point of class r
    members = list(classes)  # merges build new lists: classes is shared
    queue = [(a, b)]
    for x, y in queue:  # the loop appends to the list it reads
        rx, ry = label[x], label[y]
        if rx != ry:
            if len(members[rx]) < len(members[ry]):
                rx, ry = ry, rx
            for z in members[ry]:
                label[z] = rx
            members[rx] = members[rx] + members[ry]
            least[rx] = min(least[rx], least[ry])
            for s in gens:
                queue.append((s[x], s[y]))
    return tuple(map(least.__getitem__, label))


def _classes(labels):
    """classes[r]: the points labeled r, in increasing order; empty
    unless r is the least point of its class."""
    classes = [[] for _ in labels]
    for x, r in enumerate(labels):
        classes[r].append(x)
    return classes


def minimal_block_containing(G, a, b):
    """The finest block system of transitive G with a and b in one block."""
    if not G.is_transitive():
        raise ValueError("group must be transitive")
    if a == b:
        raise ValueError("points must be distinct")
    gens = [g.images for g in G.generators]
    finest = range(G.degree)
    labels = _join(gens, finest, _classes(finest), a, b)
    return BlockSystem(G.degree, filter(None, _classes(labels)))


def refines(B, C):
    """True iff every cell of B is contained in a cell of C."""
    if B.degree != C.degree:
        raise ValueError("degree mismatch")
    idx = C.block_index_of()
    return all(len({idx[x] for x in cell}) == 1 for cell in B.blocks)


def all_block_systems(G):
    """Every nontrivial proper block system of transitive G.

    The blocks containing 0 are closed under joins, and each is the join
    of the minimal blocks of {0, x} over its points x.  So the search
    starts from the singletons and, for each system found and each block
    other than 0's, takes the finest system coarser than it with 0 and
    that block's least point in one block.  Systems are kept as their
    labels (see _join), and a BlockSystem is built once for each.
    """
    if not G.is_transitive():
        raise ValueError("group must be transitive")
    n = G.degree
    gens = [g.images for g in G.generators]
    finest = tuple(range(n))
    found = {finest}
    queue = [finest]
    for labels in queue:  # the loop appends to the list it reads
        classes = _classes(labels)
        for r in range(1, n):
            if labels[r] == r:  # r is the least point of a block
                join = _join(gens, labels, classes, 0, r)
                if join not in found:
                    found.add(join)
                    queue.append(join)
    # the singletons are finest; the one block labels every point 0
    return sorted(BlockSystem(n, filter(None, _classes(labels)))
                  for labels in found if labels != finest and any(labels))


def pullback_system(quotient_bs, bs):
    """Blow a partition of block indices back up to a partition of points."""
    cells = []
    for qcell in quotient_bs.blocks:
        merged = []
        for i in qcell:
            merged.extend(bs.blocks[i])
        cells.append(merged)
    return BlockSystem(bs.degree, cells)


def _block_image(p, bs, idx):
    """The permutation induced by p on block indices."""
    return Permutation(idx[p(cell[0])] for cell in bs.blocks)


def _points_and_blocks_chain(G, bs):
    """The stabilizer chain of G acting on its n points and, as points
    n, n + 1, ..., on the blocks of bs, with the block points first in
    the base.  Its strong generators fixing the first len(bs) base points
    generate the kernel on the blocks, and an element with given images
    of those base points is an element with a given action on the
    blocks."""
    n, m = G.degree, len(bs.blocks)
    idx = bs.block_index_of()
    gens = [Permutation(g.images + tuple(n + x for x in
                                         _block_image(g, bs, idx).images))
            for g in G.generators]
    return _Chain.schreier_sims(n + m, gens, base_hint=range(n, n + m))


def _kernel_generators(G, bs):
    """Generators of the kernel of G on the blocks of its system bs."""
    chain = _points_and_blocks_chain(G, bs)
    return [Permutation(s.images[:G.degree])
            for s in chain._level_gens(len(bs.blocks))]


class BlockAction:
    """Image of G on block indices, with the witnessing homomorphism."""

    def __init__(self, source, system):
        if not system.is_invariant_under(source):
            raise ValueError("partition is not invariant under G")
        self.source = source
        self.system = system
        self._idx = system.block_index_of()
        self.group = PermGroup(
            len(system.blocks),
            [_block_image(g, system, self._idx) for g in source.generators])

    def image(self, p):
        """g -> g^B for any element of the source group."""
        return _block_image(p, self.system, self._idx)

    def preimage(self, q):
        """Some g in the source group with image(g) == q, or None; the
        identity for the identity, with no chain built."""
        n = self.source.degree
        if q.is_identity():
            return Permutation.identity(n)
        chain = _points_and_blocks_chain(self.source, self.system)
        g = chain.element_with_base_images([n + x for x in q.images])
        return None if g is None else Permutation(g.images[:n])


def action_on_blocks(G, bs):
    return BlockAction(G, bs)


def block_restriction(G, B):
    """The induced group of the setwise stabilizer of B, relabeled on B:
    point i is the i-th least point of B.

    By Schreier's lemma over the orbit of B, with no element of G
    listed.  Each image C of B keeps a map u_C from B onto C, as the
    tuple of its images, with u_B the identity.  For each generator s,
    with D = s(C), u_D^-1 s u_C maps B onto B, and these maps generate
    the stabilizer's action on B.  An image that meets another in part
    raises ValueError.
    """
    B = tuple(sorted(B))
    image_of = [None] * G.degree  # y -> the index of the image holding y
    label = [None] * G.degree  # y -> the i with u_C(B[i]) = y, C holding y
    for i, x in enumerate(B):
        image_of[x], label[x] = 0, i
    reps = [B]  # reps[j]: u_C for the j-th image C found
    gens = set()
    for u in reps:  # the loop appends to the list it reads
        for s in G.generators:
            v = tuple(s.images[x] for x in u)  # s u_C, from B onto D
            held = {image_of[y] for y in v}
            if held == {None}:
                for i, y in enumerate(v):
                    image_of[y], label[y] = len(reps), i
                reps.append(v)
            elif len(held) > 1:
                raise ValueError("B is not a block of G")
            else:
                gens.add(tuple(label[y] for y in v))
    return PermGroup(len(B), map(Permutation, gens))


def classify_block_system(G, partition):
    """Is the partition a block system of G, and is it normal?"""
    try:
        bs = partition if isinstance(partition, BlockSystem) \
            else BlockSystem(G.degree, partition)
    except ValueError as exc:
        raise ValueError(f"malformed partition: {exc}") from exc
    if not bs.is_invariant_under(G):
        return {"is_block_system": False, "is_normal": False}
    # on the singletons and on one block the kernel is G, so neither needs
    # a chain: a singleton is an orbit, and one block is iff G is transitive
    if bs.is_trivial():
        normal = bs.block_size == 1 or G.is_transitive()
    else:
        kernel = _kernel_generators(G, bs)
        normal = all(len(orbit(cell[0], kernel, lambda x, g: g(x)))
                     == bs.block_size for cell in bs.blocks)
    return {"is_block_system": True, "is_normal": normal}


def verify_tower(G, towers):
    """Check a properly nested chain of (normal) block systems of G.

    Returns m_step/normal flags, the consecutive block-size ratios, and the
    index at which the chain breaks, if it does.
    """
    ratios = []
    normal = True
    for i, bs in enumerate(towers):
        if bs.degree != G.degree:
            return {"m_step": False, "normal": False,
                    "index_sequence": ratios, "broken_at": i}
        cls = classify_block_system(G, bs)
        if not cls["is_block_system"]:
            return {"m_step": False, "normal": False,
                    "index_sequence": ratios, "broken_at": i}
        normal = normal and cls["is_normal"]
        if i > 0:
            prev = towers[i - 1]
            if not (refines(prev, bs) and prev.block_size < bs.block_size):
                return {"m_step": False, "normal": normal,
                        "index_sequence": ratios, "broken_at": i}
            ratios.append(bs.block_size // prev.block_size)
    return {"m_step": True, "normal": normal,
            "index_sequence": ratios, "broken_at": None}
