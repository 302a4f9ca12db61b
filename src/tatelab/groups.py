"""Finite groups given by explicit multiplication tables.

Everything is index-based: a group of order n has elements 0..n-1 and a
table with table[i][j] = index of the product.  Orders stay small (the
targeted instances have |G| <= 16 and group extensions up to a few
hundred elements), so full tables beat any permutation-group machinery.
"""

from __future__ import annotations

from .abelian import FgAb
from .lattice import IntMatrix


class NotAGroup(Exception):
    def __init__(self, axiom, witness=None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"not a group: {axiom} violated (witness {witness!r})")


class NotACocycle(Exception):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"2-cocycle identity fails at {witness!r}")


class FiniteGroup:
    __slots__ = ("order", "table", "identity", "inv", "labels", "_gens")

    def __init__(self, table, identity, inv, labels=None):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.identity = identity
        self.inv = tuple(inv)
        self.labels = tuple(labels) if labels else tuple(str(i) for i in range(self.order))
        self._gens = None

    def mul(self, a, b):
        return self.table[a][b]

    def conj(self, g, x):
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv[g])

    def elements(self):
        return range(self.order)

    def closure(self, gens):
        """Sorted element set of the subgroup generated by gens."""
        seen = {self.identity}
        frontier = [self.identity]
        gens = sorted(set(gens) | {self.identity})
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    for y in (self.mul(x, g), self.mul(g, x)):
                        if y not in seen:
                            seen.add(y)
                            new.append(y)
            frontier = new
        return tuple(sorted(seen))

    def generating_set(self):
        """A small generating set, chosen deterministically; computed on
        the first call and kept, as the table never changes."""
        if self._gens is None:
            gens = []
            cur = {self.identity}
            while len(cur) < self.order:
                nxt = min(x for x in range(self.order) if x not in cur)
                gens.append(nxt)
                cur = set(self.closure(gens))
            self._gens = tuple(gens)
        return self._gens

    def all_subgroups(self):
        """Subgroups generated by at most two elements (all subgroups,
        for the small groups this package targets)."""
        found = {(self.identity,)}
        singles = [self.closure([g]) for g in range(self.order)]
        found.update(singles)
        for a in range(self.order):
            for b in range(a + 1, self.order):
                found.add(self.closure([a, b]))
        return [Subgroup(self, s) for s in sorted(found, key=lambda s: (len(s), s))]

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


class Subgroup:
    __slots__ = ("group", "elems", "_set")

    def __init__(self, group, elems):
        elems = tuple(sorted(set(elems)))
        self.group = group
        self.elems = elems
        self._set = frozenset(elems)
        if group.identity not in self._set:
            raise NotAGroup("identity", witness=elems)
        for a in elems:
            if group.inv[a] not in self._set:
                raise NotAGroup("inverses", witness=a)
            for b in elems:
                if group.mul(a, b) not in self._set:
                    raise NotAGroup("closure", witness=(a, b))

    def __contains__(self, x):
        return x in self._set

    def __len__(self):
        return len(self.elems)

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.elems == other.elems \
            and self.group is other.group

    def __hash__(self):
        return hash(self.elems)

    def is_full(self):
        return len(self.elems) == self.group.order

    def __repr__(self):
        return f"Subgroup({list(self.elems)})"


class GroupHom:
    """A homomorphism given by its table of images.

    Multiplicativity f(ab) = f(a)f(b) is checked for a in a generating set
    of dom only: the a for which it holds at every b are closed under the
    product, since f(a1a2 b) = f(a1)f(a2 b) = f(a1)f(a2)f(b) = f(a1a2)f(b),
    so they make up all of dom.
    """

    __slots__ = ("dom", "cod", "images")

    def __init__(self, dom, cod, images, check=True):
        self.dom = dom
        self.cod = cod
        self.images = tuple(images)
        if len(self.images) != dom.order:
            raise ValueError("image table length mismatch")
        if check:
            if self.images[dom.identity] != cod.identity:
                raise NotAGroup("hom-identity", witness=dom.identity)
            for a in dom.generating_set():
                for b in range(dom.order):
                    if self.images[dom.mul(a, b)] != cod.mul(self.images[a],
                                                             self.images[b]):
                        raise NotAGroup("hom-multiplicativity", witness=(a, b))

    def __call__(self, x):
        return self.images[x]

    def is_surjective(self):
        return len(set(self.images)) == self.cod.order

    def kernel_elements(self):
        return tuple(i for i, v in enumerate(self.images)
                     if v == self.cod.identity)


def group_from_table(table, labels=None):
    """Validate a multiplication table and wrap it as a FiniteGroup.

    Associativity is decided exactly, at every order, by Light's test in
    |S|.n^2 products: (xs)y = x(sy) for all x, y and every s in S, a
    generating set of the candidate table.  The s that pass are closed
    under the product: for two of them a, b,
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
    S is `generating_set()` of the table, and `closure` only multiplies,
    never inverts, so S generates the table as a magma whether or not it
    is associative; the passing s are then every element.
    """
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup("shape", witness=i)
        for x in row:
            if not (0 <= x < n):
                raise NotAGroup("range", witness=(i, x))
    for i in range(n):
        if len(set(table[i])) != n:
            raise NotAGroup("cancellation", witness=("row", i))
        if len({table[j][i] for j in range(n)}) != n:
            raise NotAGroup("cancellation", witness=("column", i))
    identity = None
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and \
           all(table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("identity")
    inv = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == identity and table[j][i] == identity:
                inv[i] = j
                break
        if inv[i] is None:
            raise NotAGroup("inverses", witness=i)
    grp = FiniteGroup(table, identity, inv, labels)
    t = grp.table
    for s in grp.generating_set():
        for x, row in enumerate(t):
            left = t[row[s]]                     # (xs)y over all y
            right = tuple(row[z] for z in t[s])  # x(sy) over all y
            if left != right:
                y = next(y for y in range(n) if left[y] != right[y])
                raise NotAGroup("associativity", witness=(x, s, y))
    return grp


# -- catalog ---------------------------------------------------------------

def cyclic(n, label="g"):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1"] + [f"{label}{'' if i == 1 else i}" for i in range(1, n)]
    return group_from_table(table, labels)


def direct_product(g1, g2):
    pairs = [(a, b) for a in range(g1.order) for b in range(g2.order)]
    idx = {p: i for i, p in enumerate(pairs)}
    table = [[idx[(g1.mul(a, c), g2.mul(b, d))] for (c, d) in pairs]
             for (a, b) in pairs]
    labels = [f"({g1.labels[a]},{g2.labels[b]})" for (a, b) in pairs]
    return group_from_table(table, labels)


def symmetric3():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(3))

    table = [[idx[compose(p, q)] for q in perms] for p in perms]
    labels = ["1", "r", "r2", "s", "rs", "r2s"]
    return group_from_table(table, labels)


def dihedral4():
    """Dihedral group of order 8: r^4 = s^2 = 1, s r s = r^-1."""
    elems = [(i, j) for j in range(2) for i in range(4)]  # r^i s^j
    idx = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        i, j = a
        k, l = b
        # (r^i s^j)(r^k s^l) = r^(i + k*(-1)^j) s^(j+l)
        return ((i + (k if j == 0 else -k)) % 4, (j + l) % 2)

    table = [[idx[mul(a, b)] for b in elems] for a in elems]
    labels = [f"r{i}" if j == 0 else (f"r{i}s" if i else "s") for (i, j) in elems]
    labels[0] = "1"
    return group_from_table(table, labels)


def quaternion8():
    """Quaternion group {1, -1, i, -i, j, -j, k, -k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    idx = {n: i for i, n in enumerate(names)}

    def mul(a, b):
        sa, ua = (a[0] == "-", a.lstrip("-"))
        sb, ub = (b[0] == "-", b.lstrip("-"))
        basic = {("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
                 ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
                 ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
                 ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
                 ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j"}
        r = basic[(ua, ub)]
        s = sa ^ sb ^ (r[0] == "-")
        return ("-" if s else "") + r.lstrip("-")

    table = [[idx[mul(a, b)] for b in names] for a in names]
    return group_from_table(table, names)


GROUP_CATALOG = {
    "1": lambda: cyclic(1),
    "C2": lambda: cyclic(2),
    "C3": lambda: cyclic(3),
    "C4": lambda: cyclic(4),
    "C6": lambda: cyclic(6),
    "V4": lambda: direct_product(cyclic(2), cyclic(2)),
    "S3": symmetric3,
    "D4": dihedral4,
    "Q8": quaternion8,
}


def named_group(name):
    try:
        return GROUP_CATALOG[name]()
    except KeyError:
        raise ValueError(f"unknown group name {name!r}; "
                         f"choose from {sorted(GROUP_CATALOG)}") from None


# -- coset and quotient machinery ------------------------------------------

def cosets_and_reps(group, sub):
    """Left-coset representatives (identity first) and the map sigma ->
    representative of sigma*H.  Ties break to the least element index."""
    if sub.group is not group:
        raise ValueError("subgroup of a different group")
    rho = [None] * group.order
    reps = []
    for x in range(group.order):
        if rho[x] is None:
            coset = sorted(group.mul(x, h) for h in sub.elems)
            rep = group.identity if group.identity in coset else coset[0]
            for y in coset:
                rho[y] = rep
            reps.append(rep)
    reps.sort(key=lambda r: (r != group.identity, r))
    return tuple(reps), tuple(rho)


def abelianization(group):
    """(A, proj): A = G^ab as an FgAb on S = `generating_set()`, and
    proj[g] = w(g), the word of g in Z^S.

    w(g) is read along a breadth-first spanning tree of the Cayley graph
    x -> xs from the identity, and A = Z^S / <w(g) + e_s - w(gs)> over
    every g and s in S.  By Schreier's lemma the elements t_g s t_gs^-1,
    with t_g the tree path to g, generate the kernel of the free group
    F(S) -> G, so their images in Z^S present G^ab (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005).  A tree edge
    gives the zero relation and is skipped.  The trivial group has S
    empty and A = Z^0.
    """
    gens = group.generating_set()
    k = len(gens)
    words = {group.identity: (0,) * k}
    reached = [group.identity]
    cols = []
    for g in reached:
        wg = words[g]
        for i, s in enumerate(gens):
            gs = group.mul(g, s)
            moved = wg[:i] + (wg[i] + 1,) + wg[i + 1:]
            if gs not in words:
                words[gs] = moved
                reached.append(gs)
                continue
            col = {j: a - b for j, (a, b) in enumerate(zip(moved, words[gs]))
                   if a != b}
            if col:
                cols.append(col)
    a = FgAb(k, IntMatrix._from_sparse_columns(cols, k))
    return a, [words[g] for g in range(group.order)]


def subgroup_as_group(sub):
    """(H as a FiniteGroup, list mapping new indices to parent indices)."""
    parent = sub.group
    elems = list(sub.elems)
    pos = {e: i for i, e in enumerate(elems)}
    table = [[pos[parent.mul(a, b)] for b in elems] for a in elems]
    labels = [parent.labels[e] for e in elems]
    return group_from_table(table, labels), elems


# -- extensions with abelian kernel ----------------------------------------

def extension_from_cocycle(cl_mod, group, cocycle):
    """Group extension of `group` by the finite module `cl_mod` along a
    normalized 2-cocycle.

    cl_mod must expose `.underlying` (finite FgAb) and `.act(g, x)`;
    cocycle maps (g, h) element-index pairs to elements of the module.
    Returns (GS, kappa, pi, member): kappa maps canonical module
    coordinates to element indices of GS, pi is the projection GS ->
    group, and member[(canon(c), g)] is the index of the pair (c, g).
    GS lists the pairs (c, g) by g, then by c in `elements()` order.

    Everything is decided on integer codes (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005): an element of Cl is
    coded by its position in `elements()`, found from its canonical
    coordinates, and four tables are built once: the addition table
    (|Cl|^2), the action table act[g][i] = code(g.c_i) (|G|.|Cl|), the
    cocycle table f[g][h] = code(cocycle(g, h)) (one call per pair) and
    the zero code.  canon is a homomorphism Z^n -> (+) Z/m_i whose
    kernel is the relation lattice, so the code of canon(x + y) is the
    sum of the codes, added digit by digit modulo the canonical moduli.
    The module is a valid G-module, so g acts on classes and act[g]
    gives g.x for any representative x.  Hence the entry at ((c1, g1),
    (c2, g2)), t[g1][g2].|Cl| + add[add[c1][act[g1][c2]]][f[g1][g2]],
    is the pair (canon(c1 + g1.c2 + f(g1, g2)), g1 g2) that the product
    in the extension names, and each cocycle identity below holds on
    codes iff it holds in Cl.  A cocycle value of the wrong length
    raises ValueError.

    The cocycle identity g.f(h, k) + f(g, hk) = f(gh, k) + f(g, h) is
    checked for middle elements h in a generating set only.  Write
    d(g, h, k) for the left side minus the right; then
    d(g, ab, k) = d(g, a, bk) - d(g, a, b) + d(ga, b, k) - g.d(a, b, k),
    so the h at which d vanishes for every g, k are closed under the
    product, and they make up all of the group (h = 1 passes by the
    normalization).
    """
    cl = cl_mod.underlying
    if not cl.is_finite():
        raise ValueError("extension kernel must be finite")
    n = group.order
    e = group.identity
    t = group.table
    elems = [tuple(x) for x in cl.elements()]
    canons = [cl.canon(c) for c in elems]
    m = len(elems)
    code = {c: i for i, c in enumerate(canons)}
    mods = cl.canonical_moduli()

    def enc(x):
        return code[cl.canon(x)]

    add = [[code[tuple((a + b) % q for a, b, q in zip(ca, cb, mods))]
            for cb in canons] for ca in canons]
    act = [[enc(cl_mod.act(g, c)) for c in elems] for g in range(n)]
    get = cocycle if callable(cocycle) else (lambda g, h: cocycle[(g, h)])
    f = [[enc(get(g, h)) for h in range(n)] for g in range(n)]
    zero = enc(cl.zero())

    for g in range(n):
        if f[g][e] != zero or f[e][g] != zero:
            raise NotACocycle((g, "identity-normalization"))
    gens = group.generating_set()
    for g in range(n):
        act_g, f_g = act[g], f[g]
        for h in gens:
            f_h, f_of_gh, f_g_h = f[h], f[t[g][h]], f_g[h]
            for k in range(n):
                if add[act_g[f_h[k]]][f_g[t[h][k]]] != \
                        add[f_of_gh[k]][f_g_h]:
                    raise NotACocycle((g, h, k))

    table = []
    for g1 in range(n):
        act_g, f_g, t_g = act[g1], f[g1], t[g1]
        for i1 in range(m):
            moved = [add[i1][a] for a in act_g]  # c1 + g1.c2, by c2
            row = []
            for g2 in range(n):
                base, shift = t_g[g2] * m, add[f_g[g2]]
                row.extend(base + shift[x] for x in moved)
            table.append(row)
    labels = [f"({'+'.join(map(str, c)) or '0'};{group.labels[g]})"
              for g in range(n) for c in canons]
    gs = group_from_table(table, labels)
    member = {(c, g): g * m + i for g in range(n)
              for i, c in enumerate(canons)}
    kappa = {c: e * m + i for i, c in enumerate(canons)}
    pi = GroupHom(gs, group, [g for g in range(n) for _ in range(m)])
    return gs, kappa, pi, member
