"""An independent oracle for Tate cohomology: local elimination.

Tate cohomology is killed by |G|.  For a module whose underlying group
has no relations the cochain groups are free, and coker(d_in) is
Ĥ^i (+) Z^r, since Z^N / ker(d_out) embeds in a free group.  So the
nonzero elementary divisors of d_in other than units are the invariant
factors of Ĥ^i, and each divides |G|.  For a prime p with p^v || |G|,
eliminating d_in over Z/p^(v+1) reads off their p-parts: an elementary
divisor of valuation a <= v stays p^a, and a zero one becomes 0.  This
is the local rank idea of Dumas-Saunders-Villard (J. Symbolic Comput.
2001).

The modules checked are Z, Z[G] and permutation modules, and the
lattices W, R, B and X that the analysis builds from an instance.  The
oracle is written in plain lists and dicts.  It reads the ring-level
differential of `TateComplex` and the action matrices, and shares no
code with the specialization, `Homology`, the Smith form or the kernel
and lattice code that `TateCohomology` runs on.
"""

import pytest

from tatelab.cft import synth_instance, xy_modules
from tatelab.cohomology import TateCohomology, TateComplex
from tatelab.gmodules import perm_module, regular_module, trivial_module
from tatelab.groups import Subgroup, named_group
from tatelab.tate_sequence import build_wrb

GROUPS = ("C2", "C3", "C4", "V4", "S3", "D4", "Q8")
WINDOW = (-3, 2)
# the analysis window -2..0 and degree 1, so that the oracle still
# covers H^1 of the lattices the analysis builds
LATTICE_WINDOW = (-2, 1)


def prime_powers(n):
    """{p: v} with p^v || n."""
    out, p = {}, 2
    while n > 1:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


def valuation(x, p):
    a = 0
    while x % p == 0:
        x //= p
        a += 1
    return a


def local_exponents(columns, p, e):
    """The exponents a, 1 <= a < e, of the elementary divisors p^a of the
    integer matrix with these sparse columns ({row: entry} dicts), by
    elimination over Z/p^e.  Each step takes a pivot of least valuation,
    clears its row by column operations and drops its row and column."""
    q = p ** e
    cols = [{r: x % q for r, x in col.items() if x % q} for col in columns]
    cols = [col for col in cols if col]
    at_row = {}
    for j, col in enumerate(cols):
        for r in col:
            at_row.setdefault(r, set()).add(j)
    alive = set(range(len(cols)))
    out = []
    while alive:
        best = None
        for j in alive:
            for r, x in cols[j].items():
                key = (valuation(x, p), len(cols[j]), len(at_row[r]))
                if best is None or key < best[0]:
                    best = (key, j, r)
            if best and best[0][:2] == (0, 1):
                break
        (a, _, _), j, r = best
        piv = cols[j][r]
        inv = pow(piv // p ** a, -1, q)
        alive.discard(j)
        for r2 in cols[j]:
            at_row[r2].discard(j)
        for k in list(at_row.pop(r)):
            col = cols[k]
            f = (col[r] // p ** a) * inv % q
            for r2, y in cols[j].items():
                z = (col.get(r2, 0) - f * y) % q
                if z:
                    if r2 not in col:
                        at_row[r2].add(k)
                    col[r2] = z
                elif r2 in col:
                    del col[r2]
                    if r2 != r:
                        at_row[r2].discard(k)
            if not col:
                alive.discard(k)
        if a:
            out.append(a)
    return sorted(out)


def local_invariant_factors(columns, order):
    """The invariant factors d1 | d2 | ... (entries > 1) of the torsion of
    the cokernel of the matrix with these sparse columns, whose torsion
    is killed by `order`, read off one local elimination per prime."""
    exps = {p: local_exponents(columns, p, v + 1)
            for p, v in prime_powers(order).items()}
    n = max((len(a) for a in exps.values()), default=0)
    factors = []
    for k in range(n):
        d = 1
        for p, a in exps.items():
            if k < len(a):
                d *= p ** a[len(a) - 1 - k]
        factors.append(d)
    return tuple(reversed(factors))


def incoming_columns(cx, module, i):
    """The sparse columns of the whole differential of degree i-1 -> i
    specialized at a module with no relations: block column s of a
    source tuple sums c times the action columns of g at target t."""
    na = module.underlying.n
    acts = [[list(col.items()) for col in m.sparse_columns()]
            for m in module.action]
    cols = [{} for _ in range(cx.rank(i - 1) * na)]
    for s_idx, col in cx.ring_differential(i - 1).items():
        for t_idx, zg in col.items():
            for g, c in zg.items():
                for q in range(na):
                    out = cols[s_idx * na + q]
                    for r, a in acts[g][q]:
                        key = t_idx * na + r
                        out[key] = out.get(key, 0) + c * a
    return [{r: x for r, x in col.items() if x} for col in cols]


def relation_free_modules(grp):
    """Z, Z[G] and the permutation modules Z[G/<h>] of the cyclic
    subgroups 1 != <h> != G, one per subgroup."""
    out = {"Z": trivial_module(grp), "Z[G]": regular_module(grp)}
    for sub in sorted({tuple(grp.closure([h])) for h in range(grp.order)}):
        if 1 < len(sub) < grp.order:
            out[f"Z[G/{sub}]"] = perm_module(grp, Subgroup(grp, sub))[0]
    return out


def test_local_invariant_factors_of_small_matrices():
    # diag(2, 12, 0) over |G| = 12: 2 and 12 survive, 0 is free
    cols = [{0: 2}, {1: 12}, {}]
    assert local_invariant_factors(cols, 12) == (2, 12)
    # [[2, 4], [6, 8]] has Smith form diag(2, 4)
    assert local_invariant_factors([{0: 2, 1: 6}, {0: 4, 1: 8}], 4) == (2, 4)
    assert local_invariant_factors([{0: 3}], 2) == ()


@pytest.mark.parametrize("name", GROUPS)
def test_local_oracle_matches_tate_cohomology(name):
    """At every degree of -3..2, for Z, Z[G] and the permutation modules,
    Ĥ^i is finite and its invariant factors are those the local
    elimination of the incoming differential reads off."""
    grp = named_group(name)
    cx = TateComplex(grp, WINDOW)
    for kind, mod in relation_free_modules(grp).items():
        assert mod.underlying.rel.cols == 0
        calc = TateCohomology(cx, mod)
        for i in range(WINDOW[0], WINDOW[1] + 1):
            h = calc.group(i)
            want = local_invariant_factors(incoming_columns(cx, mod, i),
                                           grp.order)
            assert (h.free_rank(), h.invariant_factors()) == (0, want), \
                (kind, i)


@pytest.mark.parametrize("name", GROUPS)
def test_local_oracle_matches_the_pipeline_lattices(name):
    """At every degree of -2..1, the Tate cohomology of W, R, B and X of
    the seed-0 instance, modules without relations, has the invariant
    factors the local elimination reads off."""
    inst = synth_instance(name, 0)
    wrb = build_wrb(inst, xy_modules(inst))
    cx = TateComplex(inst.group, LATTICE_WINDOW)
    nonzero = 0
    for kind in ("w", "r", "b", "x"):
        mod = getattr(wrb, kind)
        assert mod.underlying.rel.cols == 0
        calc = TateCohomology(cx, mod)
        for i in range(LATTICE_WINDOW[0], LATTICE_WINDOW[1] + 1):
            h = calc.group(i)
            want = local_invariant_factors(incoming_columns(cx, mod, i),
                                           inst.group.order)
            assert (h.free_rank(), h.invariant_factors()) == (0, want), \
                (kind, i)
            nonzero += bool(want)
    assert nonzero


def test_local_oracle_sees_one_perturbed_entry():
    """Adding 1 to one entry of the incoming differential of H^-2(D4, Z)
    = (Z/2)^2 makes the oracle disagree with the calculator."""
    grp = named_group("D4")
    cx = TateComplex(grp, WINDOW)
    mod = trivial_module(grp)
    want = TateCohomology(cx, mod).group(-2).invariant_factors()
    cols = incoming_columns(cx, mod, -2)
    assert local_invariant_factors(cols, grp.order) == want == (2, 2)
    j = next(k for k, col in enumerate(cols) if col)
    r = min(cols[j])
    cols[j] = {**cols[j], r: cols[j][r] + 1}
    assert local_invariant_factors(cols, grp.order) != want
