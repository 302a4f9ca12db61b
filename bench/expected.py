"""Reference values for the `resolution` workload, derived from theory.

Every entry of the table comes with the statement it rests on, so a
mismatch points at either the program or a cited fact, never at a number
recorded from an earlier run.  Values are invariant factors d1 | d2 | ...
of the Tate cohomology group; an empty tuple is the zero group.  All the
groups are finite, so the free rank is always 0.
"""

from __future__ import annotations

CYCLIC_ORDER = {"C2": 2, "C3": 3, "C4": 4}
GROUP_ORDER = {"C2": 2, "C3": 3, "C4": 4, "V4": 4, "S3": 6, "D4": 8,
               "Q8": 8}
ABELIANIZATION = {"C2": (2,), "C3": (3,), "C4": (4,), "V4": (2, 2),
                  "S3": (2,), "D4": (2, 2), "Q8": (2, 2)}
# H_2(G, Z), the Schur multiplier: zero for cyclic groups; Z/2 for V4 by
# the Kunneth formula; zero for S3 and Q8, whose cohomology has period 4,
# so H^-3 = H^1 = 0; Z/2 for the dihedral group D4 (Karpilovsky, "The
# Schur Multiplier", 1987).
SCHUR_MULTIPLIER = {"C2": (), "C3": (), "C4": (), "V4": (2,), "S3": (),
                    "D4": (2,), "Q8": ()}
# H_3(G, Z) for the non-cyclic groups the -4..3 window uses: V4 by the
# Kunneth formula (Z/2 x Z/2 x Z/2); S3 by 4-periodicity, since its Sylow
# subgroups are cyclic (Cartan-Eilenberg, Homological Algebra, ch. XII):
# H^-4 = H^0 = Z/6.
H3 = {"V4": ((2, 2, 2), "Kunneth formula for H_3(C2 x C2, Z)"),
      "S3": ((6,), "4-periodicity of S3 (cyclic Sylow subgroups), "
                   "Cartan-Eilenberg ch. XII: H^-4 = H^0 = Z/|G|")}


def tate_z(group, i):
    """(invariant factors, source) of H^i(G, Z) with trivial action."""
    if group in CYCLIC_ORDER:
        n = CYCLIC_ORDER[group]
        if i % 2:
            return (), "cyclic 2-periodicity: H^odd(C_n, Z) = H^-1 = 0"
        return (n,), "cyclic 2-periodicity: H^even(C_n, Z) = H^0 = Z/n"
    if i == 0:
        return (GROUP_ORDER[group],), "H^0(G, Z) = Z/N(Z) = Z/|G|"
    if i == -1:
        return (), "H^-1(G, Z) = ker(N)/I_G Z = 0, N injective on Z"
    if i == -2:
        return ABELIANIZATION[group], "H^-2(G, Z) = H_1(G, Z) = G^ab"
    if i == -3:
        return SCHUR_MULTIPLIER[group], ("H^-3(G, Z) = H_2(G, Z), the "
                                         "Schur multiplier")
    if i == -4:
        return H3[group]
    if i > 0:
        factors, source = tate_z(group, -i)
        return factors, f"Tate duality H^{i} = dual of H^{-i}; {source}"
    raise KeyError(f"no reference for H^{i}({group}, Z)")


def _p_rank(factors, p):
    return sum(1 for d in factors if d % p == 0)


def _chain(counts):
    """Invariant factors of a product of elementary abelian p-groups,
    counts = {p: rank}."""
    out = []
    counts = dict(counts)
    while any(counts.values()):
        d = 1
        for p in sorted(counts):
            if counts[p]:
                d *= p
                counts[p] -= 1
        out.append(d)
    return tuple(sorted(out))


def tate_z6(group, i):
    """H^i(G, Z/6) with trivial action.  Z/6 = Z/2 + Z/3 and for a prime p
    the sequence 0 -> Z -p-> Z -> Z/p -> 0 gives an elementary abelian
    H^i(G, Z/p) of rank d_p(H^i(G, Z)) + d_p(H^{i+1}(G, Z))."""
    here, src_here = tate_z(group, i)
    up, src_up = tate_z(group, i + 1)
    counts = {p: _p_rank(here, p) + _p_rank(up, p) for p in (2, 3)}
    return _chain(counts), (f"Bockstein sequences for Z/2 and Z/3 from "
                            f"H^{i}(Z) [{src_here}] and H^{i + 1}(Z) "
                            f"[{src_up}]")


def tate(group, module, i):
    """(invariant factors, source) of H^i(G, module) for the workload's
    modules: "Z", "Z/6" (trivial action) and "Z[G]"."""
    if module == "Z":
        return tate_z(group, i)
    if module == "Z/6":
        return tate_z6(group, i)
    if module == "Z[G]":
        return (), "Z[G] is induced, hence cohomologically trivial"
    raise KeyError(f"no reference for module {module!r}")
