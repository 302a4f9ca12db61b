import pytest

from tatelab.abelian import AbMap, Homology
from tatelab.gmodules import NotEquivariant
from tatelab.lattice import IntMatrix


def direct_low_degrees(module):
    """(H^0, H^-1) of `module` as Homology objects read off the direct
    formulas, with no resolution: H^0 = M^G / N M at the middle of
    M -N-> M -> M^|G|, m -> (gm - m)_g, and H^-1 = ker N / <(g-1)m> at
    the middle of M^|G| -> M -N-> M, (m_g) -> sum_g (g - 1) m_g."""
    nu, cob = module.norm_map(), module.coboundary_map()
    n = module.underlying.n
    moved = IntMatrix([[a - (r == q) for m in module.action
                        for q, a in enumerate(m.entries[r])]
                       for r in range(n)], cols=cob.cod.n)
    return (Homology(nu, cob),
            Homology(AbMap(cob.cod, module.underlying, moved, check=False),
                     nu))


@pytest.fixture
def direct_formula():
    """The direct-formula oracle for H^0 and H^-1 (see direct_low_degrees)."""
    return direct_low_degrees


def precompose_loop(hom, dom_hom, phi):
    """The matrix of Hom(C', A) -> Hom(C, A), f -> f.phi, one generator at
    a time: to_matrix, compose with phi, from_matrix.  The reference that
    `HomModule.precompose` must equal."""
    cols = []
    for j in range(dom_hom.module.underlying.n):
        fmat = dom_hom.to_matrix(dom_hom.module.underlying.gen(j))
        cols.append(hom.from_matrix(fmat.mul(phi)))
    return IntMatrix._trusted_columns(cols, hom.module.underlying.n)


@pytest.fixture
def precompose_by_loop():
    """The per-generator reference for HomModule.precompose (see
    precompose_loop)."""
    return precompose_loop


def kernel_lift_loop(f):
    """(inclusion, action matrices) of the kernel of the GMap f, one lift
    per group element: rho(g).incl solved through the inclusion for every
    g.  The reference that the actions of `GMap.kernel` must agree with
    modulo the kernel's relations."""
    _, incl = f.ab.kernel()
    return incl, [incl.lift(f.dom.action[g].mul(incl.mat),
                            lambda i, g=g: NotEquivariant(i, g))
                  for g in range(f.dom.group.order)]


@pytest.fixture
def kernel_by_lift():
    """The all-elements reference for GMap.kernel (see kernel_lift_loop)."""
    return kernel_lift_loop
