import pytest

from tatelab.abelian import AbMap, Homology
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
