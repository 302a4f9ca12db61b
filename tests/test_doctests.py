import doctest

import pytest

from tatelab import abelian, gmodules, lattice


@pytest.mark.parametrize("module", [lattice, abelian, gmodules],
                         ids=lambda m: m.__name__)
def test_module_doctests_pass(module):
    """The usage examples in the substrate's docstrings run and hold."""
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
