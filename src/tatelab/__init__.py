"""tatelab: exact verification workbench for Tate cohomology of finite
groups and the connecting homomorphisms of class-field Tate sequences."""

from .abelian import AbMap, FgAb, NonComplex, ab_quotient, subgroup_span
from .cft import (AuxPlace, Instance, PlaceData, PlaceIsP0,
                  UnsatisfiableParams, c_p, i2_plain, i2_twist, norm_model,
                  quadratic_sqrt34, synth_instance, validate_instance,
                  xy_modules)
from .cohomology import (CohClass, Cocycle1, DegreeMismatch,
                         DegreeOutOfWindow, ExtensionData, TateCohomology,
                         TateComplex, WindowTooLarge, build_ext1_data,
                         connecting_hom, cocycle_to_extension, cup_with_h1,
                         ext1_class_to_h2, extension_to_cocycle,
                         shapiro_hminus2)
from .gmodules import (GMap, GModule, HomModule, NotEquivariant, NotFree,
                       TensorModule, aug_ideal, direct_sum, hom_and_tensor,
                       perm_module, regular_module, trivial_module)
from .groups import (FiniteGroup, GroupHom, NotACocycle, NotAGroup,
                     Subgroup, abelianization, cosets_and_reps, cyclic,
                     dihedral4, direct_product, extension_from_cocycle,
                     group_from_table, named_group, quaternion8,
                     subgroup_as_group, symmetric3)
from .lattice import IntMatrix, Lattice
from .tate_sequence import (ImageEscapesCl, NotNormKilled, build_delta1,
                            build_nabla, build_script_h, build_snake,
                            build_wrb, delta1, norm_suite, r_element,
                            snake_closed_form, subgroups_cdc)
from .unit_fixture import InconsistentFixture, fixture_unit_check

__version__ = "0.1.0"
