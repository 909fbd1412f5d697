"""The package surface: `quvar` exports exactly what its modules' `__all__` declare."""

import types

import quvar
from quvar import bounds, extremal, gaussian, gridsim, ozawa

MODULES = (bounds, extremal, gaussian, gridsim, ozawa)


def test_the_public_names_are_the_union_of_the_modules_all():
    public = {name for name, value in vars(quvar).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = [name for module in MODULES for name in module.__all__]
    assert len(set(declared)) == len(declared)  # no module's name shadows another's
    assert public == set(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(quvar, name) is getattr(module, name), f"{module.__name__}.{name}"
