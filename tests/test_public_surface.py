"""The package's public names: what `import queuemax` exposes, and what it does not."""
import types

import queuemax
import queuemax.geo_analysis
import queuemax.numerics

NU_KERNELS = ("polynomial_roots", "solve_linear_system", "fixed_point_root")


def _public_names():
    return {name for name, value in vars(queuemax).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_all_lists_every_public_name():
    assert len(queuemax.__all__) == len(set(queuemax.__all__))
    assert set(queuemax.__all__) - {"__version__"} == _public_names()


def test_nu_kernels_are_not_exported():
    assert not set(NU_KERNELS) & (_public_names() | set(queuemax.__all__))


def test_nu_kernels_stay_in_their_modules():
    for name in NU_KERNELS:
        kernel = getattr(queuemax.numerics, name)
        assert callable(kernel)
        assert getattr(queuemax.geo_analysis, name) is kernel
