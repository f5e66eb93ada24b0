"""The package's public names: what `import queuemax` exposes, and what it does not."""
import types

import pytest

import queuemax
import queuemax.cli
import queuemax.geo_analysis
import queuemax.numerics

NU_KERNELS = ("polynomial_roots", "solve_linear_system", "fixed_point_root")


def _public_names():
    for name in queuemax.__all__:  # the package binds each name on first access
        getattr(queuemax, name)
    return {name for name, value in vars(queuemax).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_all_lists_every_public_name():
    assert len(queuemax.__all__) == len(set(queuemax.__all__))
    assert set(queuemax.__all__) - {"__version__"} == _public_names()


def test_dir_lists_every_public_name():
    assert set(queuemax.__all__) <= set(dir(queuemax))


@pytest.mark.parametrize("name", ["no_such_name", "polynomial_roots", "np"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(queuemax, name)
    assert not hasattr(queuemax, name)


def test_nu_kernels_are_not_exported():
    assert not set(NU_KERNELS) & (_public_names() | set(queuemax.__all__))


def test_nu_kernels_stay_in_their_modules():
    for name in NU_KERNELS:
        kernel = getattr(queuemax.numerics, name)
        assert callable(kernel)
        assert getattr(queuemax.geo_analysis, name) is kernel


def test_cli_reads_each_public_name_as_the_package_object():
    for name in queuemax.__all__:  # cli binds each on its first read, from the package
        assert getattr(queuemax.cli, name) is getattr(queuemax, name)


@pytest.mark.parametrize("name", ["check_campaign", "INCREMENT_METHOD", "numerics",
                                  "no_such_name", "np"])
def test_cli_binds_no_name_the_package_does_not_export(name):
    with pytest.raises(AttributeError, match=name):
        getattr(queuemax.cli, name)
