import pytest

from gcdeform.cli import KODAIRA_WORKSPACE, build_workspace, parse_workspace
from gcdeform.deformation import constrain_map, mc_residual, reduce_family


@pytest.fixture(scope="session")
def kworkspace():
    """The built-in ``kodaira`` preset, built as the CLI builds it."""
    return build_workspace(parse_workspace(KODAIRA_WORKSPACE))


@pytest.fixture(scope="session")
def kframe(kworkspace):
    return kworkspace.frame


@pytest.fixture(scope="session")
def ksub(kworkspace):
    return kworkspace.sub


@pytest.fixture(scope="session")
def kmap(ksub):
    return constrain_map(ksub)


@pytest.fixture(scope="session")
def kfamily(kmap):
    emap, _ = kmap
    return reduce_family(mc_residual(emap))
