import pytest

from redsop import CyclicModule, PolyRing


@pytest.fixture
def R():
    return PolyRing(("X", "Y", "Z"))


@pytest.fixture
def M(R):
    """k[X,Y,Z]/(XY, XZ): dimension 2, depth 1, not Cohen-Macaulay."""
    return CyclicModule(R.ideal("XY", "XZ"))
