import pytest

from mhopf.algebras import Algebra, Corner, group_algebra_plain, subgroup_average_idempotent
from mhopf.coactions import GlobalComodule
from mhopf.errors import StructuralError
from mhopf.groups import alternating_elements, cyclic_group, symmetric_group
from mhopf.mha import instance_for


@pytest.fixture(scope="session")
def S3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def C2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def C4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def AG_S3(S3):
    return instance_for("A_G", S3)


@pytest.fixture(scope="session")
def kG_S3(S3):
    return instance_for("kG", S3)


def relabel_globalization(G, token_fn, name=None):
    """Isomorphic copy of the envelope G along a bijective relabeling of
    its tokens."""
    fwd = {t: token_fn(t) for t in G.algebra.basis}
    if len(set(fwd.values())) != len(fwd):
        raise StructuralError("relabeling is not injective")
    back = {v: k for k, v in fwd.items()}

    def remap(v):
        return v.map_tokens(lambda t: fwd[t])

    env = Algebra(
        name=(name or G.algebra.name + "~relabel"),
        mul_basis=lambda i, j: remap(G.algebra.mul_basis(back[i], back[j])),
        basis=tuple(fwd[t] for t in G.algebra.basis),
        one=remap(G.algebra.one) if G.algebra.one is not None else None,
    )
    return G._replace(
        name=(name or G.name + "~relabel"),
        algebra=env,
        act=lambda a, t: remap(G.act(a, back[t])),
        theta_map={x: remap(v) for x, v in G.theta_map.items()},
        pi_rule=lambda v: G.pi_rule(v.map_tokens(lambda t: back[t])),
        generators=tuple(remap(v) for v in G.generators),
    )


@pytest.fixture(scope="session")
def relabel():
    return relabel_globalization


def regular_comodule(instance):
    """A coacting on itself through its own comultiplication."""
    return GlobalComodule(
        name=f"regular-comodule:{instance.name}",
        algebra=instance.algebra,
        instance=instance,
        rho_r=instance.delta_r,
    )


@pytest.fixture(scope="session")
def regular():
    return regular_comodule


@pytest.fixture(scope="session")
def corner_A3(S3):
    kS3 = group_algebra_plain(S3)
    fN = subgroup_average_idempotent(kS3, alternating_elements(3))
    return Corner(kS3, fN, name="cornerA3")
