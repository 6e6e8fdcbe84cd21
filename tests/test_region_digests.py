"""Region digests: every region keeps its boundary, membership and grids bit for bit.

The sha256 digests and comparison values were recorded with the
isinstance-dispatch ``regions.py`` that preceded the region protocol
(``inside`` / ``boundary`` methods), so they pin that the move changed
no output bit.  Each region is named by its ``parse_region`` descriptor.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from persets import diagram_metrics, regions

GOLDEN = {
    "s1": (
        "3fb909f6f9c2cf10fc48f6a50a634b1770137e1bc12cfa068c9fdfb3287bf395",
        "67ee4fbfa19358086f15470aa9913077f6f79b9ebcfb4988fe33f7fe27b7109a",
        "1f08cdf5673083af98914ffb7b30fab4606223c0b072551dfd86d2a774131a91",
    ),
    "s1:k=3:lambda=2": (
        "e18362d1e5dcae4eb5f93314ecfb169f5f86757c554c0e0640d073641a3a4eca",
        "768ce0713e587044171319a03746273791cf7dc1bf46cbc0b33a7438f1bc836f",
        "b323e4cb687d9cc3b9a402bac8f51e54543735f29ed03b33015e80ccead8838e",
    ),
    "s1:k=2": (
        "180fce456766274d6ace909b54a098786070f3422a131bffdf74a0015083ca62",
        "63fdc1cb7ad6e6a4ca415309594ca81bf9b55ac5903cd955e0eb23339c39216f",
        "a3a9ee8608a27c7c80ebb047eaf1eb9487b331e23014a8cda47dd04e111ec2ec",
    ),
    "s1:k=4:lambda=3.5": (
        "e138214095cd6b05132ec2269fa487e90ee9cee9c4fd1b7b8ef4492d892a2f6b",
        "c030283374f119a9b7cb6cd6c48434f153b74bf1bf275964c93096c38d033762",
        "21abc48c9ad32d7367c7d167169018b3fb51ee11d5b83b7d6bef8ff826fa1332",
    ),
    "mk:kappa=1": (
        "1a859fcd867aeccea5f3418f2a1f1cd0e3a2baca4817484b6ed6c4307211ae10",
        "032f03e1833f3af30a1a074a086419231da9b44f9d52fb862c244f7e06b7fb6a",
        "d76657d5fa83113602b09c138d245ae336bc1ccaec03013cb955b8c8921a2028",
    ),
    "mk:kappa=0.25": (
        "e92a8a7a22d15b9779218b0132ae0b2f86b87238b69c96d2858af5fdbdd5b3e7",
        "d747cbc715124714d42d730df230d4c35c7d2b7e9c97b680d70a41a151084506",
        "49c304a6d30a44aae218405a72bc6da057a62eb086ee9e6698f569b583735c1e",
    ),
    "mk:kappa=0": (
        "45be8baf02b4b684826a1ce374df036d92c89926d1d40eac27c7ca989051391d",
        "84690a0bf358d3b5b83862a49cc5ba4db476162128825c8b396edce459b80938",
        "789e338ab46b9e327179870b3d6ceb6704648ccac0e0332d75e2c729b5a9514f",
    ),
    "mk:kappa=-1": (
        "f3402503a6d5a215b03e7ea2454fdf672226c93ac82496d163469abc3cf8e119",
        "750a1c7b68f1cc8b747ee3daba2d71659202624e44bdbba2af5b389d7ffcd87e",
        "441b2396c4446e8b705aaad94035bc523d26a70ba74f53533624b73b2fa7fd80",
    ),
    "s1-e": (
        "e123d6b07f8404edc28c4064b8aff2c3424b5a7ac94c571af184789bedb67b81",
        "2f8a96b27ada94cd108a150500b7a836d0e3d65cfffd7813ea5b6dc37c7e74f5",
        "339e6aba0e17e405231f2e88be9a222b309678f188e41d6223fa46b4a4e1b05d",
    ),
    "sphere-e:m=2": (
        "4cb2983461b577e677c356b4d0189cb694a1c73630f9f315727aa8b6558c8e87",
        "2773541703490d5b832ce1ce98eb21b3853590499e6fa67dba80a086c91669b7",
        "5ba02c1b5be7fc82d2a5c1ddbca0eb0634abfe7b0e47287eb4b16ed5b7f14dfc",
    ),
    "sphere-e:m=5": (
        "4cb2983461b577e677c356b4d0189cb694a1c73630f9f315727aa8b6558c8e87",
        "2773541703490d5b832ce1ce98eb21b3853590499e6fa67dba80a086c91669b7",
        "5ba02c1b5be7fc82d2a5c1ddbca0eb0634abfe7b0e47287eb4b16ed5b7f14dfc",
    ),
    "ptolemaic": (
        "df22481814677324be088683706493bd7c5346678c72e4c378a5d750d20fa82e",
        "84690a0bf358d3b5b83862a49cc5ba4db476162128825c8b396edce459b80938",
        "49ed5b5c9b8c0aa619cebfa49b502a816e7cc6ef778d8c59d9790a796e915c20",
    ),
    "ptolemaic:cap=2": (
        "924497d8722bdfd748321fe2d6d691a7f9c7150c09f99e582293af5f8148b677",
        "2773541703490d5b832ce1ce98eb21b3853590499e6fa67dba80a086c91669b7",
        "5ba02c1b5be7fc82d2a5c1ddbca0eb0634abfe7b0e47287eb4b16ed5b7f14dfc",
    ),
}

# (region a, region b, boundary step): hausdorff_bottleneck_points of the two region sides
COMPARE = {
    ("s1", "mk:kappa=1", 0.02): 0.4261872847778232,
    ("s1", "mk:kappa=1", 0.01): 0.4287446157879098,
    ("s1:k=2", "s1", 0.02): 0.5235987755982987,
    ("s1:k=2", "s1", 0.01): 0.5235987755982987,
    ("s1-e", "sphere-e:m=2", 0.02): 0.24041630560342586,
    ("s1-e", "sphere-e:m=2", 0.01): 0.2416369055210983,
    ("mk:kappa=-1", "mk:kappa=0", 0.02): 0.26331733154295067,
    ("mk:kappa=-1", "mk:kappa=0", 0.01): 0.26331733154295067,
    ("ptolemaic:cap=2", "s1-e", 0.02): 0.24041630560342608,
    ("ptolemaic:cap=2", "s1-e", 0.01): 0.2416369055210984,
    ("s1:k=3:lambda=2", "s1", 0.02): 0.7853981633974483,
    ("s1:k=3:lambda=2", "s1", 0.01): 0.7853981633974483,
    ("mk:kappa=0.25", "mk:kappa=1", 0.02): 1.5707963267948968,
    ("mk:kappa=0.25", "mk:kappa=1", 0.01): 1.5707963267948968,
    ("s1", "mk:kappa=1", 1e-3): 0.4292465057222694,
    ("s1", "mk:kappa=-1", 1e-3): 0.49987400391066306,
    ("r2", "s1-e", 1e-3): 0.5857864376269051,
    ("s1-e", "sphere-e:m=2", 1e-3): 0.24253762594698558,
}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(5).uniform(-0.5, 4.5, size=(200_000, 2))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_region_digests(name, points):
    region = regions.parse_region(name)
    boundary = [regions.boundary_points(region, step, cap) for step in (1e-2, 3e-3) for cap in (None, 3.0)]
    inside = [regions.contains(region, points[:, 0], points[:, 1], tol) for tol in (0.0, 1e-9, 1e-3)]
    interior = [regions.interior_grid(region, 0.05), regions.interior_grid(region, 0.02, 3.0)]
    assert (digest(*boundary), digest(*inside), digest(*interior)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scalar_membership_is_a_bool(name):
    region = regions.parse_region(name)
    for tb, td in ((0.5, 0.6), (1.5, 2.0), (3.0, 3.0), (-1.0, 1.0)):
        got = regions.contains(region, tb, td, 1e-9)
        assert type(got) is bool
        assert got == bool(regions.contains(region, np.array([tb]), np.array([td]), 1e-9)[0])


@pytest.mark.parametrize("a, b, step", sorted(COMPARE))
def test_compare_regions_values(a, b, step):
    (pa, ra), (pb, rb) = (diagram_metrics.region_points(regions.parse_region(r), step, 2e-2) for r in (a, b))
    got = diagram_metrics.hausdorff_bottleneck_points(pa, pb, region_a=ra, region_b=rb)
    assert got == COMPARE[(a, b, step)]
