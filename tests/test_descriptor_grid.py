"""Every descriptor README lists, with each of its numbers swapped in turn
for zero, a negative, a fraction, a subnormal, large and near-overflow
values: only a PersetsError may escape."""
import re
import warnings

import numpy as np
import pytest

from persets import diagram_metrics, engine, regions
from persets.errors import InvalidDescriptor, PersetsError

SPACES = ["s1", "s1:lambda=3.5", "sphere:m=2", "s1-e", "sphere-e:m=2", "torus", "mk:kappa=1",
          "mk:kappa=-1:R=3.14159", "disk:m=2:R=1", "wedge:3.5,4.5", "flares:c=6.2832,k=4,L=1",
          "flares-fig", "glued:3.5,4.5:alpha=0.5", "treecycles:8,10,12.8:edge=0.35"]
REGIONS = ["s1", "s1:k=2", "s2-geodesic", "mk:kappa=-1", "r2", "s1-e", "sphere-e:m=2", "ptolemaic:cap=2"]
VALUES = ["0", "-1", "2.5", "1e-320", "3000", "1e6", "1e308"]
NUMBER = re.compile(r"(?<=[=:,])-?[0-9.]+")  # an option value or a length, not the 1 of "s1"


def variants(text):
    """``text`` as it is, then with each of its numbers replaced by each of VALUES."""
    yield text
    for m in NUMBER.finditer(text):
        for value in VALUES:
            yield text[:m.start()] + value + text[m.end():]


def escapes(run, text):
    """The non-PersetsError exceptions ``run`` raises on each variant of ``text``."""
    found = []
    for variant in variants(text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy overflow warnings, the glued alpha warning
            try:
                run(variant)
            except PersetsError:
                pass
            except Exception as exc:  # the escapes are what the test reports
                found.append(f"{variant}: {exc!r}")
    return found


def campaign(text):
    engine.sample_persistence_set(engine.space_of(text), 4, 1, 64, seed=3)


def region(text):
    r = regions.parse_region(text)
    regions.contains(r, np.array([0.0, 1.0, 2.5, 3.0]), np.array([0.0, 2.0, 3.0, 1e308]))
    diagram_metrics.region_points(r, 1e-3, 5e-3)


@pytest.mark.parametrize("text", SPACES)
def test_space_and_family_descriptor_grid_raises_only_persets_errors(text):
    assert escapes(campaign, text) == []


@pytest.mark.parametrize("text", REGIONS)
def test_region_descriptor_grid_raises_only_persets_errors(text):
    assert escapes(region, text) == []


def test_a_flares_circumference_past_the_doubles_is_refused_naming_c():
    with pytest.raises(InvalidDescriptor, match=re.escape("c=1e+308 puts a flare past the largest double "
                                                          "in 'flares:c=1e308,k=4,L=1'")):
        engine.space_of("flares:c=1e308,k=4,L=1")
