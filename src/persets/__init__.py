"""Principal Vietoris-Rips persistence sets of metric spaces.

Sampling engine for the degree-k persistence of random n-point subsets
(O(n^2) at n = 2k+2), a brute-force persistent-homology oracle,
closed-form region and density checks for circles / spheres /
constant-curvature surfaces, Gromov-Hausdorff lower bounds from
diagram-set Hausdorff distances, and cycle recovery in admissible metric
graphs from persistence corners.
"""
__version__ = "0.1.0"
