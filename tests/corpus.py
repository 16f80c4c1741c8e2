"""The seeded corpus the differential tests share: complete fans in dims
2-5 built by star subdivisions and Ewald lifts of gallery fans, each with two
mutants, winding multi-fans of degree two, and the first Ewald tower levels
(dims 3-7)."""

import math
import random

from toricfan.birational import star_subdivision
from toricfan.ewald import ewald_lift
from toricfan.fan import Fan, MalformedInput
from toricfan.gallery import get_fan
from toricfan.lattice import primitive_vector


def _winding_multifan(rng, dim):
    """A cycle of 2-d cones turning twice around the origin, joined with the
    two directions of each further coordinate up to `dim`: every wall lies in
    exactly two cones, with opposite orientations, yet every generic point
    lies in two cones."""
    while True:
        n = rng.randint(5, 7)
        angles = [0.0] + sorted(rng.uniform(0, 4 * math.pi) for _ in range(n - 1))
        gaps = [b - a for a, b in zip(angles, angles[1:] + [4 * math.pi])]
        rays = [primitive_vector((round(9 * math.cos(t)), round(9 * math.sin(t)))) for t in angles]
        turns = [rays[i][0] * rays[(i + 1) % n][1] - rays[i][1] * rays[(i + 1) % n][0] for i in range(n)]
        if len(set(rays)) == n and max(gaps) < 3 and all(t > 0 for t in turns):
            break
    cones = [(i, (i + 1) % n) for i in range(n)]
    for d in range(2, dim):
        up, down = len(rays), len(rays) + 1
        rays = [r + (0,) for r in rays] + [(0,) * d + (1,), (0,) * d + (-1,)]
        cones = [c + (up,) for c in cones] + [c + (down,) for c in cones]
    return Fan(dim, tuple(rays), tuple(cones))


def _differential_corpus(seed=2024, size=40, lift=ewald_lift):
    """Seeded fans in dims 2-5 (star chains and Ewald lifts of gallery fans,
    each lift made by `lift(fan, ray index)`), each followed by two mutants:
    a negated ray and a perturbed coordinate; then winding multi-fans of
    degree at least two in dims 2-4."""
    rng = random.Random(seed)
    bases = [
        get_fan("pn", 2).fan,
        get_fan("hirzebruch", 2).fan,
        get_fan("pn", 3).fan,
        get_fan("oda3").fan,
        get_fan("xab", 1, 2).fan,
        get_fan("pn", 4).fan,
    ]
    out = []
    for _ in range(size):
        f = rng.choice(bases)
        for _ in range(rng.randint(0, 2)):
            cone = rng.choice(f.max_cones)
            f = star_subdivision(f, tuple(sorted(rng.sample(cone, rng.randint(2, f.dim))))).result
        if f.dim < 5 and rng.random() < 0.5:
            r = rng.randrange(f.n_rays)
            f = lift(f, r)
        out.append(f)
        r = rng.randrange(f.n_rays)
        negated = tuple(-a for a in f.rays[r])
        r2, k = rng.randrange(f.n_rays), rng.randrange(f.dim)
        shifted = tuple(a + (rng.choice((-1, 1)) if i == k else 0) for i, a in enumerate(f.rays[r2]))
        for i, ray in ((r, negated), (r2, shifted)):
            try:
                out.append(Fan(f.dim, f.rays[:i] + (ray,) + f.rays[i + 1 :], f.max_cones))
            except MalformedInput:
                pass  # zero or duplicate ray
    out.extend(_winding_multifan(rng, dim) for dim in (2, 2, 3, 3, 4))
    return out


def _tower_levels():
    return [get_fan("ewald-tower", k).fan for k in range(5)]  # dims 3-7
