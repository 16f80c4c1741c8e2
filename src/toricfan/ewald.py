"""Suspension of a fan over the projective line, and its dimension-raising
blow-down.

Suspending a complete fan by a lattice point v produces the fan of an
equivariant fibration over the projective line whose fibers are the base
variety: every base cone reappears flat, coned over (v, 1), and coned over
(0, -1).  When v is a ray generator, contracting its flat lift (which has
become a divisor with fiberwise degree -1) yields a variety of one higher
dimension with the same Picard number and the same projectivity status as
the base.  Iterating over a divisor through a chosen curve turns a single
low-dimensional non-projective example into one in every higher dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .birational import blow_down, blow_up_curve, reindex_after_removal
from .fan import Fan, MalformedInput, Wall, _exact_int, validate, wall_lookup
from .mori import is_projective


class VMismatch(ValueError):
    """The suspension direction is not the chosen divisor's generator."""


class NoSuitableDivisor(ValueError):
    """No invariant divisor contains the curve to be carried upward."""


@dataclass(frozen=True)
class SuspensionRecord:
    """Suspension bookkeeping: `ray_up` indexes (v, 1), `ray_down` indexes
    (0, -1) (the fibers over 0 and infinity); `lifted_rays[i]` is the index of
    the flat lift of base ray i."""

    base: Fan
    v: tuple[int, ...]
    suspended: Fan
    ray_up: int
    ray_down: int
    lifted_rays: tuple[int, ...]


def suspend(base: Fan, v) -> SuspensionRecord:
    """Fan of the one-parameter-subgroup suspension of `base` by `v`."""
    v = tuple(_exact_int(a, "suspension coordinate") for a in v)
    if len(v) != base.dim:
        raise VMismatch(f"direction {v} does not have dimension {base.dim}")
    n_base = base.n_rays
    rays = [r + (0,) for r in base.rays]
    rays.append(v + (1,))
    rays.append((0,) * base.dim + (-1,))
    up, down = n_base, n_base + 1
    cones = [c + (up,) for c in base.max_cones] + [c + (down,) for c in base.max_cones]
    suspended = Fan(base.dim + 1, tuple(rays), tuple(cones))
    report = validate(suspended)
    if not report.valid:
        raise AssertionError(f"suspension produced an invalid fan: {report.failures}")
    return SuspensionRecord(base, v, suspended, up, down, tuple(range(n_base)))


def ewald_blow_down(rec: SuspensionRecord, divisor_ray: int) -> Fan:
    """Contract the flat lift of the suspension divisor.

    Valid exactly when the suspension direction is the generator of
    `divisor_ray`, since then (v, 1) + (0, -1) = (v, 0).  The result has one
    ray fewer than the suspension, hence the Picard number of the base.
    """
    if not 0 <= divisor_ray < rec.base.n_rays:
        raise VMismatch(f"divisor ray index {divisor_ray} out of range")
    if rec.base.rays[divisor_ray] != rec.v:
        raise VMismatch(
            f"suspension direction {rec.v} is not the generator of ray {divisor_ray}"
        )
    return blow_down(rec.suspended, rec.lifted_rays[divisor_ray], (rec.ray_up, rec.ray_down))


def _check_pair(f: Fan, w: Wall):
    if is_projective(f).projective:
        raise ValueError("tower fans must be non-projective")
    if not is_projective(blow_up_curve(f, w).result).projective:
        raise ValueError("blowing up the tracked curve must give a projective fan")


def ewald_tower(base: Fan, curve, steps: int):
    """Iterate the suspension blow-down along a divisor through the curve.

    Starting from a non-projective `base` whose blow-up along `curve` is
    projective, each step raises the dimension by one and returns a fan with
    the same Picard number carrying a curve with the same property.  Every
    produced pair is re-verified before it is returned.  The trajectory
    [(base, curve), (fan_1, curve_1), ...] is returned, `steps + 1` pairs.
    """
    if _exact_int(steps, "step count") < 0:
        raise MalformedInput(f"step count must be nonnegative, got {steps}")
    w = wall_lookup(base, curve.rays if isinstance(curve, Wall) else curve)
    _check_pair(base, w)
    out = [(base, w)]
    for _ in range(steps):
        f, w = out[-1]
        if not w.rays:
            raise NoSuitableDivisor("the curve cone has no rays")
        divisor = min(w.rays)  # smallest index, for reproducibility
        rec = suspend(f, f.rays[divisor])
        nxt = ewald_blow_down(rec, divisor)
        removed = rec.lifted_rays[divisor]
        lifted = [
            reindex_after_removal(rec.lifted_rays[i], removed) for i in w.rays if i != divisor
        ]
        lifted.append(reindex_after_removal(rec.ray_up, removed))
        lifted.append(reindex_after_removal(rec.ray_down, removed))
        nw = wall_lookup(nxt, tuple(sorted(lifted)))
        _check_pair(nxt, nw)
        out.append((nxt, nw))
    return out
