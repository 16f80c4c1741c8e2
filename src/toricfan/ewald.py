"""Suspension of a fan over the projective line, and its dimension-raising
blow-down.

Suspending a complete fan by a lattice point v produces the fan of an
equivariant fibration over the projective line whose fibers are the base
variety: every base cone reappears flat, coned over (v, 1), and coned over
(0, -1).  When v is a ray generator, contracting its flat lift (which has
become a divisor with fiberwise degree -1) yields a variety of one higher
dimension with the same Picard number and the same projectivity status as
the base.  Iterating over a divisor through a chosen curve turns a single
low-dimensional non-projective example into one in every higher dimension
(Ewald, *Combinatorial Convexity and Algebraic Geometry*, 1996).

The suspension and its blow-down compose to a closed form, `ewald_lift`,
which builds only the fan that is kept.  Let the base have n rays and
suspend by v = u_i, writing up = (u_i, 1) and down = (0, -1).  The star of
the flat lift of ray i is {c + up, c + down : c a cone through i}, and
up + down = (u_i, 0), so the blow-down along (up, down) replaces each such
pair by the single cone (c - {i}) + up + down and leaves every other cone of
the suspension alone.  Dropping ray i then gives:

* rays: the base rays with a 0 appended, without ray i, then up at index
  n - 1 and down at index n;
* cones: c + up and c + down for every base cone c without i, and
  (c - {i}) + up + down for every base cone c with i;

where every base index j becomes j - (j > i).  Each merged cone has the
determinant of its base cone up to sign, so the lift of a smooth complete
fan is smooth and complete, and `validate` still decides it.
"""

from __future__ import annotations

from collections import namedtuple

from .birational import blow_up_curve, reindex_after_removal
from .fan import Fan, MalformedInput, PropertyFailure, Wall, _exact_int, derived, validate, wall_lookup
from .mori import is_projective


class VMismatch(PropertyFailure):
    """The suspension direction is not the chosen divisor's generator."""


class NoSuitableDivisor(PropertyFailure):
    """No invariant divisor contains the curve to be carried upward."""


class NotATowerPair(PropertyFailure):
    """A tower fan is projective, or its curve blow-up is not."""


class SuspensionRecord(namedtuple("SuspensionRecord", "base v suspended ray_up ray_down")):
    """Suspension bookkeeping: `suspended` is `base` suspended by `v`;
    `ray_up` indexes (v, 1), `ray_down` indexes (0, -1) (the fibers over 0
    and infinity); the flat lift of base ray i keeps index i."""

    __slots__ = ()


def suspend(base: Fan, v) -> SuspensionRecord:
    """Fan of the one-parameter-subgroup suspension of `base` by `v`."""
    v = tuple(_exact_int(a, "suspension coordinate") for a in v)
    if len(v) != base.dim:
        raise MalformedInput(f"direction {v} does not have dimension {base.dim}")
    _check_base(base, "suspend")
    rays = [r + (0,) for r in base.rays]
    rays.append(v + (1,))
    rays.append((0,) * base.dim + (-1,))
    up, down = base.n_rays, base.n_rays + 1
    cones = [c + (up,) for c in base.max_cones] + [c + (down,) for c in base.max_cones]
    suspended = Fan(base.dim + 1, tuple(rays), tuple(cones))
    report = validate(suspended)
    if not report.valid:
        raise AssertionError(f"suspension produced an invalid fan: {report.failures}")
    return SuspensionRecord(base, v, suspended, up, down)


def _check_base(base: Fan, action: str) -> None:
    """An invalid base is the caller's input, not a broken invariant."""
    report = validate(base)
    if not report.valid:
        raise MalformedInput(f"cannot {action} an invalid fan: {report.failures}")


def ewald_lift(base: Fan, i: int) -> Fan:
    """`ewald_blow_down(suspend(base, u_i), i)`, built in closed form (see the
    module docstring): the up ray (u_i, 1) has index n - 1 and the down ray
    (0, -1) index n, where n is the number of rays of `base`."""
    if not 0 <= i < base.n_rays:
        raise MalformedInput(f"divisor ray index {i} out of range")
    _check_base(base, "lift")
    up, down = base.n_rays - 1, base.n_rays
    rays = [r + (0,) for j, r in enumerate(base.rays) if j != i]
    rays += [base.rays[i] + (1,), (0,) * base.dim + (-1,)]
    cones = []
    for c in base.max_cones:
        rest = tuple(j - (j > i) for j in c if j != i)
        if len(rest) < len(c):
            cones.append(rest + (up, down))
        else:
            cones += [rest + (up,), rest + (down,)]
    result = Fan(base.dim + 1, tuple(rays), tuple(cones))
    report = validate(result)
    if not report.valid:
        raise AssertionError(f"Ewald lift produced an invalid fan: {report.failures}")
    return result


def ewald_blow_down(rec: SuspensionRecord, divisor_ray: int) -> Fan:
    """Contract the flat lift of the suspension divisor.

    Valid exactly when the suspension direction is the generator of
    `divisor_ray`, since then (v, 1) + (0, -1) = (v, 0).  The result has one
    ray fewer than the suspension, hence the Picard number of the base; it
    is `ewald_lift(rec.base, divisor_ray)`.
    """
    if not 0 <= divisor_ray < rec.base.n_rays:
        raise MalformedInput(f"divisor ray index {divisor_ray} out of range")
    if rec.base.rays[divisor_ray] != rec.v:
        raise VMismatch(
            f"suspension direction {rec.v} is not the generator of ray {divisor_ray}"
        )
    return ewald_lift(rec.base, divisor_ray)


def _tower_pair(f: Fan, curve) -> bool:
    """True if `f` is non-projective and its blow-up along the wall on the
    ray indices `curve` is projective; raises `NotATowerPair` otherwise.
    Read through `derived`, so a pair that passed is not checked again."""
    if is_projective(f).projective:
        raise NotATowerPair("tower fans must be non-projective")
    if not is_projective(blow_up_curve(f, curve).result).projective:
        raise NotATowerPair("blowing up the tracked curve must give a projective fan")
    return True


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
    derived(base, _tower_pair, w.rays)
    out = [(base, w)]
    for _ in range(steps):
        f, w = out[-1]
        if not w.rays:
            raise NoSuitableDivisor("the curve cone has no rays")
        divisor = min(w.rays)  # smallest index, for reproducibility
        nxt = ewald_lift(f, divisor)
        # the curve keeps its other rays and gains the up and down rays
        lifted = [reindex_after_removal(i, divisor) for i in w.rays if i != divisor]
        nw = wall_lookup(nxt, lifted + [f.n_rays - 1, f.n_rays])
        derived(nxt, _tower_pair, nw.rays)
        out.append((nxt, nw))
    return out
