"""Built-in named fans: standard fixtures and the classification examples.

The two figure-derived fans ship as explicit cone-list constants in the
canonical fan file format and are re-verified on every load by the library's
own decision procedures (validation, the projectivity LP, wall-relation
scans); a mismatch between the frozen notes and the recomputation fails
loudly rather than trusting the transcription.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .ewald import ewald_tower
from .fan import MEMO_SIZE, Fan, MalformedInput, picard_number, validate, wall_lookup, walls
from .intersection import wall_relation
from .mori import is_projective


class UnknownName(MalformedInput):
    """No gallery entry with that name."""


class BadParams(MalformedInput):
    """Parameters do not match the requested gallery entry."""


class GalleryNotes(namedtuple("GalleryNotes", "projective rho dim distinguished_walls")):
    """What an entry claims; `distinguished_walls` are wall ray index sets."""

    __slots__ = ()


class GalleryEntry(namedtuple("GalleryEntry", "name params fan notes")):
    __slots__ = ()


# the unique non-projective threefold with Picard rank 4: standard basis
# n1, n2, n3, their negative-sum n0, and the three mixed rays n0 + ni;
# the distinguished walls are the three curves with normal degrees (-1, -1)
_ODA3 = {
    "dim": 3,
    "rays": [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [-1, -1, -1],
        [0, -1, -1],
        [-1, 0, -1],
        [-1, -1, 0],
    ],
    "max_cones": [
        [0, 1, 2],
        [3, 4, 5],
        [3, 5, 6],
        [3, 4, 6],
        [0, 1, 4],
        [1, 2, 5],
        [0, 2, 6],
        [1, 4, 5],
        [2, 5, 6],
        [0, 4, 6],
    ],
}
_ODA3_DISTINGUISHED = ((0, 6), (1, 4), (2, 5))

_P1XP1 = {
    "dim": 2,
    "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
    "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]],
}

# rank-5 family on rays n, n', n'', -n', -n'', -n-n'-n'', -n+b n', n+n'+a n'';
# projective exactly when a = 0 or b = -1.  The cone list is the unique
# triangulation (up to the flop across the flat cone <n,-n',-n'',-n-n'-n''>)
# compatible with the convexity obstruction and closed under the four
# elementary transformations a -> a+-1, b -> b+-1.
_XAB_CONES = (
    (0, 2, 3),
    (0, 2, 7),
    (0, 3, 4),
    (0, 4, 7),
    (1, 2, 6),
    (1, 2, 7),
    (1, 4, 5),
    (1, 4, 7),
    (1, 5, 6),
    (2, 3, 6),
    (3, 4, 5),
    (3, 5, 6),
)


def xab_rays(a: int, b: int):
    return (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (0, -1, 0),
        (0, 0, -1),
        (-1, -1, -1),
        (-1, b, 0),
        (1, 1, a),
    )


def get_fan(name: str, *params: int) -> GalleryEntry:
    """Look up a named fan; its notes are recomputed and checked on load."""
    if any(type(p) is not int for p in params):
        raise BadParams(f"parameters {params!r} are not all integers")
    return _entry(str(name), params)


@lru_cache(maxsize=MEMO_SIZE)
def _entry(name: str, params: tuple[int, ...]) -> GalleryEntry:
    if name == "pn":
        n = _one_param(name, params)
        if n < 1:
            raise BadParams("projective space needs dimension >= 1")
        basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        rays = tuple(basis) + ((-1,) * n,)
        cones = tuple(
            tuple(sorted(set(range(n + 1)) - {k})) for k in range(n + 1)
        )
        fan = Fan(n, rays, cones)
        notes = GalleryNotes(projective=True, rho=1, dim=n, distinguished_walls=())
    elif name == "p1xp1":
        _no_params(name, params)
        fan = Fan.from_dict(_P1XP1)
        notes = GalleryNotes(projective=True, rho=2, dim=2, distinguished_walls=())
    elif name == "hirzebruch":
        a = _one_param(name, params)
        fan = Fan(2, ((1, 0), (0, 1), (-1, a), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))
        notes = GalleryNotes(projective=True, rho=2, dim=2, distinguished_walls=())
    elif name == "oda3":
        _no_params(name, params)
        fan = Fan.from_dict(_ODA3)
        notes = GalleryNotes(
            projective=False, rho=4, dim=3, distinguished_walls=_ODA3_DISTINGUISHED
        )
    elif name == "xab":
        if len(params) != 2:
            raise BadParams("xab takes two integer parameters (a, b)")
        a, b = params
        fan = Fan(3, xab_rays(a, b), _XAB_CONES)
        if a == 1:
            distinguished = ((4, 7),)
        elif a == -1:
            distinguished = ((2, 7),)
        else:
            distinguished = ()
        if b == -1:
            distinguished = ()
        notes = GalleryNotes(
            projective=(a == 0 or b == -1), rho=5, dim=3, distinguished_walls=distinguished
        )
    elif name == "ewald-tower":
        steps = _one_param(name, params)
        if steps < 0:
            raise BadParams("tower height must be nonnegative")
        base = get_fan("oda3")
        trajectory = ewald_tower(base.fan, base.notes.distinguished_walls[0], steps)
        fan, wall = trajectory[-1]
        notes = GalleryNotes(
            projective=False, rho=4, dim=3 + steps, distinguished_walls=(wall.rays,)
        )
    else:
        raise UnknownName(f"no gallery fan named {name!r}")
    entry = GalleryEntry(name, params, fan, notes)
    _verify(entry)
    return entry


def _one_param(name, params):
    if len(params) != 1:
        raise BadParams(f"{name} takes exactly one integer parameter")
    return params[0]


def _no_params(name, params):
    if params:
        raise BadParams(f"{name} takes no parameters")


def _verify(entry: GalleryEntry):
    """Recompute every note from scratch; the notes are never trusted."""
    fan, notes = entry.fan, entry.notes
    report = validate(fan)
    if not report.valid:
        raise AssertionError(f"gallery fan {entry.name}{entry.params} is invalid: {report.failures}")
    if fan.dim != notes.dim or picard_number(fan) != notes.rho:
        raise AssertionError(f"gallery fan {entry.name}{entry.params} has wrong dimension or rank")
    if is_projective(fan).projective != notes.projective:
        raise AssertionError(f"gallery fan {entry.name}{entry.params} projectivity mismatch")
    if entry.name == "oda3":
        scanned = tuple(
            sorted(
                w.rays
                for w in walls(fan)
                if wall_relation(fan, w).normal_degrees == (-1, -1)
            )
        )
        if scanned != notes.distinguished_walls:
            raise AssertionError(f"oda3 distinguished-wall scan gave {scanned}")
    for rays in notes.distinguished_walls:
        wall_lookup(fan, rays)
