"""Parameter catalog for soliton profiles over isoparametric foliations.

An isoparametric function r on the unit n-sphere satisfies

    |grad r|^2 = alpha(r) = k^2 (1 - r^2),
    Lap r      = beta(r)  = ((m2 - m1)/2) k^2 - k (n + k - 1) r,

where k is the number of distinct principal curvatures of the regular level
hypersurfaces (k in {1, 2, 3, 4, 6}) and m1, m2 are the two alternating
curvature multiplicities, m2 belonging to the smallest principal curvature.
Every profile computation downstream is driven by the derived constant

    R = -1 + k m2 / (n - 1)   for k in {2, 4},      R = 0 otherwise,

the unique interior level where the guide curves of the phase analysis blow
up.  This module owns the validated parameter bundle, which computes R
itself, and the two structure functions; everything else imports from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ADMISSIBLE_K = (1, 2, 3, 4, 6)

# k values whose multiplicities must agree (single multiplicity m = m1 = m2).
EQUAL_MULTIPLICITY_K = (1, 3, 6)


@dataclass(frozen=True)
class SolitonParams:
    """Validated parameter bundle (k, n, m1, m2) with the derived level R.

    Constraints enforced on construction:

    * k in {1, 2, 3, 4, 6} and ambient dimension n >= 2;
    * k in {1, 3, 6}: m1 == m2 >= 1 (single multiplicity) and R = 0;
    * k in {2, 4}: m1, m2 >= 1 and R = -1 + k*m2/(n-1), which must land in
      the open interval (-1, 1);
    * k == 2 additionally requires m1 + m2 == n - 1 (the level hypersurfaces
      are products of two round spheres).

    Whether a tuple passing these checks is geometrically realizable as an
    isoparametric family (a genuine question only for k in {4, 6}) is not
    checked; the profile equations depend on the tuple only through the
    constants above, so every admissible tuple integrates fine.  Instances
    are hashable so parameter sets can key caches and test tables.
    """

    k: int
    n: int
    m1: int
    m2: int
    R: float = field(init=False)

    def __post_init__(self) -> None:
        k, n, m1, m2 = self.k, self.n, self.m1, self.m2
        # type(...) is int: 2.0 == 2 and True is an int subclass, and either
        # would pass a membership or isinstance test into params_to_dict's JSON
        if type(k) is not int or k not in ADMISSIBLE_K:
            raise ValueError(f"k must be one of {ADMISSIBLE_K}, got {k!r}")
        if type(n) is not int or n < 2:
            raise ValueError(f"ambient sphere dimension n must be an integer >= 2, got {n!r}")
        if not (type(m1) is int and type(m2) is int):
            raise ValueError(f"multiplicities must be integers, got m1={m1!r}, m2={m2!r}")
        if m1 < 1 or m2 < 1:
            raise ValueError(f"multiplicities must be >= 1, got m1={m1}, m2={m2}")

        if k in EQUAL_MULTIPLICITY_K:
            if m1 != m2:
                raise ValueError(f"k={k} forces equal multiplicities, got m1={m1}, m2={m2}")
            R = 0.0
        else:
            if k == 2 and m1 + m2 != n - 1:
                raise ValueError(f"k=2 requires m1 + m2 == n - 1, got m1={m1}, m2={m2}, n={n}")
            R = -1.0 + k * m2 / (n - 1)
            if not -1.0 < R < 1.0:
                raise ValueError(f"derived level R={R} outside (-1, 1) for k={k}, n={n}, m2={m2}")
        object.__setattr__(self, "R", R)


def make_params(k: int, n: int, m1: int, m2: int) -> SolitonParams:
    """``SolitonParams(k, n, m1, m2)``: the validated tuple and its level R."""
    return SolitonParams(k, n, m1, m2)


def alpha(p: SolitonParams, r: float) -> float:
    """Squared gradient modulus k^2 (1 - r^2) of the isoparametric function.

    Defined for |r| <= 1 (the closed range of r on the sphere).
    """
    if abs(r) > 1.0:
        raise ValueError(f"alpha undefined for |r| > 1, got r={r}")
    return p.k * p.k * (1.0 - r * r)


def beta(p: SolitonParams, r: float) -> float:
    """Laplacian ((m2-m1)/2) k^2 - k (n+k-1) r of the isoparametric function."""
    if abs(r) > 1.0:
        raise ValueError(f"beta undefined for |r| > 1, got r={r}")
    return 0.5 * (p.m2 - p.m1) * p.k * p.k - p.k * (p.n + p.k - 1) * r


def params_to_dict(p: SolitonParams) -> dict:
    """JSON-ready mapping with exactly the keys k, n, m1, m2, R."""
    return {"k": p.k, "n": p.n, "m1": p.m1, "m2": p.m2, "R": p.R}


def params_from_dict(d: dict) -> SolitonParams:
    """Rebuild and re-validate params from :func:`params_to_dict` output.

    An integral float field loads as its int; every other value goes to
    :class:`SolitonParams` as it is, so a bool, a string or a non-integral
    number is rejected there.  The stored R is checked against the
    recomputed value (tolerance 1e-12), so a hand-edited file cannot
    smuggle in an inconsistent level.
    """
    fields = [int(v) if isinstance(v, float) and v.is_integer() else v
              for v in (d[key] for key in ("k", "n", "m1", "m2"))]
    p = make_params(*fields)
    if "R" in d and not abs(float(d["R"]) - p.R) <= 1e-12:
        raise ValueError(
            f"stored R={d['R']} disagrees with derived R={p.R} for {p}"
        )
    return p

