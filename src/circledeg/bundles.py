"""Degree-set rules for oriented circle bundles over aspherical bases.

An oriented circle bundle is described by its base and an Euler class in
the base's second integral cohomology group.  The rules implemented here
are closed-form consequences of the bundle structure; none of them touch
geometry at run time.  What the geometry supplies instead is a set of
declared flags on the base manifold.  Flags are modeling assertions given
with the base, never computed:

* ``aspherical``: the base is aspherical.
* ``scf_pi1``: every finite-index subgroup of the fundamental group has
  trivial centralizer (self-centralizing-free); makes every
  fiber-preserving homotopy class count once.
* ``hyperbolic``: closed hyperbolic; implies ``aspherical``, ``scf_pi1``
  and ``d_self_finite`` (positive simplicial volume bounds self-map
  degrees by 1).
* ``d_self_is_01``: the base's self-map degree set is exactly {0, 1};
  implies ``d_self_finite``.
* ``d_self_finite``: the base's self-map degree set is finite.
* fixed classes: labels of cohomology classes that every degree-one self
  map fixes.

Rule identifiers attached to certificates:

* ``fixed-class-scaling``: over a base with {0,1} self-degrees and a
  fixed non-torsion class b, any map between the bundles with Euler
  classes m*b and k*b has degree 0 or k/m (and m must divide k).  The
  mechanism is arithmetic: the induced unimodular action has only +-1 as
  rational eigenvalues, so b is scaled by +-1, and the fixed class pins
  the sign.
* ``surface-euler-scaling``: same conclusion over a 2-dimensional base,
  where the top cohomology action of a degree-d map is multiplication
  by d.
* ``eigenvalue-bound``: with only a finite self-degree set, the weaker
  conclusion that nonzero degrees lie in {+-k/m}; an upper bound, not an
  equality.

The vertical and fiber-preserving sets are computed from solve_scalar on
Euler classes; see the function docstrings.
"""

from __future__ import annotations

import json
import os
import re
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from ._frozen import Frozen
from .abelian import (
    FgAbelianGroup,
    GroupElement,
    IntegerMatrix,
    apply_matrix,
    is_torsion,
    lattice_compatible,
    solution_set_json,
    solve_scalar,
)
from .degsets import DegreeSet
from .errors import GroupMismatchError, HypothesisError, InputError
from .schema import MAX_NESTING, validate_payload

# as in abelian, each function that makes a Fraction imports fractions
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "KNOWN_FLAGS",
    "STRONG_BASE_FLAGS",
    "BaseManifold",
    "CircleBundle",
    "SphereProduct",
    "ConnectedSum",
    "Stabilized",
    "SymbolicRepeat",
    "ManifoldExpr",
    "expr_dim",
    "expr_to_json",
    "expr_from_json",
    "render_expr",
    "MapModel",
    "MapCatalogue",
    "FiberPreservingResult",
    "MapContribution",
    "PairResult",
    "vertical_degree_set",
    "torsion_consistency",
    "fiber_preserving_degree_set",
    "promote_to_full_degree_set",
    "same_base_pair_degree_set",
    "exact_pair_rule",
    "degree_bound",
    "parse_volume",
    "VOLUME_DIGIT_CAP",
    "finiteness_verdict",
    "builtin_registry",
    "load_registry",
    "registry_from_env",
    "PRESET_ENV_VAR",
]

KNOWN_FLAGS = frozenset(
    {"aspherical", "scf_pi1", "hyperbolic", "d_self_is_01", "d_self_finite"}
)
# flags the exact same-base pair rule needs of its base, which must also
# fix the class the Euler classes are multiples of
STRONG_BASE_FLAGS = ("aspherical", "scf_pi1", "d_self_is_01")

PRESET_ENV_VAR = "CIRCLEDEG_PRESETS"

# decimal digits a volume's numerator or denominator may have as written,
# so that a volume ratio stays far below Python's 4300-digit int-to-str limit
VOLUME_DIGIT_CAP = 2000

# ``Fraction``'s string grammar: n, n/d, or a decimal with an exponent;
# compiled on first use, through ``re``'s cache
_RATIONAL = r"""
    \s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(?:_\d+)*)
    (?:/(?P<den>\d+(?:_\d+)*)
     |(?:\.(?P<frac>\d*|\d+(?:_\d+)*))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)
    \s*"""


# ---------------------------------------------------------------------------
# base manifolds


class BaseManifold(Frozen):
    """Closed oriented base manifold with declared properties.

    ``h2`` is the second integral cohomology group (Euler classes live
    here), ``named_classes`` distinguished elements of it, ``fixes`` the
    labels of classes every degree-one self map fixes, and ``volume`` the
    simplicial volume when known.
    """

    __slots__ = ("name", "dim", "h2", "named_classes", "flags", "fixes", "volume")

    def __init__(self, name: str, dim: int, h2: FgAbelianGroup,
                 named_classes: tuple[tuple[str, GroupElement], ...] = (),
                 flags: frozenset[str] = frozenset(),
                 fixes: frozenset[str] = frozenset(),
                 volume: Fraction | None = None) -> None:
        if dim < 2:
            raise InputError("base manifold dimension must be >= 2")
        unknown = set(flags) - KNOWN_FLAGS
        if unknown:
            raise InputError(f"unknown flags: {sorted(unknown)}")
        flags = set(flags)
        if "hyperbolic" in flags:
            flags |= {"aspherical", "scf_pi1", "d_self_finite"}
        if "d_self_is_01" in flags:
            flags.add("d_self_finite")
        fixes = frozenset(fixes)
        classes = dict(named_classes)
        for label, cls in classes.items():
            if cls.group != h2:
                raise InputError(f"class {label!r} does not live in the base's group")
        for label in fixes:
            if label not in classes:
                raise InputError(f"fixed class {label!r} is not a named class")
            if is_torsion(classes[label])[0]:
                raise InputError(f"fixed class {label!r} must be non-torsion")
        if volume is not None:
            from fractions import Fraction
            volume = Fraction(volume)
            if volume < 0:
                raise InputError("simplicial volume must be nonnegative")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "named_classes", tuple(sorted(classes.items())))
        object.__setattr__(self, "flags", frozenset(flags))
        object.__setattr__(self, "fixes", fixes)
        object.__setattr__(self, "volume", volume)

    def has(self, flag: str) -> bool:
        return flag in self.flags

    def cls(self, label: str) -> GroupElement:
        elem = self.named_class(label)
        if elem is None:
            raise InputError(f"base {self.name!r} has no class named {label!r}")
        return elem

    def named_class(self, label: str) -> GroupElement | None:
        """The class named ``label``, or None when the base names none."""
        for name, elem in self.named_classes:
            if name == label:
                return elem
        return None

    def to_json(self) -> dict:
        out: dict = {
            "name": self.name,
            "dim": self.dim,
            "group": self.h2.to_json(),
            "classes": {name: elem.to_json() for name, elem in self.named_classes},
            "flags": sorted(self.flags),
            "fixes": sorted(self.fixes),
        }
        out["volume"] = None if self.volume is None else str(self.volume)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "BaseManifold":
        """Base from a payload valid under the ``baseManifold`` schema."""
        group = FgAbelianGroup.from_json(obj["group"])
        classes = tuple(
            (name, GroupElement.from_json(group, elem))
            for name, elem in sorted(obj.get("classes", {}).items())
        )
        vol = obj.get("volume")
        return cls(
            obj["name"],
            int(obj["dim"]),
            group,
            classes,
            frozenset(obj.get("flags", ())),
            frozenset(obj.get("fixes", ())),
            None if vol is None else parse_volume(vol, "volume"),
        )


# ---------------------------------------------------------------------------
# manifold expressions


class CircleBundle(Frozen):
    __slots__ = ("base", "euler")

    def __init__(self, base: BaseManifold, euler: GroupElement) -> None:
        if euler.group != base.h2:
            raise InputError("Euler class must live in the base's cohomology group")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "euler", euler)


class SphereProduct(Frozen):
    """S^(dim-1) x S^1 of total dimension ``dim``."""

    __slots__ = ("dim",)

    def __init__(self, dim: int) -> None:
        if dim < 2:
            raise InputError("sphere product dimension must be >= 2")
        object.__setattr__(self, "dim", dim)


class ConnectedSum(Frozen):
    __slots__ = ("summands",)

    def __init__(self, summands: tuple[ManifoldExpr, ...]) -> None:
        if not summands:
            raise InputError("connected sum needs at least one summand")
        dims = {expr_dim(s) for s in summands}
        if len(dims) != 1:
            raise InputError("connected sum summands must share a dimension")
        object.__setattr__(self, "summands", summands)


class Stabilized(Frozen):
    """The higher-dimensional stand-in for ``inner`` after a dimension
    shift; shifts below 3 are not covered by the stabilization rule."""

    __slots__ = ("inner", "shift")

    def __init__(self, inner: ManifoldExpr, shift: int) -> None:
        if shift < 3:
            raise InputError("stabilization shift must be >= 3")
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "shift", shift)


class SymbolicRepeat(Frozen):
    """A symbolic number of connected-sum copies of ``factor``."""

    __slots__ = ("factor", "symbol")


ManifoldExpr = Union[CircleBundle, SphereProduct, ConnectedSum, Stabilized, SymbolicRepeat]


def expr_dim(expr: ManifoldExpr) -> int:
    if isinstance(expr, CircleBundle):
        return expr.base.dim + 1
    if isinstance(expr, SphereProduct):
        return expr.dim
    if isinstance(expr, ConnectedSum):
        return expr_dim(expr.summands[0])
    if isinstance(expr, Stabilized):
        return expr_dim(expr.inner) + expr.shift
    if isinstance(expr, SymbolicRepeat):
        return expr_dim(expr.factor)
    raise InputError(f"not a manifold expression: {expr!r}")


def expr_to_json(expr: ManifoldExpr) -> dict:
    if isinstance(expr, CircleBundle):
        return {"bundle": {"base": expr.base.name, "euler": expr.euler.to_json()}}
    if isinstance(expr, SphereProduct):
        return {"sphereProduct": expr.dim}
    if isinstance(expr, ConnectedSum):
        return {"sum": [expr_to_json(s) for s in expr.summands]}
    if isinstance(expr, Stabilized):
        return {"stabilized": {"inner": expr_to_json(expr.inner), "shift": expr.shift}}
    if isinstance(expr, SymbolicRepeat):
        return {"repeat": {"factor": expr_to_json(expr.factor), "symbol": expr.symbol}}
    raise InputError(f"not a manifold expression: {expr!r}")


def expr_from_json(obj: dict, registry: Mapping[str, BaseManifold],
                   bundles: dict[tuple, CircleBundle] | None = None) -> ManifoldExpr:
    """Expression from a payload valid under the ``manifoldExpr`` schema.
    Nesting deeper than ``MAX_NESTING`` is refused, so that callers who
    skip ``validate_payload`` cannot exhaust the stack.  Each distinct
    bundle is taken from ``bundles``, keyed by its base name and Euler
    coordinates, or built once and added there, so it is shared wherever
    it recurs; ``None`` starts an empty table for this call, and
    ``RealizationCertificate.from_json`` passes one table for all the
    expressions of one certificate."""
    if bundles is None:
        bundles = {}

    def decode(obj: dict, depth: int) -> ManifoldExpr:
        if depth >= MAX_NESTING:
            raise InputError(f"manifold expression nested more than {MAX_NESTING} levels deep")
        key, val = next(iter(obj.items()))
        depth += 1
        if key == "bundle":
            name = val.get("base")
            if name not in registry:
                raise InputError(f"unknown base manifold: {name!r}")
            euler = val["euler"]
            free, torsion = tuple(euler.get("free", ())), tuple(euler.get("torsion", ()))
            bundle = bundles.get((name, free, torsion))
            if bundle is None:
                base = registry[name]
                bundle = bundles[name, free, torsion] = CircleBundle(
                    base, GroupElement(base.h2, free, torsion))
            return bundle
        if key == "sphereProduct":
            return SphereProduct(int(val))
        if key == "sum":
            return ConnectedSum(tuple(decode(s, depth) for s in val))
        if key == "stabilized":
            return Stabilized(decode(val["inner"], depth), int(val["shift"]))
        if key == "repeat":
            return SymbolicRepeat(decode(val["factor"], depth), str(val["symbol"]))
        raise InputError(f"unknown manifold expression kind: {key!r}")

    return decode(obj, 0)


def _render_element(e: GroupElement) -> str:
    coords = list(e.free) + list(e.torsion)
    return "(" + ", ".join(str(x) for x in coords) + ")"


def render_expr(expr: ManifoldExpr) -> str:
    if isinstance(expr, CircleBundle):
        return f"S1-bundle[e={_render_element(expr.euler)}, base={expr.base.name}]"
    if isinstance(expr, SphereProduct):
        return f"S^{expr.dim - 1}xS^1"
    if isinstance(expr, ConnectedSum):
        return " # ".join(render_expr(s) for s in expr.summands)
    if isinstance(expr, Stabilized):
        return f"stab+{expr.shift}({render_expr(expr.inner)})"
    if isinstance(expr, SymbolicRepeat):
        return f"#^{expr.symbol} ({render_expr(expr.factor)})"
    raise InputError(f"not a manifold expression: {expr!r}")


# ---------------------------------------------------------------------------
# map catalogues


class MapModel(Frozen):
    """Homotopy data of one fiber-preserving map: its degree and the
    induced action on the target base's cohomology (column convention,
    landing in the source base's group)."""

    __slots__ = ("degree", "action")

    def __init__(self, degree: int, action: IntegerMatrix) -> None:
        if degree == 0:
            raise InputError("map degree must be nonzero")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "action", action)

    def to_json(self) -> dict:
        return {"degree": self.degree, "action": self.action.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "MapModel":
        """Model from a ``maps`` entry of a payload valid under the
        ``catalogue`` schema."""
        return cls(int(obj["degree"]), IntegerMatrix.from_json(obj["action"]))


class MapCatalogue(Frozen):
    """Collection of base-map models; ``complete`` declares that every
    relevant homotopy class is listed, making derived sets exact."""

    __slots__ = ("maps", "complete")

    def __init__(self, maps: tuple[MapModel, ...], complete: bool = False) -> None:
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "complete", complete)

    def to_json(self) -> dict:
        return {"complete": self.complete, "maps": [m.to_json() for m in self.maps]}

    @classmethod
    def from_json(cls, obj: dict) -> "MapCatalogue":
        """Catalogue from a payload valid under the ``catalogue`` schema."""
        return cls(tuple(MapModel.from_json(m) for m in obj["maps"]),
                   bool(obj.get("complete", False)))


# ---------------------------------------------------------------------------
# vertical and fiber-preserving sets


def _nonzero_multiples(sols: DegreeSet, factor: int) -> DegreeSet:
    """{k * factor : k in sols, k != 0} for a result ``sols`` of
    :func:`solve_scalar` (factor != 0)."""
    if not sols.progressions:
        return DegreeSet(tuple(k * factor for k in sols.finite if k != 0))
    (base, mod), = sols.progressions
    step = mod * abs(factor)
    return DegreeSet((), ((base * factor % step, step),), sols.contains(0))


def vertical_degree_set(a: GroupElement, b: GroupElement) -> DegreeSet:
    """Degrees of vertical maps between the bundles with Euler classes
    ``a`` (domain) and ``b`` (target) over one base.

    A vertical map of nonzero degree k exists iff k*a = b, so the set is
    the solution set of that scalar equation without 0:

    * b outside the cyclic subgroup of a: empty;
    * a torsion (solutions form a progression modulo order(a)): that
      progression, 0 excluded, an infinite set;
    * a non-torsion: the single solution {k}, when k is nonzero.

    Whether degree-0 vertical maps exist is not decided here; the
    returned set only reports the nonzero classification.
    """
    if a.group != b.group:
        raise GroupMismatchError("Euler classes live in different groups")
    return _nonzero_multiples(solve_scalar(a, b), 1)


def torsion_consistency(a: GroupElement, b: GroupElement) -> str:
    """"incompatible" iff exactly one of the Euler classes is torsion.

    A fiber-preserving map of nonzero degree forces the two classes to be
    torsion together or non-torsion together.  The classes may live in
    different groups; only their torsion-ness is compared.
    """
    ta, tb = is_torsion(a)[0], is_torsion(b)[0]
    return "incompatible" if ta != tb else "compatible"


class MapContribution(Frozen):
    """Transcript entry: how one catalogued map feeds the degree set.

    Every nonzero degree d it contributes factors as d = k * degree with
    k drawn from ``solutions``, the solution set of k*a = image.
    """

    __slots__ = ("index", "degree", "image", "solutions", "contribution")

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "degree": self.degree,
            "image": self.image.to_json(),
            "solutions": solution_set_json(self.solutions),
            "contribution": self.contribution.to_json(),
        }


class FiberPreservingResult(Frozen):
    __slots__ = ("degree_set", "exact", "contributions")

    def to_json(self) -> dict:
        return {
            "set": self.degree_set.to_json(),
            "exact": self.exact,
            "contributions": [c.to_json() for c in self.contributions],
        }


def fiber_preserving_degree_set(catalogue: MapCatalogue, a: GroupElement,
                                b: GroupElement) -> FiberPreservingResult:
    """{0} plus, for every catalogued base map f, the degrees k*deg(f)
    with k a nonzero solution of k*a = f#(b).

    Exact iff the catalogue declares itself complete.  When exactly one
    of a, b is torsion no nonzero-degree fiber-preserving map exists at
    all and the result short-circuits to {0} for every catalogue.
    """
    if torsion_consistency(a, b) == "incompatible":
        return FiberPreservingResult(DegreeSet([0]), catalogue.complete, ())
    contributions = []
    for i, model in enumerate(catalogue.maps):
        if not lattice_compatible(model.action, b.group, a.group):
            raise InputError(
                f"map {i}: action matrix is not a homomorphism between the groups"
            )
        image = apply_matrix(model.action, b, a.group)
        sols = solve_scalar(a, image)
        piece = _nonzero_multiples(sols, model.degree)
        contributions.append(MapContribution(i, model.degree, image, sols, piece))
    # the union of {0} and every piece, canonicalized once
    pieces = [c.contribution for c in contributions]
    out = DegreeSet(
        [0, *(x for p in pieces for x in p.finite)],
        [q for p in pieces for q in p.progressions],
        any(p.excludes_zero_in_progressions for p in pieces),
    )
    return FiberPreservingResult(out, catalogue.complete, tuple(contributions))


def promote_to_full_degree_set(domain_base: BaseManifold, target_base: BaseManifold) -> bool:
    """Whether the full degree set equals the fiber-preserving one: it
    does when both bases are aspherical and the target base has
    self-centralizing-free fundamental group, since every map is then
    homotopic to a fiber-preserving one."""
    return (
        domain_base.has("aspherical")
        and target_base.has("aspherical")
        and target_base.has("scf_pi1")
    )


# ---------------------------------------------------------------------------
# same-base pairs, volume bound, finiteness


class PairResult(Frozen):
    __slots__ = ("degree_set", "exact", "rule")

    def to_json(self) -> dict:
        out = self.degree_set.to_json()
        if not self.exact:
            out["upperBound"] = True
        return out


def _require_nonzero_multipliers(m: int, k: int) -> None:
    """The first hypothesis of :func:`same_base_pair_degree_set`: raises
    its :class:`InputError` when ``m`` or ``k`` is 0."""
    if m == 0 or k == 0:
        raise InputError("Euler multipliers m and k must be nonzero")


def _base_rule_hypotheses(base: BaseManifold, class_label: str) -> bool:
    """Checks the hypotheses of :func:`same_base_pair_degree_set` on the
    base and the class, which do not depend on the multipliers, raising
    its errors in its order; True when its exact form applies."""
    for flag in ("aspherical", "scf_pi1"):
        if not base.has(flag):
            raise HypothesisError(f"base {base.name!r} is missing required flag: {flag}")
    b = base.named_class(class_label)
    if b is None:
        raise HypothesisError(f"base {base.name!r} has no class named {class_label!r}")
    if is_torsion(b)[0]:
        raise HypothesisError(f"class {class_label!r} must be non-torsion")
    strong = base.flags.issuperset(STRONG_BASE_FLAGS) and class_label in base.fixes
    if not strong and not base.has("d_self_finite"):
        raise HypothesisError(
            f"base {base.name!r} is missing required flag: d_self_finite"
        )
    return strong


def same_base_pair_degree_set(m: int, k: int, base: BaseManifold,
                              class_label: str = "b") -> PairResult:
    """Degree set of maps between the bundles with Euler classes m*b and
    k*b over one base N.

    Exact form, needing flags aspherical, scf_pi1, d_self_is_01 and the
    class fixed: {0, k/m} when m divides k, else {0}.  With only a finite
    self-degree set the result is the upper bound {0, +-k/m} (or {0}),
    marked exact=False.
    """
    _require_nonzero_multipliers(m, k)
    strong = _base_rule_hypotheses(base, class_label)
    divides = k % m == 0
    if strong:
        degs = DegreeSet([0, k // m] if divides else [0])
        return PairResult(degs, True, exact_pair_rule(base))
    degs = DegreeSet([0, k // m, -(k // m)] if divides else [0])
    return PairResult(degs, False, "eigenvalue-bound")


def exact_pair_rule(base: BaseManifold) -> str:
    """Identifier of the rule behind the exact same-base pair degree set
    over ``base``."""
    return "surface-euler-scaling" if base.dim == 2 else "fixed-class-scaling"


def parse_volume(value: str | int | float, field: str) -> Fraction:
    """A simplicial volume from a JSON string or number in ``Fraction``'s
    syntax, such as ``10``, ``7/2`` or ``1.5e3``.

    Raises :class:`InputError` naming ``field`` when ``value`` is not such
    a rational, or when its numerator or denominator as written, before
    reduction, would have more than ``VOLUME_DIGIT_CAP`` digits; that is
    decided before any digit string is expanded.

    >>> parse_volume("7/2", "volume"), parse_volume(1.5, "volume")
    (Fraction(7, 2), Fraction(3, 2))
    """
    match = re.fullmatch(_RATIONAL, str(value), re.VERBOSE)
    if match is None:
        raise InputError(f"{field} must be a rational number such as 10 or 7/2")
    num, den, frac, exp = (
        (match[g] or "").replace("_", "") for g in ("num", "den", "frac", "exp"))
    long_exponent = len(exp.lstrip("+-").lstrip("0")) > len(str(VOLUME_DIGIT_CAP))
    if match["den"] is None and not long_exponent:
        # num.frac times 10**exp is num frac times 10**shift
        shift = int(exp or "0") - len(frac)
        num, den = num + frac + "0" * max(shift, 0), "1" + "0" * max(-shift, 0)
    if long_exponent or max(len(num), len(den)) > VOLUME_DIGIT_CAP:
        raise InputError(
            f"{field} has more than {VOLUME_DIGIT_CAP} digits above or below the line")
    if int(den) == 0:
        raise InputError(f"{field} has a zero denominator")
    from fractions import Fraction
    volume = Fraction(int(num), int(den))
    return -volume if match["sign"] == "-" else volume


def degree_bound(vol_domain: Fraction, vol_target: Fraction) -> int:
    """Largest possible |degree| by simplicial-volume comparison:
    floor(vol_domain / vol_target).  The target volume must be a known
    positive rational."""
    from fractions import Fraction
    vd, vt = Fraction(vol_domain), Fraction(vol_target)
    if vt <= 0:
        raise HypothesisError("target simplicial volume must be positive and known")
    if vd < 0:
        raise InputError("domain simplicial volume must be nonnegative")
    return int(vd / vt)


def finiteness_verdict(domain: ManifoldExpr, target: ManifoldExpr,
                       d_base_finite: bool = False,
                       pullback_class_set_finite: bool = False) -> str:
    """"finite" iff the hypotheses for a finite full degree set hold:
    those of :func:`promote_to_full_degree_set`, target Euler class
    non-torsion, the base degree set finite, and finitely many candidate
    pullback classes.  A hyperbolic target base supplies the last two by
    itself; otherwise they are caller-declared facts."""
    if not isinstance(domain, CircleBundle) or not isinstance(target, CircleBundle):
        raise InputError("finiteness verdict applies to circle bundles")
    hyp = target.base.has("hyperbolic")
    ok = (
        promote_to_full_degree_set(domain.base, target.base)
        and not is_torsion(target.euler)[0]
        and (d_base_finite or hyp)
        and (pullback_class_set_finite or hyp)
    )
    return "finite" if ok else "unknown"


# ---------------------------------------------------------------------------
# preset registry


def _rank1_base(name: str, dim: int, flags: Iterable[str], fixes: Iterable[str],
                volume: Fraction | None = None) -> BaseManifold:
    h2 = FgAbelianGroup(1)
    return BaseManifold(
        name, dim, h2,
        (("b", h2.element([1])),),
        frozenset(flags), frozenset(fixes), volume,
    )


def builtin_registry() -> dict[str, BaseManifold]:
    """Shipped base presets, each with a rank-1 cohomology group and the
    distinguished non-torsion class b = (1).

    * ``surface``: closed hyperbolic surface.  Declares d_self_is_01 and
      the fixed class as modeling axioms so the same-base pair rule runs;
      over a surface the honest mechanism is the Euler-class scaling of
      top cohomology, and pair results are tagged surface-euler-scaling.
    * ``knot-glue-3``: closed 3-manifold glued from the exteriors of two
      distinct hyperbolic knots (one with trivial symmetry group) along
      their boundary tori; aspherical, self-degree set {0, 1}, meridian
      class fixed.
    * ``hyp-odd-4``: closed hyperbolic 4-manifold with positive second
      Betti number and an isometry group of odd order, so degree +-1 self
      maps cannot reverse orientation and the self-degree set is {0, 1}.

    The presets are immutable, so they are built once, on the first call,
    and shared; each call returns a new dict that the caller may extend.
    """
    return dict(_presets())


@lru_cache(maxsize=1)
def _presets() -> dict[str, BaseManifold]:
    return {
        "surface": _rank1_base(
            "surface", 2, ("hyperbolic", "d_self_is_01"), ("b",)
        ),
        "knot-glue-3": _rank1_base(
            "knot-glue-3", 3, ("aspherical", "scf_pi1", "d_self_is_01"), ("b",)
        ),
        "hyp-odd-4": _rank1_base(
            "hyp-odd-4", 4, ("hyperbolic", "d_self_is_01"), ("b",)
        ),
    }


def load_registry(path: str | Path) -> dict[str, BaseManifold]:
    """Built-ins plus the bases declared in a JSON registry file, which
    must be valid under the ``presetRegistry`` schema; file entries
    override built-ins with the same name."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read registry file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # also an integer past Python's digit limit
        raise InputError(f"registry file is not valid JSON: {exc}") from exc
    validate_payload("presetRegistry", obj)
    registry = builtin_registry()
    for entry in obj["bases"]:
        base = BaseManifold.from_json(entry)
        registry[base.name] = base
    return registry


def registry_from_env() -> dict[str, BaseManifold]:
    path = os.environ.get(PRESET_ENV_VAR)
    if path:
        return load_registry(path)
    return builtin_registry()
