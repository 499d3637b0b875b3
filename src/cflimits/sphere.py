"""Extended complex plane and Moebius maps.

Every value handled here lives on the Riemann sphere: it is either a finite
complex number or the single point at infinity.  Infinity is a distinct
state, never a huge float, because numerator/denominator convergents of a
continued fraction legitimately pass through it.  Distances use the chordal
metric, under which the sphere is compact and infinity is an ordinary point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateMapError, DegenerateTripleError, IndeterminateValueError

# Scale-free determinant tolerance: |det| / max(|a|..|d|)^2 below this
# rejects construction of a Moebius map.
DET_RTOL = 1e-13

# Relative tolerance on ||c| - |d|| deciding that a Moebius image of the
# unit circle is a line rather than a circle.
LINE_RTOL = 1e-10

# Beyond this magnitude the chordal metric is evaluated on inverted points
# (z -> 1/z is a chordal isometry), which avoids overflow in |x - y|.
INVERT_ABOVE = 1e150


class ExtendedComplex:
    """A point of the Riemann sphere: finite complex or the point at infinity.

    Finite values must carry finite, non-NaN components.  There is exactly
    one representation of infinity, the module constant ``INFINITY``.
    """

    __slots__ = ("_z",)

    def __init__(self, z: complex | None = None):
        if z is not None:
            z = complex(z)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"finite point with non-finite components: {z!r}")
        self._z = z

    @property
    def is_infinity(self) -> bool:
        return self._z is None

    @property
    def z(self) -> complex:
        """The finite value; raises on infinity."""
        if self._z is None:
            raise ValueError("point at infinity has no finite value")
        return self._z

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtendedComplex):
            return self._z == other._z
        if isinstance(other, (int, float, complex)):
            return self._z == complex(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._z)

    def __repr__(self) -> str:
        return "ExtendedComplex(inf)" if self._z is None else f"ExtendedComplex({self._z!r})"

    def __str__(self) -> str:
        return "inf" if self._z is None else str(self._z)


INFINITY = ExtendedComplex()


def as_extended(value) -> ExtendedComplex:
    """Coerce a complex number (or ExtendedComplex) to a sphere point."""
    if isinstance(value, ExtendedComplex):
        return value
    return ExtendedComplex(value)


def chordal_distance(x, y) -> float:
    """Chordal metric on the sphere, 2|x-y| / sqrt((1+|x|^2)(1+|y|^2)); see ``chordal``."""
    return chordal(as_extended(x)._z, as_extended(y)._z)


def chordal(xz: complex | None, yz: complex | None) -> float:
    """``chordal_distance`` of two raw points: finite complex values, None for infinity.

    Values lie in [0, 2]; antipodal points (0 and infinity) realise 2.
    Large arguments are inverted first (an isometry), so the formula never
    overflows.
    """
    if xz is None:
        return 0.0 if yz is None else 2.0 / math.hypot(1.0, abs(yz))
    if yz is None:
        return 2.0 / math.hypot(1.0, abs(xz))
    x_abs, y_abs = abs(xz), abs(yz)
    if x_abs > INVERT_ABOVE or y_abs > INVERT_ABOVE:
        # Not when the other point is tiny: inverting would only swap the two
        # (and recurse forever), and the direct formula cannot overflow there.
        if not 0.0 < min(x_abs, y_abs) < 1.0 / INVERT_ABOVE:
            return chordal(None if xz == 0 else 1.0 / xz, None if yz == 0 else 1.0 / yz)
    return 2.0 * abs(xz - yz) / (math.hypot(1.0, x_abs) * math.hypot(1.0, y_abs))


@dataclass(frozen=True)
class Circle:
    """Circle in the plane (a circle on the sphere missing infinity)."""

    center: complex
    radius: float

    def distance_to(self, point) -> float:
        point = as_extended(point)
        if point.is_infinity:
            return math.inf
        return abs(abs(point.z - self.center) - self.radius)


@dataclass(frozen=True)
class Line:
    """Line in the plane (a circle on the sphere through infinity)."""

    point: complex
    direction: complex  # unit modulus

    def distance_to(self, point) -> float:
        point = as_extended(point)
        if point.is_infinity:
            return 0.0
        return abs(((point.z - self.point) * self.direction.conjugate()).imag)


CircleOrLine = Circle | Line


@dataclass(frozen=True)
class MobiusMap:
    """Linear fractional transformation z -> (a z + b) / (c z + d).

    The coefficient array is projective: scaling all four entries by a
    nonzero complex number yields a map acting identically on every point.
    Construction rejects (numerically) degenerate coefficient arrays.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0.0 or not math.isfinite(scale):
            raise DegenerateMapError(f"bad coefficient scale {scale}")
        # Not "<": max skips a NaN coefficient that is not first, and then the determinant is NaN.
        if not abs(self.det) >= DET_RTOL * scale * scale:
            raise DegenerateMapError(
                f"determinant {self.det!r} vanishes relative to coefficients or is NaN"
            )

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def apply(self, z) -> ExtendedComplex:
        """Evaluate projectively: infinity -> a/c, poles -> infinity."""
        z = as_extended(z)._z
        if z is not None and abs(z) <= 1.0:
            return projective(self.a * z + self.b, self.c * z + self.d)
        # (a z + b)/(c z + d) == (a + b w)/(c + d w) with w = 1/z.
        w = 0.0 + 0.0j if z is None else 1.0 / z
        return projective(self.a + self.b * w, self.c + self.d * w)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """The map ``self`` after ``other`` (coefficient matrix product)."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def scaled(self, t: complex) -> "MobiusMap":
        t = complex(t)
        if t == 0:
            raise DegenerateMapError("zero scale")
        return MobiusMap(t * self.a, t * self.b, t * self.c, t * self.d)

    def normalized(self) -> "MobiusMap":
        """Canonical representative of the projective class.

        The largest coefficient gets magnitude one, and the first coefficient
        (in a, b, c, d order) that is not negligible is rotated onto the
        positive real axis.  Deterministic, so reports are comparable.
        """
        coeffs = (self.a, self.b, self.c, self.d)
        scale = max(abs(v) for v in coeffs)
        coeffs = tuple(v / scale for v in coeffs)
        lead = next(v for v in coeffs if abs(v) > 1e-14)
        phase = lead / abs(lead)
        return MobiusMap(*(v / phase for v in coeffs))

    def image_of_unit_circle(self) -> CircleOrLine:
        """The image of |z| = 1, a circle or (iff |c| = |d|) a line."""
        ac, ad = abs(self.c), abs(self.d)
        if abs(ac - ad) < LINE_RTOL * (ac + ad):
            pts = [self.apply(z) for z in (1.0, -1.0, 1.0j)]
            finite = [p.z for p in pts if not p.is_infinity]
            direction = finite[1] - finite[0]
            return Line(finite[0], direction / abs(direction))
        denom = ad * ad - ac * ac
        center = (self.b * self.d.conjugate() - self.a * self.c.conjugate()) / denom
        return Circle(center, abs(self.det) / abs(denom))


def projective(num: complex, den: complex) -> ExtendedComplex:
    """The sphere point num/den of a projective pair; (0, 0) has no value."""
    return point(quotient(num, den))


def quotient(num: complex, den: complex) -> complex | None:
    """``projective`` as a raw point: the finite complex num/den, or None for infinity."""
    if den == 0:
        if num == 0:
            raise IndeterminateValueError("projective pair degenerated to (0, 0)")
        return None
    value = num / den
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        # Finite quotient beyond double range; on the sphere this is
        # indistinguishable from infinity at ~1e-308 chordal error.
        return None
    return value


def point(z: complex | None) -> ExtendedComplex:
    """The sphere point of a raw point that ``quotient`` has checked (None: infinity), unchecked."""
    p = object.__new__(ExtendedComplex)
    p._z = z
    return p


def mobius_through(A, B, C) -> MobiusMap:
    """The Moebius map sending infinity -> A, 0 -> B, 1 -> C.

    Any one of the three targets may be the point at infinity.  Raises
    DegenerateTripleError when the targets are not pairwise distinct.
    """
    A = as_extended(A)
    B = as_extended(B)
    C = as_extended(C)
    if A == B or B == C or A == C:
        raise DegenerateTripleError(f"targets not pairwise distinct: {A}, {B}, {C}")
    try:
        if A.is_infinity:
            return MobiusMap(C.z - B.z, B.z, 0.0, 1.0)
        if B.is_infinity:
            return MobiusMap(A.z, C.z - A.z, 1.0, 0.0)
        if C.is_infinity:
            return MobiusMap(A.z, -B.z, 1.0, -1.0)
        return MobiusMap(
            A.z * (C.z - B.z),
            B.z * (A.z - C.z),
            C.z - B.z,
            A.z - C.z,
        )
    except DegenerateMapError as exc:
        raise DegenerateTripleError(f"targets too close: {A}, {B}, {C}") from exc


def sqrt_with_positive_branch(w: complex) -> complex:
    """Principal square root, with the sign fixed so Re >= 0 (ties: Im >= 0)."""
    s = cmath.sqrt(w)
    if s.real < 0.0 or (s.real == 0.0 and s.imag < 0.0):
        s = -s
    return s
