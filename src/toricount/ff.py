"""Exact arithmetic in small finite fields F_{p^f}.

Elements are residues modulo a canonical irreducible polynomial, stored as
dense coefficient tuples (constant term first). The canonical modulus is the
lexicographically least monic irreducible of degree f over F_p, comparing
coefficient tuples constant-term first, which makes every derived value
reproducible across implementations.

Enumeration order is the base-p integer encoding: element number n has
coefficients (n mod p, (n // p) mod p, ...), so F_4 enumerates as
[0, 1, t, t+1]. The same encoding indexes the numpy tables built here: the
discrete logarithm and exponential tables of a primitive element, O(q) in
size, on which the counting kernel runs for every field, and the q x q
addition and multiplication tables of small fields. No count reads the q x q
tables: only perfbench's set-up does, until ROADMAP item 1 drops that read.
Only the functions that build the tables import numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

from .errors import (
    CapExceeded,
    CompositeP,
    DivisionByZero,
    FieldMismatch,
    InvalidParams,
)

if TYPE_CHECKING:
    import numpy as np

#: Largest p^f make_field accepts by default.
CARDINALITY_CAP = 1 << 20

#: Largest q for which numpy arithmetic tables are built.
TABLE_CAP = 256

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin (exact for n < 3.3·10^24 with these bases)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# --------------------------------------------------------------------------
# dense polynomial helpers over F_p (little-endian coefficient lists)
# --------------------------------------------------------------------------

def _pmulmod(a: tuple[int, ...], b: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    """(a*b) mod Â·`mod` over F_p; `mod` monic of degree f; result length f."""
    f = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, f - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(f):
                prod[i - f + j] = (prod[i - f + j] - c * mod[j]) % p
    prod = prod[:f] + [0] * (f - len(prod))
    return tuple(prod[:f])


def _ppowmod(base: tuple[int, ...], e: int, mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    f = len(mod) - 1
    result = tuple([1] + [0] * (f - 1))
    acc = tuple(list(base) + [0] * (f - len(base)))[:f]
    while e:
        if e & 1:
            result = _pmulmod(result, acc, mod, p)
        acc = _pmulmod(acc, acc, mod, p)
        e >>= 1
    return result


def _pdegree(a: Iterable[int]) -> int:
    d = -1
    for i, c in enumerate(a):
        if c:
            d = i
    return d


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd in F_p[t]."""
    a, b = list(a), list(b)
    while _pdegree(b) >= 0:
        da, db = _pdegree(a), _pdegree(b)
        if da < db:
            a, b = b, a
            continue
        lead = a[da] * pow(b[db], p - 2, p) % p
        for j in range(db + 1):
            a[da - db + j] = (a[da - db + j] - lead * b[j]) % p
        if _pdegree(a) < _pdegree(b):
            a, b = b, a
    da = _pdegree(a)
    if da < 0:
        return a
    inv = pow(a[da], p - 2, p)
    return [(c * inv) % p for c in a]


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Iterated-Frobenius irreducibility test for a monic polynomial over F_p."""
    f = len(mod) - 1
    if f == 1:
        return True
    if mod[0] == 0:  # divisible by t
        return False
    t = tuple([0, 1] + [0] * (f - 2)) if f >= 2 else (0,)
    # x^(p^k) mod `mod`, built by repeated p-th powering
    frob = t
    distinct_prime_divisors = sorted({r for r in range(2, f + 1) if f % r == 0 and is_prime(r)})
    checkpoints = {f // r for r in distinct_prime_divisors}
    for k in range(1, f + 1):
        frob = _ppowmod(frob, p, mod, p)
        if k in checkpoints:
            diff = list(frob)
            diff[1] = (diff[1] - 1) % p
            g = _pgcd(list(mod), diff, p)
            if _pdegree(g) != 0:
                return False
    # after the loop frob = t^(p^f); it must equal t
    return frob == t


# --------------------------------------------------------------------------
# field spec and elements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """A concrete finite field F_{p^f} with its canonical modulus."""

    p: int
    f: int
    modulus: tuple[int, ...]  # length f+1, constant term first, monic

    @property
    def q(self) -> int:
        return self.p ** self.f

    @property
    def name(self) -> str:
        return f"GF({self.p})" if self.f == 1 else f"GF({self.p}^{self.f})"

    @property
    def modulus_str(self) -> str:
        return _poly_str(self.modulus)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name

    # -- element constructors ------------------------------------------------
    def element(self, coeffs: Iterable[int]) -> "FieldElement":
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) != self.f:
            raise InvalidParams(f"expected {self.f} coefficients, got {len(c)}")
        return FieldElement(self, c)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.f)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.f - 1))

    def gen(self) -> "FieldElement":
        """The residue of t (for f = 1, this is 0 = the root of the modulus t)."""
        if self.f == 1:
            return self.zero()
        return FieldElement(self, (0, 1) + (0,) * (self.f - 2))

    def from_int(self, n: int) -> "FieldElement":
        """Image of the integer n under Z -> F_p ⊆ F_q."""
        return FieldElement(self, (n % self.p,) + (0,) * (self.f - 1))

    def from_index(self, n: int) -> "FieldElement":
        """Element number n in enumeration order (base-p digits, c0 least significant)."""
        if not 0 <= n < self.q:
            raise InvalidParams(f"index {n} out of range for {self.name}")
        coeffs = []
        for _ in range(self.f):
            coeffs.append(n % self.p)
            n //= self.p
        return FieldElement(self, tuple(coeffs))


def _poly_str(coeffs: Iterable[int]) -> str:
    """Human form of a dense polynomial in t, highest degree first."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
    return " + ".join(reversed(parts)) if parts else "0"


@dataclass(frozen=True)
class FieldElement:
    """Residue in F_{p^f}: coefficient tuple (constant first) mod the modulus."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    # -- helpers ---------------------------------------------------------------
    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise FieldMismatch(f"{self.spec.name} vs {other.spec.name}")
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        return NotImplemented  # type: ignore[return-value]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def to_index(self) -> int:
        """Position in enumeration order (base-p integer encoding)."""
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.spec.p + c
        return n

    # -- arithmetic --------------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.spec.p
        return FieldElement(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(
            self.spec, _pmulmod(self.coeffs, o.coeffs, self.spec.modulus, self.spec.p)
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise InvalidParams("negative exponent; use inverse() explicitly")
        # 0^0 = 1 by convention so that evaluation with zero exponents is total
        return FieldElement(self.spec, _ppowmod(self.coeffs, e, self.spec.modulus, self.spec.p))

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise DivisionByZero(f"inverse of 0 in {self.spec.name}")
        # a^(q-2) = a^{-1}; fields are tiny, the extra logs over ext-Euclid are free
        return self ** (self.spec.q - 2)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __str__(self) -> str:
        if self.spec.f == 1:
            return str(self.coeffs[0])
        return _poly_str(self.coeffs)


# --------------------------------------------------------------------------
# field construction
# --------------------------------------------------------------------------

def make_field(p: int, f: int = 1) -> FieldSpec:
    """F_{p^f} with the lexicographically least monic irreducible modulus.

    Lexicographic order compares coefficient tuples constant-term first:
    GF(9) gets t^2 + 1, GF(4) gets t^2 + t + 1, GF(p) gets t.

    Specs are interned: equal (p, f) always yields the same object.
    """
    return _make_field(int(p), int(f))


@lru_cache(maxsize=None)
def _make_field(p: int, f: int) -> FieldSpec:
    if f < 1:
        raise InvalidParams(f"extension degree must be >= 1, got {f}")
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    # p^f >= 2^f, so no huge power is formed
    if f >= CARDINALITY_CAP.bit_length() or p ** f > CARDINALITY_CAP:
        raise CapExceeded(f"{p}^{f} exceeds the cardinality cap {CARDINALITY_CAP}")
    for lower in itertools.product(range(p), repeat=f):
        mod = tuple(lower) + (1,)
        if _is_irreducible(mod, p):
            return FieldSpec(p=p, f=f, modulus=mod)
    raise AssertionError("unreachable: an irreducible of every degree exists")


def parse_field_name(text: str) -> FieldSpec:
    """Parse 'GF(p)' / 'GF(p^f)' / 'GF(q)' with q a prime power."""
    s = text.strip()
    if not (s.startswith("GF(") and s.endswith(")")):
        raise InvalidParams(f"field name must look like GF(p) or GF(p^f): {text!r}")
    body = s[3:-1]
    if "^" in body:
        p_str, f_str = body.split("^", 1)
        try:
            return make_field(int(p_str), int(f_str))
        except ValueError as exc:
            raise InvalidParams(f"bad field name {text!r}") from exc
    try:
        n = int(body)
    except ValueError as exc:
        raise InvalidParams(f"bad field name {text!r}") from exc
    if n < 2:
        raise InvalidParams(f"bad field cardinality {n}")
    if n > CARDINALITY_CAP:
        raise CapExceeded(f"{n} exceeds the cardinality cap {CARDINALITY_CAP}")
    # factor n as p^f, p its least prime factor
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    f, m = 0, n
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise CompositeP(f"{n} is not a prime power")
    return make_field(p, f)


@lru_cache(maxsize=None)
def enumerate_field(spec: FieldSpec) -> tuple[FieldElement, ...]:
    """All q elements in canonical enumeration order (deterministic)."""
    return tuple(spec.from_index(n) for n in range(spec.q))


# --------------------------------------------------------------------------
# power sums, read by acceptance criterion 1 and by no congruence check
# --------------------------------------------------------------------------

def power_sum(spec: FieldSpec, alpha: int) -> FieldElement:
    """Σ_{x in F_q} x^alpha by direct summation.

    Equals -1 exactly when alpha is a positive multiple of q-1, else 0.
    """
    if alpha < 0:
        raise InvalidParams("alpha must be >= 0")
    total = spec.zero()
    for x in enumerate_field(spec):
        total = total + x ** alpha
    return total


# --------------------------------------------------------------------------
# numpy lookup tables, indexed by enumeration order
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def arithmetic_tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(add, mul) tables indexed by enumeration order; q <= TABLE_CAP required."""
    import numpy as np

    q = spec.q
    if q > TABLE_CAP:
        raise CapExceeded(f"arithmetic tables limited to q <= {TABLE_CAP}, got q = {q}")
    elements = enumerate_field(spec)
    add = np.zeros((q, q), dtype=np.uint16)
    mul = np.zeros((q, q), dtype=np.uint16)
    for i, a in enumerate(elements):
        for j in range(i, q):
            b = elements[j]
            s = (a + b).to_index()
            m = (a * b).to_index()
            add[i, j] = add[j, i] = s
            mul[i, j] = mul[j, i] = m
    add.setflags(write=False)
    mul.setflags(write=False)
    return add, mul


def _times_matrix(c: FieldElement) -> np.ndarray:
    """Matrix of x -> c*x on coefficient vectors (column j = coefficients of c*t^j)."""
    import numpy as np

    spec = c.spec
    basis = [spec.element([int(i == j) for i in range(spec.f)]) for j in range(spec.f)]
    return np.array([(c * b).coeffs for b in basis], dtype=np.int64).T


@lru_cache(maxsize=None)
def log_tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(log, exp) of the first element g in enumeration order that generates F_q^*.

    exp[k] is the index of g^k for 0 <= k < q-1, and log[exp[k]] = k; log[0] is
    -1, as 0 has no logarithm. Both are int64 and read-only, and take O(q)
    space; the powers are built by doubling, each step one vectorized
    product with the matrix of multiplication by g^n.
    """
    import numpy as np

    p, f, q = spec.p, spec.f, spec.q
    for g in map(spec.from_index, range(1, q)):
        coeffs = np.array([spec.one().coeffs], dtype=np.int64)
        while len(coeffs) < q - 1:
            power = g ** len(coeffs)
            if power == spec.one():  # the order of g is below q-1
                break
            coeffs = np.concatenate([coeffs, coeffs @ _times_matrix(power).T % p])
        exp = coeffs[: q - 1] @ (p ** np.arange(f, dtype=np.int64))
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(len(exp), dtype=np.int64)
        if np.count_nonzero(log >= 0) == q - 1:  # the powers of g are distinct
            exp.setflags(write=False)
            log.setflags(write=False)
            return log, exp
    raise AssertionError("unreachable: F_q^* is cyclic")
