"""Exact base fields: the rationals and prime fields F_p.

Field elements are plain Python values; a field object interprets them.
An element of F_p is an int in [0, p).  An element of Q is an int when it is
integral and a Fraction otherwise, so the kernels on integral matrices run
on native int arithmetic.  This normal form only makes things faster: every
test of an element is ``==`` or truthiness, which mean the same for an int
and an equal Fraction (hashes agree too), so correctness never depends on
it.  Contexts are per-computation so the same process can run a problem
over Q and over F_p side by side.

Each field object owns the insert-only tables in which `matrix` stores the
products and eliminations of small operands over it (see `matrix`), so
results computed over Q are never handed to a computation over F_p.
"""

from __future__ import annotations

from fractions import Fraction


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for 64-bit inputs
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


class Field:
    """Interface shared by RationalField and PrimeField.

    ``zero`` and ``one`` are plain attributes, and ``p`` is the
    characteristic, which is the modulus the matrix kernels reduce by over
    F_p and 0 over Q."""

    p: int
    zero = 0
    one = 1

    def __init__(self):
        self.rref_table: dict = {}     # (rows, cols, entries) -> matrix.rref(...)
        self.product_table: dict = {}  # (n, k, m, entries, entries) -> the product

    def of_int(self, n: int):
        raise NotImplementedError

    def of_str(self, s: str):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError


def _q(x):
    """The normal form of a rational: its numerator, an int, when it is
    integral, and the Fraction itself otherwise."""
    return x.numerator if x.denominator == 1 else x


class RationalField(Field):
    p = 0

    def of_int(self, n: int) -> int:
        return int(n)

    def of_str(self, s: str):
        return _q(Fraction(s))

    def add(self, a, b):
        return _q(a + b)

    def sub(self, a, b):
        return _q(a - b)

    def mul(self, a, b):
        return _q(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0")
        return _q(Fraction(1, a))

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("inverse of 0")
        return _q(Fraction(a, b))

    def is_zero(self, a) -> bool:
        return not a

    def to_str(self, a) -> str:
        # canonical form: reduced, positive denominator, "a" or "a/b"
        f = Fraction(a)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    def __init__(self, p: int):
        if not _is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__()
        self.p = p

    def of_int(self, n: int) -> int:
        return n % self.p

    def of_str(self, s: str) -> int:
        if "/" in s:
            num, den = s.split("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(s) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()
