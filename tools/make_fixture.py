#!/usr/bin/env python3
"""Generate the bundled field-census fixture.

Produces ``src/sdxa/data/cubic_quadratic_fields.txt``: every cubic field with
full symmetric Galois closure and |disc| <= 2000, and every quadratic field
with |disc| <= 100 (enumerated from the definition of a fundamental
discriminant).  ``python tools/make_fixture.py`` rewrites the file in under a
second with the standard library and ``sdxa`` alone.  The records go through
the library's own writer, so ingest followed by dump gives back the bytes.

The cubic side is exact integer arithmetic on binary cubic forms
f = (a, b, c, d) = a x^3 + b x^2 y + c x y^2 + d y^3 (Belabas, Math. Comp. 66,
1997).  GL2(Z) acts by (f.g)(x, y) = det(g)^-1 f((x, y) g); the classes of
irreducible forms correspond one to one with cubic orders, disc(f) being the
order's discriminant (Delone-Faddeev).  The proof has three steps.

1. The Hunter box (Cohen, GTM 138, section 6.4).  A cubic field K has some
   theta in O_K \\ Z with 0 <= t = Tr(theta) <= 3/2, so t is 0 or 1, and
   T2(theta) <= t^2/3 + sqrt(4/3) * sqrt(|D|/3) ~= 30.2 at |D| = 2000.  K has
   no subfield but Q, so theta has minimal polynomial x^3 - t x^2 + a x - b,
   with |a| <= (t^2 + T2)/2 ~= 15.6 (t^2 - 2a is the sum of the squared
   conjugates) and |b| <= (T2/3)^(3/2) ~= 31.9 (AM-GM).  The box below holds
   both bounds, so each such K comes from some form (1, -t, a, -b) of it.
2. The p-overorder step.  R(f) is maximal at every p with p^2 not dividing
   disc(f), and it is not maximal at p exactly when f == 0 mod p, or f is
   equivalent to a form with p^2 | a and p | b (Davenport and Heilbronn,
   Proc. R. Soc. A 322, 1971; Belabas, Lemma 1).  In the first case f/p is
   the form of an order holding R(f) with index p^2.  Otherwise such a form
   has its multiple root mod p at (1:0); f mod p has at most one multiple
   root, and once p | a and p | b, a matrix fixing (1:0) mod p takes a to a
   unit times a plus a multiple of p^2.  So move the root to (1:0) and test
   p^2 | a.  If it holds, p f(x/p, y) = (a/p^2, b/p, c, pd) is the form of an
   order holding R(f) with index p.  Each step divides disc by p^2 or p^4, so repeating it
   at every p with p^2 | disc ends at the form of O_K, of discriminant D(K).
3. Certificates.  Maximal forms give one field exactly when they are
   GL2(Z)-equivalent.  Each pair of maximal forms of one discriminant D gets
   one of two certificates:
   - an explicit g in GL2(Z) with det(g)^-1 f((x, y) g) equal to the other
     form proves one field;
   - different root counts in P^1(F_p) at some p not dividing D, that is
     different splittings of the unramified p, prove two fields.
   A pair with neither raises ValueError: nothing is merged or split silently.
"""

from __future__ import annotations

import math
import sys
from itertools import product
from pathlib import Path

from sdxa.census import (Dataset, FieldRecord, LocalDatum, dump_dataset,
                         fundamental_discriminant, load_dataset)
from sdxa.groups import factorize
from sdxa.perms import CycleType

MAX_CUBIC_DISC = 2000
MAX_QUAD_DISC = 100

# The Hunter box for x^3 - t*x^2 + a*x - b: |a| <= 15.6 and |b| <= 31.9 suffice.
TRACE_VALUES = (0, 1)
A_BOUND = 38
B_BOUND = 45
# First rows of the GL2(Z) matrices tried as certificates, smallest first.
FIRST_ROWS = sorted(((p, q) for p in range(-40, 41) for q in range(-40, 41)
                     if math.gcd(p, q) == 1), key=lambda row: (max(map(abs, row)), row))
# Primes whose root counts may tell two fields of one discriminant apart.
SEPARATING_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

Form = tuple[int, int, int, int]


def form_disc(f: Form) -> int:
    a, b, c, d = f
    return b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d


def value(f: Form, x: int, y: int) -> int:
    a, b, c, d = f
    return ((a * x + b * y) * x + c * y * y) * x + d * y**3


def act(f: Form, g: tuple[int, int, int, int]) -> Form:
    """det(g)^-1 f((x, y) g) for g = (p, q, r, s), the matrix [[p, q], [r, s]]
    of determinant +-1, so (x, y) g = (px + ry, qx + sy).  A binary cubic h is
    fixed by h(1, 0), h(0, 1) and h(1, +-1) = a +- b + c +- d."""
    p, q, r, s = g
    det = p * s - q * r
    assert det in (1, -1), f"{g} is not in GL2(Z)"
    a, d = value(f, p, q), value(f, r, s)
    b_plus_c, c_minus_b = value(f, p + r, q + s) - a - d, value(f, p - r, q - s) - a + d
    return tuple(det * v for v in (a, (b_plus_c - c_minus_b) // 2, (b_plus_c + c_minus_b) // 2, d))


def overorder(f: Form, p: int) -> Form | None:
    """The form of an order holding R(f) with index p or p^2, or None when
    R(f) is maximal at p (step 2 of the module docstring)."""
    if all(coeff % p == 0 for coeff in f):
        return tuple(coeff // p for coeff in f)
    if f[0] % p or f[1] % p:  # (1:0) is no multiple root: move an affine one there
        a, b, c, _ = f
        root = next((r for r in range(p) if value(f, r, 1) % p == 0
                     and (3 * a * r * r + 2 * b * r + c) % p == 0), None)
        if root is None:
            return None
        f = act(f, (root, 1, -1, 0))  # (x, y) -> (r x - y, x), so a = f(r, 1)
    a, b, c, d = f
    if a % (p * p):
        return None
    return (a // (p * p), b // p, c, p * d)


def maximal_form(f: Form) -> Form:
    """The form of the maximal order of the field of the irreducible f."""
    for p, e in factorize(abs(form_disc(f))).items():
        if e > 1:
            while (larger := overorder(f, p)) is not None:
                f = larger
    return f


def root_count(f: Form, p: int) -> int:
    """Number of roots of f in P^1(F_p)."""
    return (f[0] % p == 0) + sum(value(f, r, 1) % p == 0 for r in range(p))


def equivalence(f: Form, g: Form) -> tuple[int, int, int, int] | None:
    """A matrix m with act(f, m) == g, its first row from FIRST_ROWS, or None.

    A first row (p, q) gives act(f, m) the leading coefficient det(m) f(p, q).
    If (r, s) completes it to determinant det, so does (r, s) + k (p, q), which
    turns h = act(f, (p, q, r, s)) into h(x + ky, y), whose second coefficient
    b_h + 3 a_h k fixes k."""
    for p, q in FIRST_ROWS:
        det = {g[0]: 1, -g[0]: -1}.get(value(f, p, q))
        if det is None:
            continue
        x = pow(p, -1, abs(q)) if q else p  # p x + q y = 1
        r, s = -det * ((1 - p * x) // q if q else 0), det * x
        k, rest = divmod(g[1] - act(f, (p, q, r, s))[1], 3 * g[0])
        m = (p, q, r + k * p, s + k * q)
        if not rest and act(f, m) == g:
            return m
    return None


def distinct_fields(disc: int, forms: set[Form]) -> list[Form]:
    """One form per field among maximal forms of discriminant disc, each
    merge and each split proven by a certificate (step 3)."""
    primes = [p for p in SEPARATING_PRIMES if disc % p]
    fields: dict[Form, tuple[int, ...]] = {}  # one form per field: its root counts
    for f in sorted(forms, key=lambda f: (sum(map(abs, f)), f)):
        counts = tuple(root_count(f, p) for p in primes)
        for rep, rep_counts in fields.items():
            if counts != rep_counts:
                continue  # a prime splits differently: two fields
            if equivalence(rep, f) is None:
                raise ValueError(f"no certificate tells {rep} and {f} apart or together")
            break
        else:
            fields[f] = counts
    return list(fields)


def enumerate_cubics() -> dict[int, list[Form]]:
    """Map field discriminant -> one maximal form per field, for every
    non-cyclic cubic field with |disc| <= MAX_CUBIC_DISC."""
    forms: dict[int, set[Form]] = {}
    box = product(TRACE_VALUES, range(-A_BOUND, A_BOUND + 1), range(-B_BOUND, B_BOUND + 1))
    for f in ((1, -t, a, -b) for t, a, b in box):
        if (disc := form_disc(f)) == 0 or is_square(disc) or has_integer_root(f):
            continue  # reducible, or square discriminant: cyclic closure
        f = maximal_form(f)
        if abs(disc := form_disc(f)) <= MAX_CUBIC_DISC and not is_square(disc):
            forms.setdefault(disc, set()).add(f)
    return {disc: distinct_fields(disc, group) for disc, group in forms.items()}


def has_integer_root(f: Form) -> bool:
    """Whether the monic f has a root (r:1), r an integer and so a divisor of d."""
    d = f[3]
    return d == 0 or any(value(f, s * r, 1) == 0
                         for r in range(1, abs(d) + 1) if d % r == 0 for s in (1, -1))


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def cubic_record(disc: int, index: int) -> FieldRecord:
    local: list[LocalDatum] = []
    for p, v in sorted(factorize(abs(disc)).items()):
        if p in (2, 3):
            local.append(LocalDatum(p, wild_valuation=v))
        else:
            assert v in (1, 2), f"tame prime {p} with valuation {v} in disc {disc}"
            tame = CycleType((2, 1)) if v == 1 else CycleType((3,))
            local.append(LocalDatum(p, tame_class=tame))
    return FieldRecord(label=f"3.{disc}.{index}", degree=3, group="S3", disc=disc,
                       local=tuple(local))


def is_fundamental(disc: int) -> bool:
    return abs(disc) >= 3 and fundamental_discriminant(disc) == disc


def quadratic_record(disc: int) -> FieldRecord:
    local: list[LocalDatum] = []
    for p, v in sorted(factorize(abs(disc)).items()):
        if p == 2:
            local.append(LocalDatum(p, wild_valuation=v))
        else:
            assert v == 1, f"odd prime {p} with valuation {v} in fundamental {disc}"
            local.append(LocalDatum(p, tame_class=CycleType((2,))))
    return FieldRecord(label=f"2.{disc}.1", degree=2, group="C2", disc=disc,
                       local=tuple(local), quad_subfield_discs=(disc,))


def build_dataset() -> Dataset:
    fields = enumerate_cubics()
    cubic_records = [
        cubic_record(disc, index)
        for disc in sorted(fields, key=lambda d: (abs(d), d))
        for index in range(1, len(fields[disc]) + 1)
    ]
    quad_records = [
        quadratic_record(disc)
        for disc in sorted(
            (d for d in range(-MAX_QUAD_DISC, MAX_QUAD_DISC + 1) if is_fundamental(d)),
            key=lambda d: (abs(d), d),
        )
    ]
    # The header keeps its wording from the round-2 build, which gave the
    # same records, so that the file's bytes (and its pinned hash) stay put.
    headers = (
        "# bundled field census fixture (generated by tools/make_fixture.py)",
        "# cubic fields with full symmetric closure, every |disc| <= 2000:",
        "#   exhaustive trace-reduced coefficient box, round-2 maximal-order",
        "#   discriminants, square-discriminant (cyclic) exclusion, duplicate",
        "#   fields merged by isomorphism testing",
        "# quadratic fields: every fundamental discriminant with |disc| <= 100",
        "# record format: label;degree;group;disc;p:t(...)/p:w(v),...;quad_discs",
        "#coverage group=S3 maxdisc=2000",
        "#coverage group=C2 maxdisc=100",
    )
    return Dataset(records=tuple(cubic_records + quad_records), headers=headers)


def main() -> int:
    dataset = build_dataset()
    text = dump_dataset(dataset)
    assert dump_dataset(load_dataset(text)) == text, "round-trip not byte-identical"
    discs = [r.disc for r in dataset.by_group("S3")]
    print(f"[fixture] {len(discs)} cubic fields ({sum(d < 0 for d in discs)} complex, "
          f"{sum(d > 0 for d in discs)} totally real), "
          f"{len(dataset.by_group('C2'))} quadratic fields")
    target = Path(__file__).resolve().parents[1] / "src/sdxa/data/cubic_quadratic_fields.txt"
    target.write_text(text, encoding="utf-8")
    print(f"[fixture] wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
