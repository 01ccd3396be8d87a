"""Exact combinatorics of compositum discriminants and counting invariants
for degree-d fields twisted by an abelian group.

The package is organized bottom-up:

- :mod:`sdxa.perms` — cycle types, pair indices, and the product embedding
  of image tuples that checks them.
- :mod:`sdxa.groups` — abelian groups, product conjugacy classes, and the
  counting invariants they determine.
- :mod:`sdxa.indexcalc` — the discrepancy function, equality-case
  classification, exponent margins, and the dyadic tail estimator.
- :mod:`sdxa.splitting` — splitting patterns, Frobenius lifts on
  inertia-orbit labels, and discriminant-valuation tables.
- :mod:`sdxa.census` — field-record ingestion, pair composition, counting,
  and dyadic uniformity measurements.
- :mod:`sdxa.cli` — the ``sdxa`` command-line driver.

Each value type is a ``namedtuple`` of its fields under :class:`sdxa.errors.Frozen`:
frozen, equal only to its own type, unordered but for ``SplittingPattern``,
and checked in ``__new__``, which ``_replace`` and ``_make`` call too.
"""

__version__ = "0.1.0"
