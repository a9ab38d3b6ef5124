"""Exception types shared across the package."""


class TwistedBernoulliError(Exception):
    """Base class for all package errors."""


# field arithmetic

class NonDivisibleConductor(TwistedBernoulliError):
    """Requested an embedding into a field whose conductor is not a multiple."""


class FieldMismatch(TwistedBernoulliError):
    """Binary operation on elements of different fields; embed first."""


class DivisionByZero(TwistedBernoulliError, ZeroDivisionError):
    """Inverse of the zero element."""


class UnsupportedField(TwistedBernoulliError):
    """p-adic valuation requested in a field where it is not single-valued."""


# power series

class NonUnitConstantTerm(TwistedBernoulliError):
    """Series inversion needs a nonzero constant term."""


# characters

class NotMultiplicative(TwistedBernoulliError):
    """Value table is not completely multiplicative."""


class WrongSupport(TwistedBernoulliError):
    """Zero/nonzero pattern of a value table disagrees with gcd(a, modulus)."""


class NotNormalized(TwistedBernoulliError):
    """Value table has chi(1) != 1."""


class NonCyclicUnitGroup(TwistedBernoulliError):
    """Character enumeration requested for a modulus with non-cyclic unit group."""


# configuration / CLI

class ConfigError(TwistedBernoulliError):
    """Invalid run configuration; message names the offending key."""
