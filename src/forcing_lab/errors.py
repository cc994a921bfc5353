"""Exception taxonomy shared across the library.

Every error that callers are expected to catch by type lives here; modules
raise plain ValueError only for programming mistakes with no domain meaning.
"""

from __future__ import annotations


class ForcingLabError(Exception):
    """Base class for all library-specific errors."""


class InvalidPermutation(ForcingLabError):
    """Images are not a bijection, or degrees do not match."""


class OrderCapExceeded(ForcingLabError):
    """Generated group grew past the configured order cap."""

    def __init__(self, cap: int) -> None:
        super().__init__(f"group order exceeds the cap of {cap}")
        self.cap = cap


class NotAPGroup(ForcingLabError):
    """Operation requires a group of prime-power order."""


class NotNormal(ForcingLabError):
    """Operation requires a normal subgroup."""


class PreconditionViolated(ForcingLabError):
    """Structural precondition on subgroups or quotients does not hold."""


class NotNilpotent(ForcingLabError):
    """Group is not the direct product of its Sylow subgroups."""


class PNotDividing(ForcingLabError):
    """The prime does not divide the group order."""


class CyclicGroup(ForcingLabError):
    """Cyclic groups admit no forcing sequence."""


class QuaternionGroup(ForcingLabError):
    """Generalized quaternion groups admit no forcing sequence."""

    def __init__(self, index: int) -> None:
        super().__init__(f"generalized quaternion group of index {index} (order {2 ** (index + 2)})")
        self.index = index


class GroupSpecError(ForcingLabError):
    """Group spec string does not parse or names an unknown preset."""


class MalformedCertificate(ForcingLabError):
    """Certificate is structurally unusable (bad indices, shape mismatch)."""


class UnverifiedCertificate(ForcingLabError):
    """Certificate fails the structural consistency the exponent calculus needs."""


class DegenerateDegree(ForcingLabError):
    """Field degree below 2 has no saving exponent."""


class EvenPrimeBase(ForcingLabError):
    """No built-in base exponent for elementary abelian 2-groups; supply an override."""


class RankOne(ForcingLabError):
    """Base exponent needs generator rank at least 2."""


class SylowHypothesisViolated(ForcingLabError):
    """A Sylow factor is cyclic or generalized quaternion."""

    def __init__(self, prime: int, reason: str) -> None:
        super().__init__(f"Sylow {prime}-subgroup is {reason}")
        self.prime = prime
        self.reason = reason


class SchemaVersionUnknown(ForcingLabError):
    """Certificate document declares a schema version this build cannot read."""


class DigestMismatch(ForcingLabError):
    """Certificate document bytes do not match their recorded digest."""


class Malformed(ForcingLabError):
    """Certificate document is not valid JSON or misses required structure."""


class InputTooLarge(ForcingLabError):
    """An input file is longer than the tool reads."""
