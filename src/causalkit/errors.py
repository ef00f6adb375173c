"""Exception types shared across the toolkit."""

from __future__ import annotations


class CausalKitError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(CausalKitError):
    """Invalid schema definition (bad record refs, duplicate names, bad domains)."""


class MissingFieldError(CausalKitError):
    def __init__(self, name: str):
        super().__init__(f"missing value for field '{name}'")
        self.name = name


class TypeMismatchError(CausalKitError):
    def __init__(self, name: str, expected, got):
        super().__init__(f"field '{name}': expected {expected}, got {got}")
        self.name = name
        self.expected = expected
        self.got = got


class UnsampleableFieldError(CausalKitError):
    def __init__(self, name: str, reason: str = "no declared domain"):
        super().__init__(f"field '{name}' cannot be sampled: {reason}")
        self.name = name
        self.reason = reason


class EvalError(CausalKitError):
    """Runtime evaluation failure (division by zero, bad index, ...)."""

    def __init__(self, message: str, loc=None, law: str | None = None):
        self.loc = loc
        self.law = law
        prefix = f"law '{law}': " if law else ""
        suffix = f" at {loc}" if loc is not None else ""
        super().__init__(f"{prefix}{message}{suffix}")
        self.message = message


class SolveError(CausalKitError):
    """Implicit linear solve failed."""


class NoApplicableLawError(CausalKitError):
    """No law guard holds; carries the offending state as a completeness witness."""

    def __init__(self, witness):
        super().__init__("no applicable law")
        self.witness = witness


class MultipleApplicableError(CausalKitError):
    """Two or more guards hold; carries the state as a consistency witness."""

    def __init__(self, witness, law_names):
        super().__init__(f"multiple applicable laws: {', '.join(law_names)}")
        self.witness = witness
        self.law_names = list(law_names)


class ContinuousRandomError(CausalKitError):
    """A continuous random draw was requested in branching mode."""

    def __init__(self, law: str | None = None):
        where = f" in law '{law}'" if law else ""
        super().__init__(f"continuous random draw is not branchable{where}")
        self.law = law


class MissingAttributeError(CausalKitError):
    """A path collection lacks a required attribute."""


class ZeroNormError(CausalKitError):
    """All amplitudes vanish; no outcome can be drawn."""


class PositionOutOfBinsError(CausalKitError):
    """A path position falls outside the detector bin range."""


class UnknownModelError(CausalKitError):
    def __init__(self, name: str):
        super().__init__(f"unknown bundled model '{name}'")
        self.name = name


class BadParamError(CausalKitError):
    """An unknown or invalid --param value for a model's `param`."""


class EnumerationCapError(CausalKitError):
    """The enumerate strategy would check more states than its cap."""


class NoValidInStateFoundError(CausalKitError):
    """Sampling never produced a state satisfying any guard."""


class SinkError(CausalKitError):
    """Trace serialization target failed."""


class CmlError(CausalKitError):
    """Source could not be parsed/typechecked; carries the diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0] if self.diagnostics else "unknown error"
        super().__init__(str(first))
