"""Exception hierarchy shared by all loopbundle modules."""


class LoopError(Exception):
    """Base class for all loopbundle errors."""


class DomainSingularity(LoopError):
    """A closed-form loop operation hit a singular denominator."""


class OutOfDomain(LoopError):
    """A point failed the chart domain check of its loop."""


class NoSolutionInChart(LoopError):
    """An ``rz`` division outside its window pi |sin(pi a)| < 1 (its only source)."""


class UnknownKind(LoopError):
    """Requested loop kind is not in the catalog."""


class PoleSingularity(LoopError):
    """Stereographic chart evaluated at the projection pole."""


class NotInOverlap(LoopError):
    """Base point does not lie in the requested chart overlap."""


class ProjectionSingular(LoopError):
    """Bundle projection undefined at the requested total-space point."""


class PartitionInvalid(LoopError):
    """Partition-of-unity weights do not sum to one on the sampled points."""


class UnknownSuite(LoopError):
    """CLI was asked to run a suite that does not exist."""


class ReportWriteFailure(LoopError):
    """Verification report could not be written."""
