"""Exception taxonomy.

Bad input (a malformed file, a parameter out of range, a series too short
for the operation) raises ValueError, which the CLI maps to exit code 2.
Data that is fine but whose answer is "no" raises one of the named
analysis outcomes below, which the CLI maps to exit code 3.
MissingColumnError is the one input error with a type of its own, since
the ingest path catches it by name; it exits 2 too. PipelineStageError
wraps whatever a pipeline stage raised and exits as its cause does.
"""


class AerosurveyError(Exception):
    """Base class for all package errors."""


class MissingColumnError(AerosurveyError):
    """CSV header lacks a column required by the declared schema."""


# --- analysis outcomes (data is fine, the answer is 'no'; CLI exit code 3) ---

class NeverBelowFloorError(AerosurveyError):
    """Noise amplitude exceeds the floor at every measured separation."""


class NoFitAvailableError(AerosurveyError):
    """Operation needs a fitted decay law and the curve has none."""


class NeverSettlesError(AerosurveyError):
    """Swing never stays below the threshold within the series."""


class NoIntersectionsError(AerosurveyError):
    """No geometric crossover between flight and tie lines."""


class PipelineStageError(AerosurveyError):
    """A pipeline stage raised; carries the stage name and partial report."""

    def __init__(self, stage: str, cause: Exception, partial_report=None):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.partial_report = partial_report
