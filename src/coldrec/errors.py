"""Exception types raised across the pipeline."""


class PipelineError(Exception):
    """Base class for errors raised by pipeline stages."""


class EmptyInputError(PipelineError):
    """An operation received an empty catalog, tensor, or test set."""


class DegenerateSplitError(PipelineError):
    """A train/test split left one side empty."""


class SingularSystemError(PipelineError):
    """A ridge system was singular and could not be factorized."""


class FormatError(PipelineError, ValueError):
    """A persisted file did not match its declared layout."""


class DivergenceError(PipelineError):
    """Training produced non-finite parameters or loss."""


class MissingArticlesError(PipelineError):
    """Article ids that an embedding file or a feature matrix lacks."""

    def __init__(self, missing, source):
        self.missing = list(missing)
        super().__init__(
            "%s is missing %d article id(s): %s" % (source, len(self.missing), ", ".join(self.missing))
        )
