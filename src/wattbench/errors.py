"""Exception hierarchy shared across the pipeline."""


class WattbenchError(Exception):
    """Base class for all pipeline errors."""


class UnknownMetricError(WattbenchError):
    """Metric name is not registered."""


class ProbeUnavailable(WattbenchError):
    """Energy counter cannot be read; the run must be aborted."""


class RangeError(WattbenchError):
    """Counter reading outside the advertised range."""


class InsufficientData(WattbenchError):
    """Not enough readings to derive the requested result."""


class ImplausiblePower(WattbenchError):
    """Derived power exceeds the sanity ceiling; invalidates the run."""


class AttributionError(WattbenchError):
    """Host CPU share is zero while containers report activity."""


class TargetDown(WattbenchError):
    """Load target failed the pre-run probe request."""


class ConfigError(WattbenchError):
    """Test plan or scenario file is missing or invalid."""


class DeployError(WattbenchError):
    """SUT deployment failed; nothing was persisted."""


class PlanFailed(WattbenchError):
    """Every repetition of a plan produced an invalid run."""


class DuplicateRun(WattbenchError):
    """A run with this id already exists in the store."""


class CorruptRun(WattbenchError):
    """Stored data does not verify against its manifest checksums."""


class NotFound(WattbenchError):
    """Requested run is not in the store."""


class SummaryError(WattbenchError):
    """Run cannot be aggregated (invalid or missing data)."""


class IncomparableRuns(WattbenchError):
    """Run sets were measured under different test plans."""


class NoData(WattbenchError):
    """Comparison side has no valid summaries."""


class AgentError(WattbenchError):
    """Agent replied with an error status."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail
