"""Exception types shared across the package.

Each is a ValueError, so every failure of a command raises a ValueError or
an OSError, and ``cli.main`` reports it.
"""


class AirCompError(ValueError):
    """Base class for all package-specific errors."""


class RankDeficient(AirCompError):
    """A matrix that must have full column rank does not."""


class EmptySample(AirCompError):
    """A statistic was requested on an empty sample set."""


class InvalidShape(AirCompError):
    """Code dimensions violate a shape rule, such as l_tilde >= l >= 1."""


class ZeroChannel(AirCompError):
    """A channel gain is too weak to invert.

    Raised by ``channel.require_gain_floor`` for a min_gain below
    config.min_gain_floor, which run_round and experiments.fixed_channel_for
    apply, and by ChannelRealization for a zero gain.
    """


class ShapeMismatch(AirCompError):
    """Vector/matrix dimensions are inconsistent across the chain."""


class FloorUnsatisfiable(AirCompError):
    """Fading redraws kept violating the minimum-gain floor."""


class NonIntegralBlocklength(AirCompError):
    """A requested rate does not yield an integer codeword length."""
