"""Exception types shared across the package."""


class InsufficientColorsError(ValueError):
    """The collection has fewer colors than the operation needs."""


class ExceptionalConfigurationError(ValueError):
    """The n=3 opposite-triangle configuration excluded by the forced-color
    path construction."""


class NoProgressError(RuntimeError):
    """Layered rainbow reachability stalled; carries the stalled color."""

    def __init__(self, color: int):
        self.color = color
        super().__init__(f"layer growth stalled at color {color}")


class AbsorberConstructionError(RuntimeError):
    """Randomized absorber construction exhausted its retries."""


class AbsorptionFailedError(RuntimeError):
    """A top-up set admitted no rainbow coloring of the absorber's arcs."""


class StageFailure(RuntimeError):
    """A pipeline stage could not complete; carries the stage tag."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")
