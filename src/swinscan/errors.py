"""Shared exception types."""


class SwinscanError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(SwinscanError, ValueError):
    """Shapes of two operands are incompatible."""


class EmptyInputError(SwinscanError, ValueError):
    """An operation received an empty tensor or collection."""


class LabelError(SwinscanError, ValueError):
    """A class label is out of range for the task."""


class ContractError(SwinscanError, ValueError):
    """An operation was called outside its contract."""


class NonFiniteError(SwinscanError, FloatingPointError):
    """An operation produced NaN or Inf; results are not propagated."""


class ConfigurationError(SwinscanError, ValueError):
    """Model configuration and weights (or inputs) do not agree."""


class InputError(SwinscanError, ValueError):
    """A user-supplied input is invalid."""


class _OffsetError(SwinscanError):
    """Malformed bytes; carries the failing byte offset, if known."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        self.reason = message
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)

    def in_file(self, path) -> "_OffsetError":
        """The same error, naming the file whose bytes it is about."""
        return type(self)(f"{path}: {self.reason}", offset=self.offset)


class PnmError(_OffsetError, InputError):
    """PNM bytes could not be parsed."""


class WeightFormatError(_OffsetError, ValueError):
    """A weight file is corrupt or has the wrong format."""


class DivergedTrainingError(SwinscanError, RuntimeError):
    """Training produced a non-finite loss; names the failing step."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        msg = f"training diverged at optimizer step {step}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class PdfFormatError(_OffsetError, ValueError):
    """Emitted or parsed PDF bytes violate the expected framing."""


class PdfLayoutError(SwinscanError, ValueError):
    """Content does not fit the PDF page."""
