"""Desk-scale lab for token-based parameter-efficient fine-tuning of plain ViTs."""

__all__ = ["Tensor", "Tape"]
__version__ = "0.1.0"


def __getattr__(name):
    # Lazy so that importing the package loads no numpy: ``cli.main`` must
    # set the BLAS thread variables before the BLAS library starts.
    if name in __all__:
        from . import tensor
        return getattr(tensor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
