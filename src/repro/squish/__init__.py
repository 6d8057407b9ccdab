"""Squish and Deep Squish pattern representations (lossless layout encodings)."""

from .deep_squish import (
    fold,
    fold_batch,
    naive_pack,
    naive_unpack,
    unfold,
    unfold_batch,
)
from .padding import PaddingError, canonicalize, pad_to_size, run_starts
from .squish import SquishPattern, empty_pattern, squish, unsquish, window_of

__all__ = [
    "SquishPattern",
    "squish",
    "unsquish",
    "empty_pattern",
    "window_of",
    "pad_to_size",
    "canonicalize",
    "run_starts",
    "PaddingError",
    "fold",
    "unfold",
    "fold_batch",
    "unfold_batch",
    "naive_pack",
    "naive_unpack",
]
