"""Exception types shared across the package, and the one check of each input kind.

The contract's boundary is the public surface: every public function and
class raises only :class:`NeucalibError` on bad input, so the CLI can map
library failures to a nonzero exit code in one place, while a private helper
trusts its library callers and checks nothing. Each input kind is checked
once, where it enters, by one helper: real arrays, and real scalars read as
0-d or 1-d arrays, by ``real_array``; index sets by ``index_set``; counts by
``is_count``; generators by ``check_generator``; paths by ``read_file`` and
``write_file``, which turn any failure into :class:`ConfigError`.
``tests/test_contract.py`` holds every public name to this with one table of bad inputs.
"""

from pathlib import Path

import numpy as np


class NeucalibError(Exception):
    """Base class for all neucalib errors."""


class ShapeError(NeucalibError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(NeucalibError):
    """A value lies outside the mathematical domain of an operation."""


class ParameterError(NeucalibError):
    """An operation parameter (threshold, margin, channel count, ...) is invalid."""


class StateError(NeucalibError):
    """An object is used in a way its lifecycle forbids (e.g. tape reuse)."""


class NormalizationError(NeucalibError):
    """A feature row has zero or non-finite norm and cannot be unit-normalized."""


class DegenerateBatchError(NeucalibError):
    """A loss has no usable anchors left after pair filtering."""


class SolveError(NeucalibError):
    """Pose solving failed: too few correspondences, degenerate geometry,
    or singular normal equations."""


class GenerationError(NeucalibError):
    """Synthetic scene generation could not satisfy its constraints."""


class ConfigError(NeucalibError):
    """A configuration or serialized file is malformed or inconsistent, or
    cannot be read or written."""


def read_file(path, what: str) -> bytes:
    """The bytes of the ``what`` file at ``path``."""
    try:
        return Path(path).read_bytes()
    except (OSError, TypeError, ValueError) as err:  # not a path, or a NUL byte in it
        raise ConfigError(f"cannot read {what} {path}: {err}") from err


def write_file(path, data: bytes, what: str) -> None:
    """Write ``data`` as the ``what`` file at ``path``."""
    try:
        Path(path).write_bytes(data)
    except (OSError, TypeError, ValueError) as err:  # not a path, or a NUL byte in it
        raise ConfigError(f"cannot write {what} {path}: {err}") from err


def real_array(x, what: str, error: type[NeucalibError]) -> np.ndarray:
    """``x`` as a float64 array, refusing with ``error`` the ``what`` values
    that are not real numbers, which numpy would reject with ValueError
    (ragged lists, strings) or truncate (complex). Float64 input is not copied."""
    try:
        arr = np.asarray(x)
    except ValueError as err:  # a ragged nested list
        raise error(f"{what}: not an array: {err}") from err
    if arr.dtype.kind not in "biuf":
        raise error(f"{what}: {arr.dtype} values are not real numbers")
    return arr.astype(np.float64, copy=False)


def index_set(x, what: str) -> np.ndarray:
    """``x``, if it is a 1-D ``np.intp`` array of strictly increasing entries >= 0
    (``np.flatnonzero`` gives one), else a ParameterError; no narrower dtype can wrap."""
    if not (isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.intp
            and (x.size == 0 or x[0] >= 0) and (x[1:] > x[:-1]).all()):
        raise ParameterError(f"{what} must be a strictly increasing intp array of entries >= 0")
    return x


def is_count(x, least: int) -> bool:
    """Whether ``x`` is a Python or numpy integer, not a bool, of at least ``least``."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= least


def check_generator(rng) -> None:
    """Refuse with ParameterError an ``rng`` other than a ``np.random.Generator`` on
    ``PCG64``, as ``np.random.default_rng`` makes; scene generation replays its words."""
    if not (isinstance(rng, np.random.Generator) and type(rng.bit_generator) is np.random.PCG64):
        raise ParameterError(f"rng must be a numpy Generator on PCG64, got {rng!r}")
