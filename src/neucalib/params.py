"""Named-parameter store: init, tape binding, and binary serialization.

Parameters are plain float64 arrays in an insertion-ordered dict; every
training step binds them onto a fresh tape. The on-disk format (magic
``NCLP``) is name-length/name/shape/data records, little-endian, written
in dict order so identical runs produce identical files.
"""

from __future__ import annotations

import struct

import numpy as np

from .autodiff import Tape, Tensor
from .errors import ConfigError, ParameterError, read_file, real_array, write_file

PARAMS_MAGIC = b"NCLP"
PARAMS_VERSION = 1

ParamDict = dict[str, np.ndarray]
BoundParams = dict[str, Tensor]


def bind(tape: Tape, params: ParamDict) -> BoundParams:
    """Create tracked leaves for every parameter on the given tape."""
    return {name: tape.parameter(value) for name, value in params.items()}


def gradients(bound: BoundParams) -> ParamDict:
    """Collect gradients after backward(); missing ones become zeros."""
    out = {}
    for name, tensor in bound.items():
        g = tensor.grad
        out[name] = np.zeros_like(tensor.value) if g is None else g
    return out


def save_params(params: ParamDict, path) -> None:
    """Write ``params`` to ``path``. Every name and value is checked before
    anything is written."""
    parts = [PARAMS_MAGIC, struct.pack("<II", PARAMS_VERSION, len(params))]
    for name, value in params.items():
        try:
            raw = name.encode("utf-8")
        except (AttributeError, UnicodeEncodeError) as err:
            raise ParameterError(f"parameter name {name!r} is not a UTF-8 string") from err
        arr = real_array(value, f"parameter {name!r}", ParameterError)
        if arr.ndim != 2 or max(arr.shape) >= 2**32:  # the format holds each side in a uint32
            raise ParameterError(f"parameter {name!r}: shape {arr.shape} is not 2-D below 2**32")
        arr = np.ascontiguousarray(arr, dtype="<f8")
        parts += [struct.pack("<I", len(raw)), raw, struct.pack("<II", *arr.shape), arr.tobytes()]
    write_file(path, b"".join(parts), "parameter file")


def load_params(path) -> ParamDict:
    blob = read_file(path, "parameter file")
    if blob[:4] != PARAMS_MAGIC:
        raise ConfigError(f"bad parameter file magic {blob[:4]!r}")
    off = 4

    def take(size: int) -> int:
        """Offset of the next ``size`` bytes, which must all be present."""
        nonlocal off
        if off + size > len(blob):
            raise ConfigError(f"parameter file truncated: {len(blob)} bytes, "
                              f"need {off + size}")
        off += size
        return off - size

    version, count = struct.unpack_from("<II", blob, take(8))
    if version != PARAMS_VERSION:
        raise ConfigError(f"unsupported parameter file version {version}")
    params: ParamDict = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, take(4))
        start = take(name_len)
        try:
            name = blob[start:start + name_len].decode("utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError(f"parameter name at byte {start} is not UTF-8") from err
        if name in params:
            raise ConfigError(f"parameter file repeats the name {name!r}")
        rows, cols = struct.unpack_from("<II", blob, take(8))
        arr = np.frombuffer(blob, "<f8", rows * cols, take(8 * rows * cols))
        params[name] = arr.reshape(rows, cols).copy()
    if off != len(blob):
        raise ConfigError(f"parameter file has {len(blob) - off} trailing bytes")
    return params


def check_shapes(params: ParamDict, template: ParamDict) -> None:
    """Loaded parameters must exactly mirror the configured model."""
    missing = set(template) - set(params)
    extra = set(params) - set(template)
    if missing or extra:
        raise ConfigError(
            f"parameter names do not match config (missing {sorted(missing)}, "
            f"unexpected {sorted(extra)})")
    for name, value in template.items():
        if params[name].shape != value.shape:
            raise ConfigError(
                f"parameter {name!r} has shape {params[name].shape}, "
                f"config implies {value.shape}")
