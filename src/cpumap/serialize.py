"""File formats: matrix-json, vectors, Choi matrices, Kraus sets,
environment states, evolution traces and dilation profiles.

All floating-point output is printed with 17 significant digits so that
every value round-trips exactly; emission order is fixed, making outputs
byte-reproducible.  Every writer (``*_to_json``, ``*_to_csv``) yields its
text in chunks formatted from the arrays block by block, so memory stays
bounded by a block whatever the size of the output; ``"".join(writer(...))``
is the whole file, trailing newline included.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .battery import EnvState
from .choi import ChoiMatrix
from .dual_map import EvolutionTrace, KrausSet
from .errors import CpuMapError, DimensionError
from .linalg import as_matrix
from .metric import MetricProfile


FLOAT_FORMAT = "%.17g"


def fmt(x: float) -> str:
    """17-significant-digit decimal form of a float."""
    return FLOAT_FORMAT % float(x)


def _emit(obj) -> str:
    """Deterministic JSON with 17-digit floats (insertion-ordered keys)."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(k)}:{_emit(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def dumps(obj) -> str:
    """Serialize to a single JSON line with a trailing newline."""
    return _emit(obj) + "\n"


# --- block writers ----------------------------------------------------------
# Each writer is called with its object and returns a generator of text
# chunks, so memory stays bounded by a block whatever the size of the output;
# "".join(writer(...)) is the whole output.

BLOCK_CHARS = 1 << 18  # characters a writer formats per C-level % call, or one longer row


def _rows_per_block(row_chars: int, width: int) -> int:
    """Rows of a ``row_chars``-character template holding ``width`` values
    that fit in one block, at least one."""
    # a %.17g value takes at most 24 characters, 19 more than its specifier
    return max(1, BLOCK_CHARS // (row_chars + 19 * width))


def _blocks(row: str, columns, sep: str = ""):
    """Yield the text of the rows of the equal-length 1-D ``columns``, joined
    by ``sep``, one block at a time (``sep`` is yielded between blocks).

    ``row`` holds one FLOAT_FORMAT per float column and one ``%s`` per bool
    column, printed ``true``/``false``; any other text in it must hold no
    ``%``.  A block holds as many rows as fit in BLOCK_CHARS, at least one,
    and is formatted by one ``%`` call on ``row`` repeated over the block."""
    width = len(columns)
    rows = _rows_per_block(len(row), width)
    for start in range(0, len(columns[0]), rows):
        blocks = [c[start:start + rows] for c in columns]
        values = [None] * (width * len(blocks[0]))
        for j, block in enumerate(blocks):
            values[j::width] = (np.where(block, "true", "false") if block.dtype == bool else block).tolist()
        if start:
            yield sep
        yield sep.join([row] * len(blocks[0])) % tuple(values)


def _text(*parts):
    """Yield each str of ``parts`` as it is and each 1-D float array as its
    comma-separated values, block by block."""
    for part in parts:
        if isinstance(part, str):
            yield part
        else:
            yield from _blocks(FLOAT_FORMAT, (part,), ",")


def _matrix_parts(a: np.ndarray, head: str = "{") -> tuple:
    """The ``_text`` parts of the matrix-json object of the 2-D complex
    ``a``, opened by ``head``."""
    return (f'{head}"rows":{a.shape[0]},"cols":{a.shape[1]},"re":[', a.real.reshape(-1),
            '],"im":[', a.imag.reshape(-1), "]}")


# --- matrices and vectors ------------------------------------------------

def _field(obj, field: str):
    """Read a required field; a missing key or a non-object payload is a CpuMapError."""
    if not isinstance(obj, dict):
        raise CpuMapError(f"payload holding {field!r} must be a JSON object")
    if field not in obj:
        raise CpuMapError(f"payload is missing the field {field!r}")
    return obj[field]


def _count(obj, field: str) -> int:
    """Decode a nonnegative integer field such as ``rows`` or ``dim``."""
    value = _field(obj, field)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise CpuMapError(f"{field!r} must be a nonnegative integer, got {value!r}")
    return value


def _floats(obj, field: str) -> np.ndarray:
    """Decode a numeric list field; a string, null, boolean or ragged entry
    is a CpuMapError.  numpy turns ``true`` among numbers into 1, so the
    entries' types are read too."""
    value = _field(obj, field)
    try:
        a = np.asarray(value)
    except ValueError:
        a = None
    if a is None or a.dtype.kind not in "iuf" or bool in _entry_types(value, a.ndim):
        raise CpuMapError(f"{field!r} holds a non-numeric or null entry")
    return a.astype(float, copy=False)


def _entry_types(value, depth: int) -> set:
    """The types of the scalars of ``value``, nested ``depth`` lists deep."""
    entries = value if depth else [value]
    for _ in range(depth - 1):
        entries = itertools.chain.from_iterable(entries)
    return set(map(type, entries))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # 1j * inf has a NaN real part; the validators downstream reject both
    with np.errstate(invalid="ignore"):
        return re + 1j * im


def matrix_to_json(m):
    """Matrix-json text of ``m``; ``m`` is checked by the call, before any
    chunk is drawn."""
    return _text(*_matrix_parts(as_matrix(m)), "\n")


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = _count(obj, "rows"), _count(obj, "cols")
    re, im = _floats(obj, "re"), _floats(obj, "im")
    if re.size != rows * cols or im.size != rows * cols:
        raise DimensionError(
            f"matrix payload has {re.size}/{im.size} entries, expected {rows * cols}"
        )
    return _complex(re, im).reshape(rows, cols)


def vector_to_json(v):
    a = np.asarray(v, dtype=complex).reshape(-1)
    return _text('{"re":[', a.real, '],"im":[', a.imag, "]}\n")


def vector_from_json(obj: dict) -> np.ndarray:
    re, im = _floats(obj, "re"), _floats(obj, "im")
    if re.size != im.size:
        raise DimensionError("vector re/im lengths differ")
    return _complex(re, im)


# --- composite objects ----------------------------------------------------

def choi_to_json(z: ChoiMatrix):
    return _text(*_matrix_parts(z.matrix, f'{{"dim":{z.dim},'), "\n")


def choi_from_json(obj: dict) -> ChoiMatrix:
    return ChoiMatrix._from_matrix(_count(obj, "dim"), matrix_from_json(obj))


def kraus_to_json(k: KrausSet):
    """Kraus-json text of ``k``.  Operator k is one row of a block, formatted
    from row k of the real and imaginary parts of the flattened stack by a
    template holding its tag; one ``%`` call formats a block of operators."""
    n, flat = k.dim, k.stack.reshape(len(k.tags), -1)
    values = ",".join([FLOAT_FORMAT] * (n * n))
    body = f'"matrix":{{"rows":{n},"cols":{n},"re":[{values}],"im":[{values}]}}}}'
    heads = [f'{{"tag":{json.dumps(tag).replace("%", "%%")},' for tag in k.tags]
    rows = _rows_per_block(max(map(len, heads)) + len(body), 2 * n * n)
    yield f'{{"dim":{n},"ops":['
    for start in range(0, len(heads), rows):
        block = flat[start:start + rows]
        if start:
            yield ","
        yield ",".join([head + body for head in heads[start:start + rows]]) % tuple(
            np.concatenate((block.real, block.imag), axis=1).ravel().tolist())
    yield "]}\n"


def kraus_from_json(obj: dict) -> KrausSet:
    n = _count(obj, "dim")
    entries = _field(obj, "ops")
    if not isinstance(entries, list):
        raise CpuMapError(f"'ops' must be a list of operators, got {type(entries).__name__}")
    return KrausSet.from_ops(n, _kraus_pairs(entries))


def _kraus_pairs(entries):
    """Decode ``(tag, matrix)`` lazily, so from_ops checks each shape before
    the next entry is read; a tag that is not a JSON string is refused, not
    rewritten by ``str()``."""
    for entry in entries:
        m = matrix_from_json(_field(entry, "matrix"))
        tag = _field(entry, "tag")
        if not isinstance(tag, str):
            kind = {type(None): "null", bool: "boolean", int: "number", float: "number", list: "array"}
            raise CpuMapError(f"'tag' must be a string, got a JSON {kind.get(type(tag), 'object')}")
        yield tag, m


def env_to_json(env: EnvState):
    return _text(f'{{"d":{env.dim},"spectrum":[', env.spectrum, '],"V":', *_matrix_parts(env.basis), "}\n")


def env_from_json(obj: dict) -> EnvState:
    return EnvState(
        dim=_count(obj, "d"),
        spectrum=_floats(obj, "spectrum"),
        basis=matrix_from_json(_field(obj, "V")),
    )


# --- traces and profiles ---------------------------------------------------

def trace_to_csv(trace: EvolutionTrace):
    yield "t,expectation\n"
    yield from _blocks(f"{FLOAT_FORMAT},{FLOAT_FORMAT}\n", (trace.times, trace.values))


def trace_to_json(trace: EvolutionTrace):
    return _text('{"times":[', trace.times, '],"values":[', trace.values, f'],"phi":{fmt(trace.phi_fit)}}}\n')


def profile_to_csv(profile: MetricProfile):
    yield "r,target,phi,clipped\n"
    yield from _blocks(f"{FLOAT_FORMAT},{FLOAT_FORMAT},{FLOAT_FORMAT},%s\n",
                       (profile.r, profile.target, profile.phi, profile.clipped))


def profile_to_json(profile: MetricProfile, verbose: bool = False):
    """Profile JSON; with ``verbose`` each record embeds its environment, whose
    one shared basis is formatted once, before the first chunk."""
    params, d = profile.params, int(profile.params.d)
    columns = (profile.r, profile.target, profile.phi, profile.clipped)
    row = f'{{"r":{FLOAT_FORMAT},"target":{FLOAT_FORMAT},"phi":{FLOAT_FORMAT},"clipped":%s'
    if verbose:
        spectrum = ",".join([FLOAT_FORMAT] * d)
        row += f',"env":{{"d":{d},"spectrum":[{spectrum}],"V":{"".join(_text(*_matrix_parts(profile.basis)))}}}'
        columns += tuple(profile.spectra.T)
    row += "}"
    yield f'{{"M":{fmt(params.M)},"r0":{fmt(params.r0)},"d":{d},"records":['
    yield from _blocks(row, columns, ",")
    yield "]}\n"
