"""Exception types raised across the package, and the checks every module
shares: one rule for a numeric setting and one for a record's finite fields."""

import math
import numbers


class RcdetError(Exception):
    """Base class for all library errors."""


class BehindCamera(RcdetError):
    """A point (or every corner of a box) lies behind the camera plane."""


class DegenerateBox(RcdetError):
    """A box operation is undefined, e.g. a zero-area enclosing box in GIoU."""


class InvalidDetection(RcdetError):
    """A preliminary detection cannot produce a valid frustum."""


class DegenerateLine(RcdetError):
    """Least-squares slope is undefined (vertical line or single point)."""


class EmptyCluster(RcdetError):
    """A feature extractor was asked to summarize a cluster with no points."""


class MixedChannelCounts(RcdetError):
    """Feature vectors with different lengths were passed to the rasterizer."""


class DimensionMismatch(RcdetError):
    """Array shapes are inconsistent with the layer configuration."""


class EmptyBatch(RcdetError):
    """A loss was evaluated on a batch with zero objects (all losses divide by M)."""


class NoCoveredBin(RcdetError):
    """An orientation target covers no bin, so the residual loss is undefined."""


class ParseError(RcdetError):
    """A scene or detections file is malformed; message names line and field."""


class SchemaVersionMismatch(RcdetError):
    """File schema header does not match the version this library writes."""


class ResultMismatch(RcdetError):
    """The batched and naive association paths disagreed during a benchmark."""


class EmptyGroundTruth(RcdetError):
    """Evaluation was requested against a ground truth set with no boxes."""


def check_number(
    name, value, *, integer=False, optional=False, low=None, above=None, high=None, below=None
):
    """Return ``value`` if it is a number that meets its field's rule, else
    raise ``ValueError`` naming the field, for example ``top_k must be an
    integer >= 1, got 2.5``.

    A number is a real (or, with ``integer``, an integral) that is not a bool;
    a real must be finite. ``low``/``high`` are closed bounds and
    ``above``/``below`` open ones. ``optional`` also admits ``None``. An empty
    ``name`` starts the message at "must be", for callers such as argparse
    that name the field themselves.
    """
    if optional and value is None:
        return value
    lo, lo_open = (above, True) if above is not None else (low, False)
    hi, hi_open = (below, True) if below is not None else (high, False)
    try:
        ok = (
            isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and (integer or math.isfinite(value))
            and (lo is None or (lo < value if lo_open else lo <= value))
            and (hi is None or (value < hi if hi_open else value <= hi))
        )
    except OverflowError:  # an int too large for a float is not a finite real
        ok = False
    if ok:
        return value
    if lo is not None and hi is not None:
        bounds = f" in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
    elif lo is not None:
        bounds = f" {'>' if lo_open else '>='} {lo}"
    elif hi is not None:
        bounds = f" {'<' if hi_open else '<='} {hi}"
    else:
        bounds = ""
    kind = ("None or " if optional else "") + ("an integer" if integer else "a finite number")
    raise ValueError(f"{name} must be {kind}{bounds}, got {value!r}".lstrip())


def check_finite(record, names, values):
    """Raise ``ValueError`` naming the field of the first NaN or infinity in
    ``values``, a flat tuple of plain numbers, ``names[i]`` naming
    ``values[i]``. One ``math.isfinite`` pass over plain floats costs a
    fraction of ``np.isfinite``'s call overhead, which records built one at a
    time would pay."""
    if not all(map(math.isfinite, values)):
        bad = next(i for i, x in enumerate(values) if not math.isfinite(x))
        raise ValueError(f"{record} {names[bad]} must be finite")
