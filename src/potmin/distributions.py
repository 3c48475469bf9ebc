"""Finite discrete distributions over labeled points, with exact label noise.

Label-flip corruption is applied analytically by weight splitting, never
by sampling, so every downstream identity (centroid scaling, error
equalities) holds to floating-point rounding.  A distribution and its
noise view (:class:`_NoisyView`) each declare one row layout,
``row_signs``: row k i + j of ``weights`` is atom i with label
row_signs[j] y_i, k = len(row_signs); (1.0,) for a distribution, (1.0,
-1.0) for the view, whose rows give clean atom i mass (1 - eta) w_i at its
clean margin m_i and eta w_i at -m_i.  ``margins(v)`` is one per atom for
both; its rows are ``_rows(margins(v), row_signs)``.
:func:`corrupt_rcn` builds the same rows itself (merging
collisions); it is the reference the view is tested against.
Distributions are immutable values: the backing arrays are copied on
construction and marked read-only.  So :meth:`DiscreteDistribution.from_csv`
keeps the last distribution it built, keyed by the SHA-256 of the bytes it
was parsed from, and hands it out again for a file with the same bytes.  A
regular file whose fstat (device, inode, size, mtime, ctime) was recorded as
settled, its last change more than ``_RACY_NS`` (2 s) before it was read, is
matched by that fstat alone in about 10 us, without the hash (about 40 ms for
42 MB) that a first or racy load pays.  This rests on every change to a
file's bytes moving its ctime, on a clock that does not step back; a network
file system whose server clock trails this host by more than the margin is
not covered.

This module also reads and writes potmin's one CSV format: every CSV table
potmin writes comes from :func:`_write_csv`, and every CSV it reads goes
through :func:`_read_labeled_csv`.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import stat
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

_WEIGHT_SUM_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _exponent(a: np.ndarray) -> int:
    """The binary exponent e of max|a|, which lies in [2^(e-1), 2^e) (0 if a is all 0)."""
    return math.frexp(max(a.max(initial=0.0), -a.min(initial=0.0)))[1]


def _merge_duplicates(xs, ys, weights):
    """Sum weights of atoms with identical (x, y), keeping first-seen order.

    Each row (y, x + 0.0) is one fixed-width byte key (+0.0 folds -0.0
    into 0.0).  A stable sort puts equal keys next to each other with the
    first-seen row of each group first.  Weights are summed by np.add.at
    in row order starting from 0.0, so every sum is the one a sequential
    loop over the rows would make, bit for bit.
    """
    n, d = xs.shape
    keys = np.empty((n, d + 1))
    keys[:, 0] = ys
    np.add(xs, 0.0, out=keys[:, 1:])
    rows = keys.view(np.dtype((np.void, keys.itemsize * (d + 1)))).ravel()
    order = rows.argsort(kind="stable")
    ranked = rows[order]
    repeats = ranked[1:] == ranked[:-1]
    if not repeats.any():
        return xs, ys, weights
    starts = np.concatenate(([True], ~repeats))
    first = order[starts]            # first-seen row of each group
    by_first = first.argsort()
    rank = np.empty_like(by_first)   # group -> position in first-seen order
    rank[by_first] = np.arange(len(first))
    group = np.empty_like(order)     # row -> its merged atom
    group[order] = rank[np.cumsum(starts) - 1]
    merged = np.zeros(len(first))
    np.add.at(merged, group, weights)
    keep = first[by_first]
    return xs[keep], ys[keep], merged


def _read_labeled_csv(fh, path, tail: tuple[str, ...], header_name: str):
    """Parse an open text CSV with header x1,...,xd followed by ``tail`` (which
    starts with y); ``path`` names it in errors.

    Returns d and the (n, d + len(tail)) float table, n >= 1, with every
    field checked to be finite and every label in column d to be -1 or 1.
    Empty lines are skipped; every error names the file and its physical
    line.
    """
    first = fh.readline()
    if not first:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in first.split(",")]
    d = len(header) - len(tail)
    if d < 1 or header != [f"x{j + 1}" for j in range(d)] + list(tail):
        raise ValueError(f"{path}: {header_name} must be x1,...,xd,{','.join(tail)}")
    ncols = len(header)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as err:
            raise _csv_error(fh, path, d, ncols, str(err)) from err
    if table.size == 0:
        raise ValueError(f"{path}: no data rows")
    if table.shape[1] != ncols:
        raise _csv_error(fh, path, d, ncols, f"expected {ncols} fields")
    if not (np.isfinite(table).all() and (np.abs(table[:, d]) == 1.0).all()):
        raise _csv_error(fh, path, d, ncols, "fields must be finite and labels -1 or 1")
    return d, table


def _is_number(field: str) -> bool:
    # float() also takes digit-group underscores, which np.loadtxt rejects
    try:
        float(field)
    except ValueError:
        return False
    return "_" not in field


def _csv_error(fh, path, d: int, ncols: int, cause: str) -> ValueError:
    """Rescan a CSV body that failed a check, to name its first bad line."""
    fh.seek(0)
    fh.readline()
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != ncols:
            return ValueError(f"{path}:{lineno}: expected {ncols} fields, got {len(fields)}")
        for j, field in enumerate(fields):
            if not _is_number(field):
                return ValueError(f"{path}:{lineno}: field {j + 1} is not a number: "
                                  f"{field!r}")
            if not math.isfinite(float(field)):
                return ValueError(f"{path}:{lineno}: field {j + 1} is not finite: "
                                  f"{field!r}")
        if float(fields[d]) not in (-1.0, 1.0):
            return ValueError(f"{path}:{lineno}: label must be -1 or 1, got {fields[d]}")
    return ValueError(f"{path}: {cause}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _write_csv(path, header, columns) -> None:
    """Write a CSV table: the header row, then row i of the columns per line.

    An ndarray column holds floats or ints (any other dtype, bool included,
    raises TypeError: pass booleans as a list).  Its cells are the reprs of
    its entries (exact for float64), NaN empty; the repr is taken once per
    run of bitwise-equal entries (-0.0 after 0.0 starts a run), so the bytes
    are those of one repr per cell.  Any other column is written cell by
    cell: a str as is, None or NaN empty, a bool true/false, a float its
    repr, anything else str.  No cell holds a comma or quote, so the bytes are
    csv.writer's: nothing quoted, every row ended by CRLF.  Columns of
    unequal length raise ValueError.
    """
    cells = []
    for col in columns:
        if not isinstance(col, np.ndarray):
            cells.append([c if type(c) is str else _cell(c) for c in col])
            continue
        if col.dtype.kind not in "fiu":
            raise TypeError(f"an array column must hold floats or ints, got dtype {col.dtype}")
        raw = col.view(f"V{col.itemsize}")
        head = np.ones(len(col), dtype=bool)
        head[1:] = raw[1:] != raw[:-1]
        starts = np.flatnonzero(head)
        values = col[starts]
        text = list(map(repr, values.tolist()))
        if col.dtype.kind == "f":
            for i in np.flatnonzero(np.isnan(values)).tolist():
                text[i] = ""
        if len(text) < len(col):
            text = np.array(text, dtype=object).repeat(np.diff(starts, append=len(col))).tolist()
        cells.append(text)
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True))]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _stat_key(fh) -> tuple[int, int, int, int, int] | None:
    """An open regular file's (st_dev, st_ino, st_size, st_mtime_ns,
    st_ctime_ns); None for a pipe or another file that cannot seek back."""
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _csv_text(raw) -> io.TextIOWrapper:
    """A text reader over an open binary file that :func:`_csv_error` can
    rescan: a pipe, which cannot seek back, is read into memory first."""
    return io.TextIOWrapper(raw if _stat_key(raw) else io.BytesIO(raw.read()))


def _sha256(fh) -> bytes:
    """SHA-256 of a binary file's bytes from its position to its end."""
    h = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 20), b""):
        h.update(chunk)
    return h.digest()


# (SHA-256, distribution, settled _stat_key or None) of the last file
# DiscreteDistribution.from_csv built whose _stat_key did not move from the
# hash to the end of the parse
_last_csv: tuple[bytes, DiscreteDistribution, tuple | None] | None = None

# a file whose ctime is older than the clock by this margin is settled: a
# later write moves its ctime past the recorded one, also on FAT's 2 s
# timestamps (git's index trusts a file's stat by the same rule, "racy git")
_RACY_NS = 2_000_000_000


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finite weighted set of labeled points; weights sum to 1.

    Duplicate (x, y) atoms are merged by summing their weights.  All
    atoms share one dimension and all weights are strictly positive.
    """

    row_signs = (1.0,)   # row i is atom i at its own label

    xs: np.ndarray       # (n, d) feature rows
    ys: np.ndarray       # (n,) labels in {-1, +1}
    weights: np.ndarray  # (n,) probability masses
    x_exponent: int = field(init=False, repr=False)  # the binary exponent of max|x|

    def __post_init__(self):
        xs, ys, x_exponent = _labeled_rows(np.array(self.xs, dtype=float, ndmin=2),
                                           np.array(self.ys, dtype=float).reshape(-1))
        weights = np.array(self.weights, dtype=float).reshape(-1)
        if weights.shape != ys.shape:
            raise ValueError("xs, ys, weights must agree in length")
        ys = ys.astype(int)
        # a NaN fails both tests; only a failure builds the index of the first bad atom
        if not (weights.min() > 0.0 and weights.max() < math.inf):
            i = int(np.flatnonzero(~(np.isfinite(weights) & (weights > 0)))[0])
            raise ValueError(f"weights must be finite and strictly positive, "
                             f"got {float(weights[i])!r} at atom {i}")
        # merging drops only rows equal to a kept one, so max|x| and its exponent stay
        xs, ys, weights = _merge_duplicates(xs, ys, weights)
        total = float(weights.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "xs", _readonly(xs))
        object.__setattr__(self, "ys", _readonly(ys))
        object.__setattr__(self, "weights", _readonly(weights))
        object.__setattr__(self, "x_exponent", x_exponent)

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.xs.shape[0]

    def margins(self, v) -> np.ndarray:
        """Per-atom classification margins y * (v . x).

        With ex, ev the binary exponents of max|x|, max|v| and d the
        dimension, every rounded product x_ij v_j is at most 2^(ex + ev), so
        every partial sum of d of them lies below 2^(ex + ev +
        d.bit_length()).  So when ex + ev + d.bit_length() < 1024 nothing
        can overflow, and the margins are y * (x @ v) with no further
        check.  Past that bound a product that BLAS leaves non-finite,
        which an exact sum of huge terms need not be, is retaken as
        (x 2^-ex . v 2^-ev) 2^(ex + ev); finite ones keep their bits.  A v
        that is not finite (max|v| inf or NaN) or not of shape (d,) raises
        ValueError.
        """
        v = np.asarray(v, dtype=float)
        d = self.dimension
        if v.shape == (d,):
            top = float(abs(v).max())
            if top < math.inf and self.x_exponent + math.frexp(top)[1] + d.bit_length() < 1024:
                return self.ys * (self.xs @ v)
        v = _vector("v", v, d)
        with np.errstate(over="ignore", invalid="ignore"):
            dots = self.xs @ v
            bad = ~np.isfinite(dots)
            if bad.any():
                ev = _exponent(v)
                dots[bad] = np.ldexp(np.ldexp(self.xs[bad], -self.x_exponent) @ np.ldexp(v, -ev),
                                     self.x_exponent + ev)
        return self.ys * dots

    def to_csv(self, path) -> None:
        """Write as CSV with header x1,...,xd,y,weight (round-trip exact)."""
        _write_csv(path, [f"x{j + 1}" for j in range(self.dimension)] + ["y", "weight"],
                   [*self.xs.T, self.ys, self.weights])

    @classmethod
    def from_csv(cls, path) -> "DiscreteDistribution":
        """Load a distribution written by :meth:`to_csv`; weights are validated.

        Within a process, identical bytes give the same distribution object:
        a file whose SHA-256 is that of the bytes the last distribution
        loaded was parsed from, under any path, returns that (immutable)
        distribution without parsing again.

        A regular file is matched by its fstat first.  When the device,
        inode, size, mtime and ctime equal the settled key kept with that
        distribution, it is returned without reading the file (about 10 us).
        A key is settled only when the file's ctime was more than
        ``_RACY_NS`` (2 s) older than the clock read before the fstat, and
        the fstat did not move while the file was hashed (and parsed): then
        any later write moves the ctime past the recorded one.  A file
        changed within that margin is hashed on every call.  This rests on
        every change to a file's bytes moving its ctime, on a clock that
        does not step back; a network file system whose server clock
        trails this host by more than the margin is not covered.

        The first load of a file, and every racy one, pays a read and hash
        of its bytes: about 40 ms for 42 MB.  A pipe is read into memory
        once, parsed there and not kept.  A file that fails to load raises
        on every call.
        """
        global _last_csv
        with open(path, "rb") as raw:
            now = time.time_ns()
            key = _stat_key(raw)
            if key is not None:
                settled = now - key[-1] > _RACY_NS   # key[-1] is the ctime
                last = _last_csv
                if last is not None and last[2] == key:
                    return last[1]
                digest = _sha256(raw)
                if last is not None and last[0] == digest:
                    if settled and _stat_key(raw) == key:
                        _last_csv = (digest, last[1], key)
                    return last[1]
                raw.seek(0)
            with _csv_text(raw) as fh:
                d, table = _read_labeled_csv(fh, path, ("y", "weight"), "header")
                # a write from the hash to here moves the key (to the
                # resolution of the file system's timestamps); the bytes
                # parsed need not then be the bytes hashed
                unchanged = key is not None and _stat_key(raw) == key
        try:
            dist = cls(table[:, :d], table[:, d].astype(int), table[:, d + 1])
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        if unchanged:
            _last_csv = (digest, dist, key if settled else None)
        return dist


def _count(name: str, value) -> int:
    """An integer of at least 1 (numpy integers too; bool and float are rejected)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    return int(value)


def _positive(name: str, value) -> float:
    """value as a float, rejected unless positive and finite."""
    value = float(value)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def _vector(name: str, v, d: int) -> np.ndarray:
    """v as a float array of shape (d,), rejected unless every entry is finite."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite, got {v.tolist()}")
    return v


def _labeled_rows(xs, ys) -> tuple[np.ndarray, np.ndarray, int]:
    """xs as n >= 1 float rows of d >= 1 finite coordinates, ys as their
    float labels, each -1 or +1, and the binary exponent of max|x|.

    Each check is one pass: the coordinates are all finite exactly when
    their min and max are (a NaN makes both NaN), and that pair also gives
    max|x|.  Only a failed check searches for its first bad row, which the
    error names by index.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        raise ValueError("xs and ys must be nonempty")
    if xs.ndim != 2 or xs.shape[1] < 1:
        raise ValueError(f"xs must be a 2-d array of rows with d >= 1, got shape {xs.shape}")
    if ys.shape != (xs.shape[0],):
        raise ValueError(f"xs and ys must agree in length, got {xs.shape[0]} rows "
                         f"and labels of shape {ys.shape}")
    lo, hi = float(xs.min()), float(xs.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        i = int(np.flatnonzero(~np.isfinite(xs).all(axis=1))[0])
        raise ValueError(f"coordinates must be finite, got {xs[i].tolist()} at row {i}")
    if not (np.abs(ys) == 1.0).all():
        i = int(np.flatnonzero(np.abs(ys) != 1.0)[0])
        raise ValueError(f"labels must be -1 or +1, got {float(ys[i])!r} at row {i}")
    return xs, ys, math.frexp(max(hi, -lo))[1]


def _noise_rate(eta) -> float:
    eta = float(eta)
    if not 0.0 < eta < 0.5:
        raise ValueError(f"noise rate must satisfy 0 < eta < 1/2, got {eta!r}")
    return eta


def corrupt_rcn(clean: DiscreteDistribution, eta: float) -> DiscreteDistribution:
    """Exact label-flip corruption at rate eta in (0, 1/2).

    Each atom ((x, y), p) splits into ((x, y), (1-eta) p) and
    ((x, -y), eta p); colliding atoms merge.  Total mass and the feature
    support set are preserved exactly.  No sampling is performed.
    """
    eta = _noise_rate(eta)
    xs = np.repeat(clean.xs, 2, axis=0)
    ys = np.empty(2 * clean.n_atoms, dtype=int)
    ys[0::2] = clean.ys
    ys[1::2] = -clean.ys
    weights = np.empty(2 * clean.n_atoms)
    weights[0::2] = (1.0 - eta) * clean.weights
    weights[1::2] = eta * clean.weights
    return DiscreteDistribution(xs, ys, weights)


def _rows(atoms: np.ndarray, factors) -> np.ndarray:
    """Row k i + j = factors[j] * atoms[i], for k = len(factors) (uncopied for (1.0,))."""
    if factors == (1.0,):
        return atoms
    k = len(factors)
    rows = np.empty((k * len(atoms),) + atoms.shape[1:])
    for j, f in enumerate(factors):
        np.multiply(atoms, f, out=rows[j::k])
    return rows


def _fold(rows: np.ndarray, signs) -> np.ndarray:
    """Atom i's sum_j signs[j] rows[k i + j], k = len(signs), each sign +-1 and signs[0] = 1."""
    k = len(signs)
    atoms = rows[0::k]
    for j in range(1, k):
        atoms = (np.add if signs[j] > 0 else np.subtract)(atoms, rows[j::k])
    return atoms


@dataclass(frozen=True, eq=False)
class _NoisyView:
    """Label flips at rate eta in (0, 1/2), seen through the clean atoms.

    It stands for the 2n rows :func:`corrupt_rcn` splits before it merges
    collisions, none of them built: clean atom i with mass (1 - eta) w_i,
    then its flipped label with mass eta w_i.  ``xs``, ``ys`` and margins
    are the n clean atoms'.
    """

    row_signs = (1.0, -1.0)   # row 2i: own label; row 2i + 1: flipped

    clean: DiscreteDistribution
    eta: float
    xs: np.ndarray = field(init=False)
    ys: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    x_exponent: int = field(init=False, repr=False)

    def __post_init__(self):
        eta = _noise_rate(self.eta)
        masses = tuple(1.0 - eta if s > 0 else eta for s in self.row_signs)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "xs", self.clean.xs)
        object.__setattr__(self, "x_exponent", self.clean.x_exponent)
        object.__setattr__(self, "ys", self.clean.ys)
        object.__setattr__(self, "weights", _readonly(_rows(self.clean.weights, masses)))

    @property
    def dimension(self) -> int:
        return self.clean.dimension

    def margins(self, v) -> np.ndarray:
        """The clean margins m_i = y_i (v . x_i); rows 2i and 2i + 1 are at m_i and -m_i."""
        return self.clean.margins(v)


def l1_margin(dist: DiscreteDistribution, w) -> float:
    """Smallest per-atom margin y (w . x) / ||w||_1 over the distribution.

    This is the largest gamma for which no atom falls below gamma;
    negative when w misclassifies some atom.
    """
    w = _vector("w", w, dist.dimension)
    l1 = float(np.abs(w).sum())
    if l1 == 0.0:
        raise ValueError("w must be nonzero")
    return float(np.min(dist.margins(w)) / l1)


# The construction's threshold.  The label centroid is
# m = ((1 + 3 gamma) / 4, sqrt(1 - gamma^2) / 4 - gamma), so
# m . x3 = gamma ((1 + 11 gamma) / 4 - sqrt(1 - gamma^2) / 2); for gamma in
# (0, 1) it vanishes where (1 + 11 gamma)^2 = 4 (1 - gamma^2), the root of
# 125 gamma^2 + 22 gamma - 3 = 0, and is negative below it.  In floating
# point the centroid minimizer's v . x3 is -1.6e-17 at this float (error
# 0.5) and positive one ulp above it (error 0.0).
GAMMA_STAR = (4 * math.sqrt(31) - 11) / 125


def make_counterexample(gamma: float) -> DiscreteDistribution:
    """Three-point planar distribution, all labels +1, parametrized by gamma.

    Masses 1/4, 1/4, 1/2 on (1, 0), (gamma, sqrt(1-gamma^2)) and
    (gamma, -2 gamma).  Separable with L1 margin exactly gamma by the
    first coordinate axis; below a critical gamma the mean-label
    direction misclassifies the heavy third point.
    """
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    xs = np.array([
        [1.0, 0.0],
        [gamma, np.sqrt(1.0 - gamma * gamma)],
        [gamma, -2.0 * gamma],
    ])
    return DiscreteDistribution(xs, [1, 1, 1], [0.25, 0.25, 0.5])


def mean_label_feature(dist: DiscreteDistribution | _NoisyView) -> np.ndarray:
    """Weighted mean of y * x over the distribution (the label centroid).

    Each atom counts with its row masses signed by their labels: under a
    noise view its kept minus its flipped mass, (1 - eta) w_i - eta w_i.
    """
    return (_fold(dist.weights, dist.row_signs) * dist.ys) @ dist.xs


def random_distribution(rng: np.random.Generator, max_dim: int = 5,
                        max_atoms: int = 10, coord_scale: float = 1.0,
                        min_centroid_norm: float = 0.0) -> DiscreteDistribution:
    """Small random distribution for fuzz campaigns.

    Resamples until the label centroid clears ``min_centroid_norm``, so
    callers can keep clear of the degenerate-centroid regime (which has
    its own dedicated handling).
    """
    max_dim = _count("max_dim", max_dim)
    max_atoms = _count("max_atoms", max_atoms)
    while True:
        d = int(rng.integers(1, max_dim + 1))
        n = int(rng.integers(1, max_atoms + 1))
        xs = rng.uniform(-coord_scale, coord_scale, (n, d))
        ys = rng.choice([-1, 1], n)
        w = rng.uniform(0.05, 1.0, n)   # weights at most 20:1 before normalizing
        dist = DiscreteDistribution(xs, ys, w / w.sum())
        if float(np.linalg.norm(mean_label_feature(dist))) >= min_centroid_norm:
            return dist
