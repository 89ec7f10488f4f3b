"""Patch ingestion, synthetic crack-patch generation, the built-in feature
extractor, stratified splitting, the one seed recipe (derive_rng, derive_seed;
derive_streams, the one shot-stream helper) and one atomic writer.

Patches are 224x224 8-bit grayscale, stored as binary PGM (P5, maxval 255).
Synthetic generation derives one child RNG per patch from a single
SeedSequence, so any (counts, seed) pair is byte-reproducible.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, check_int, check_real

PATCH_SIZE = 224
LABELS = ("no_crack", "crack")
GEN_SEED = 1234  # default seed of generate_synthetic for `gen` and configs
# skip whitespace and `#` lines, then read a comment running to the end of
# the file (group None) or a PGM header token (empty at the end of the file)
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*(?:#[^\n]*|(\S*))")

_CELLS = 8                      # 8x8 grid of pooling cells
_CELL = PATCH_SIZE // _CELLS    # 28 px per cell
_ORI_BINS = 4


def _check_label(label) -> None:
    if label not in LABELS:
        raise DataError(f"label must be one of {LABELS}, got {label!r}")


def _check_new_id(seen: dict, sid: str, line: int) -> None:
    if sid in seen:
        raise DataError(f"duplicate id {sid!r} (first at line {seen[sid]})")
    seen[sid] = line


@dataclass
class Patch:
    id: str
    label: str  # "crack" | "no_crack"
    pixels: np.ndarray  # (224, 224) uint8

    def __post_init__(self):
        _check_label(self.label)
        if self.pixels.shape != (PATCH_SIZE, PATCH_SIZE):
            raise DataError(
                f"patch {self.id}: expected {PATCH_SIZE}x{PATCH_SIZE} pixels, "
                f"got {self.pixels.shape}"
            )
        if self.pixels.dtype != np.uint8:
            raise DataError(f"patch {self.id}: pixels must be uint8")


@dataclass
class FeatureSample:
    id: str
    label: str
    values: np.ndarray
    source: str = "built-in"  # "built-in" | "imported"

    def __post_init__(self):
        _check_label(self.label)
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"sample {self.id}: non-finite feature values")


# ---------------------------------------------------------------------------
# Seed streams and file I/O

def _entropy(base, keys: tuple) -> list[int]:
    check_int("seed", base, 0)
    for key in keys:
        check_int("key", key, 0)
    return [base, *keys]


def derive_rng(base: int, *keys: int) -> np.random.Generator:
    """The PCG64 generator of the stream `keys` under `base`."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(base, keys)))


def derive_seed(base: int, *keys: int) -> int:
    """An independent PCG64 seed for the stream `keys` under `base`."""
    seq = np.random.SeedSequence(entropy=_entropy(base, keys))
    return int(seq.generate_state(1)[0])


def _generate_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(row).generate_state(n_words) of each row of an (n, k)
    uint32 array as (n, n_words) uint32, by bit_generator.pyx's constants."""
    def hashmix(values, const, mult=0x931E8875):
        # on each column in turn, and the next constant; arrays wrap silently
        c = np.array([const * pow(mult, i, 1 << 32) & 0xFFFFFFFF
                      for i in range(values.shape[1] + 1)], np.uint32)
        out = (values ^ c[:-1]) * c[1:]
        return out ^ (out >> np.uint32(16)), int(c[-1])

    pool = np.zeros((len(entropy), 4), np.uint32)
    pool[:, :entropy.shape[1]] = entropy[:, :4]
    pool, const = hashmix(pool, 0x43B0D7E5)
    # each pool word into the other three, then later entropy into all four
    steps = [(pool, s, [d for d in range(4) if d != s]) for s in range(4)]
    steps += [(entropy, s, [0, 1, 2, 3]) for s in range(4, entropy.shape[1])]
    for src, s, dst in steps:
        h, const = hashmix(src[:, [s] * len(dst)], const)
        mixed = pool[:, dst] * np.uint32(0xCA01F9DD) - h * np.uint32(0x4973F715)
        pool[:, dst] = mixed ^ (mixed >> np.uint32(16))
    return hashmix(pool[:, np.arange(n_words) % 4], 0x8B51F9DD, 0x58F38DED)[0]


def derive_streams(base: int, keys: tuple, n: int, *more: int) -> np.ndarray:
    """(n, *more, 4) uint64, hashed in one pass a level: row i holds the
    words default_rng(derive_seed(base, *keys, i)) seeds its PCG64 from,
    and with two counts row (i, j) those of
    default_rng(derive_seed(derive_seed(base, *keys, i), j))."""
    # SeedSequence's little-endian uint32 words of each int; 0 is one word
    head = np.array([[x >> s & 0xFFFFFFFF for x in _entropy(base, keys)
                      for s in range(0, max(x.bit_length(), 1), 32)]],
                    np.uint32)
    for count in (n, *more):  # each row's seed, then each index under it
        check_int("count", count, 0, 1 << 32)  # an index is one uint32 word
        index = np.tile(np.arange(count, dtype=np.uint32), len(head))
        head = _generate_state(
            np.hstack([np.repeat(head, count, axis=0), index[:, None]]), 1)
    words = _generate_state(head, 8).astype("<u4").ravel()
    return words.view("<u8").astype(np.uint64).reshape((n, *more, 4))


def write_atomic(path, content: str | bytes) -> None:
    """Write via a temp file and a rename: readers see old or new, not part.
    Text keeps its line endings as given, on every platform."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(content, str):
        tmp.write_text(content, newline="")
    else:
        tmp.write_bytes(content)
    tmp.rename(path)


def write_pgm(path, pixels: np.ndarray) -> None:
    """Binary PGM of a 2-D uint8 array, the only kind read_pgm returns."""
    if not (isinstance(pixels, np.ndarray) and pixels.ndim == 2
            and pixels.dtype == np.uint8):
        raise DataError(f"{path}: PGM pixels must be a 2-D uint8 array")
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode()
    write_atomic(path, header + pixels.tobytes())


def read_pgm(path) -> np.ndarray:
    path = Path(path)
    data = path.read_bytes()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        match = _PGM_TOKEN.match(data, pos)
        pos = match.end()
        if match[1] is not None:
            tokens.append(match[1])
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    # ASCII digits only: int() also takes '+4', '-4' and '4_0'
    width, height, maxval = (int(t) if t.isdigit() else 0 for t in tokens[1:])
    if min(width, height, maxval) < 1:
        raise FormatError(f"{path}: malformed PGM header")
    if maxval != 255:
        raise FormatError(f"{path}: expected maxval 255, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    raw = data[pos:pos + width * height]
    if len(raw) != width * height:
        raise FormatError(f"{path}: truncated pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width)


def _csv_rows(fh):
    """(physical line it ends on, fields) of each nonblank CSV row."""
    reader = csv.reader(fh)
    return ((reader.line_num, row) for row in reader if row)


@contextmanager
def _row_errors(path, line: int):
    """Prefix a bad CSV row's error with `<path>:<line>: `; keep its type."""
    try:
        yield
    except (DataError, FormatError, OSError) as exc:
        raise type(exc)(f"{path}:{line}: {exc}") from exc
    except ValueError as exc:  # a value float() cannot parse
        raise FormatError(f"{path}:{line}: {exc}") from exc


def load_dataset(directory, manifest) -> list[Patch]:
    """Read the patches listed in a `filename,label` manifest CSV."""
    patches: list[Patch] = []
    seen: dict[str, int] = {}
    with open(manifest, newline="") as fh:
        rows = _csv_rows(fh)
        if next(rows, None) != (1, ["filename", "label"]):
            raise FormatError(f"{manifest}: manifest header must be "
                              "'filename,label'")
        for line, row in rows:
            with _row_errors(manifest, line):
                if len(row) > 2:
                    raise FormatError("expected filename,label only")
                fname, label = (*row, None)[:2]  # a missing label is None
                stem = Path(fname).stem
                _check_label(label)  # the label before the file
                _check_new_id(seen, stem, line)
                pixels = read_pgm(Path(directory, fname))
                if pixels.shape != (PATCH_SIZE, PATCH_SIZE):
                    raise FormatError(
                        f"{fname}: expected {PATCH_SIZE}x{PATCH_SIZE}, "
                        f"got {pixels.shape[1]}x{pixels.shape[0]}")
            patches.append(Patch(stem, label, pixels))
    if not patches:
        warnings.warn(f"manifest {manifest} lists no patches")
    return patches


# ---------------------------------------------------------------------------
# Synthetic generation

def _base_texture(rng: np.random.Generator) -> np.ndarray:
    """Mid-gray concrete-like texture: multi-scale noise plus dark pores."""
    img = np.full((PATCH_SIZE, PATCH_SIZE), 128.0)
    for grid, amp in ((7, 14.0), (28, 8.0), (56, 5.0)):
        k = PATCH_SIZE // grid
        rows = img.reshape(grid, k, PATCH_SIZE)  # k image rows a grid row
        rows += rng.normal(0.0, amp, (grid, grid)).repeat(k, 1)[:, None, :]
    img += rng.normal(0.0, 3.0, (PATCH_SIZE, PATCH_SIZE))
    for _ in range(rng.poisson(1.5)):
        cy, cx = rng.integers(8, PATCH_SIZE - 8, size=2)
        r = int(rng.integers(2, 6))
        depth = float(rng.integers(30, 70))
        # the pore's (2r+1)^2 window lies inside: cy, cx in [8, 216), r <= 5
        window = img[cy - r:cy + r + 1, cx - r:cx + r + 1]
        d2 = np.arange(-r, r + 1) ** 2
        window[d2[:, None] + d2 <= r * r] -= depth
    return img


def _draw_crack(img: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Darken a random-walk polyline across the full patch extent.

    Returns the boolean crack mask. The painted pixel set is 4-connected
    (vertical jumps are filled column by column) and spans all 224 columns
    of the walk axis.
    """
    width = int(rng.integers(1, 3))  # 1 or 2 px
    depth = float(rng.integers(60, 110))
    transpose = bool(rng.integers(0, 2))  # vertical crack: work transposed
    start = int(rng.integers(20, PATCH_SIZE - 20))
    free = start + np.cumsum(rng.integers(-1, 2, size=PATCH_SIZE))
    # the walk clipped to [1, PATCH_SIZE - 2] step by step: from a start in
    # [20, PATCH_SIZE - 20) it cannot reach both bounds in PATCH_SIZE unit
    # steps, so it is the free walk raised by its deepest dip below 1 so
    # far and lowered by its highest rise above PATCH_SIZE - 2
    ys = (free + np.maximum.accumulate(np.maximum(1 - free, 0))
          - np.maximum.accumulate(np.maximum(free - (PATCH_SIZE - 2), 0)))
    # column x: rows [min, max + width), all under 256
    prev = np.concatenate(([start], ys[:-1])).astype(np.uint8)
    ys = ys.astype(np.uint8)
    rows = np.arange(PATCH_SIZE, dtype=np.uint8)[:, None]
    mask = (rows >= np.minimum(prev, ys)) & (rows < np.maximum(prev, ys) + width)
    mask = mask.T if transpose else mask
    np.subtract(img, depth, out=img, where=mask)
    return mask


def generate_synthetic(n_crack: int, n_clean: int, seed: int) -> list[Patch]:
    """Deterministic synthetic patches: cracks first, then clean."""
    check_int("n_crack", n_crack, 0)
    check_int("n_clean", n_clean, 0)
    check_int("seed", seed, 0)
    children = np.random.SeedSequence(seed).spawn(n_crack + n_clean)
    patches: list[Patch] = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        img = _base_texture(rng)
        crack = i < n_crack
        if crack:
            _draw_crack(img, rng)
        np.clip(img, 0, 255, out=img)
        patches.append(Patch(
            id=f"crack_{i:05d}" if crack else f"clean_{i - n_crack:05d}",
            label=LABELS[crack], pixels=img.astype(np.uint8)))
    return patches


# ---------------------------------------------------------------------------
# Feature extraction

@functools.lru_cache(maxsize=1)
def _workspace() -> np.ndarray:
    """extract_features' four float64 planes, 1,605,632 B for the process;
    every call writes each plane in full before it reads it."""
    return np.empty((4, PATCH_SIZE, PATCH_SIZE))


def extract_features(patch: Patch) -> FeatureSample:
    """Fixed 512-dim descriptor over an 8x8 grid of 28x28 cells.

    Per cell, in order: 4 gradient-orientation histogram bins (magnitude
    weighted, averaged over the cell), mean gradient magnitude, then
    min/mean/max intensity. Cells are laid out row-major. Intensities are
    scaled to [0, 1] so all features stay O(1). The orientation is
    `np.arctan2(gy, gx) % math.pi` bit for bit, folded without np.remainder:
    pi goes to 0.0 and (-pi, 0) to a + pi.

    Each plane is computed in place in `_workspace()`, so no call allocates
    a patch-sized array; like `statevector.evolve`, it is not reentrant
    across threads. The gradient is np.gradient's unit-spacing formula bit
    for bit: (f[i+1] - f[i-1]) * 0.5, the same rounded x / 2 as / 2.0, in
    one flat pass, then f[1] - f[0] and f[-1] - f[-2] at the edges. Cell
    min/max reduce the uint8 pixels over rows, then columns, then / 255.0:
    both are exact in any order, and the monotone division commutes.
    """
    img, gy, gx, ori = _workspace()
    np.divide(patch.pixels, 255.0, out=img)
    flat = img.reshape(-1)
    for plane, d in ((gy, PATCH_SIZE), (gx, 1)):  # along rows, then columns
        inside = plane.reshape(-1)[d:-d]  # gx's also spans the row ends
        np.subtract(flat[2 * d:], flat[:-2 * d], out=inside)
        inside *= 0.5
    for f, grad in ((img, gy), (img.T, gx.T)):  # one-sided edges, last
        np.subtract(f[1], f[0], out=grad[0])
        np.subtract(f[-1], f[-2], out=grad[-1])
    np.arctan2(gy, gx, out=ori)  # unsigned orientation, folded into [0, pi)
    mag = np.hypot(gx, gy, out=gx)
    ori[ori == math.pi] = 0.0  # fmod(pi, pi) is 0
    # (-pi, 0) -> a + pi; a + 0.0 is a
    ori += np.multiply(math.pi, ori < 0, out=gy)
    bins = np.divide(ori, math.pi / _ORI_BINS, out=gy).astype(np.int8)
    np.minimum(bins, _ORI_BINS - 1, out=bins)

    def cells(a: np.ndarray) -> np.ndarray:
        # (8, 8, 28, 28): cell-row, cell-col, pixels
        return a.reshape(_CELLS, _CELL, _CELLS, _CELL).transpose(0, 2, 1, 3)

    feats = np.empty((_CELLS, _CELLS, 8))
    for b in range(_ORI_BINS):  # mag >= 0 and finite: mag * 0.0 is +0.0
        np.copyto(gy, bins == b)
        feats[:, :, b] = cells(np.multiply(gy, mag, out=gy)).mean(axis=(2, 3))
    feats[:, :, 4] = cells(mag).mean(axis=(2, 3))
    grid = patch.pixels.reshape(_CELLS, _CELL, _CELLS, _CELL)
    feats[:, :, 5] = grid.min(axis=1).min(axis=2) / 255.0
    feats[:, :, 6] = cells(img).mean(axis=(2, 3))
    feats[:, :, 7] = grid.max(axis=1).max(axis=2) / 255.0
    return FeatureSample(id=patch.id, label=patch.label,
                         values=feats.reshape(-1), source="built-in")


def import_features(path) -> list[FeatureSample]:
    """Read externally computed features: CSV rows `id,label,f_0,...`."""
    samples: list[FeatureSample] = []
    width: int | None = None
    seen: dict[str, int] = {}
    with open(path, newline="") as fh:
        for line, row in _csv_rows(fh):
            with _row_errors(path, line):
                if len(row) < 3:
                    raise FormatError("need id,label,f_0,...")
                width = width or len(row) - 2  # the first row sets it
                if len(row) - 2 != width:
                    raise FormatError(
                        f"expected {width} features, got {len(row) - 2}")
                samples.append(FeatureSample(
                    id=row[0], label=row[1], source="imported",
                    values=[float(v) for v in row[2:]]))
                _check_new_id(seen, row[0], line)
    return samples


# ---------------------------------------------------------------------------
# Splitting

@dataclass(frozen=True)
class SplitConfig:
    ratios: tuple[float, float, float]  # train, val, test
    seed: int

    def __post_init__(self):
        r = self.ratios
        if not isinstance(r, (list, tuple)) or len(r) != 3:
            raise ValueError(f"split must be three ratios, got {r!r}")
        for x in r:
            check_real("split ratio", x, 0, 1)
        if abs(sum(r) - 1.0) > 1e-9:
            raise ValueError(f"split ratios must sum to 1, got {r!r}")
        object.__setattr__(self, "ratios", tuple(r))


def _largest_remainder(n: int, ratios) -> list[int]:
    exact = [n * r for r in ratios]
    counts = [int(math.floor(e)) for e in exact]
    rem = n - sum(counts)
    # ties broken in split order (train, then val, then test)
    order = sorted(range(len(ratios)),
                   key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:rem]:
        counts[i] += 1
    return counts


def split(samples, config: SplitConfig):
    """Stratified split: per-class seeded shuffle, then contiguous
    allocation with largest-remainder rounding."""
    by_class: dict[str, list] = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(s)
    rng = derive_rng(config.seed, 0x517)
    outputs = ([], [], [])
    for label in sorted(by_class):
        group = by_class[label]
        order = rng.permutation(len(group))
        counts = _largest_remainder(len(group), config.ratios)
        for i, (count, ratio) in enumerate(zip(counts, config.ratios)):
            if count == 0 and ratio > 0:
                warnings.warn(
                    f"class {label!r}: split {i} rounds to zero samples"
                )
        start = 0
        for out, count in zip(outputs, counts):
            out.extend(group[j] for j in order[start:start + count])
            start += count
    return outputs


def split_record(splits, config: SplitConfig) -> str:
    """JSON audit record of split membership."""
    names = ("train", "val", "test")
    return json.dumps({
        "seed": config.seed,
        "ratios": list(config.ratios),
        **{name: [s.id for s in part] for name, part in zip(names, splits)},
    })


def write_patches(patches: list[Patch], out_dir) -> Path:
    """Write PGM files plus a manifest CSV; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(["filename", "label"])
    for patch in patches:
        fname = f"{patch.id}.pgm"
        write_pgm(out_dir / fname, patch.pixels)
        writer.writerow([fname, patch.label])
    manifest = out_dir / "manifest.csv"
    write_atomic(manifest, rows.getvalue())
    return manifest
