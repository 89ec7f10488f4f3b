import copy
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcrack
from qcrack.data import (PATCH_SIZE, FeatureSample, Patch, SplitConfig,
                         _draw_crack, _workspace, derive_rng, derive_seed,
                         derive_streams, extract_features,
                         generate_synthetic, import_features, load_dataset,
                         read_pgm, split, split_record, write_patches,
                         write_pgm)
from qcrack.errors import DataError, FormatError
from qcrack.statevector import _Stream


def dummy_samples(n_crack, n_clean):
    return ([FeatureSample(f"c{i}", "crack", np.zeros(2))
             for i in range(n_crack)]
            + [FeatureSample(f"n{i}", "no_crack", np.zeros(2))
               for i in range(n_clean)])


class TestSplit:
    def test_table_row_70_15_15(self):
        samples = dummy_samples(723, 500)
        tr, va, te = split(samples, SplitConfig((0.70, 0.15, 0.15), seed=1))
        count = lambda part, lab: sum(s.label == lab for s in part)
        assert (count(tr, "crack"), count(tr, "no_crack")) == (506, 350)
        assert (count(va, "crack"), count(va, "no_crack")) == (109, 75)
        assert (count(te, "crack"), count(te, "no_crack")) == (108, 75)

    def test_table_row_4_4_92(self):
        samples = dummy_samples(723, 500)
        tr, va, te = split(samples, SplitConfig((0.04, 0.04, 0.92), seed=2))
        count = lambda part, lab: sum(s.label == lab for s in part)
        assert (count(tr, "crack"), count(tr, "no_crack")) == (29, 20)
        assert (count(va, "crack"), count(va, "no_crack")) == (29, 20)
        assert (count(te, "crack"), count(te, "no_crack")) == (665, 460)

    def test_all_train(self):
        samples = dummy_samples(10, 5)
        tr, va, te = split(samples, SplitConfig((1.0, 0.0, 0.0), seed=3))
        assert len(tr) == 15 and not va and not te

    @given(n_crack=st.integers(0, 60), n_clean=st.integers(0, 60),
           seed=st.integers(0, 10 ** 6),
           cut=st.tuples(st.floats(0.01, 0.98), st.floats(0.01, 0.98)))
    @settings(max_examples=80, deadline=None)
    def test_partition(self, n_crack, n_clean, seed, cut):
        a, b = sorted(cut)
        ratios = (a, b - a, 1.0 - b)
        samples = dummy_samples(n_crack, n_clean)
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")  # tiny splits may round to zero
            parts = split(samples, SplitConfig(ratios, seed))
        ids = [s.id for part in parts for s in part]
        assert sorted(ids) == sorted(s.id for s in samples)
        assert len(set(ids)) == len(ids)

    @given(sizes=st.lists(st.integers(0, 40), min_size=1, max_size=2),
           weights=st.tuples(*[st.integers(0, 5)] * 3).filter(any),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_parts_disjoint_and_covering(self, sizes, weights, seed):
        # zero ratios included, and one class or two
        ratios = tuple(w / sum(weights) for w in weights)
        samples = dummy_samples(*sizes, *[0] * (2 - len(sizes)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny splits may round to zero
            parts = split(samples, SplitConfig(ratios, seed))
        ids = [{s.id for s in part} for part in parts]
        assert sum(map(len, ids)) == len(samples) == sum(map(len, parts))
        assert set.union(*ids) == {s.id for s in samples}
        for part, ratio in zip(parts, ratios):
            if ratio == 0:
                assert part == []

    def test_seed_stability(self):
        samples = dummy_samples(30, 20)
        cfg = SplitConfig((0.6, 0.2, 0.2), seed=42)
        first = [[s.id for s in part] for part in split(samples, cfg)]
        second = [[s.id for s in part] for part in split(samples, cfg)]
        assert first == second

    def test_different_seed_shuffles(self):
        samples = dummy_samples(50, 0)
        a = [s.id for s in split(samples, SplitConfig((0.5, 0.25, 0.25), 1))[0]]
        b = [s.id for s in split(samples, SplitConfig((0.5, 0.25, 0.25), 2))[0]]
        assert a != b

    def test_zero_split_warns(self):
        samples = dummy_samples(3, 0)
        with pytest.warns(UserWarning, match="rounds to zero"):
            split(samples, SplitConfig((0.9, 0.05, 0.05), seed=1))

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            SplitConfig((0.5, 0.5, 0.5), 1)
        with pytest.raises(ValueError):
            SplitConfig((-0.1, 0.6, 0.5), 1)
        for bad in ((float("nan"), 0.5, 0.5), (True, 0, 0), (0.5, "0.5", 0),
                    (0.5, 0.5), (0.5, 0.25, 0.25, 0.0), 5, None, (1.5, -0.5, 0)):
            with pytest.raises(ValueError):
                SplitConfig(bad, 1)
        assert SplitConfig([0.5, 0.25, 0.25], 1) == \
            SplitConfig((0.5, 0.25, 0.25), 1)

    def test_split_record(self):
        import json
        samples = dummy_samples(4, 2)
        cfg = SplitConfig((0.5, 0.25, 0.25), seed=9)
        with pytest.warns(UserWarning, match="rounds to zero"):
            parts = split(samples, cfg)
        doc = json.loads(split_record(parts, cfg))
        assert doc["seed"] == 9
        assert len(doc["train"]) + len(doc["val"]) + len(doc["test"]) == 6


class TestSeedRecipe:
    @pytest.mark.parametrize("draw", [
        lambda base: derive_rng(base, 3),
        lambda base: derive_seed(base, 3),
        lambda base: split(dummy_samples(2, 2),
                           SplitConfig((0.5, 0.25, 0.25), base)),
        lambda base: derive_streams(base, (3,), 2),
    ], ids=["derive_rng", "derive_seed", "split", "derive_streams"])
    @pytest.mark.parametrize("base", [
        True, 1.5, "3", None, -1,
        pytest.param(np.arange(3, dtype=np.uint32), id="uint32-array")])
    def test_base_must_be_an_integer(self, draw, base):
        # a bool or a float once ran silently as another seed, and a uint32
        # array of seeds was once a base of the bulk hash
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            draw(base)

    @pytest.mark.parametrize("draw", [
        lambda key: derive_rng(5, key),
        lambda key: derive_seed(5, key),
        lambda key: derive_streams(5, (2, key), 3),
    ], ids=["derive_rng", "derive_seed", "derive_streams"])
    @pytest.mark.parametrize("key", [1.5, True, -1, np.int64(1)],
                             ids=["float", "bool", "negative", "int64"])
    def test_key_must_be_an_integer(self, draw, key):
        # derive_seed once truncated 1.5 to the stream of 1
        with pytest.raises(ValueError, match="key must be an integer >= 0"):
            draw(key)

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy 2 loads numpy.random on first use, and importing every
        # qcrack module must not use it: it costs the process memory
        code = ("import importlib, pkgutil, sys, numpy\n"
                "print('numpy.random' in sys.modules)\n"
                "import qcrack\n"
                "for m in pkgutil.iter_modules(qcrack.__path__):\n"
                "    importlib.import_module('qcrack.' + m.name)\n"
                "assert 'qcrack.cli' in sys.modules\n"
                "print('numpy.random' in sys.modules)")
        src = str(Path(qcrack.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], text=True,
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        with_numpy, with_qcrack = proc.stdout.split()
        if with_numpy == "True":
            pytest.skip("this numpy loads numpy.random when imported")
        assert with_qcrack == "False"


# entropy words SeedSequence treats apart: zero, the widest one-word value,
# and values that take two and three words
EDGES = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5)


def stream_rng(words):
    """The generator sampled_z_rows draws a row with from its stream."""
    np.random.bit_generator.ISeedSequence.register(_Stream)
    return np.random.Generator(np.random.PCG64(_Stream(words)))


def numpy_seed(*entropy):
    """derive_seed's recipe, written with numpy's SeedSequence directly."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def assert_same_stream(words, seed, p):
    """The stream sampled_z_rows draws from `words` is default_rng(seed)'s:
    the same PCG64 state and the same multinomial counts."""
    ours, theirs = stream_rng(words), np.random.default_rng(seed)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(ours.multinomial(1024, p),
                          theirs.multinomial(1024, p))


class TestShotStreams:
    """derive_streams against numpy's own SeedSequence and PCG64, so a
    numpy that changes either algorithm fails here rather than in a pinned
    value."""

    @pytest.mark.parametrize("n_keys", [0, 1, 2, 3])
    def test_match_numpy(self, n_keys):
        rng = np.random.default_rng(n_keys)
        p = rng.dirichlet(np.ones(16))
        # one case per edge for base and keys alike, then mixed cases
        cases = [[edge] * (n_keys + 1) for edge in EDGES] + [
            [int(rng.choice(EDGES)) if rng.random() < 0.5
             else int(rng.integers(2 ** 40)) for _ in range(n_keys + 1)]
            for _ in range(4)]
        for base, *keys in cases:
            for n in (0, 1, 17, 184):
                streams = derive_streams(base, tuple(keys), n)
                assert streams.shape == (n, 4)
                assert streams.dtype == np.uint64
                for i, words in enumerate(streams):
                    assert_same_stream(words, numpy_seed(base, *keys, i), p)

    def test_nested_seeds_match_numpy(self):
        # train's form: the seed of each step, then each of its rows under it
        p = np.random.default_rng(5).dirichlet(np.ones(8))
        for base, keys in ((9, (4,)), (2 ** 64 + 5, (2 ** 32, 0))):
            streams = derive_streams(base, keys, 5, 17)
            assert streams.shape == (5, 17, 4)
            for step in range(5):
                step_seed = numpy_seed(base, *keys, step)
                for row in range(17):
                    assert_same_stream(streams[step, row],
                                       numpy_seed(step_seed, row), p)
        assert derive_streams(9, (), 0, 17).shape == (0, 17, 4)
        assert derive_streams(9, (), 5, 0).shape == (5, 0, 4)

    @pytest.mark.parametrize(
        "count", [-1, 1.5, True, np.int64(3), 2 ** 32 + 1],
        ids=["negative", "float", "bool", "int64", "wide"])
    def test_counts_must_be_integers(self, count):
        # an index past 2^32 - 1 would wrap in its one uint32 word
        for counts in ((count,), (3, count)):
            with pytest.raises(ValueError, match="count must be an integer"):
                derive_streams(5, (), *counts)


class ScriptedDraws:
    """Stands in for _draw_crack's generator: hands out the given draws in
    order (width, depth, vertical, start row, steps)."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def integers(self, low, high, size=None):
        return self.draws.pop(0)


def clipped_walk_cases():
    """(start row, steps) of crack walks from the lowest and highest start
    that reach row 1 or row PATCH_SIZE - 2: once, then as far towards the
    other bound as the steps left allow; by holding against it; and by a
    random drift."""
    n, low, high = PATCH_SIZE, 20, PATCH_SIZE - 21
    rng = np.random.default_rng(11)
    cases = {
        "down-then-up": (low, [-1] * 19 + [1] * (n - 19)),
        "up-then-down": (high, [1] * 19 + [-1] * (n - 19)),
        "hold-low": (low, [-1] * 30 + ([1, -1, -1] * n)[:n - 30]),
        "hold-high": (high, [1] * 30 + ([-1, 1, 1] * n)[:n - 30]),
    }
    for i in range(3):
        cases[f"drift-down-{i}"] = (low, list(rng.choice([-1, -1, 0, 1], n)))
        cases[f"drift-up-{i}"] = (high, list(rng.choice([1, 1, 0, -1], n)))
    return cases


class TestSyntheticGeneration:
    def test_counts_and_labels(self):
        patches = generate_synthetic(0, 5, seed=1)
        assert len(patches) == 5
        assert all(p.label == "no_crack" for p in patches)
        patches = generate_synthetic(3, 2, seed=1)
        assert [p.label for p in patches] == ["crack"] * 3 + ["no_crack"] * 2

    @pytest.mark.parametrize("counts", [(True, False), (1.0, 1), (1, 2.5),
                                        (-1, 1), (1, -1)])
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            generate_synthetic(*counts, seed=1)

    @pytest.mark.parametrize("seed", [True, False, -1, 1.0, "1", None])
    def test_seed_must_be_an_integer(self, seed):
        # a bool seed once went to SeedSequence as 0 or 1
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            generate_synthetic(1, 0, seed)

    def test_deterministic(self):
        a = generate_synthetic(2, 2, seed=77)
        b = generate_synthetic(2, 2, seed=77)
        for pa, pb in zip(a, b):
            assert pa.id == pb.id
            assert np.array_equal(pa.pixels, pb.pixels)

    def test_crack_mask_connected_and_spanning(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            img = np.full((224, 224), 128.0)
            mask = _draw_crack(img, rng)
            ys, xs = np.nonzero(mask)
            extent = max(xs.max() - xs.min(), ys.max() - ys.min())
            assert extent >= 112
            # 4-connectivity: flood fill from one crack pixel covers all
            from collections import deque
            seen = np.zeros_like(mask)
            queue = deque([(ys[0], xs[0])])
            seen[ys[0], xs[0]] = True
            while queue:
                y, x = queue.popleft()
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < 224 and 0 <= nx < 224 and \
                            mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            assert np.array_equal(seen, mask)

    @pytest.mark.parametrize("name", sorted(clipped_walk_cases()))
    @pytest.mark.parametrize("width,vertical", [(1, 0), (2, 1)])
    def test_crack_walk_matches_clipped_loop(self, name, width, vertical):
        # the running-maxima walk against the walk clipped step by step
        start, steps = clipped_walk_cases()[name]
        ys = [start]
        for step in steps:
            ys.append(min(max(ys[-1] + step, 1), PATCH_SIZE - 2))
        assert min(ys) == 1 or max(ys) == PATCH_SIZE - 2
        want = np.zeros((PATCH_SIZE, PATCH_SIZE), bool)
        for x in range(PATCH_SIZE):
            low, high = sorted(ys[x:x + 2])
            want[low:high + width, x] = True
        img = np.full((PATCH_SIZE, PATCH_SIZE), 128.0)
        draws = ScriptedDraws(width, 80, vertical, start, np.array(steps))
        got = _draw_crack(img, draws)
        assert np.array_equal(got, want.T if vertical else want)
        assert np.array_equal(img, np.where(got, 48.0, 128.0))

    def test_patch_invariants(self):
        for p in generate_synthetic(2, 2, seed=3):
            assert p.pixels.shape == (224, 224)
            assert p.pixels.dtype == np.uint8


class TestFeatures:
    def test_constant_patch(self):
        p = Patch("flat", "no_crack", np.full((224, 224), 80, dtype=np.uint8))
        f = extract_features(p)
        assert f.values.shape == (512,)
        feats = f.values.reshape(8, 8, 8)
        assert np.all(feats[:, :, :5] == 0)  # gradient bins and magnitude
        assert np.allclose(feats[:, :, 5:], 80 / 255)

    def test_deterministic(self):
        p = generate_synthetic(1, 0, seed=9)[0]
        assert np.array_equal(extract_features(p).values,
                              extract_features(p).values)

    def test_crack_changes_features(self):
        # same texture seed, with and without the crack overlay
        rng_state = 123
        cracked = generate_synthetic(1, 0, seed=rng_state)[0]
        clean = generate_synthetic(0, 1, seed=rng_state)[0]
        d = np.linalg.norm(extract_features(cracked).values
                           - extract_features(clean).values)
        assert d > 0

    def test_finite(self):
        for p in generate_synthetic(2, 2, seed=10):
            assert np.all(np.isfinite(extract_features(p).values))

    def test_no_aliasing_through_the_workspace(self):
        a, b = generate_synthetic(1, 1, seed=5)
        first = extract_features(a).values
        kept = first.copy()
        extract_features(b)
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, _workspace())

    def test_call_keeps_only_the_workspace(self):
        # README's statement: four float64 planes for the process, and a
        # later call peaks under one plane of its own
        plane = PATCH_SIZE * PATCH_SIZE * 8
        patch = generate_synthetic(1, 0, seed=4)[0]
        _workspace.cache_clear()
        tracemalloc.start()
        try:
            extract_features(patch)
            first = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            extract_features(patch)
            later, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first <= 4 * plane + 4096
        assert later < first + 1024
        assert peak - first < plane


def reference_crack(img, rng):
    """The crack walk as first written: one scalar draw and one slice write
    per column. Returns the mask and the lowest and highest walk rows."""
    mask = np.zeros_like(img, dtype=bool)
    width = int(rng.integers(1, 3))
    depth = float(rng.integers(60, 110))
    wmask = mask.T if rng.integers(0, 2) else mask
    y = int(rng.integers(20, PATCH_SIZE - 20))
    prev, low, high = y, y, y
    for x in range(PATCH_SIZE):
        y = int(np.clip(y + rng.integers(-1, 2), 1, PATCH_SIZE - 2))
        wmask[min(prev, y):max(prev, y) + width, x] = True
        prev, low, high = y, min(low, y), max(high, y)
    img[mask] -= depth
    return mask, low, high


def reference_features(pixels):
    """extract_features as first written: `% math.pi`, int bins and
    np.where masks. The fast fold must match it bit for bit."""
    img = pixels.astype(float) / 255.0
    gy, gx = np.gradient(img)
    mag = np.hypot(gx, gy)
    ori = np.arctan2(gy, gx) % math.pi
    bins = np.minimum((ori / (math.pi / 4)).astype(int), 3)
    cells = lambda a: a.reshape(8, 28, 8, 28).transpose(0, 2, 1, 3)
    c_img, c_mag, c_bins = cells(img), cells(mag), cells(bins)
    feats = np.empty((8, 8, 8))
    for b in range(4):
        feats[:, :, b] = np.mean(np.where(c_bins == b, c_mag, 0.0),
                                 axis=(2, 3))
    feats[:, :, 4] = c_mag.mean(axis=(2, 3))
    feats[:, :, 5] = c_img.min(axis=(2, 3))
    feats[:, :, 6] = c_img.mean(axis=(2, 3))
    feats[:, :, 7] = c_img.max(axis=(2, 3))
    return feats.reshape(-1)


def edge_case_patches():
    """Patches whose gradients sit on bin edges: gx == 0, gy == 0 and
    |gx| == |gy| (arctan2 of exactly 0, pi/4, pi/2, 3pi/4 and pi)."""
    y, x = np.mgrid[:PATCH_SIZE, :PATCH_SIZE]
    rng = np.random.default_rng(7)
    cases = {"zeros": np.zeros_like(x), "full": np.full_like(x, 255)}
    for name, axis in (("left", x), ("up", y), ("right", PATCH_SIZE - 1 - x),
                       ("down", PATCH_SIZE - 1 - y)):
        cases[f"step-{name}"] = np.where(axis < 112, 40, 200)
    for name, ramp in (("x+y", x + y), ("x-y", x - y), ("2x+y", 2 * x + y)):
        cases[f"ramp-{name}"] = ramp % 256
    for i in range(3):
        cases[f"random-{i}"] = rng.integers(0, 256, x.shape)
        cases[f"narrow-{i}"] = rng.integers(100, 104, x.shape)  # dense ties
    # one-sided differences at the edges: each border line differs from
    # the line next to it and from the other borders
    edges = rng.integers(100, 104, x.shape)
    edges[0], edges[-1], edges[:, 0], edges[:, -1] = 3, 251, 60, 190
    cases["distinct-edges"] = edges
    # 0 and 255 in the corners of every cell: the extremes of each cell's
    # uint8 min/max sit on its border
    corners = rng.integers(100, 104, x.shape)
    at = np.isin(y % 28, (0, 27)) & np.isin(x % 28, (0, 27))
    corners[at] = np.where((x + y)[at] % 2, 255, 0)  # two 0s, two 255s
    cases["cell-corners"] = corners
    return {name: a.astype(np.uint8) for name, a in cases.items()}


class TestDataLayerPinned:
    """The fast data layer against the formulas it replaced, bit for bit."""

    # the SHA-256 of generate_synthetic(3, 3, 1234)'s pixels, in order
    SHA_3_3_1234 = ("f49d9ea43953764a98ac94272f8ec9dc"
                    "bfe398b346eb3b11a10fad5f9cb8c8e6")

    def test_generated_pixels_pinned(self):
        digest = hashlib.sha256(b"".join(
            p.pixels.tobytes() for p in generate_synthetic(3, 3, 1234)))
        assert digest.hexdigest() == self.SHA_3_3_1234

    # generate_synthetic(24, 24, 1234): its pixels, and the feature vectors
    # of those 48 patches, each in order. The orientation bins follow
    # np.arctan2, whose float64 loop numpy dispatches per SIMD level: the
    # AVX-512 (X86_V4) loop and the baseline's, also taken at AVX2, round a
    # few orientations apart and move bins on 11 of the 48 patches.
    SHA_24_24_1234 = ("731817e8be27c312b0d276a1c8d57f6c"
                      "55c318560a2755144106ed6c08169dfd")
    SHA_FEATURES_24_24_1234 = {
        "X86_V4": ("cbb6e316a56e1d63b06e53871c47c7eb"
                   "220f6fbd818a8f9487ae2d2150d43e3f"),
        "baseline(X86_V2)": ("23037b4f7a68a19e1a8e1cd0e17010e2"
                             "479901d30b5abb7ed569d987dbe25cf2"),
    }

    def test_wide_batch_pixels_pinned(self, monkeypatch):
        # the 24 cracks take both widths, each horizontal and vertical, so
        # the masked stroke runs on both layouts of the mask
        strokes = set()

        def spy(img, rng):
            probe = copy.deepcopy(rng)  # _draw_crack's first three draws
            width, _, vertical = (int(probe.integers(*r))
                                  for r in ((1, 3), (60, 110), (0, 2)))
            strokes.add((width, bool(vertical)))
            return _draw_crack(img, rng)

        monkeypatch.setattr(qcrack.data, "_draw_crack", spy)
        digest = hashlib.sha256(b"".join(
            p.pixels.tobytes() for p in generate_synthetic(24, 24, 1234)))
        assert strokes == {(1, False), (1, True), (2, False), (2, True)}
        assert digest.hexdigest() == self.SHA_24_24_1234

    def test_wide_batch_features_pinned(self):
        introspect = pytest.importorskip("numpy.lib.introspect")
        loop = introspect.opt_func_info("arctan2")["arctan2"]["ddd"]["current"]
        if loop not in self.SHA_FEATURES_24_24_1234:
            pytest.skip(f"no digest recorded for arctan2's {loop} loop")
        digest = hashlib.sha256(b"".join(
            extract_features(p).values.tobytes()
            for p in generate_synthetic(24, 24, 1234)))
        assert digest.hexdigest() == self.SHA_FEATURES_24_24_1234[loop]

    def test_crack_walk_matches_scalar_draws(self):
        # seeds 25 and 120 reach row 1, seeds 455 and 842 row 222
        lows, highs = [], []
        for seed in [*range(40), 25, 120, 455, 842]:
            rng_a, rng_b = (np.random.default_rng(seed) for _ in range(2))
            img_a = np.full((PATCH_SIZE, PATCH_SIZE), 128.0)
            img_b = img_a.copy()
            want, low, high = reference_crack(img_a, rng_a)
            assert np.array_equal(_draw_crack(img_b, rng_b), want), seed
            assert np.array_equal(img_b, img_a), seed
            assert rng_b.integers(2 ** 62) == rng_a.integers(2 ** 62), seed
            lows.append(low)
            highs.append(high)
        assert min(lows) == 1 and max(highs) == PATCH_SIZE - 2  # clip bites

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 8191])
    def test_features_match_remainder_formula(self, seed):
        for p in generate_synthetic(2, 2, seed):
            got = extract_features(p).values
            assert got.tobytes() == reference_features(p.pixels).tobytes()

    @pytest.mark.parametrize("name", sorted(edge_case_patches()))
    def test_edge_cases_match_remainder_formula(self, name):
        pixels = edge_case_patches()[name]
        got = extract_features(Patch(name, "crack", pixels)).values
        assert got.tobytes() == reference_features(pixels).tobytes()

    def test_read_only_and_strided_pixels_match(self, tmp_path):
        pixels = generate_synthetic(1, 0, seed=6)[0].pixels
        write_pgm(tmp_path / "p.pgm", pixels)
        loaded = read_pgm(tmp_path / "p.pgm")
        strided = pixels.T.copy().T
        assert not loaded.flags.writeable
        assert not strided.flags.c_contiguous
        for view in (loaded, strided):
            got = extract_features(Patch("p", "crack", view)).values
            assert got.tobytes() == reference_features(pixels).tobytes()


class TestPgmIO:
    def test_round_trip(self, tmp_path):
        pixels = np.random.default_rng(1).integers(
            0, 256, (224, 224)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, pixels)
        assert np.array_equal(read_pgm(path), pixels)

    def test_load_dataset(self, tmp_path):
        patches = generate_synthetic(1, 1, seed=2)
        manifest = write_patches(patches, tmp_path)
        loaded = load_dataset(tmp_path, manifest)
        assert len(loaded) == 2
        assert [p.label for p in loaded] == ["crack", "no_crack"]
        assert np.array_equal(loaded[0].pixels, patches[0].pixels)

    def test_write_patches_leaves_no_temp_file(self, tmp_path):
        patches = generate_synthetic(1, 1, seed=2)
        manifest = write_patches(patches, tmp_path)
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "clean_00000.pgm", "crack_00000.pgm", "manifest.csv"]
        assert manifest.read_bytes() == (b"filename,label\r\n"
                                         b"crack_00000.pgm,crack\r\n"
                                         b"clean_00000.pgm,no_crack\r\n")
        for p in patches:
            assert (tmp_path / f"{p.id}.pgm").read_bytes() == (
                b"P5\n224 224\n255\n" + p.pixels.tobytes())

    def test_failed_pgm_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_pgm(path, np.zeros((224, 224), dtype=np.uint8))
        before = path.read_bytes()

        class Unreadable(np.ndarray):
            def tobytes(self):
                raise OSError("read error")

        with pytest.raises(OSError):
            write_pgm(path, np.zeros((224, 224), np.uint8).view(Unreadable))
        assert path.read_bytes() == before

    @pytest.mark.parametrize("pixels", [
        np.zeros((4, 4)),                           # 8 bytes a pixel
        np.full((4, 4), 300, dtype=np.uint16),      # 2 bytes, above maxval
        np.zeros((2, 3, 4), dtype=np.uint8),        # a `3 2` header
    ], ids=["float64", "uint16", "3-d"])
    def test_unreadable_pixels_rejected_before_any_file(self, tmp_path,
                                                        pixels):
        with pytest.raises(DataError, match=r"x\.pgm: .*2-D uint8"):
            write_pgm(tmp_path / "x.pgm", pixels)
        assert list(tmp_path.iterdir()) == []

    def test_wrong_dimensions(self, tmp_path):
        write_pgm(tmp_path / "bad.pgm", np.zeros((225, 224), dtype=np.uint8))
        (tmp_path / "m.csv").write_text("filename,label\nbad.pgm,crack\n")
        with pytest.raises(FormatError, match="bad.pgm"):
            load_dataset(tmp_path, tmp_path / "m.csv")

    @pytest.mark.parametrize("header", [b"P5\n-4 -4\n255\n",
                                        b"P5\n4_0 1\n255\n",
                                        b"P5\n+4 1\n255\n",
                                        b"P5\n0 4\n255\n",
                                        b"P5\n4 1\n+255\n"])
    def test_bad_header_numbers(self, tmp_path, header):
        # int() takes '+4' and '4_0' (as 40); only ASCII digits >= 1 pass
        (tmp_path / "bad.pgm").write_bytes(header + bytes(40))
        with pytest.raises(FormatError, match="bad.pgm"):
            read_pgm(tmp_path / "bad.pgm")

    @pytest.mark.parametrize("rows, error, match", [
        ("clean_00000.pgm,no_crack\nclean_00000.pgm,clean\n", DataError,
         r"m\.csv:3: label .*'clean'"),
        ("clean_00000.pgm\n", DataError, r"m\.csv:2: label .*None"),
        ("clean_00000.pgm,no_crack,extra\n", FormatError,
         r"m\.csv:2: expected filename,label only"),
    ])
    def test_bad_manifest_row_names_line(self, tmp_path, rows, error, match):
        write_patches(generate_synthetic(0, 1, seed=2), tmp_path)
        (tmp_path / "m.csv").write_text("filename,label\n" + rows)
        with pytest.raises(error, match=match):
            load_dataset(tmp_path, tmp_path / "m.csv")

    def test_label_checked_before_the_file(self, tmp_path):
        (tmp_path / "m.csv").write_text("filename,label\nnope.pgm,cracked\n")
        with pytest.raises(DataError, match=r"m\.csv:2: label .*'cracked'"):
            load_dataset(tmp_path, tmp_path / "m.csv")

    def test_wrong_dimensions_names_line(self, tmp_path):
        write_patches(generate_synthetic(0, 1, seed=2), tmp_path)
        write_pgm(tmp_path / "bad.pgm", np.zeros((225, 224), dtype=np.uint8))
        (tmp_path / "m.csv").write_text(
            "filename,label\nclean_00000.pgm,no_crack\nbad.pgm,crack\n")
        with pytest.raises(FormatError, match=r"m\.csv:3: bad\.pgm: expected "
                                              r"224x224, got 224x225"):
            load_dataset(tmp_path, tmp_path / "m.csv")

    def test_bad_header_names_line(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P5\n0 4\n255\n" + bytes(4))
        (tmp_path / "m.csv").write_text("filename,label\nbad.pgm,crack\n")
        with pytest.raises(FormatError, match=r"m\.csv:2: .*bad\.pgm: "
                                              r"malformed PGM header"):
            load_dataset(tmp_path, tmp_path / "m.csv")

    def test_repeated_row_rejected(self, tmp_path):
        manifest = write_patches(generate_synthetic(3, 3, seed=2), tmp_path)
        rows = manifest.read_text().splitlines()
        manifest.write_text("\n".join(rows + [rows[1]]) + "\n")
        with pytest.raises(DataError, match=r"manifest\.csv:8: duplicate id "
                                            r"'crack_00000' "
                                            r"\(first at line 2\)"):
            load_dataset(tmp_path, manifest)

    def test_one_stem_two_files_rejected(self, tmp_path):
        (tmp_path / "sub").mkdir()
        for name in ("a.pgm", "sub/a.pgm"):
            write_pgm(tmp_path / name, np.zeros((224, 224), dtype=np.uint8))
        (tmp_path / "m.csv").write_text(
            "filename,label\na.pgm,crack\nsub/a.pgm,no_crack\n")
        with pytest.raises(DataError, match=r"m\.csv:3: duplicate id 'a' "
                                            r"\(first at line 2\)"):
            load_dataset(tmp_path, tmp_path / "m.csv")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(FormatError, match="P5"):
            read_pgm(tmp_path / "bad.pgm")

    def test_header_comments_skipped(self, tmp_path):
        (tmp_path / "c.pgm").write_bytes(
            b"P5\n# by gen\n2 #x\n1\n#\n \t# two\n255\n\x07\x09")
        assert read_pgm(tmp_path / "c.pgm").tolist() == [[7, 9]]

    def test_comment_to_end_of_file(self, tmp_path):
        # no token is read after it, not even an empty one
        (tmp_path / "c.pgm").write_bytes(b"P5\n2 1\n# 255")
        (tmp_path / "d.pgm").write_bytes(b"P5\n2 1 # no newline")
        for name in ("c.pgm", "d.pgm"):
            with pytest.raises(FormatError,
                               match=r"not a binary PGM \(P5\) file"):
                read_pgm(tmp_path / name)

    def test_whitespace_after_height_at_end_of_file(self, tmp_path):
        # the empty token at the end of the file is read as the maxval
        (tmp_path / "w.pgm").write_bytes(b"P5\n2 1 \n")
        with pytest.raises(FormatError, match="malformed PGM header"):
            read_pgm(tmp_path / "w.pgm")

    def test_missing_file(self, tmp_path):
        (tmp_path / "m.csv").write_text("filename,label\nnope.pgm,crack\n")
        with pytest.raises(OSError):
            load_dataset(tmp_path, tmp_path / "m.csv")

    @pytest.mark.parametrize("row, match", [
        ("nope.pgm,crack", r"m\.csv:2: .*nope\.pgm"),
        (",crack", r"m\.csv:2: "),  # an empty filename names the directory
    ])
    def test_unreadable_file_names_line(self, tmp_path, row, match):
        (tmp_path / "m.csv").write_text(f"filename,label\n{row}\n")
        with pytest.raises(OSError, match=match):
            load_dataset(tmp_path, tmp_path / "m.csv")

    def test_blank_lines_skipped_and_lines_physical(self, tmp_path):
        write_patches(generate_synthetic(0, 1, seed=2), tmp_path)
        (tmp_path / "m.csv").write_text(
            "filename,label\n\nclean_00000.pgm,no_crack\n\n"
            "clean_00000.pgm,no_crack\n")
        with pytest.raises(DataError, match=r"m\.csv:5: duplicate id "
                                            r"'clean_00000' "
                                            r"\(first at line 3\)"):
            load_dataset(tmp_path, tmp_path / "m.csv")
        (tmp_path / "m.csv").write_text(
            "filename,label\n\nclean_00000.pgm,no_crack\n\n")
        assert [p.id for p in load_dataset(tmp_path, tmp_path / "m.csv")] \
            == ["clean_00000"]

    @pytest.mark.parametrize("header", ["\nfilename,label\n", "file,label\n",
                                        "filename,label,x\n", ""])
    def test_bad_manifest_header(self, tmp_path, header):
        write_patches(generate_synthetic(0, 1, seed=2), tmp_path)
        (tmp_path / "m.csv").write_text(header + "clean_00000.pgm,no_crack\n")
        with pytest.raises(FormatError, match=r"m\.csv: manifest header "
                                              r"must be 'filename,label'"):
            load_dataset(tmp_path, tmp_path / "m.csv")

    def test_empty_manifest_warns(self, tmp_path):
        (tmp_path / "m.csv").write_text("filename,label\n")
        with pytest.warns(UserWarning):
            assert load_dataset(tmp_path, tmp_path / "m.csv") == []


class TestImportFeatures:
    def test_small_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,crack,1,2,3,4\nb,no_crack,5,6,7,8\nc,crack,0,0,0,1\n")
        samples = import_features(path)
        assert len(samples) == 3
        assert samples[0].values.shape == (4,)
        assert samples[1].label == "no_crack"
        assert all(s.source == "imported" for s in samples)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,crack,1,2,3,4\nb,no_crack,5,6,7\n")
        with pytest.raises(FormatError, match=":2"):
            import_features(path)

    def test_wide_file_accepted(self, tmp_path):
        row = "a,crack," + ",".join(["0.5"] * 4096)
        (tmp_path / "f.csv").write_text(row + "\n")
        samples = import_features(tmp_path / "f.csv")
        assert samples[0].values.shape == (4096,)

    def test_bad_label(self, tmp_path):
        (tmp_path / "f.csv").write_text("a,cracked,1,2,3\n")
        with pytest.raises(DataError, match=":1"):
            import_features(tmp_path / "f.csv")

    def test_one_id_under_two_labels_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,crack,1,2\nb,crack,1,2\na,no_crack,3,4\n")
        with pytest.raises(DataError, match=r"f\.csv:3: duplicate id 'a' "
                                            r"\(first at line 1\)"):
            import_features(path)

    def test_line_after_quoted_two_line_id_is_physical(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text('x,crack,1,2\n"two\nlines",crack,1,2\n'
                        'y,cracked,1,2\n')
        with pytest.raises(DataError, match=r"f\.csv:4: label"):
            import_features(path)

    def test_blank_lines_skipped_and_lines_physical(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,crack,1,2\n\n\nb,no_crack,3,4\n\nc,crack,5\n")
        with pytest.raises(FormatError, match=r"f\.csv:6: expected 2 "
                                              r"features, got 1"):
            import_features(path)
        path.write_text("a,crack,1,2\n\n\nb,no_crack,3,4\n\n")
        assert [s.id for s in import_features(path)] == ["a", "b"]

    def test_unparseable_value_is_format_error(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,crack,1,2\nb,crack,1,x\n")
        with pytest.raises(FormatError, match=r"f\.csv:2: could not convert"):
            import_features(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_row_names_line(self, tmp_path, value):
        path = tmp_path / "f.csv"
        path.write_text(f"a,crack,1,2,3\nb,no_crack,1,{value},3\n")
        with pytest.raises(DataError, match=":2: sample b"):
            import_features(path)
