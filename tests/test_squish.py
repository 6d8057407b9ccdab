"""Unit tests for the squish pattern representation and padding."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.geometry import Layout, Rect, RectilinearPolygon
from repro.squish import (
    PaddingError,
    SquishPattern,
    canonicalize,
    empty_pattern,
    pad_to_size,
    squish,
    unsquish,
    window_of,
)
from squish_reference import reference_canonicalize


def _sample_layout() -> Layout:
    window = Rect(0, 0, 1000, 1000)
    polys = [
        RectilinearPolygon([Rect(100, 100, 300, 200)]),
        RectilinearPolygon([Rect(500, 400, 600, 900)]),
    ]
    return Layout(window, polys)


class TestSquishPattern:
    def test_validation_shape_mismatch(self):
        with pytest.raises(ValueError):
            SquishPattern(np.zeros((2, 3), dtype=np.uint8), [1, 2], [1, 2])

    def test_validation_nonpositive_delta(self):
        with pytest.raises(ValueError):
            SquishPattern(np.zeros((1, 1), dtype=np.uint8), [0], [1])

    def test_validation_non_binary_topology(self):
        with pytest.raises(ValueError):
            SquishPattern(np.full((1, 1), 3), [1], [1])

    def test_width_height(self):
        pattern = SquishPattern(np.zeros((2, 3), dtype=np.uint8), [10, 20, 30], [5, 5])
        assert pattern.width == 60
        assert pattern.height == 10
        assert window_of(pattern) == Rect(0, 0, 60, 10)

    def test_empty_pattern_helper(self):
        pattern = empty_pattern(size_nm=512, cells=8)
        assert pattern.width == 512
        assert pattern.topology.sum() == 0

    def test_empty_pattern_helper_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            empty_pattern(size_nm=100, cells=3)


class TestSquishPersistence:
    def _pattern(self) -> SquishPattern:
        topo = np.zeros((3, 4), dtype=np.uint8)
        topo[0, 1:3] = 1
        topo[2, 0] = 1
        return SquishPattern(topo, [10, 20, 30, 40], [7, 8, 9], origin=(100, -50))

    def test_npz_roundtrip_is_exact(self, tmp_path):
        pattern = self._pattern()
        path = tmp_path / "pattern.npz"
        pattern.save(path)
        loaded = SquishPattern.load(path)
        np.testing.assert_array_equal(loaded.topology, pattern.topology)
        np.testing.assert_array_equal(loaded.delta_x, pattern.delta_x)
        np.testing.assert_array_equal(loaded.delta_y, pattern.delta_y)
        assert loaded.origin == pattern.origin
        assert loaded.delta_x.dtype == np.int64

    def test_load_rejects_shape_mismatch_with_file_context(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            topology=np.zeros((2, 2), dtype=np.uint8),
            delta_x=np.asarray([1, 2, 3], dtype=np.int64),
            delta_y=np.asarray([1, 2], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="bad.npz"):
            SquishPattern.load(path)

    def test_load_rejects_missing_arrays(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, topology=np.zeros((1, 1), dtype=np.uint8))
        with pytest.raises(ValueError, match="missing"):
            SquishPattern.load(path)

    def test_load_rejects_malformed_origin(self, tmp_path):
        path = tmp_path / "origin.npz"
        np.savez(
            path,
            topology=np.zeros((1, 1), dtype=np.uint8),
            delta_x=np.asarray([5], dtype=np.int64),
            delta_y=np.asarray([5], dtype=np.int64),
            origin=np.asarray([1, 2, 3], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="origin"):
            SquishPattern.load(path)

    def test_load_defaults_origin(self, tmp_path):
        path = tmp_path / "no_origin.npz"
        np.savez(
            path,
            topology=np.zeros((1, 1), dtype=np.uint8),
            delta_x=np.asarray([5], dtype=np.int64),
            delta_y=np.asarray([5], dtype=np.int64),
        )
        assert SquishPattern.load(path).origin == (0, 0)


class TestSquishRoundtrip:
    def test_encode_decode_is_lossless(self):
        layout = _sample_layout()
        pattern = squish(layout)
        decoded = unsquish(pattern)
        original = sorted((r.x1, r.y1, r.x2, r.y2) for r in layout.all_rects())
        recovered = sorted((r.x1, r.y1, r.x2, r.y2) for r in decoded.all_rects())
        assert original == recovered

    def test_window_preserved(self):
        layout = _sample_layout()
        pattern = squish(layout)
        assert pattern.width == layout.window.width
        assert pattern.height == layout.window.height

    def test_with_geometry_keeps_topology(self):
        layout = _sample_layout()
        pattern = squish(layout)
        new = pattern.with_geometry(pattern.delta_x + 0, pattern.delta_y + 0)
        assert np.array_equal(new.topology, pattern.topology)
        assert new.is_equivalent_to(pattern)

    def test_equivalence_detects_difference(self):
        layout = _sample_layout()
        pattern = squish(layout)
        other_topo = pattern.topology.copy()
        other_topo[0, 0] ^= 1
        other = SquishPattern(other_topo, pattern.delta_x, pattern.delta_y)
        assert not pattern.is_equivalent_to(other)


class TestPadding:
    def test_pad_preserves_geometry(self):
        layout = _sample_layout()
        pattern = squish(layout)
        padded = pad_to_size(pattern, 16)
        assert padded.topology.shape == (16, 16)
        assert padded.is_equivalent_to(pattern)

    def test_pad_preserves_total_size(self):
        pattern = squish(_sample_layout())
        padded = pad_to_size(pattern, 12)
        assert padded.width == pattern.width
        assert padded.height == pattern.height

    def test_pad_impossible_when_too_many_scanlines(self):
        topo = np.eye(6, dtype=np.uint8)
        # use interval length 1 so no further split is possible
        pattern = SquishPattern(topo, np.ones(6, dtype=np.int64), np.ones(6, dtype=np.int64))
        with pytest.raises(PaddingError):
            pad_to_size(pattern, 8)

    def test_lossless_reduction_merges_identical_columns(self):
        topo = np.array([[1, 1, 0, 0]], dtype=np.uint8)
        pattern = SquishPattern(topo, np.array([5, 5, 5, 5]), np.array([10]))
        reduced = pad_to_size(pattern, 2)
        assert reduced.topology.shape[1] == 2
        assert reduced.is_equivalent_to(pattern)

    def test_impossible_reduction_raises(self):
        topo = np.array([[1, 0, 1, 0]], dtype=np.uint8)
        pattern = SquishPattern(topo, np.array([5, 5, 5, 5]), np.array([10]))
        with pytest.raises(PaddingError):
            pad_to_size(pattern, 2)

    def test_invalid_size(self):
        pattern = empty_pattern(64, 4)
        with pytest.raises(ValueError):
            pad_to_size(pattern, 0)


class TestCanonicalize:
    def test_removes_redundant_scanlines(self):
        pattern = squish(_sample_layout())
        padded = pad_to_size(pattern, 16)
        canonical = canonicalize(padded)
        assert canonical.topology.shape == canonicalize(pattern).topology.shape
        assert canonical.is_equivalent_to(pattern)

    def test_canonical_form_is_fixed_point(self):
        pattern = squish(_sample_layout())
        canonical = canonicalize(pattern)
        again = canonicalize(canonical)
        assert np.array_equal(canonical.topology, again.topology)

    def test_canonicalize_uniform_pattern(self):
        pattern = empty_pattern(64, 4)
        canonical = canonicalize(pattern)
        assert canonical.topology.shape == (1, 1)
        assert canonical.width == 64


@st.composite
def squish_patterns(draw):
    """Random patterns rich in mergeable rows and columns.

    A small base matrix (down to 1 x N, N x 1 and 1 x 1) is optionally made
    uniform, then every row and column is repeated 1-3 times, so runs of
    identical neighbours are the rule rather than the exception.
    """
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    if draw(st.booleans()):
        base = np.full((rows, cols), draw(st.integers(0, 1)), dtype=np.uint8)
    else:
        bits = draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
        base = np.asarray(bits, dtype=np.uint8).reshape(rows, cols)
    row_repeats = draw(st.lists(st.integers(1, 3), min_size=rows, max_size=rows))
    col_repeats = draw(st.lists(st.integers(1, 3), min_size=cols, max_size=cols))
    topology = np.repeat(np.repeat(base, row_repeats, axis=0), col_repeats, axis=1)
    deltas = st.integers(1, 500)
    delta_x = draw(st.lists(deltas, min_size=topology.shape[1], max_size=topology.shape[1]))
    delta_y = draw(st.lists(deltas, min_size=topology.shape[0], max_size=topology.shape[0]))
    origin = (draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000)))
    return SquishPattern(topology, delta_x, delta_y, origin=origin)


def _assert_same_pattern(got: SquishPattern, expected: SquishPattern) -> None:
    for name in ("topology", "delta_x", "delta_y"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.flags.c_contiguous == b.flags.c_contiguous, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.origin == expected.origin


def _forced(topology) -> SquishPattern:
    """A fixed pattern on ``topology`` (rows/columns weighted 3, 5, 7, ...)."""
    topology = np.asarray(topology, dtype=np.uint8)
    rows, cols = topology.shape
    return SquishPattern(
        topology, 3 + 2 * np.arange(cols), 3 + 2 * np.arange(rows), origin=(3, -4)
    )


class TestCanonicalizeKernel:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(squish_patterns())
    @example(_forced([[0, 1, 1, 0, 0, 1, 1]]))          # 1 x N
    @example(_forced([[1], [1], [0], [1], [1], [1]]))   # N x 1
    @example(_forced([[1]]))                            # 1 x 1
    @example(_forced(np.ones((5, 4))))                  # all equal
    @example(_forced([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]]))  # repeats
    def test_matches_reference_loop(self, pattern):
        canonical = canonicalize(pattern)
        _assert_same_pattern(canonical, reference_canonicalize(pattern))
        # Idempotent, and shares no memory with its input.
        _assert_same_pattern(canonicalize(canonical), canonical)
        assert not np.shares_memory(canonical.topology, pattern.topology)
        # Same physical layout: re-squished from the decoded layouts, both
        # reduce (under the reference loop) to the same minimal form.
        before, after = pattern.to_layout(), canonical.to_layout()
        assert after.window == before.window
        assert after.total_area == before.total_area
        _assert_same_pattern(
            reference_canonicalize(squish(after)), reference_canonicalize(squish(before))
        )
