"""Tests for nested dissection orderings (MLND and SND)."""

import hashlib

import numpy as np
import pytest

from repro.core.options import DEFAULT_OPTIONS
from repro.ordering import factor_stats, mlnd_ordering, snd_ordering
from repro.ordering.nested_dissection import nested_dissection_ordering
from tests.conftest import complete_graph, path_graph, random_graph, two_triangles


class TestMLND:
    def test_valid_permutation(self, grid16):
        mlnd_ordering(grid16, rng=np.random.default_rng(0)).verify()

    def test_method_tag(self, grid16):
        assert mlnd_ordering(grid16, rng=np.random.default_rng(0)).method == "mlnd"

    def test_small_graph_delegates_to_mmd(self):
        g = path_graph(10)  # below leaf_size
        o = mlnd_ordering(g, rng=np.random.default_rng(0))
        o.verify()
        assert factor_stats(g, o.perm).fill == 0

    def test_beats_natural_ordering_on_grid(self):
        from repro.matrices import grid2d

        g = grid2d(20, 20)
        nd = factor_stats(g, mlnd_ordering(g, rng=np.random.default_rng(1)).perm)
        nat = factor_stats(g, np.arange(g.nvtxs))
        assert nd.opcount < nat.opcount / 2

    def test_grid_opcount_near_theory(self):
        """Nested dissection of a √n×√n grid gives O(n^{3/2}) factor ops;
        sanity-check the constant is not absurd."""
        from repro.matrices import grid2d

        g = grid2d(24, 24)
        nd = factor_stats(g, mlnd_ordering(g, rng=np.random.default_rng(2)).perm)
        n = g.nvtxs
        assert nd.opcount < 60 * n ** 1.5

    def test_separator_numbered_last(self, grid16):
        """Top-level separator property: the highest-numbered vertices must
        form a separator of the rest."""
        from repro.graph import connected_components, extract_subgraph

        o = mlnd_ordering(grid16, rng=np.random.default_rng(3))
        # Remove the last-numbered block (the top separator is ~√n ≈ 16
        # vertices on a 16×16 grid; drop 2√n to be safely past it); the
        # remainder must split into ≥ 2 components (the dissection halves).
        n = grid16.nvtxs
        keep = o.perm[: n - 32]
        sub, _ = extract_subgraph(grid16, np.sort(keep))
        ncomp = int(connected_components(sub).max()) + 1
        assert ncomp >= 2

    def test_disconnected_graph(self):
        g = two_triangles()
        o = mlnd_ordering(g, rng=np.random.default_rng(0))
        o.verify()
        assert factor_stats(g, o.perm).fill == 0

    def test_clique_degenerate_split_falls_back(self):
        g = complete_graph(6)
        o = mlnd_ordering(
            g, DEFAULT_OPTIONS, np.random.default_rng(0), leaf_size=2
        )
        o.verify()

    def test_leaf_size_respected(self, grid16):
        big_leaf = mlnd_ordering(
            grid16, DEFAULT_OPTIONS, np.random.default_rng(4), leaf_size=300
        )
        # leaf_size ≥ n means pure MMD.
        from repro.ordering import mmd_ordering

        assert np.array_equal(big_leaf.perm, mmd_ordering(grid16).perm)

    def test_deep_recursion_no_stack_overflow(self):
        g = path_graph(3000)
        o = mlnd_ordering(g, DEFAULT_OPTIONS, np.random.default_rng(5), leaf_size=4)
        o.verify()

    def test_mesh_with_many_isolated_vertices(self):
        """A 30x30 grid scattered among 3,000 isolated vertices: the
        top node splits into 3,001 components in one pass, and the
        ordering is pinned (recorded with per-component ``flatnonzero``
        splitting)."""
        from repro.graph import from_edge_list
        from repro.matrices import grid2d

        mesh = grid2d(30, 30)
        n = mesh.nvtxs + 3000
        label = np.random.default_rng(5).permutation(n)
        src = mesh.edge_sources()
        keep = src < mesh.adjncy
        g = from_edge_list(
            n, np.column_stack([label[src[keep]], label[mesh.adjncy[keep]]])
        )
        o = mlnd_ordering(g, DEFAULT_OPTIONS, np.random.default_rng(1995))
        o.verify()
        digest = hashlib.sha256(
            np.asarray(o.perm, dtype=np.int64).tobytes()
        ).hexdigest()[:16]
        assert digest == "fd778be237beaf17"


class TestSND:
    def test_valid_permutation(self, grid16):
        snd_ordering(grid16, rng=np.random.default_rng(0)).verify()

    def test_method_tag(self, grid16):
        assert snd_ordering(grid16, rng=np.random.default_rng(0)).method == "snd"

    def test_quality_comparable_to_mlnd_on_grid(self, grid16):
        nd = factor_stats(
            grid16, mlnd_ordering(grid16, rng=np.random.default_rng(1)).perm
        )
        sd = factor_stats(
            grid16, snd_ordering(grid16, rng=np.random.default_rng(1)).perm
        )
        assert sd.opcount < 3 * nd.opcount


class TestGenericDriver:
    def test_custom_bisector(self, grid16):
        """The driver must accept any 0/1 bisector."""

        def half_split(sub, rng):
            where = np.zeros(sub.nvtxs, dtype=np.int8)
            where[sub.nvtxs // 2 :] = 1
            return where

        o = nested_dissection_ordering(
            grid16, half_split, np.random.default_rng(0), leaf_size=16
        )
        o.verify()

    def test_empty_graph(self):
        from repro.graph import from_edge_list

        o = nested_dissection_ordering(
            from_edge_list(0, []), lambda s, r: np.zeros(0), np.random.default_rng(0)
        )
        assert len(o) == 0
