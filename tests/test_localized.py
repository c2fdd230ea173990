import json
from types import SimpleNamespace

import numpy as np
import pytest

from spectral_denoise import (DimensionMismatchError, Partition, WeightOperator,
                              localized_denoise, make_equispaced_partition,
                              spectral_denoise, spectral_fit, svs_shrink)
from spectral_denoise import denoise, geometry
from spectral_denoise.io import MatrixFileError
from spectral_denoise.simlab import (gen_signal, two_block_vectors,
                                     weighted_loss)


class TestPartition:
    def test_even_split(self):
        part = make_equispaced_partition(10, 2)
        assert [b.tolist() for b in part.blocks] == [list(range(5)), list(range(5, 10))]

    def test_remainder_goes_to_early_blocks(self):
        part = make_equispaced_partition(10, 3)
        assert [len(b) for b in part.blocks] == [4, 3, 3]

    def test_singletons(self):
        part = make_equispaced_partition(5, 5)
        assert len(part) == 5
        assert all(len(b) == 1 for b in part.blocks)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            make_equispaced_partition(4, 5)
        with pytest.raises(ValueError):
            make_equispaced_partition(4, 0)

    # Sizes are counts: a float or a boolean is rejected, not truncated to an int.
    @pytest.mark.parametrize("dim, num_blocks, name", [
        (5.7, 2, "dim"), (True, 1, "dim"), (6, 2.0, "num_blocks"), (5, True, "num_blocks"),
    ], ids=["dim-float", "dim-bool", "blocks-float", "blocks-bool"])
    def test_non_integer_size_rejected(self, dim, num_blocks, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make_equispaced_partition(dim, num_blocks)

    # A partition argument must be a ``Partition`` of its side's width; the
    # check is ``geometry.as_partition``, whatever the entry point.
    @pytest.mark.parametrize("call, error, match", [
        (lambda Y: spectral_fit(Y).localized(None, None), ValueError,
         "row partition must be a Partition, got NoneType"),
        (lambda Y: localized_denoise(Y, 3, 4), ValueError,
         "row partition must be a Partition, got int"),
        (lambda Y: localized_denoise(Y, make_equispaced_partition(20, 2), [list(range(30))]),
         ValueError, "column partition must be a Partition, got list"),
        (lambda Y: localized_denoise(Y, SimpleNamespace(dim=20, blocks=(np.arange(20),)),
                                     make_equispaced_partition(30, 2)),
         ValueError, "row partition must be a Partition, got SimpleNamespace"),
        (lambda Y: geometry.as_partition(make_equispaced_partition(29, 2), 30, "column"),
         DimensionMismatchError, "column partition covers 29 columns, Y has 30"),
        (lambda Y: Partition.from_lists(6, None), ValueError, "must be a sequence, got None"),
        (lambda Y: Partition.from_lists(6, 5), ValueError, "must be a sequence, got 5"),
    ], ids=["fit-none", "localized-int", "localized-list", "localized-duck-typed",
            "as-partition-width", "from-lists-none", "from-lists-int"])
    def test_partition_arguments(self, call, error, match):
        Y = np.random.default_rng(0).standard_normal((20, 30))
        with pytest.raises(error, match=match) as info:
            call(Y)
        assert info.type is error

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(4, (np.array([0, 1]), np.array([1, 2, 3])))  # overlap
        with pytest.raises(ValueError):
            Partition(4, (np.array([0, 1]),))  # not exhaustive
        with pytest.raises(ValueError):
            Partition(4, (np.array([0, 1, 2, 3]), np.array([], dtype=int)))

    def test_projections_sum_to_identity(self):
        part = Partition.from_lists(7, [[0, 3, 5], [1, 2], [4, 6]])
        total = np.zeros(7)
        for b in part.blocks:
            total[b] += 1
        assert np.all(total == 1)

    def test_json_round_trip(self, tmp_path):
        part = Partition.from_lists(6, [[5, 0], [1, 2], [3, 4]])
        path = tmp_path / "p.json"
        path.write_text(json.dumps(part.to_lists()))
        back = Partition.from_json(path, 6)
        assert [b.tolist() for b in back.blocks] == part.to_lists()
        path.write_text("[[true], [false]]")
        with pytest.raises(MatrixFileError):
            Partition.from_json(path, 2)

    def test_invalid_json_partition_names_file(self, tmp_path):
        path = tmp_path / "overlap.json"
        path.write_text("[[0, 1], [1, 2, 3]]")
        with pytest.raises(MatrixFileError, match="overlap.json.*disjoint"):
            Partition.from_json(path, 4)


def test_frobenius_decomposition_identity():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((30, 40))
    idx = rng.permutation(30)
    rows = Partition.from_lists(30, [sorted(idx[:11].tolist()), sorted(idx[11:].tolist())])
    cols = make_equispaced_partition(40, 3)
    total = 0.0
    for rb in rows.blocks:
        for cb in cols.blocks:
            total += np.sum(M[np.ix_(rb, cb)] ** 2)
    assert total == pytest.approx(np.sum(M**2), rel=1e-12)


def _spiked_instance(rng, p, n, kind="generic"):
    if kind == "generic":
        sig = gen_signal("random_orthonormal", p, n, t=(4.0, 2.5), rng=rng)
    elif kind == "two-block":
        u_const, u_flip = two_block_vectors(p)
        v_const, v_flip = two_block_vectors(n)
        U = np.column_stack([u_flip, u_const])
        V = np.column_stack([v_flip, v_const])
        sig = gen_signal("custom", p, n, t=(4.0, 2.5), U=U, V=V)
    else:
        sig = gen_signal("block_image", p, n, t=(5.0, 4.0, 3.2, 2.7, 2.3))
    Y = sig.X + rng.standard_normal((p, n)) / np.sqrt(n)
    return sig.X, Y


class TestLocalizedDenoise:
    def test_single_block_equals_shrinkage(self):
        rng = np.random.default_rng(12)
        X, Y = _spiked_instance(rng, 120, 160)
        loc = localized_denoise(Y, make_equispaced_partition(120, 1),
                                make_equispaced_partition(160, 1))
        shr = svs_shrink(Y)
        assert (np.linalg.norm(loc.estimate - shr.estimate)
                <= 1e-8 * np.linalg.norm(shr.estimate))
        assert loc.amse_estimate == pytest.approx(shr.amse_estimate, rel=1e-8)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((20, 30))
        with pytest.raises(DimensionMismatchError):
            localized_denoise(Y, make_equispaced_partition(19, 2),
                              make_equispaced_partition(30, 2))

    def test_rank_zero_gives_zero(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((80, 90)) / 90.0
        loc = localized_denoise(Y, make_equispaced_partition(80, 2),
                                make_equispaced_partition(90, 2))
        assert np.all(loc.estimate == 0) and loc.amse_estimate == 0.0

    def test_tile_amse_clamp_is_recorded(self):
        # 500x1000 rank 3: at 100x100 blocks some tiles' raw plug-in error
        # falls below 0 by round-off and is clamped; at 4x4 none does.
        p, n, r = 500, 1000, 3
        rng = np.random.default_rng(3)
        U, _ = np.linalg.qr(rng.standard_normal((p, r)))
        V, _ = np.linalg.qr(rng.standard_normal((n, r)))
        t = (p / n) ** 0.25 + 1.5 + np.arange(r, dtype=float)[::-1]
        Y = (U * t) @ V.T + rng.standard_normal((p, n)) / np.sqrt(n)
        fit = spectral_fit(Y, margin=0.05)
        assert fit.spikes.rank == r
        fine = fit.localized(make_equispaced_partition(p, 100),
                             make_equispaced_partition(n, 100))
        coarse = fit.localized(make_equispaced_partition(p, 4),
                               make_equispaced_partition(n, 4))
        assert fine.amse_clamped is True and np.any(fine.tile_amse == 0)
        assert coarse.amse_clamped is False and np.all(coarse.tile_amse > 0)

    def test_tiles_equal_per_pair_denoisers(self):
        rng = np.random.default_rng(21)
        X, Y = _spiked_instance(rng, 150, 180, kind="block_image")
        # Uneven, non-contiguous blocks: scattered indices of sizes 17/90/43
        # and 5/60/115.
        perm_r, perm_c = rng.permutation(150), rng.permutation(180)
        scattered = (
            Partition.from_lists(150, np.split(perm_r, [17, 107])),
            Partition.from_lists(180, np.split(perm_c, [5, 65])))
        even = (make_equispaced_partition(150, 3), make_equispaced_partition(180, 2))
        singletons = (make_equispaced_partition(150, 150), make_equispaced_partition(180, 2))
        # Row blocks of 2-3 rows, fewer than the rank 5: their Grams are
        # singular, and the stacked and per-pair sums round the eigenvalues
        # near the pseudoinverse cutoff differently, so these tiles are held
        # to 1e-8 of the largest entry instead of 1e-12.
        thin = (make_equispaced_partition(150, 60), make_equispaced_partition(180, 2))
        for (rows, cols), thin_rel in ((even, None), (scattered, None),
                                       (singletons, None), (thin, 1e-8)):
            loc = localized_denoise(Y, rows, cols)
            if thin_rel is None:
                tile_tol = dict(atol=1e-12)
                amse_tol = dict(rel=1e-12, abs=1e-12)
            else:
                tile_tol = dict(rtol=0, atol=thin_rel * np.abs(loc.estimate).max())
                amse_tol = dict(rel=0, abs=thin_rel * loc.tile_amse.max())
            clipped = set()
            for i, rb in enumerate(rows.blocks):
                for j, cb in enumerate(cols.blocks):
                    om = WeightOperator.from_indices(rb, 150)
                    pi = WeightOperator.from_indices(cb, 180)
                    pair = spectral_denoise(Y, om, pi, rank=loc.rank)
                    tile = loc.estimate[np.ix_(rb, cb)]
                    ref = pair.estimate[np.ix_(rb, cb)]
                    assert np.allclose(tile, ref, **tile_tol)
                    assert loc.tile_amse[i, j] == pytest.approx(
                        pair.amse_estimate, **amse_tol)
                    clipped.update(pair.clipped_components)
            assert loc.clipped_components == tuple(sorted(clipped))

    def test_one_pseudoinverse_per_side(self, monkeypatch):
        # The block Grams of a partition are solved as one stack per side,
        # so the number of solves does not grow with the partition.
        rng = np.random.default_rng(25)
        X, Y = _spiked_instance(rng, 100, 120)
        fit = spectral_fit(Y)
        sym_pinv = denoise._sym_pinv
        calls = []

        def counted(m):
            calls.append(m.shape)
            return sym_pinv(m)

        monkeypatch.setattr(denoise, "_sym_pinv", counted)
        for nr, nc in ((1, 1), (4, 5), (50, 60)):
            calls.clear()
            fit.localized(make_equispaced_partition(100, nr),
                          make_equispaced_partition(120, nc))
            assert len(calls) == 2

        # A stack, singular members included, is inverted matrix by matrix.
        W = rng.standard_normal((8, 4, 3))
        W[::2, 2:] = 0.0
        grams = np.swapaxes(W, 1, 2) @ W
        stacked = sym_pinv(grams)
        assert all(np.array_equal(stacked[b], sym_pinv(grams[b])) for b in range(8))

    def test_amse_is_sum_of_tiles(self):
        rng = np.random.default_rng(23)
        X, Y = _spiked_instance(rng, 100, 120, kind="two-block")
        loc = localized_denoise(Y, make_equispaced_partition(100, 2),
                                make_equispaced_partition(120, 3))
        assert loc.amse_estimate == pytest.approx(float(loc.tile_amse.sum()), rel=1e-12)


@pytest.mark.slow
def test_dominance_over_shrinkage():
    # Localized loss never exceeds the shrinkage loss beyond finite-sample
    # slack, across generic and heterogeneous signals.
    rng = np.random.default_rng(31)
    p, n = 400, 800
    rows = make_equispaced_partition(p, 4)
    cols = make_equispaced_partition(n, 4)
    kinds = ["generic", "two-block", "block_image", "generic"]
    for i in range(20):
        X, Y = _spiked_instance(rng, p, n, kind=kinds[i % 4])
        loc = localized_denoise(Y, rows, cols)
        shr = svs_shrink(Y)
        slack = 0.02 * np.sum(X**2)
        assert (weighted_loss(loc.estimate, X)
                <= weighted_loss(shr.estimate, X) + slack)


@pytest.mark.slow
def test_strict_gain_for_heterogeneous_signal():
    # When the signal's singular vectors concentrate on blocks the partition
    # can see, localized denoising is strictly better: the mean loss gap
    # exceeds 3x its standard error over 50 replicates.
    rng = np.random.default_rng(37)
    p, n = 400, 400
    sig = gen_signal("block_image", p, n, t=(4.0, 3.2, 2.6))
    rows = make_equispaced_partition(p, 3)
    cols = make_equispaced_partition(n, 3)
    gaps = []
    for _ in range(50):
        Y = sig.X + rng.standard_normal((p, n)) / np.sqrt(n)
        loc = localized_denoise(Y, rows, cols)
        shr = svs_shrink(Y)
        gaps.append(weighted_loss(shr.estimate, sig.X)
                    - weighted_loss(loc.estimate, sig.X))
    gaps = np.array(gaps)
    se = gaps.std(ddof=1) / np.sqrt(len(gaps))
    assert gaps.mean() > 3 * se


@pytest.mark.slow
def test_strict_gain_for_checkerboard_with_cell_aligned_blocks():
    # One block per cell: the two components restrict to parallel
    # directions inside every tile and the per-tile solver pools them.
    # The mean loss gap over shrinkage clears 3x its standard error.
    rng = np.random.default_rng(88)
    p = n = 400
    sig = gen_signal("checkerboard", p, n, f=0.8, cells=4)
    sigma = 1 / (10 * np.sqrt(n))
    scale = 1 / (sigma * np.sqrt(n))
    rows = make_equispaced_partition(p, 4)
    cols = make_equispaced_partition(n, 4)
    gaps = []
    for _ in range(50):
        Y = (sig.X + sigma * rng.standard_normal((p, n))) * scale
        loc = localized_denoise(Y, rows, cols).estimate / scale
        shr = svs_shrink(Y).estimate / scale
        gaps.append(weighted_loss(shr, sig.X) - weighted_loss(loc, sig.X))
    gaps = np.array(gaps)
    se = gaps.std(ddof=1) / np.sqrt(len(gaps))
    assert gaps.mean() > 3 * se


def test_two_cells_per_block_gains_nothing():
    # Blocks spanning a +/- cell pair cancel the cross inner products, the
    # tile geometry turns generic and weighted-orthogonal, and localized
    # denoising collapses to shrinkage.
    rng = np.random.default_rng(41)
    p = n = 400
    sig = gen_signal("checkerboard", p, n, f=0.8, cells=8)
    sigma = 1 / (10 * np.sqrt(n))
    scale = 1 / (sigma * np.sqrt(n))
    rows = make_equispaced_partition(p, 4)
    cols = make_equispaced_partition(n, 4)
    rel = []
    for _ in range(5):
        Y = (sig.X + sigma * rng.standard_normal((p, n))) * scale
        loc = localized_denoise(Y, rows, cols)
        shr = svs_shrink(Y)
        rel.append(abs(weighted_loss(loc.estimate, shr.estimate)
                       / weighted_loss(shr.estimate, np.zeros_like(Y))))
    assert np.mean(rel) < 0.01
