import types

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from ringtrain.collectives import (CommGroup, pack, ring_allreduce, ring_steps,
                                   tree_allreduce, tree_steps, unpack)
from ringtrain.engine import TrainingConfig, Worker
from ringtrain.errors import LayoutError
from ringtrain.profiles import build_profile, segment_size
from ringtrain.transport.net import NetProfile
from ringtrain.transport.sim import SimCluster

NET = NetProfile(base_bandwidth=940.0, latency=1e-4, seed=10)


def sim_collective(k, make_buf, fn):
    """Run fn(group, buf) on k simulated ranks; returns per-rank results."""
    return SimCluster(k, NET).run(lambda ep: fn(CommGroup(ep), make_buf(ep.rank)))


class TestPackUnpack:
    def test_two_chunk_layout(self):
        grads = [np.array([1, 2, 3], np.float32), np.array([4, 5], np.float32)]
        assert pack(grads).tolist() == [1, 2, 3, 4, 5]

    def test_single_chunk_identity(self):
        chunk = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert (pack([chunk]) == chunk.reshape(-1)).all()

    def test_googlenet_roundtrip_bitwise(self):
        profile = build_profile("GoogleNet")
        assert profile.num_chunks == 116
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=n).astype(np.float32) for n in profile.chunk_elems]
        data = pack(grads)
        assert data.size == sum(profile.chunk_elems)
        back = unpack(data, [g.shape for g in grads])
        assert len(back) == 116
        for a, b in zip(grads, back):
            assert (a == b).all()

    def test_corrupt_layout_rejected(self):
        # shapes that cover more, or fewer, elements than the buffer holds
        with pytest.raises(LayoutError):
            unpack(np.zeros(5, np.float32), [(3,), (3,)])
        with pytest.raises(LayoutError):
            unpack(np.zeros(5, np.float32), [(3,)])

    def test_pack_rejects_empty(self):
        with pytest.raises(ValueError):
            pack([])

    @given(st.lists(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
                    .flatmap(lambda shape: hnp.arrays(np.float32, shape)),
                    min_size=1, max_size=6))
    def test_roundtrip_is_bytewise_and_layout_must_partition(self, grads):
        shapes = [g.shape for g in grads]
        data = pack(grads)
        back = unpack(data, shapes)
        assert [b.shape for b in back] == shapes
        assert [b.tobytes() for b in back] == [g.tobytes() for g in grads]
        # a layout one element too long, or one too short, does not partition the data
        with pytest.raises(LayoutError):
            unpack(data, shapes + [(1,)])
        sizes = [g.size for g in grads]
        if any(sizes):
            i = max(j for j, n in enumerate(sizes) if n)
            with pytest.raises(LayoutError):
                unpack(data, shapes[:i] + [(sizes[i] - 1,)] + shapes[i + 1:])


def split(n, k):
    return [segment_size(n, k, s) for s in range(k)]


class TestSegments:
    @pytest.mark.parametrize("n, k, sizes", [
        (13, 5, [3, 3, 3, 2, 2]),
        (10, 4, [3, 3, 2, 2]),
        (7, 7, [1] * 7),
        (3, 5, [1, 1, 1, 0, 0]),   # zero-length segments when n < k
    ], ids=["13-5", "10-4", "7-7", "3-5"])
    def test_remainder_goes_lowest_first(self, n, k, sizes):
        assert split(n, k) == sizes

    def test_parts_cover_the_whole(self):
        assert sum(split(123456, 932)) == 123456

    def test_an_index_array_gives_each_part(self):
        assert segment_size(13, 5, np.arange(5)).tolist() == split(13, 5)


def test_ring_steps_form_one_consistent_schedule():
    for k in range(1, 65):
        steps = [list(ring_steps(r, k)) for r in range(k)]
        for r in range(k):
            mine, right = steps[r], steps[(r + 1) % k]
            # what rank r sends at step i is what its right neighbour receives
            assert [send for _, _, send, _, _, _ in mine] == [recv for *_, recv, _ in right]
            assert [red for *_, red in mine] == [True] * (k - 1) + [False] * (k - 1)
            scatter = [recv for *_, recv, red in mine if red]
            gather = [recv for *_, recv, red in mine if not red]
            assert sorted(scatter) == [s for s in range(k) if s != r]
            # after scatter-reduce rank r owns (r+1) mod K and gathers the rest
            assert sorted(gather) == [s for s in range(k) if s != (r + 1) % k]


def test_tree_steps_form_one_consistent_schedule():
    for k in range(1, 130):
        levels = (k - 1).bit_length()
        steps = {r: list(tree_steps(r, k)) for r in range(k)}
        sends = sorted((r, dst, tag) for r in range(k)
                       for tag, dst, _, src, _, _ in steps[r] if dst is not None)
        recvs = sorted((src, r, tag) for r in range(k)
                       for tag, dst, _, src, _, _ in steps[r] if src is not None)
        # every send meets exactly one receive with its tag, and no step does both
        assert sends == recvs and len(set(sends)) == len(sends) == 2 * (k - 1)
        assert all((dst is None) != (src is None) for r in range(k)
                   for _, dst, _, src, _, _ in steps[r])
        assert all(tag < 2 * levels for *_, tag in sends)
        # walking the rounds in tag order leaves every rank holding every contribution
        held = [{r} for r in range(k)]
        for tag in range(2 * levels):
            arrivals = [(r, held[src], reduce) for r in range(k)
                        for t, _, _, src, _, reduce in steps[r] if t == tag and src is not None]
            for r, incoming, reduce in arrivals:
                held[r] = held[r] | incoming if reduce else set(incoming)
        assert held == [set(range(k))] * k


@pytest.mark.parametrize("alg", [ring_allreduce, tree_allreduce])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_allreduce_equals_central_sum(alg, k):
    sizes = sorted({1, max(k - 1, 1), k, k + 1, 1000})
    for n in sizes:
        rng = np.random.default_rng(1000 * k + n)
        payloads = [rng.normal(size=n).astype(np.float32) for _ in range(k)]
        central = np.sum(np.stack(payloads).astype(np.float64), axis=0)

        def fn(group, buf):
            return alg(buf, group)

        results = sim_collective(k, lambda r: payloads[r].copy(), fn)
        # 1e-6 relative at the buffer scale; elementwise relative error is
        # meaningless where the true sum cancels to ~0
        scale = max(1.0, float(np.abs(central).max()))
        for out in results:
            assert float(np.abs(out - central).max()) <= 1e-6 * scale


def test_comm_group_rejects_rings_whose_tags_overflow_a_block():
    # stub endpoints: a real 2050-rank cluster would start 2050 threads
    with pytest.raises(ValueError, match="at most 2049, got 2050"):
        CommGroup(types.SimpleNamespace(rank=0, size=2050))
    assert CommGroup(types.SimpleNamespace(rank=0, size=2049)).size == 2049


@pytest.mark.parametrize("data", [np.ones(4, np.float64), np.ones((4, 2), np.float32)[:, 0]],
                         ids=["float64", "strided"])
@pytest.mark.parametrize("collective", [ring_allreduce, tree_allreduce], ids=["ring", "tree"])
def test_a_collective_sums_only_a_contiguous_float32_array(collective, data):
    # the stub endpoint cannot send: the array is refused before any message
    group = CommGroup(types.SimpleNamespace(rank=0, size=2))
    with pytest.raises(ValueError, match="C-contiguous float32 array"):
        collective(data, group)
    assert group.invocations == 0


def test_tree_matches_ring_cross_oracle():
    k, n = 6, 101
    rng = np.random.default_rng(7)
    payloads = [rng.normal(size=n).astype(np.float32) for _ in range(k)]

    def fn(group, buf):
        ring = ring_allreduce(buf, group)
        tree = tree_allreduce(payloads[group.rank].copy(), group)
        return ring, tree

    for ring, tree in sim_collective(k, lambda r: payloads[r].copy(), fn):
        np.testing.assert_allclose(tree, ring, rtol=1e-6, atol=1e-7)


class TestChunkwise:
    def test_single_chunk_matches_packed_path(self):
        k, n = 3, 50
        rng = np.random.default_rng(9)
        payloads = [rng.normal(size=n).astype(np.float32) for _ in range(k)]

        def fn(group, buf):
            chunked = ring_allreduce(payloads[group.rank].copy(), group)
            packed = ring_allreduce(pack([payloads[group.rank].copy()]), group)
            return chunked, unpack(packed, [(n,)])[0]

        for chunked, packed in sim_collective(k, lambda r: None, fn):
            assert (chunked == packed).all()

    def test_alexnet_profile_invocation_count(self):
        # a chunk-wise worker whose model has one layer per AlexNet chunk
        layers = len(build_profile("AlexNet").chunk_elems)
        cfg = TrainingConfig(global_batch=4, per_device_batch=2, workers=2, iterations=1,
                             aggregation="ring_chunkwise",
                             model_dims=[2] + [3] * (layers - 1) + [2])
        cluster = SimCluster(2, NET)
        workers = [Worker(cfg, ep) for ep in cluster.endpoints]

        def step(ep):
            workers[ep.rank].train_step(0)
            return workers[ep.rank].group.invocations

        assert cluster.run(step) == [layers, layers] == [16, 16]

    def test_three_rank_two_chunks_vs_central(self):
        k = 3
        rng = np.random.default_rng(11)
        chunk_sets = [[rng.normal(size=5).astype(np.float32),
                       rng.normal(size=(2, 4)).astype(np.float32)] for _ in range(k)]
        central = [np.sum([cs[i] for cs in chunk_sets], axis=0) for i in range(2)]

        def fn(group, buf):
            return [ring_allreduce(c.copy(), group) for c in chunk_sets[group.rank]]

        for chunks in sim_collective(k, lambda r: None, fn):
            for got, want in zip(chunks, central):
                np.testing.assert_allclose(got, want, rtol=1e-6)
                assert got.shape == want.shape
