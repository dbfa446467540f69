import numpy as np
import pytest

from hoicascade.errors import DataError, ShapeError
from hoicascade.features import (
    assemble_visual,
    cooccurrence_prior,
    cross_stage_fuse,
    efra_attend,
    efra_attend_backward,
    efra_enhance,
    face_region,
    geometric_feature,
    ihsm_enhance,
)
from hoicascade.geometry import Box
from hoicascade.interaction import CascadeModel
from hoicascade.gradcheck import box_indicators
from hoicascade.numerics import ConvPoolEncoder, FCLayer, finite_diff_check, sigmoid


# ---------------------------------------------------------------- oracles

def attention_oracle(h_grid):
    """Triple-loop evaluation of the similarity attention and context sum."""
    c, gh, gw = h_grid.shape
    p = gh * gw
    vecs = [h_grid[:, i // gw, i % gw] for i in range(p)]
    attn = np.zeros((p, p))
    for i in range(p):
        z = 0.0
        for j in range(p):
            z += np.exp(float(np.dot(vecs[i], vecs[j])))
        for j in range(p):
            attn[i, j] = np.exp(float(np.dot(vecs[i], vecs[j]))) / z
    out = np.zeros_like(h_grid)
    for i in range(p):
        ctx = np.zeros(c)
        for j in range(p):
            ctx += attn[i, j] * vecs[j]
        out[:, i // gw, i % gw] = vecs[i] + ctx
    return out, attn


def count_oracle(triplets, n_classes, n_verbs):
    table = {}
    for cls, verb in triplets:
        table[(cls, verb)] = table.get((cls, verb), 0) + 1
    counts = np.zeros((n_classes, n_verbs))
    for (cls, verb), n in table.items():
        counts[cls, verb] = n
    return counts


# ----------------------------------------------------------- cooccurrence

class TestCooccurrence:
    def test_single_triplet_one_hot(self):
        prior = cooccurrence_prior([(2, 5)], 5, 6)
        row = prior[2]
        expected = np.zeros(6)
        expected[5] = 1.0
        np.testing.assert_array_equal(row, expected)

    def test_two_triplets_split(self):
        prior = cooccurrence_prior([(1, 1), (1, 3)], 4, 6)
        row = prior[1]
        np.testing.assert_allclose(row, [0, 0.5, 0, 0.5, 0, 0])

    def test_counting_matches_hash_oracle(self):
        rng = np.random.default_rng(17)
        triplets = [(int(rng.integers(0, 5)), int(rng.integers(0, 6))) for _ in range(300)]
        counts = count_oracle(triplets, 5, 6)
        assert counts.sum(axis=1).all()
        np.testing.assert_array_equal(cooccurrence_prior(triplets, 5, 6),
                                      counts / counts.sum(axis=1, keepdims=True))

    def test_empty_annotations_error(self):
        with pytest.raises(DataError):
            cooccurrence_prior([], 5, 6)

    def test_unseen_class_uniform(self):
        prior = cooccurrence_prior([(0, 0)], 3, 4)
        assert prior.shape == (3, 4)
        np.testing.assert_allclose(prior[1], np.full(4, 0.25))
        np.testing.assert_allclose(prior[2], np.full(4, 0.25))

    def test_rows_sum_to_one_tightly(self):
        rng = np.random.default_rng(19)
        triplets = [(int(rng.integers(0, 4)), int(rng.integers(0, 7))) for _ in range(100)]
        prior = cooccurrence_prior(triplets, 6, 7)
        np.testing.assert_allclose(prior.sum(axis=1), 1.0, atol=1e-9)

    def test_save_load_roundtrip(self, tmp_path):
        model = CascadeModel(n_classes=3, n_verbs=4, channels=1)
        model.cooccurrence = cooccurrence_prior([(0, 1), (2, 3), (2, 3), (0, 2), (0, 2)], 3, 4)
        model.save(tmp_path)
        back = CascadeModel.load(tmp_path).cooccurrence
        assert back.shape == (3, 4) and back.dtype == np.float64
        np.testing.assert_allclose(back, model.cooccurrence, rtol=0, atol=1e-15)


# ------------------------------------------------------- geometric feature

class TestGeometricFeature:
    def test_zero_map_zero_bias(self):
        enc = ConvPoolEncoder(2, (64, 64), rng=np.random.default_rng(0))
        for layer in (enc.conv1, enc.conv2, enc.fc):
            layer.b.value[...] = 0.0
        empty = np.zeros((1, 2, 64))
        np.testing.assert_array_equal(geometric_feature(empty, empty, enc), np.zeros((1, 256)))

    def test_output_length_256(self):
        enc = ConvPoolEncoder(2, (64, 64), rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        y = geometric_feature(*(box_indicators(rng, (1, 2), 64) for _ in range(2)), enc)
        assert y.shape == (1, 256)

    def test_channel_swap_changes_output(self):
        enc = ConvPoolEncoder(2, (64, 64), rng=np.random.default_rng(3))
        # the human on the top half rows, the object on the bottom half
        rows, cols = np.zeros((1, 2, 64)), np.ones((1, 2, 64))
        rows[0, 0, :32] = 1.0
        rows[0, 1, 32:] = 1.0
        a = geometric_feature(rows, cols, enc)
        b = geometric_feature(rows[:, ::-1].copy(), cols, enc)
        assert not np.allclose(a, b)


# ------------------------------------------------------------ face region

class TestFaceRegion:
    def test_heuristic_hand_case(self):
        assert face_region(Box(0, 0, 100, 200)) == Box(25, 0, 75, 60)

    def test_heuristic_always_inside(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            x1, y1 = rng.uniform(0, 50, 2)
            human = Box(x1, y1, x1 + rng.uniform(5, 40), y1 + rng.uniform(5, 80))
            fr = face_region(human)
            assert fr.x1 >= human.x1 and fr.x2 <= human.x2
            assert fr.y1 >= human.y1 and fr.y2 <= human.y2


# ------------------------------------------------------------------- IHSM

class TestIhsm:
    def test_single_pixel(self):
        h = np.array([[[2.0]], [[-1.0]]])
        out, attn = ihsm_enhance(h)
        np.testing.assert_array_equal(attn, [[1.0]])
        np.testing.assert_allclose(out, 2 * h)

    def test_identical_pixels_uniform_attention(self):
        h = np.tile(np.array([0.5, -0.25])[:, None, None], (1, 2, 3))
        out, attn = ihsm_enhance(h)
        np.testing.assert_allclose(attn, np.full((6, 6), 1 / 6))
        np.testing.assert_allclose(out, 2 * h)

    def test_random_vs_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            h = rng.normal(scale=0.7, size=(3, 2, 2))
            out, attn = ihsm_enhance(h)
            ref_out, ref_attn = attention_oracle(h)
            np.testing.assert_allclose(attn, ref_attn, atol=1e-12)
            np.testing.assert_allclose(out, ref_out, atol=1e-12)

    def test_rows_sum_to_one_and_convex_hull(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            h = rng.normal(size=(4, 3, 3))
            out, attn = ihsm_enhance(h)
            np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(attn >= 0.0)
            ctx = out - h
            flat = h.reshape(4, -1)
            lo = flat.min(axis=1)[:, None, None] - 1e-9
            hi = flat.max(axis=1)[:, None, None] + 1e-9
            assert np.all(ctx >= lo) and np.all(ctx <= hi)


# ------------------------------------------------------------------- EFRA

class TestEfra:
    def _layers(self, seed=0, c=2, hw=(3, 3)):
        rng = np.random.default_rng(seed)
        return tuple(FCLayer(2 * c * hw[0] * hw[1], 1, rng) for _ in range(2))

    def test_zero_weights_give_half(self):
        face, noface = self._layers()
        for layer in (face, noface):
            for _, p in layer.params("s"):
                p.value[...] = 0.0
        rng = np.random.default_rng(1)
        f, fb, o = (rng.normal(size=(1, 2, 3, 3)) for _ in range(3))
        alpha, alpha_bar = efra_attend(f, fb, o, face, noface)
        assert alpha[0] == 0.5 and alpha_bar[0] == 0.5

    def test_scores_in_unit_interval(self):
        face, noface = self._layers(7)
        rng = np.random.default_rng(2)
        for _ in range(20):
            f, fb, o = (rng.normal(scale=3.0, size=(1, 2, 3, 3)) for _ in range(3))
            alpha, alpha_bar = efra_attend(f, fb, o, face, noface)
            assert 0.0 < alpha[0] < 1.0 and 0.0 < alpha_bar[0] < 1.0

    def test_matches_direct_matmul_sigmoid_oracle(self):
        face, noface = self._layers(11)
        rng = np.random.default_rng(3)
        f, fb, o = (rng.normal(size=(1, 2, 3, 3)) for _ in range(3))
        alpha, _ = efra_attend(f, fb, o, face, noface)
        x = np.concatenate([f.ravel(), o.ravel()])
        z = face.w.value @ x + face.b.value
        np.testing.assert_allclose(alpha[0], sigmoid(z)[0], atol=1e-12)

    def test_shape_mismatch(self):
        face, noface = self._layers()
        with pytest.raises(ShapeError):
            efra_attend(np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 2, 2)),
                        face, noface)

    def test_enhance_identity_and_double(self):
        rng = np.random.default_rng(4)
        o = rng.normal(size=(2, 3, 3))
        f = rng.normal(size=(2, 3, 3))
        np.testing.assert_array_equal(efra_enhance(o, f, f, 0.0, 0.0), o)
        np.testing.assert_allclose(efra_enhance(o, o, f, 1.0, 0.0), 2 * o)

    def test_enhance_vs_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        o, f, fb = (rng.normal(size=(2, 2, 2)) for _ in range(3))
        a, ab = 0.3, 0.8
        got = efra_enhance(o, f, fb, a, ab)
        for idx in np.ndindex(*o.shape):
            assert abs(got[idx] - (o[idx] + a * f[idx] + ab * fb[idx])) < 1e-12

    def test_attend_gradients(self):
        face, noface = self._layers(13, c=2, hw=(2, 2))
        rng = np.random.default_rng(6)
        f, fb, o = (rng.normal(size=(1, 2, 2, 2)) for _ in range(3))
        blocks = dict(face.params("face") + noface.params("noface"))

        def run():
            alpha, alpha_bar = efra_attend(f, fb, o, face, noface)
            efra_attend_backward(np.ones(1), np.ones(1), alpha, alpha_bar, face, noface)
            return float(alpha[0] + alpha_bar[0])

        report = finite_diff_check(run, blocks, tol=1e-4)
        assert report.passed, str(report)


# ------------------------------------------------- visual assembly, fusion

class TestAssembleVisual:
    def test_constant_channels(self):
        h = np.full((1, 2, 2), 1.0)
        o = np.full((1, 2, 2), 2.0)
        u = np.full((1, 2, 2), 3.0)
        v = assemble_visual(h, o, u)
        np.testing.assert_array_equal(v[0], h[0])
        np.testing.assert_array_equal(v[1], o[0])
        np.testing.assert_array_equal(v[2], u[0])

    def test_channel_count(self):
        v = assemble_visual(np.zeros((4, 7, 7)), np.zeros((4, 7, 7)), np.zeros((4, 7, 7)))
        assert v.shape == (12, 7, 7)

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            assemble_visual(np.zeros((2, 7, 7)), np.zeros((3, 7, 7)), np.zeros((2, 7, 7)))


class TestCrossStageFuse:
    def test_prev_equals_current_is_doubling(self):
        rng = np.random.default_rng(9)
        layer = FCLayer(3 * 2 * 4 * 4, 5, rng=rng)
        x = rng.normal(size=(1, 6, 4, 4))
        fused = cross_stage_fuse(x, x, layer)
        direct = layer.forward((2 * x).reshape(1, -1))
        np.testing.assert_allclose(fused, direct, atol=1e-12)

    def test_one_row_of_map_outputs_per_pair(self):
        rng = np.random.default_rng(10)
        layer = FCLayer(6 * 4 * 4, 1 + 4, rng=rng)
        fused = cross_stage_fuse(np.zeros((3, 6, 4, 4)), np.zeros((3, 6, 4, 4)), layer)
        assert fused.shape == (3, 5)

    def test_random_vs_matmul_oracle(self):
        rng = np.random.default_rng(11)
        layer = FCLayer(8, 4, rng=rng)
        layer.b.value[...] = rng.normal(size=4)
        x = rng.normal(size=(1, 8))
        prev = rng.normal(size=(1, 8))
        got = cross_stage_fuse(x, prev, layer)
        total = (x + prev)[0]
        ref = np.array([b + sum(w * v for w, v in zip(row, total))
                        for row, b in zip(layer.w.value, layer.b.value)])
        np.testing.assert_allclose(got, ref[None], atol=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(12)
        layer = FCLayer(8, 4, rng=rng)
        with pytest.raises(ShapeError):
            cross_stage_fuse(np.zeros((1, 8)), np.zeros((1, 9)), layer)


# ------------------------------------------------- batched inputs only

def _fc_backward_of_one_row(dy):
    fc = FCLayer(3, 2)
    fc.forward(np.zeros((1, 3)))
    fc.backward(dy)


UNBATCHED_CALLS = {
    "FCLayer.forward": lambda: FCLayer(3, 2).forward(np.zeros(3)),
    "FCLayer.backward": lambda: _fc_backward_of_one_row(np.zeros(2)),
    "ConvPoolEncoder.forward": lambda: ConvPoolEncoder(2, (8, 8)).forward(np.zeros((2, 8)),
                                                                          np.zeros((2, 8))),
    "efra_attend": lambda: efra_attend(*[np.zeros((2, 3, 3))] * 3,
                                       *[FCLayer(36, 1)] * 2),
    "cross_stage_fuse-tensor": lambda: cross_stage_fuse(
        np.zeros((6, 4, 4)), np.zeros((6, 4, 4)), FCLayer(96, 5)),
    "cross_stage_fuse-vector": lambda: cross_stage_fuse(
        np.zeros(96), np.zeros(96), FCLayer(96, 5)),
}


@pytest.mark.parametrize("call", sorted(UNBATCHED_CALLS))
def test_unbatched_input_raises_shape_error(call):
    """Layers take (B, ...) batches only; a batch of one is the single case."""
    with pytest.raises(ShapeError):
        UNBATCHED_CALLS[call]()
