import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoicascade.errors import DataError
from hoicascade.geometry import BitMask, Box
from hoicascade.metrics import (
    MapReport,
    TripletRecord,
    average_precision,
    format_report_table,
    map_rel,
    match_triplets,
    precision_envelope,
    recall_at_k,
    report_to_dict,
    sort_predictions,
)
from hoicascade.oracles import (
    OracleTriplet,
    oracle_average_precision,
    oracle_match,
    oracle_recall_at_k,
)


def trip(h, o, verb, score=0.0, index=0, masks=None):
    h_mask = o_mask = None
    if masks is not None:
        h_mask, o_mask = masks
    return TripletRecord(Box(*h), Box(*o), verb, score, index, h_mask, o_mask)


H1, O1 = (0, 0, 10, 20), (12, 2, 20, 10)
H2, O2 = (30, 30, 40, 50), (42, 32, 50, 40)
FAR = (60, 60, 70, 70)


class TestMatchTriplets:
    def test_exact_match_is_tp(self):
        gts = [trip(H1, O1, 2)]
        preds = [trip(H1, O1, 2, 0.9, 0)]
        assert match_triplets(preds, gts) == [True]

    def test_wrong_verb_is_fp(self):
        gts = [trip(H1, O1, 2)]
        preds = [trip(H1, O1, 1, 0.9, 0)]
        assert match_triplets(preds, gts) == [False]

    def test_double_prediction_higher_score_wins(self):
        gts = [trip(H1, O1, 2)]
        preds = sort_predictions([trip(H1, O1, 2, 0.5, 0), trip(H1, O1, 2, 0.9, 1)])
        flags = match_triplets(preds, gts)
        assert flags == [True, False]
        assert preds[0].score == 0.9

    def test_both_ious_required(self):
        gts = [trip(H1, O1, 2)]
        # human box good, object box far away
        preds = [trip(H1, FAR, 2, 0.9, 0)]
        assert match_triplets(preds, gts) == [False]

    def test_mask_mode(self):
        bits_a = np.zeros((8, 8), bool)
        bits_a[0:4, 0:4] = True
        bits_b = np.zeros((8, 8), bool)
        bits_b[4:8, 4:8] = True
        m_a, m_b = BitMask(bits_a), BitMask(bits_b)
        gts = [trip(H1, O1, 0, masks=(m_a, m_b))]
        good = [trip(H1, O1, 0, 0.9, 0, masks=(m_a, m_b))]
        bad = [trip(H1, O1, 0, 0.9, 0, masks=(m_b, m_a))]
        assert match_triplets(good, gts, mode="mask") == [True]
        assert match_triplets(bad, gts, mode="mask") == [False]
        with pytest.raises(DataError):
            match_triplets([trip(H1, O1, 0, 0.9, 0)], gts, mode="mask")

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            gts, preds, ogts, opreds = [], [], [], []
            for _ in range(rng.integers(1, 5)):
                x, y = rng.uniform(0, 20, 2)
                box_h = (x, y, x + rng.uniform(3, 8), y + rng.uniform(3, 8))
                x, y = rng.uniform(0, 20, 2)
                box_o = (x, y, x + rng.uniform(3, 8), y + rng.uniform(3, 8))
                verb = int(rng.integers(0, 3))
                gts.append(trip(box_h, box_o, verb))
                ogts.append(OracleTriplet(box_h, box_o, verb))
            for i in range(rng.integers(0, 8)):
                src = int(rng.integers(0, len(gts)))
                jitter = rng.uniform(-1.5, 1.5, 4)
                bh = tuple(np.array([gts[src].h_box.x1, gts[src].h_box.y1,
                                     gts[src].h_box.x2, gts[src].h_box.y2]) + jitter)
                bo = (ogts[src].o_box[0], ogts[src].o_box[1],
                      ogts[src].o_box[2], ogts[src].o_box[3])
                verb = int(rng.integers(0, 3))
                score = float(rng.uniform())
                preds.append(trip(bh, bo, verb, score, i))
                opreds.append(OracleTriplet(bh, bo, verb, score, i))
            main = match_triplets(sort_predictions(preds), gts, 0.5)
            ref, _ = oracle_match(opreds, ogts, 0.5)
            assert main == ref


class TestAveragePrecision:
    def test_envelope(self):
        assert precision_envelope([1.0, 0.5, 2 / 3, 0.5, 0.6]) == [1.0, 2 / 3, 2 / 3, 0.6, 0.6]

    def test_hand_computed_three_gt_five_pred(self):
        # TP, FP, TP, FP, TP by descending score; AP = (1 + 2/3 + 3/5) / 3
        flags = [(0.9, 0, True), (0.8, 1, False), (0.7, 2, True),
                 (0.6, 3, False), (0.5, 4, True)]
        ap = average_precision(flags, 3)
        np.testing.assert_allclose(ap, 34 / 45)
        np.testing.assert_allclose(oracle_average_precision(flags, 3), 34 / 45)

    def test_perfect_is_exactly_one(self):
        for g in (1, 3, 7, 49):
            flags = [(0.5, i, True) for i in range(g)]
            assert average_precision(flags, g) == 1.0

    def test_empty_is_exactly_zero(self):
        assert average_precision([], 4) == 0.0

    def test_added_tp_never_decreases_added_fp_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            total_gt = int(rng.integers(2, 7))
            flags = []
            tps = 0
            for i in range(n):
                tp = bool(rng.uniform() < 0.5) and tps < total_gt
                tps += int(tp)
                flags.append((float(rng.uniform(0.2, 1.0)), i, tp))
            base = average_precision(flags, total_gt)
            np.testing.assert_allclose(base, oracle_average_precision(flags, total_gt),
                                       atol=1e-12)
            if tps < total_gt:
                with_tp = flags + [(0.15, n, True)]
                better = average_precision(with_tp, total_gt)
                assert better >= base - 1e-12
            with_fp = flags + [(0.01, n + 1, False)]
            same = average_precision(with_fp, total_gt)
            assert same <= base + 1e-12


# small integer boxes near each other, so predictions hit, miss and tie
BOX = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 5), st.integers(1, 5)).map(
    lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3]))
TRIPLET = st.tuples(BOX, BOX, st.integers(0, 2))


class TestMetricProperties:
    @settings(max_examples=150)
    @given(gts=st.lists(TRIPLET, min_size=1, max_size=4),
           preds=st.lists(st.tuples(TRIPLET, st.sampled_from([0.2, 0.5, 0.9])), max_size=8),
           threshold=st.sampled_from([0.25, 0.5, 0.75]))
    def test_greedy_matching_agrees_with_oracle(self, gts, preds, threshold):
        gt_records = [trip(h, o, v) for h, o, v in gts]
        pred_records = [trip(h, o, v, score, i) for i, ((h, o, v), score) in enumerate(preds)]
        flags = match_triplets(sort_predictions(pred_records), gt_records, threshold)
        ref, _ = oracle_match([OracleTriplet(h, o, v, score, i)
                               for i, ((h, o, v), score) in enumerate(preds)],
                              [OracleTriplet(h, o, v) for h, o, v in gts], threshold)
        assert flags == ref
        # each ground truth matches at most once
        ordered = sort_predictions(pred_records)
        for verb in range(3):
            hits = sum(f for f, p in zip(flags, ordered) if p.verb == verb)
            assert hits <= sum(g.verb == verb for g in gt_records)

    @given(st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_envelope_is_non_increasing_upper_bound(self, precisions):
        env = precision_envelope(precisions)
        assert len(env) == len(precisions)
        assert all(e >= p for e, p in zip(env, precisions))
        assert all(a >= b for a, b in zip(env, env[1:]))

    @given(flags=st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), max_size=20),
           missed=st.integers(0, 5))
    def test_average_precision_lies_in_unit_interval(self, flags, missed):
        scored = [(score, i, tp) for i, (score, tp) in enumerate(flags)]
        total_gt = sum(tp for _, tp in flags) + missed
        if total_gt:
            assert 0.0 <= average_precision(scored, total_gt) <= 1.0

    @given(tp_scores=st.lists(st.floats(0.5, 1.0), min_size=1, max_size=10),
           fp_scores=st.lists(st.floats(0.0, 0.5, exclude_max=True), max_size=10))
    def test_average_precision_is_one_when_true_positives_rank_first(self, tp_scores,
                                                                      fp_scores):
        scored = [(s, i, True) for i, s in enumerate(tp_scores)]
        scored += [(s, len(tp_scores) + i, False) for i, s in enumerate(fp_scores)]
        assert average_precision(scored, len(tp_scores)) == 1.0


class TestMapRel:
    def test_perfect_predictions_give_exactly_one(self):
        gts = {"a": [trip(H1, O1, 0), trip(H2, O2, 1)],
               "b": [trip(H1, O1, 1)]}
        preds = {"a": [trip(H1, O1, 0, 0.3, 0), trip(H2, O2, 1, 0.9, 1)],
                 "b": [trip(H1, O1, 1, 0.1, 0)]}
        report = map_rel(preds, gts, n_verbs=3)
        assert report.map_rel == 1.0
        assert report.ap_per_verb == {0: 1.0, 1: 1.0}
        assert report.zero_gt_verbs == [2]

    def test_no_predictions_give_exactly_zero(self):
        gts = {"a": [trip(H1, O1, 0)]}
        report = map_rel({}, gts, n_verbs=2)
        assert report.map_rel == 0.0

    def test_constructed_case(self):
        # verb 0: the hand case from TestAveragePrecision inside one image
        gt_boxes = [(H1, O1), (H2, O2), ((0, 30, 10, 44), (12, 30, 20, 40))]
        gts = {"img": [trip(h, o, 0) for h, o in gt_boxes]}
        preds = {"img": [
            trip(*gt_boxes[0], 0, 0.9, 0),
            trip(H1, FAR, 0, 0.8, 1),
            trip(*gt_boxes[1], 0, 0.7, 2),
            trip(*gt_boxes[0], 0, 0.6, 3),
            trip(*gt_boxes[2], 0, 0.5, 4),
        ]}
        report = map_rel(preds, gts, n_verbs=1)
        np.testing.assert_allclose(report.map_rel, 34 / 45)

    def test_purity(self):
        gts = {"a": [trip(H1, O1, 0)]}
        preds = {"a": [trip(H1, O1, 0, 0.5, 0), trip(H2, O2, 0, 0.4, 1)]}
        r1 = report_to_dict(map_rel(preds, gts, 2), None)
        r2 = report_to_dict(map_rel(preds, gts, 2), None)
        assert r1 == r2


class TestRecallAtK:
    def test_perfect_gives_one(self):
        gts = {"a": [trip(H1, O1, 0), trip(H2, O2, 3)]}
        preds = {"a": [trip(H1, O1, 0, 0.9, 0), trip(H2, O2, 3, 0.8, 1)]}
        report = recall_at_k(preds, gts, geometric_verbs={0, 1}, ks=(20,))
        assert report.at_k[20] == 1.0
        assert report.mean == 1.0
        for (thr, group), val in report.table[20].items():
            assert val == 1.0

    def test_default_thresholds(self):
        report = recall_at_k({}, {"a": [trip(H1, O1, 0)]}, {0})
        assert report.thresholds == (0.25, 0.5, 0.75)
        assert report.ks == (20, 50, 100)

    def test_top_k_cuts_low_scores(self):
        gts = {"a": [trip(H1, O1, 0)]}
        filler = [trip(H2, O2, 1, 0.9 - 0.01 * i, i) for i in range(3)]
        hit = [trip(H1, O1, 0, 0.1, 3)]
        preds = {"a": filler + hit}
        hit_in_top = recall_at_k(preds, gts, {0}, ks=(4,))
        hit_cut = recall_at_k(preds, gts, {0}, ks=(3,))
        assert hit_in_top.at_k[4] == 1.0
        assert hit_cut.at_k[3] == 0.0

    def test_group_averaging_vs_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            gts, preds, ogts, opreds = {}, {}, {}, {}
            for img in ("a", "b"):
                n_gt = int(rng.integers(1, 5))
                g_list, og_list = [], []
                for _ in range(n_gt):
                    x, y = rng.uniform(0, 20, 2)
                    h = (x, y, x + rng.uniform(3, 8), y + rng.uniform(3, 8))
                    x, y = rng.uniform(0, 20, 2)
                    o = (x, y, x + rng.uniform(3, 8), y + rng.uniform(3, 8))
                    verb = int(rng.integers(0, 4))
                    g_list.append(trip(h, o, verb))
                    og_list.append(OracleTriplet(h, o, verb))
                p_list, op_list = [], []
                for i in range(int(rng.integers(0, 9))):
                    if rng.uniform() < 0.6:
                        src = int(rng.integers(0, n_gt))
                        h = og_list[src].h_box
                        o = og_list[src].o_box
                        verb = og_list[src].verb
                    else:
                        x, y = rng.uniform(0, 20, 2)
                        h = (x, y, x + 4.0, y + 4.0)
                        o = (x + 5, y, x + 9.0, y + 4.0)
                        verb = int(rng.integers(0, 4))
                    score = float(rng.uniform())
                    p_list.append(trip(h, o, verb, score, i))
                    op_list.append(OracleTriplet(h, o, verb, score, i))
                gts[img], ogts[img] = g_list, og_list
                preds[img], opreds[img] = p_list, op_list
            k = int(rng.choice([2, 5, 20]))
            main = recall_at_k(preds, gts, {0, 1}, ks=(k,)).at_k[k]
            ref = oracle_recall_at_k(opreds, ogts, {0, 1}, k)
            np.testing.assert_allclose(main, ref, atol=1e-12)

    def test_empty_group_excluded(self):
        # only non-geometric ground truth exists
        gts = {"a": [trip(H1, O1, 3)]}
        preds = {"a": [trip(H1, O1, 3, 0.9, 0)]}
        report = recall_at_k(preds, gts, geometric_verbs={0}, ks=(20,))
        assert all(group == "non_geometric" for (_, group) in report.table[20])
        assert report.at_k[20] == 1.0


def test_report_rendering_roundtrip():
    gts = {"a": [trip(H1, O1, 0), trip(H2, O2, 1)]}
    preds = {"a": [trip(H1, O1, 0, 0.9, 0)]}
    m = map_rel(preds, gts, 2)
    r = recall_at_k(preds, gts, {0}, ks=(20, 50))
    data = report_to_dict(m, r)
    assert data["map_rel"]["value"] == m.map_rel
    text = format_report_table(m, r)
    assert "mAP_rel" in text and "grand mean" in text
