"""Labelers: exact oracles for inference, finite differences for gradients,
and protocol-level checks on the training loop."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from spanmeta.corpus import (
    BioSequence,
    Corpus,
    Document,
    Span,
    Token,
    bio_decode,
    read_corpus,
)
from spanmeta.evaluation import EvalCounts, count_matches, f1_report
from spanmeta.seqlab import (
    Adam,
    FeatureIndex,
    LinearChainCrfModel,
    NEG_INF,
    TokenClassifierModel,
    TrainConfig,
    baseline_nll_gradient,
    bio_start_mask,
    bio_transition_mask,
    crf_log_partition,
    crf_nll_gradient,
    crf_viterbi,
    model_from_dict,
    model_to_dict,
    predict,
    sequence_score,
    token_feature_names,
    train,
)
from spanmeta.seqlab import models as models_mod
from spanmeta.seqlab import training as training_mod

from helpers import brute_force_argmax, brute_force_log_partition, make_doc


def test_public_names_resolve_on_the_package():
    import spanmeta.seqlab as seqlab

    assert set(seqlab.__all__) == {
        "FeatureIndex",
        "token_feature_names",
        "NEG_INF",
        "TokenClassifierModel",
        "LinearChainCrfModel",
        "bio_transition_mask",
        "bio_start_mask",
        "crf_log_partition",
        "crf_viterbi",
        "sequence_score",
        "crf_nll_gradient",
        "baseline_nll_gradient",
        "predict",
        "model_to_dict",
        "model_from_dict",
        "Adam",
        "EpochRecord",
        "TrainConfig",
        "TrainResult",
        "train",
    }
    assert len(seqlab.__all__) == len(set(seqlab.__all__))
    for module in (seqlab.features, seqlab.models, seqlab.training):
        for name in module.__all__:
            assert getattr(seqlab, name) is getattr(module, name)


class TestFeatureIndex:
    def test_fit_first_appearance_order(self):
        docs = [
            make_doc("a", ["red", "blue"]),
            make_doc("b", ["blue", "green"]),
        ]
        index = FeatureIndex.fit(docs)
        assert index.ids == {"surface=red": 0, "surface=blue": 1, "surface=green": 2}

    def test_bag_features_sorted_after_surface(self):
        tok = Token("w", frozenset({"zeta", "alpha"}))
        assert token_feature_names(tok) == ["surface=w", "bag=alpha", "bag=zeta"]

    def test_unk_and_num_features(self):
        index = FeatureIndex({"surface=a": 0, "surface=b": 1})
        assert index.unk_id == 2
        assert index.num_features == 3  # seen ids plus the UNK slot

    def test_encode_falls_back_to_unk(self):
        index = FeatureIndex({"surface=a": 0})
        assert index.encode(Token("a")) == [0]
        assert index.encode(Token("zzz")) == [index.unk_id]
        assert index.encode(Token("a", frozenset({"new"}))) == [0, index.unk_id]

    def test_encode_document(self):
        index = FeatureIndex.fit([make_doc("d", ["a", "b"])])
        doc = make_doc("e", ["b", "q"])
        assert index.encode_document(doc) == [[1], [index.unk_id]]

    def test_encode_document_matches_per_token_encode(self):
        # repeated tokens, tokens unseen at fit time and an empty bag, read
        # back interned; the same documents again as distinct equal objects
        docs = _memo_corpus().documents
        index = FeatureIndex.fit(docs[:1])
        fresh = [Document(d.id, tuple(Token(t.surface, t.features) for t in d.tokens))
                 for d in docs]  # fmt: skip
        for doc in (*docs, *fresh, *docs):
            assert index.encode_document(doc) == [index.encode(t) for t in doc.tokens]
        assert index.unk_id in index.encode_document(docs[1])[-1]

    def test_encoding_leaves_equality_repr_and_model_file_alone(self):
        docs = _memo_corpus().documents
        used, fresh = FeatureIndex.fit(docs), FeatureIndex.fit(docs)
        for doc in docs:
            used.encode_document(doc)
        assert used == fresh
        assert repr(used) == repr(fresh)
        weights = np.zeros((fresh.num_features + 1, 3))
        labels = ("O", "B-t", "I-t")
        assert model_to_dict(TokenClassifierModel(used, labels, weights)) == model_to_dict(
            TokenClassifierModel(fresh, labels, weights)
        )

    def test_non_dense_ids_rejected(self):
        with pytest.raises(ValueError, match="0..len-1"):
            FeatureIndex({"a": 0, "b": 2})

    @pytest.mark.parametrize("ids", [{"a": 0.0, "b": 1}, {"a": True}])
    def test_non_integer_ids_rejected(self, ids):
        with pytest.raises(ValueError, match="integers 0..len-1"):
            FeatureIndex(ids)


def _memo_corpus() -> Corpus:
    """Two documents with repeated tokens, tokens unseen in the first one,
    and a token with an empty feature bag, read back from JSON lines."""
    rows = [
        [("the", ["low"]), ("red", ["cap", "adj"]), ("the", ["low"]), ("red", ["adj", "cap"])],
        [("red", ["cap", "adj"]), ("dog", []), ("the", ["low"]), ("dog", ["new"])],
    ]
    lines = [
        json.dumps({"id": f"d{i}", "tokens": [{"surface": s, "features": f} for s, f in row]})
        for i, row in enumerate(rows)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return read_corpus(path, partition="test")


# ---------------------------------------------------------------------------
# Model construction helpers


def _index(n):
    return FeatureIndex({f"f{i}": i for i in range(n)})


def random_crf(rng, n_ids=3, labels=("O", "B-t", "I-t"), masked=False, scale=1.0):
    index = _index(n_ids)
    L = len(labels)
    return LinearChainCrfModel(
        index,
        labels,
        scale * rng.standard_normal((index.num_features + 1, L)),
        scale * rng.standard_normal((L, L)),
        scale * rng.standard_normal(L),
        scale * rng.standard_normal(L),
        masked,
    )


def random_baseline(rng, n_ids=3, labels=("O", "B-t", "I-t"), scale=1.0):
    index = _index(n_ids)
    return TokenClassifierModel(
        index, labels, scale * rng.standard_normal((index.num_features + 1, len(labels)))
    )


def random_encoded(rng, n, max_id):
    return [
        sorted(
            rng.choice(max_id + 1, size=int(rng.integers(0, 3)), replace=False).tolist()
        )
        for _ in range(n)
    ]


def _manual_emission(model, ids):
    """Oracle emission: bias row plus one weight row per active indicator."""
    w = model.emission_weights if hasattr(model, "emission_weights") else model.weights
    vec = w[-1].copy()
    for i in ids:
        vec = vec + w[i]
    return vec


def _oracle_score_fn(model, encoded):
    """Whole-sequence score recomputed from the model definition.

    The BIO mask logic is re-derived from the label strings here so the
    oracle does not share code with the implementation under test.
    """
    labels = model.labels
    em = [_manual_emission(model, ids) for ids in encoded]

    def ok_start(i):
        return not labels[i].startswith("I-")

    def ok_pair(i, j):
        if not labels[j].startswith("I-"):
            return True
        t = labels[j][2:]
        return labels[i] in ("B-" + t, "I-" + t)

    def score(seq):
        s = model.start[seq[0]] + model.stop[seq[-1]]
        for t, lab in enumerate(seq):
            s += em[t][lab]
        for a, b in zip(seq, seq[1:]):
            s += model.transitions[a, b]
        if model.masked:
            if not ok_start(seq[0]):
                s += NEG_INF
            for a, b in zip(seq, seq[1:]):
                if not ok_pair(a, b):
                    s += NEG_INF
        return float(s)

    return score


class TestModelConstruction:
    def test_baseline_shape_validated(self):
        with pytest.raises(ValueError, match="weight shape"):
            TokenClassifierModel(_index(2), ("O",), np.zeros((2, 1)))

    def test_crf_shapes_validated(self):
        index = _index(1)
        good = np.zeros((index.num_features + 1, 2))
        with pytest.raises(ValueError, match="emission shape"):
            LinearChainCrfModel(
                index, ("O", "B-t"), np.zeros((1, 2)), np.zeros((2, 2)),
                np.zeros(2), np.zeros(2),
            )
        with pytest.raises(ValueError, match="num_labels x num_labels"):
            LinearChainCrfModel(
                index, ("O", "B-t"), good, np.zeros((2, 3)), np.zeros(2), np.zeros(2)
            )
        with pytest.raises(ValueError, match="one entry per label"):
            LinearChainCrfModel(
                index, ("O", "B-t"), good, np.zeros((2, 2)), np.zeros(3), np.zeros(2)
            )

    def test_parameters_and_clone_independence(self):
        rng = np.random.default_rng(0)
        model = random_crf(rng)
        assert len(model.parameters()) == 4
        clone = model.clone()
        clone.emission_weights[:] += 1.0
        assert not np.allclose(clone.emission_weights, model.emission_weights)
        base = random_baseline(rng)
        assert len(base.parameters()) == 1


class TestMasks:
    LABELS = ("O", "B-t", "I-t", "B-u", "I-u")

    def test_transition_mask_entries(self):
        mask = bio_transition_mask(self.LABELS)
        lab = {l: i for i, l in enumerate(self.LABELS)}
        assert mask[lab["O"], lab["I-t"]] == NEG_INF
        assert mask[lab["B-u"], lab["I-t"]] == NEG_INF
        assert mask[lab["I-u"], lab["I-t"]] == NEG_INF
        assert mask[lab["B-t"], lab["I-t"]] == 0.0
        assert mask[lab["I-t"], lab["I-t"]] == 0.0
        # transitions into O and B-* are never penalized
        for prev in self.LABELS:
            assert mask[lab[prev], lab["O"]] == 0.0
            assert mask[lab[prev], lab["B-u"]] == 0.0

    def test_start_mask(self):
        mask = bio_start_mask(self.LABELS)
        assert mask.tolist() == [0.0, 0.0, NEG_INF, 0.0, NEG_INF]


class TestLogPartition:
    def test_zero_weights_counts_sequences(self):
        model = random_crf(np.random.default_rng(0), scale=0.0)
        encoded = [[0], [1, 2], []]
        assert crf_log_partition(model, encoded) == pytest.approx(
            3 * math.log(3), abs=1e-12
        )

    def test_length_one_closed_form(self):
        rng = np.random.default_rng(1)
        model = random_crf(rng)
        encoded = [[0, 2]]
        em = _manual_emission(model, [0, 2])
        scores = em + model.start + model.stop
        m = scores.max()
        expected = m + math.log(np.exp(scores - m).sum())
        assert crf_log_partition(model, encoded) == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            labels = ("O", "B-t", "I-t")[: int(rng.integers(2, 4))]
            model = random_crf(rng, labels=labels, masked=bool(trial % 2))
            n = int(rng.integers(1, 5))
            encoded = random_encoded(rng, n, model.feature_index.unk_id)
            expected = brute_force_log_partition(
                _oracle_score_fn(model, encoded), n, len(labels)
            )
            assert crf_log_partition(model, encoded) == pytest.approx(
                expected, abs=1e-10
            )

    def test_empty_sequence_rejected(self):
        model = random_crf(np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one position"):
            crf_log_partition(model, [])


class TestViterbi:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            labels = ("O", "B-t", "I-t")[: int(rng.integers(2, 4))]
            model = random_crf(rng, labels=labels, masked=bool(trial % 2))
            n = int(rng.integers(1, 5))
            encoded = random_encoded(rng, n, model.feature_index.unk_id)
            best_seq, best_score = brute_force_argmax(
                _oracle_score_fn(model, encoded), n, len(labels)
            )
            got = crf_viterbi(model, encoded)
            assert tuple(model.labels.index(l) for l in got) == tuple(best_seq)
            assert sequence_score(model, encoded, got) == pytest.approx(
                best_score, abs=1e-9
            )

    def test_zero_transitions_reduce_to_per_position_argmax(self):
        rng = np.random.default_rng(4)
        index = _index(3)
        L = 3
        model = LinearChainCrfModel(
            index,
            ("O", "B-t", "I-t"),
            rng.standard_normal((index.num_features + 1, L)),
            np.zeros((L, L)),
            np.zeros(L),
            np.zeros(L),
        )
        encoded = random_encoded(rng, 6, index.unk_id)
        got = crf_viterbi(model, encoded)
        for t, ids in enumerate(encoded):
            em = _manual_emission(model, ids)
            assert got.labels[t] == model.labels[int(np.argmax(em))]

    def test_all_zero_model_ties_to_lowest_label_id(self):
        model = random_crf(np.random.default_rng(0), scale=0.0)
        got = crf_viterbi(model, [[0], [], [1]])
        assert got.labels == ("O", "O", "O")

    def test_masked_model_output_is_always_well_formed(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_crf(
                rng, labels=("O", "B-t", "I-t", "B-u", "I-u"), masked=True, scale=3.0
            )
            encoded = random_encoded(rng, int(rng.integers(1, 7)), model.feature_index.unk_id)
            seq = crf_viterbi(model, encoded)
            bio_decode(seq, mode="strict")  # must not raise

    def test_masks_are_built_once_per_alphabet(self, monkeypatch):
        calls = []

        def counting_mask(labels):
            calls.append(tuple(labels))
            return bio_transition_mask(labels)

        monkeypatch.setattr(models_mod, "bio_transition_mask", counting_mask)
        models_mod._bio_masks.cache_clear()
        rng = np.random.default_rng(8)
        labels = ("O", "B-v", "I-v", "B-w", "I-w")
        model = random_crf(rng, labels=labels, masked=True, scale=3.0)
        for n in (1, 4, 6):
            encoded = random_encoded(rng, n, model.feature_index.unk_id)
            bio_decode(crf_viterbi(model, encoded), mode="strict")
        assert calls == [labels]
        trans_mask, start_mask = models_mod._bio_masks(labels)
        assert not trans_mask.flags.writeable and not start_mask.flags.writeable
        assert np.array_equal(trans_mask, bio_transition_mask(labels))
        models_mod._bio_masks.cache_clear()

    def test_viterbi_beats_random_labelings(self):
        rng = np.random.default_rng(6)
        model = random_crf(rng)
        encoded = random_encoded(rng, 5, model.feature_index.unk_id)
        best = sequence_score(model, encoded, crf_viterbi(model, encoded))
        for _ in range(100):
            labs = [model.labels[i] for i in rng.integers(0, 3, size=5)]
            assert best >= sequence_score(model, encoded, labs) - 1e-9


class TestSequenceScore:
    def test_hand_computed(self):
        index = _index(1)  # ids: f0=0, unk=1, bias row=2
        model = LinearChainCrfModel(
            index,
            ("O", "B-t"),
            np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            np.array([[0.1, 0.2], [0.3, 0.4]]),
            np.array([1.0, -1.0]),
            np.array([0.5, 0.25]),
        )
        # position 0 carries f0, position 1 only the bias
        got = sequence_score(model, [[0], []], ("B-t", "O"))
        assert got == pytest.approx(-1 + 0.5 + (6 + 2) + 5 + 0.3, abs=1e-12)

    def test_unknown_label_rejected(self):
        model = random_crf(np.random.default_rng(0))
        with pytest.raises(ValueError, match="outside the model alphabet"):
            sequence_score(model, [[0]], ["B-zzz"])

    def test_length_mismatch_rejected(self):
        model = random_crf(np.random.default_rng(0))
        with pytest.raises(ValueError, match="labels for"):
            sequence_score(model, [[0]], ["O", "O"])

    def test_log_partition_dominates_any_single_score(self):
        rng = np.random.default_rng(7)
        model = random_crf(rng)
        encoded = random_encoded(rng, 4, model.feature_index.unk_id)
        log_z = crf_log_partition(model, encoded)
        for _ in range(50):
            labs = [model.labels[i] for i in rng.integers(0, 3, size=4)]
            assert sequence_score(model, encoded, labs) < log_z + 1e-9


def _fd_check(loss_fn, params, grads, h=1e-5, tol=1e-4):
    """Central finite differences over every entry of every block."""
    for p, g in zip(params, grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn()
            p[idx] = orig - h
            down = loss_fn()
            p[idx] = orig
            fd = (up - down) / (2 * h)
            err = abs(fd - g[idx]) / max(1.0, abs(fd), abs(g[idx]))
            assert err < tol, f"{idx}: fd={fd} analytic={g[idx]}"


class TestGradients:
    def test_crf_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        model = random_crf(rng, n_ids=2)
        unk = model.feature_index.unk_id
        batch = [
            (random_encoded(rng, 3, unk), ("O", "B-t", "I-t")),
            (random_encoded(rng, 1, unk), ("B-t",)),
        ]
        _, grads = crf_nll_gradient(model, batch)
        _fd_check(
            lambda: crf_nll_gradient(model, batch)[0], model.parameters(), grads
        )

    def test_baseline_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        model = random_baseline(rng, n_ids=2)
        unk = model.feature_index.unk_id
        batch = [
            (random_encoded(rng, 3, unk), ("O", "B-t", "I-t")),
            (random_encoded(rng, 2, unk), ("B-t", "I-t")),
        ]
        _, grads = baseline_nll_gradient(model, batch)
        _fd_check(
            lambda: baseline_nll_gradient(model, batch)[0], model.parameters(), grads
        )

    def test_confident_correct_model_has_tiny_loss_and_gradient(self):
        # one private indicator per position, hugely favoring the gold label
        index = _index(3)
        w = np.zeros((index.num_features + 1, 3))
        for pos, lab in enumerate((0, 1, 2)):
            w[pos, lab] = 50.0
        model = LinearChainCrfModel(
            index, ("O", "B-t", "I-t"), w, np.zeros((3, 3)), np.zeros(3), np.zeros(3)
        )
        loss, grads = crf_nll_gradient(model, [([[0], [1], [2]], ("O", "B-t", "I-t"))])
        assert loss == pytest.approx(0.0, abs=1e-9)
        for g in grads:
            assert np.max(np.abs(g)) < 1e-9

    def test_zero_weight_single_position_loss_is_log_num_labels(self):
        model = random_crf(np.random.default_rng(0), scale=0.0)
        loss, _ = crf_nll_gradient(model, [([[0]], ("O",))])
        assert loss == pytest.approx(math.log(3), abs=1e-12)
        base = random_baseline(np.random.default_rng(0), scale=0.0)
        loss_b, _ = baseline_nll_gradient(base, [([[0], []], ("O", "B-t"))])
        assert loss_b == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_unknown_gold_label_rejected(self):
        model = random_crf(np.random.default_rng(0))
        with pytest.raises(ValueError, match="outside the model alphabet"):
            crf_nll_gradient(model, [([[0]], ("B-zzz",))])

    def test_gold_length_mismatch_rejected(self):
        model = random_crf(np.random.default_rng(0))
        with pytest.raises(ValueError, match="gold labels for"):
            crf_nll_gradient(model, [([[0]], ("O", "O"))])

    def test_empty_sequence_in_batch_rejected(self):
        model = random_crf(np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one position"):
            crf_nll_gradient(model, [([], ())])

    @pytest.mark.parametrize("masked", [False, True])
    def test_batch_loss_matches_per_sequence_partition_and_score(self, masked):
        # documents of several lengths, including an empty feature bag and
        # an indicator repeated within one token
        rng = np.random.default_rng(15)
        labels = ("O", "B-t", "I-t", "B-u", "I-u")
        for _ in range(10):
            model = random_crf(rng, n_ids=4, labels=labels, masked=masked)
            unk = model.feature_index.unk_id
            batch = []
            for n in (1, 2, 5, 7):
                encoded = random_encoded(rng, n, unk)
                encoded[0] = []
                encoded[-1] = [1, 1, 3]
                batch.append((encoded, crf_viterbi(model, encoded)))
            batch.append(([[0], [2, 2], [4]], ("B-t", "I-t", "O")))
            expected = sum(
                crf_log_partition(model, enc) - sequence_score(model, enc, gold)
                for enc, gold in batch
            )
            loss, _ = crf_nll_gradient(model, batch)
            assert loss == pytest.approx(expected, abs=1e-10)

    def test_repeated_and_empty_bags_match_finite_differences(self):
        rng = np.random.default_rng(16)
        model = random_crf(rng, n_ids=2)
        batch = [([[1, 1], [0]], ("B-t", "I-t")), ([[]], ("O",))]
        _, grads = crf_nll_gradient(model, batch)
        _fd_check(
            lambda: crf_nll_gradient(model, batch)[0], model.parameters(), grads
        )
        base = random_baseline(rng, n_ids=2)
        _, grads = baseline_nll_gradient(base, batch)
        _fd_check(
            lambda: baseline_nll_gradient(base, batch)[0], base.parameters(), grads
        )


def _random_bio(rng, labels, n):
    """``n`` random labels, each stray continuation turned into a begin."""
    out = []
    for i in rng.integers(0, len(labels), size=n):
        lab = labels[i]
        if lab.startswith("I-") and (not out or out[-1][2:] != lab[2:]):
            lab = "B-" + lab[2:]
        out.append(lab)
    return out


def _log_space_nll(model, encoded, gold):
    """Loss, gradient blocks and log partition of one sequence, by the
    per-position log-space recursion with the full pair tensor at each step."""
    lse = scipy.special.logsumexp
    trans, start, stop = model.transitions, model.start, model.stop
    if model.masked:
        trans = trans + bio_transition_mask(model.labels)
        start = start + bio_start_mask(model.labels)
    em = np.array([_manual_emission(model, bag) for bag in encoded])
    n = len(em)
    alpha = [start + em[0]]
    for t in range(1, n):
        alpha.append(lse(alpha[-1][:, None] + trans, axis=0) + em[t])
    beta = [stop]
    for t in range(n - 1, 0, -1):
        beta.insert(0, lse(trans + em[t] + beta[0], axis=1))
    log_z = lse(alpha[-1] + stop)
    ids = [model.labels.index(lab) for lab in gold]
    score = start[ids[0]] + stop[ids[-1]] + sum(em[t, i] for t, i in enumerate(ids))
    score += sum(trans[a, b] for a, b in zip(ids, ids[1:]))
    grads = [np.zeros_like(p) for p in model.parameters()]
    d_em, d_trans, d_start, d_stop = grads
    for t in range(n):
        node = np.exp(alpha[t] + beta[t] - log_z)
        node[ids[t]] -= 1.0
        for f in list(encoded[t]) + [-1]:
            d_em[f] += node
        if t == 0:
            d_start += node
        if t == n - 1:
            d_stop += node
        if t > 0:
            pair = np.exp(alpha[t - 1][:, None] + trans + em[t] + beta[t] - log_z)
            pair[ids[t - 1], ids[t]] -= 1.0
            d_trans += pair
    return log_z - score, grads, log_z


class TestBatchedKernel:
    LABELS = ("O", "B-t", "I-t", "B-u", "I-u")

    def _batch(self, rng, model):
        # lengths out of order, so grid rows differ from batch order; the
        # first bag of each sequence is empty and the last repeats an id
        batch = []
        for n in (5, 1, 25, 2):
            encoded = random_encoded(rng, n, model.feature_index.unk_id)
            encoded[0] = []
            encoded[-1] = [2, 2, 0]
            batch.append((encoded, _random_bio(rng, self.LABELS, n)))
        return batch

    @pytest.mark.parametrize("masked", [False, True])
    def test_ragged_batch_equals_sum_of_single_sequences(self, masked):
        rng = np.random.default_rng(30)
        for _ in range(5):
            model = random_crf(rng, n_ids=4, labels=self.LABELS, masked=masked)
            batch = self._batch(rng, model)
            loss, grads = crf_nll_gradient(model, batch)
            parts = [crf_nll_gradient(model, [example]) for example in batch]
            assert loss == pytest.approx(sum(p[0] for p in parts), rel=0, abs=1e-10)
            for k, g in enumerate(grads):
                np.testing.assert_allclose(
                    g, sum(p[1][k] for p in parts), rtol=0, atol=1e-10
                )
            base = TokenClassifierModel(
                model.feature_index, model.labels, model.emission_weights
            )
            b_loss, b_grads = baseline_nll_gradient(base, batch)
            b_parts = [baseline_nll_gradient(base, [example]) for example in batch]
            assert b_loss == pytest.approx(sum(p[0] for p in b_parts), rel=0, abs=1e-10)
            np.testing.assert_allclose(
                b_grads[0], sum(p[1][0] for p in b_parts), rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize("masked", [False, True])
    def test_extreme_weights_match_log_space_reference(self, masked, monkeypatch):
        # at scale 1e3 the rescaled sums underflow and pair scales overflow,
        # so only the log-space guard inside the kernel can get these right
        guards = []
        exact = models_mod._logsumexp

        def spy(a, axis=None):
            if a.ndim == 3:
                guards.append(axis)
            return exact(a, axis)

        monkeypatch.setattr(models_mod, "_logsumexp", spy)
        rng = np.random.default_rng(31)
        for _ in range(3):
            model = random_crf(rng, n_ids=4, labels=self.LABELS, masked=masked, scale=1e3)
            batch = self._batch(rng, model)
            refs = [_log_space_nll(model, encoded, gold) for encoded, gold in batch]
            loss, grads = crf_nll_gradient(model, batch)
            assert math.isfinite(loss)
            assert loss == pytest.approx(sum(r[0] for r in refs), rel=1e-9)
            for k, g in enumerate(grads):
                expected = sum(r[1][k] for r in refs)
                assert np.all(np.isfinite(g))
                np.testing.assert_allclose(
                    g, expected, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(expected).max())
                )
            for (encoded, _), ref in zip(batch, refs):
                log_z = crf_log_partition(model, encoded)
                assert math.isfinite(log_z)
                assert log_z == pytest.approx(ref[2], rel=1e-9)
        # both guards ran: the forward-backward step's (summing over axis 1)
        # and the label-pair sum's (over axis 0)
        assert {0, 1} <= set(guards)


class TestLogSumExp:
    def test_matches_scipy_on_random_inputs(self):
        rng = np.random.default_rng(17)
        for shape in [(1,), (3,), (7, 7), (4, 9)]:
            a = 30.0 * rng.standard_normal(shape)
            for axis in [None, *range(len(shape))]:
                np.testing.assert_allclose(
                    models_mod._logsumexp(a, axis=axis),
                    scipy.special.logsumexp(a, axis=axis),
                    rtol=1e-13,
                    atol=1e-13,
                )

    def test_matches_scipy_with_neg_inf_penalties(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((6, 6))
        a[rng.random((6, 6)) < 0.5] += NEG_INF
        a[0] = NEG_INF  # a row that is penalized everywhere
        for axis in (0, 1):
            got = models_mod._logsumexp(a, axis=axis)
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(
                got, scipy.special.logsumexp(a, axis=axis), rtol=1e-13, atol=1e-13
            )


class TestPredict:
    def _fitted_models(self):
        docs = [
            make_doc("a", ["red", "blue", "red"], [Span("t", 1, 2)]),
        ]
        index = FeatureIndex.fit(docs)
        labels = ("O", "B-t", "I-t")
        rng = np.random.default_rng(10)
        crf = LinearChainCrfModel(
            index,
            labels,
            rng.standard_normal((index.num_features + 1, 3)),
            rng.standard_normal((3, 3)),
            rng.standard_normal(3),
            rng.standard_normal(3),
        )
        base = TokenClassifierModel(
            index, labels, rng.standard_normal((index.num_features + 1, 3))
        )
        return docs, index, crf, base

    def test_baseline_predict_is_per_token_argmax(self):
        docs, index, _, base = self._fitted_models()
        corpus = Corpus(tuple(docs), ("t",), partition="test")
        [seq] = predict(base, corpus)
        for tok, lab in zip(docs[0].tokens, seq):
            em = _manual_emission(base, index.encode(tok))
            assert lab == base.labels[int(np.argmax(em))]

    def test_crf_predict_is_viterbi(self):
        docs, index, crf, _ = self._fitted_models()
        corpus = Corpus(tuple(docs), ("t",), partition="test")
        [seq] = predict(crf, corpus)
        assert seq == crf_viterbi(crf, index.encode_document(docs[0]))

    def test_unseen_surfaces_use_unk(self):
        docs, index, crf, base = self._fitted_models()
        novel = make_doc("n", ["completely", "new"])
        corpus = Corpus((novel,), ("t",), partition="test")
        for model in (crf, base):
            [seq] = predict(model, corpus)
            assert len(seq) == 2

    @pytest.mark.parametrize("arch", ["baseline", "crf", "crf_masked"])
    def test_predict_matches_per_token_encoding(self, arch):
        corpus = _memo_corpus()
        index = FeatureIndex.fit(corpus.documents[:1])
        rng = np.random.default_rng(13)
        labels = ("O", "B-t", "I-t")
        weights = rng.standard_normal((index.num_features + 1, 3))
        if arch == "baseline":
            model = TokenClassifierModel(index, labels, weights)
        else:
            transitions, start, stop = rng.standard_normal((3, 3)), *rng.standard_normal((2, 3))
            model = LinearChainCrfModel(
                index, labels, weights, transitions, start, stop, arch == "crf_masked"
            )
        for _ in range(2):  # the second pass reads every bag from the cache
            for doc, seq in zip(corpus, predict(model, corpus)):
                bags = [index.encode(t) for t in doc.tokens]
                if arch == "baseline":
                    want = [labels[int(np.argmax(_manual_emission(model, b)))] for b in bags]
                    assert list(seq) == want
                else:
                    assert seq == crf_viterbi(model, bags)

    def test_empty_document_predicts_empty_sequence(self):
        _, _, crf, base = self._fitted_models()
        corpus = Corpus((Document("e", ()),), ("t",), partition="test")
        assert predict(crf, corpus) == [BioSequence(())]
        assert predict(base, corpus) == [BioSequence(())]


class TestModelSerialization:
    @pytest.mark.parametrize("arch", ["baseline", "crf"])
    def test_json_round_trip_preserves_predictions(self, arch):
        rng = np.random.default_rng(11)
        model = random_crf(rng, masked=True) if arch == "crf" else random_baseline(rng)
        obj = json.loads(json.dumps(model_to_dict(model)))
        back = model_from_dict(obj)
        assert back.labels == model.labels
        assert back.feature_index.ids == model.feature_index.ids
        for a, b in zip(model.parameters(), back.parameters()):
            assert np.array_equal(a, b)
        if arch == "crf":
            assert back.masked is True
        doc = make_doc("d", ["x", "y", "z"])
        corpus = Corpus((doc,), ("t",), partition="test")
        assert predict(model, corpus) == predict(back, corpus)

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            model_from_dict({"arch": "transformer", "labels": [], "feature_ids": {}})

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda d: d.pop("stop"), "model stop must be finite numbers"),
            (lambda d: d.pop("labels"), "labels must be a list of strings"),
            (lambda d: d.pop("feature_ids"), "feature ids must be a map"),
            (lambda d: d["start"].__setitem__(0, math.nan), "start must be finite"),
            (lambda d: d["start"].__setitem__(0, "1"), "start must be finite"),
            (lambda d: d["start"].__setitem__(0, True), "start must be finite"),
            (lambda d: d["transitions"][0].pop(), "transitions must be finite"),
            (lambda d: d.update(masked="no"), "masked flag must be true or false"),
            (lambda d: d["labels"].__setitem__(2, "O"), "labels must be distinct"),
            (lambda d: d["labels"].__setitem__(2, 7), "labels must be a list of"),
            (lambda d: d["feature_ids"].update(f0=0.0), "integers 0..len-1"),
            (lambda d: d["emission_weights"].pop(), "emission shape"),
        ],
    )
    def test_malformed_model_file_rejected(self, corrupt, message):
        rng = np.random.default_rng(19)
        obj = json.loads(json.dumps(model_to_dict(random_crf(rng, masked=True))))
        corrupt(obj)
        with pytest.raises(ValueError, match=message):
            model_from_dict(obj)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        p = np.zeros(3)
        opt = Adam([p], TrainConfig(learning_rate=0.001))
        opt.step([np.array([4.0, -2.0, 0.0])])
        assert p[0] == pytest.approx(-0.001, rel=1e-6)
        assert p[1] == pytest.approx(0.001, rel=1e-6)
        assert p[2] == 0.0

    def test_updates_in_place(self):
        p = np.ones(2)
        opt = Adam([p], TrainConfig())
        ref = p
        opt.step([np.ones(2)])
        assert ref is opt.params[0]
        assert not np.array_equal(ref, np.ones(2))


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.batch_size == 8
        assert cfg.feature_dropout_prob == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
            {"betas": (1.0, 0.999)},
            {"eps": 0.0},
            {"eps": math.nan},
            {"eps": math.inf},
            {"feature_dropout_prob": 1.0},
            {"ema_decay": 0.0},
            {"batch_size": 0},
            {"max_epochs": -1},
            {"dev_fraction": 0.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"betas": (0.9,)}, "betas must be exactly two numbers"),
            ({"betas": (0.9, 0.99, 0.999)}, "betas must be exactly two numbers"),
            ({"betas": ("0.9", "0.99")}, "betas must be exactly two numbers"),
            ({"seed": -1}, "seed must be non-negative"),
        ],
    )
    def test_bad_values_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)


def _toy_corpora(n_train=30, n_dev=10, seed=12):
    """Surface form fully determines the label, so both architectures
    can reach a perfect dev score."""
    rng = np.random.default_rng(seed)

    def doc(i):
        surfaces, spans = [], []
        for _ in range(int(rng.integers(2, 5))):
            surfaces.append("the")
            start = len(surfaces)
            surfaces += ["per", "son"]
            spans.append(Span("p", start, start + 2))
        return make_doc(f"d{i}", surfaces, spans)

    train_c = Corpus(tuple(doc(i) for i in range(n_train)), ("p",))
    dev_c = Corpus(
        tuple(doc(n_train + i) for i in range(n_dev)), ("p",), partition="dev"
    )
    return train_c, dev_c


def _recomputed_dev_f1(model, dev_corpus):
    counts = EvalCounts()
    for doc, seq in zip(dev_corpus.documents, predict(model, dev_corpus)):
        counts = counts + count_matches(doc.spans, bio_decode(seq, mode="lenient"))
    return f1_report(counts, types=dev_corpus.span_type_inventory).micro.f1


class TestTraining:
    def test_rejects_unknown_architecture(self):
        train_c, dev_c = _toy_corpora(2, 1)
        with pytest.raises(ValueError, match="architecture"):
            train("lstm", train_c, dev_c)

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            train("crf", Corpus((), ("p",)))

    def test_rejects_single_doc_without_dev(self):
        c = Corpus((make_doc("d", ["a", "b"]),), ())
        with pytest.raises(ValueError, match="at least two training documents"):
            train("baseline", c)

    @pytest.mark.parametrize("with_dev", [True, False], ids=["dev", "held-out"])
    def test_rejects_corpus_whose_documents_have_no_tokens(self, with_dev):
        empty = Corpus((make_doc("a", []), make_doc("b", [])), ())
        dev = Corpus((make_doc("c", ["x"]),), (), partition="dev") if with_dev else None
        with pytest.raises(ValueError, match="no training document has any tokens"):
            train("crf", empty, dev)

    @pytest.mark.parametrize("arch", ["baseline", "crf"])
    def test_empty_documents_are_skipped(self, arch):
        train_c, dev_c = _toy_corpora(6, 2)
        padded = Corpus(
            (make_doc("e0", []), *train_c.documents[:3], make_doc("e1", []),
             *train_c.documents[3:]),
            train_c.span_type_inventory,
        )
        cfg = TrainConfig(max_epochs=3, batch_size=2, seed=4)
        a = train(arch, train_c, dev_c, cfg)
        b = train(arch, padded, dev_c, cfg)
        assert a.log == b.log
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert np.array_equal(pa, pb)

    @pytest.mark.parametrize("arch", ["baseline", "crf"])
    def test_empty_documents_are_skipped_after_the_holdout_split(self, arch):
        train_c, _ = _toy_corpora(9, 1)
        docs = (*train_c.documents, *(make_doc(f"e{i}", []) for i in range(3)))
        result = train(arch, Corpus(docs, ("p",)), config=TrainConfig(max_epochs=2))
        assert len(result.log) >= 1

    def test_rejects_inventory_mismatch(self):
        train_c, _ = _toy_corpora(2, 1)
        dev_c = Corpus(train_c.documents, ("p", "extra"), partition="dev")
        with pytest.raises(ValueError, match="share a span-type inventory"):
            train("crf", train_c, dev_c)

    def test_dev_inventory_may_be_reordered_or_partial(self):
        docs = (
            make_doc("a", ["per", "son", "in", "rome"], [Span("p", 0, 2), Span("l", 3, 4)]),
            make_doc("b", ["rome", "per", "son"], [Span("l", 0, 1), Span("p", 1, 3)]),
        )
        train_c = Corpus(docs, ("p", "l"))
        only_l = (make_doc("c", ["rome"], [Span("l", 0, 1)]),)
        for inventory, dev_docs in ((("l", "p"), docs), (("l",), only_l)):
            dev_c = Corpus(dev_docs, inventory, partition="dev")
            result = train("crf", train_c, dev_c, TrainConfig(max_epochs=1))
            assert result.model.labels == ("O", "B-p", "I-p", "B-l", "I-l")

    @pytest.mark.parametrize("arch", ["baseline", "crf"])
    def test_training_leaves_cached_bags_intact(self, arch):
        train_c, dev_c = _toy_corpora(6, 2)
        config = TrainConfig(max_epochs=2, batch_size=2, feature_dropout_prob=0.5)
        index = train(arch, train_c, dev_c, config).model.feature_index
        for doc in (*train_c, *dev_c):
            assert index.encode_document(doc) == [index.encode(t) for t in doc.tokens]

    def test_zero_epochs_returns_zero_weights_and_empty_log(self):
        train_c, dev_c = _toy_corpora(3, 1)
        result = train("crf", train_c, dev_c, TrainConfig(max_epochs=0))
        assert result.log == ()
        assert result.stopped_early is False
        for p in result.model.parameters():
            assert np.count_nonzero(p) == 0

    def test_holdout_size_one_of_ten(self):
        # ten single-token docs with distinct surfaces: the fitted index
        # must be missing exactly the held-out document's surface
        docs = tuple(make_doc(f"d{i}", [f"w{i}"]) for i in range(10))
        corpus = Corpus(docs, ())
        result = train("baseline", corpus, config=TrainConfig(max_epochs=0))
        assert len(result.model.feature_index.ids) == 9

    @pytest.mark.parametrize("arch", ["baseline", "crf"])
    def test_separable_task_reaches_perfect_dev_f1(self, arch):
        train_c, dev_c = _toy_corpora()
        result = train(arch, train_c, dev_c, TrainConfig(max_epochs=20, seed=0))
        best = max(r.dev_f1 for r in result.log)
        assert best == 100.0
        assert _recomputed_dev_f1(result.model, dev_c) == 100.0

    def test_returned_model_is_best_checkpoint(self):
        train_c, dev_c = _toy_corpora(12, 4, seed=77)
        result = train("baseline", train_c, dev_c, TrainConfig(max_epochs=8, seed=3))
        best_logged = max(r.dev_f1 for r in result.log)
        assert _recomputed_dev_f1(result.model, dev_c) == pytest.approx(best_logged)

    def test_log_consistency(self):
        train_c, dev_c = _toy_corpora(12, 4, seed=5)
        cfg = TrainConfig(max_epochs=15, seed=1)
        result = train("baseline", train_c, dev_c, cfg)
        log = result.log
        assert [r.epoch for r in log] == list(range(1, len(log) + 1))
        assert log[0].ema == log[0].dev_f1
        best = -np.inf
        for i, rec in enumerate(log):
            assert rec.checkpointed == (rec.dev_f1 > best)
            best = max(best, rec.dev_f1)
            if i == 0:
                continue
            prev = log[i - 1].ema
            if rec.dev_f1 < prev:
                # the stopping epoch keeps the average it failed to reach
                assert rec.ema == prev
                assert i == len(log) - 1
                assert result.stopped_early
            else:
                expected = cfg.ema_decay * prev + (1 - cfg.ema_decay) * rec.dev_f1
                assert rec.ema == pytest.approx(expected, abs=1e-9)
        if not result.stopped_early:
            assert len(log) == cfg.max_epochs

    def test_deterministic_per_seed(self):
        train_c, dev_c = _toy_corpora(8, 3, seed=9)
        cfg = TrainConfig(max_epochs=4, seed=42)
        a = train("crf", train_c, dev_c, cfg)
        b = train("crf", train_c, dev_c, cfg)
        assert a.log == b.log
        assert a.stopped_early == b.stopped_early
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert np.array_equal(pa, pb)

    def test_different_seeds_differ(self):
        train_c, dev_c = _toy_corpora(8, 3, seed=9)
        a = train("crf", train_c, dev_c, TrainConfig(max_epochs=2, seed=0))
        b = train("crf", train_c, dev_c, TrainConfig(max_epochs=2, seed=1))
        assert any(
            not np.array_equal(pa, pb)
            for pa, pb in zip(a.model.parameters(), b.model.parameters())
        )

    def test_masked_config_produces_masked_model(self):
        train_c, dev_c = _toy_corpora(3, 1)
        result = train(
            "crf", train_c, dev_c, TrainConfig(max_epochs=1, mask_invalid_transitions=True)
        )
        assert result.model.masked is True


class TestDropout:
    def test_keep_rate_within_binomial_bounds(self):
        rng = np.random.default_rng(13)
        encoded = [list(range(1000))]
        kept = len(training_mod._dropout(encoded, 0.5, rng)[0])
        # 3 sigma around np = 500 with sigma = sqrt(1000 * 0.25)
        assert 452 <= kept <= 548

    def test_zero_prob_is_identity(self):
        encoded = [[1, 2], [3]]
        assert training_mod._dropout(encoded, 0.0, np.random.default_rng(0)) == encoded

    def test_matches_one_draw_per_token(self):
        encoded = [[3, 1, 4], [], [1, 5, 9, 2], [6], [5, 5]] * 4

        def per_token(rng):
            return [
                [f for f, k in zip(bag, rng.random(len(bag)) >= 0.5) if k]
                for bag in encoded
            ]

        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(3):
            assert training_mod._dropout(encoded, 0.5, rng) == per_token(ref_rng)
        # the generator is left where the per-token draws leave it
        assert rng.random() == ref_rng.random()

    def test_resampled_per_call(self):
        rng = np.random.default_rng(14)
        encoded = [list(range(100))]
        a = training_mod._dropout(encoded, 0.5, rng)
        b = training_mod._dropout(encoded, 0.5, rng)
        assert a != b
