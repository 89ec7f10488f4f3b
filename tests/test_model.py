import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcrack import model as model_mod
from qcrack.autodiff import CallLedger, GradMethod, ledger_predict
from qcrack.circuit import (CircuitSpec, Shots, encode_features,
                            evaluate_angles, evaluate_rows)
from qcrack.data import FeatureSample, derive_streams
from qcrack.errors import DataError, FormatError, ReconciliationError
from qcrack.model import (HybridModel, LinearLayer, OptimizerState,
                          ParamVector, adam_step, cross_entropy, evaluate_test,
                          load_checkpoint, loss_and_grad, save_checkpoint,
                          train)

BP = GradMethod.backprop()
PS = GradMethod.param_shift()


def make_samples(n_per_class, n_features, seed, offset=1.0):
    """Linearly separable toy features."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_per_class):
        out.append(FeatureSample(f"c{i}", "crack",
                                 rng.normal(offset, 0.5, n_features)))
        out.append(FeatureSample(f"n{i}", "no_crack",
                                 rng.normal(-offset, 0.5, n_features)))
    return out


def tiny_model(n_features=4, q=2, d=1, seed=0):
    return HybridModel.init(n_features, CircuitSpec(num_qubits=q, q_depth=d),
                            seed)


class TestForward:
    def test_zero_model_gives_zero_logits(self):
        model = tiny_model(n_features=6, q=4)
        for p in model.parameters().values():
            p[:] = 0.0
        logits = model.forward(np.random.default_rng(0).normal(size=6))
        assert np.max(np.abs(logits)) <= 1e-12

    def test_identity_post_layer(self):
        model = tiny_model(n_features=4, q=2, seed=3)
        model.post.weights[:] = np.eye(2)
        model.post.bias[:] = 0.0
        x = np.array([0.1, -0.2, 0.4, 0.3])
        z = evaluate_angles(model.qspec, encode_features(model.pre.apply(x)),
                            model.qparams)
        assert np.allclose(model.forward(x), z)

    def test_batch_equals_independent_calls(self):
        model = tiny_model(n_features=5, q=3, seed=7)
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(3, 5))
        singles = [model.forward(x) for x in xs]
        again = [model.forward(x) for x in xs]
        for a, b in zip(singles, again):
            assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tiny_model(n_features=4).forward(np.zeros(5))

    @pytest.mark.parametrize("mode", [None, Shots(shots=100, seed=1)],
                             ids=["exact", "shots"])
    def test_zero_rows_charge_nothing(self, mode):
        ledger = CallLedger()
        logits = tiny_model(n_features=4, q=3).forward_rows(
            np.empty((0, 4)), ledger, mode)
        assert logits.shape == (0, 2)
        assert ledger.n_forward == ledger.n_backward == 0

    @pytest.mark.parametrize("q,f,b", [(2, 8, 1), (4, 64, 17), (4, 512, 184),
                                       (6, 512, 40), (10, 512, 64)])
    def test_stacked_layers_match_rows(self, q, f, b):
        # the layers and the encoding run once on the whole stack and give
        # each row the bits of W @ x + b, encode_features and W2 @ z + b2
        model = HybridModel.init(f, CircuitSpec(num_qubits=q, q_depth=1), q)
        rng = np.random.default_rng(f + b)
        model.pre.bias[:] = rng.normal(size=q)
        model.post.bias[:] = rng.normal(size=2)
        xs = rng.normal(size=(b, f))
        angles = np.array([encode_features(model.pre.weights @ x
                                           + model.pre.bias) for x in xs])
        params = np.tile(model.qparams, (b, 1))
        z = evaluate_rows(model.qspec, np.hstack([angles, params]))
        want = np.array([model.post.weights @ zi + model.post.bias
                         for zi in z])
        got = model.forward_rows(xs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestLossAndGrad:
    def test_uniform_logits_loss(self):
        assert cross_entropy(np.zeros((1, 2)), [0])[0] == pytest.approx(
            [math.log(2)])
        model = tiny_model()
        for p in model.parameters().values():
            p[:] = 0.0
        loss, _, _ = loss_and_grad(model, [(np.zeros(4), 0)], BP, CallLedger())
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_duplicated_sample_mean_semantics(self):
        model = tiny_model(seed=5)
        x = np.array([0.3, -0.1, 0.2, 0.4])
        l1, g1, _ = loss_and_grad(model, [(x, 1)], BP, CallLedger())
        l2, g2, _ = loss_and_grad(model, [(x, 1), (x, 1)], BP, CallLedger())
        assert l1 == pytest.approx(l2)
        for k in g1:
            assert np.allclose(g1[k], g2[k], atol=1e-14)

    def test_shot_noise_independent_per_sample(self):
        model = tiny_model(seed=5)
        x = np.array([0.3, -0.1, 0.2, 0.4])
        mode = Shots(64, 5)
        _, _, pair = loss_and_grad(model, [(x, 1), (x, 1)], PS, CallLedger(),
                                   mode)
        _, _, single = loss_and_grad(model, [(x, 1)], PS, CallLedger(), mode)
        assert not np.array_equal(pair[0], pair[1])
        assert np.array_equal(single[0], pair[0])

    def test_hashed_streams_take_one_sample(self):
        # sample 1 of a streamed batch drew derive_seed(mode.seed, 1) in
        # every step, so its shot noise repeated while sample 0's moved on
        model = tiny_model(seed=5)
        x = np.array([0.3, -0.1, 0.2, 0.4])
        streams = derive_streams(5, (0,), 2, 9)  # 9 rows a Q=2, L=2 step
        ledger = CallLedger()
        for step in (0, 1):
            mode = Shots(64, 5, streams[step])
            with pytest.raises(ValueError, match="batch of 2"):
                loss_and_grad(model, [(x, 1), (x, 1)], PS, ledger, mode)
            assert ledger.n_calls == 9 * step  # no row of the batch ran
            loss_and_grad(model, [(x, 1)], PS, ledger, mode)
        assert ledger.n_calls == 18

    @pytest.mark.parametrize("label", [2, -1, True, 1.0])
    def test_bad_label(self, label):
        ledger = CallLedger()
        with pytest.raises(DataError, match="label"):
            loss_and_grad(tiny_model(), [(np.zeros(4), label)], BP, ledger)
        assert ledger.n_calls == 0

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            loss_and_grad(tiny_model(), [], BP, CallLedger())

    @pytest.mark.parametrize("method", [BP, PS,
                                        GradMethod.finite_diff(1e-5, "central")])
    def test_end_to_end_numerical_oracle(self, method):
        # black-box central differences over every scalar parameter of the
        # whole composite model
        model = tiny_model(n_features=4, q=2, d=1, seed=11)
        batch = [(np.array([0.4, -0.3, 0.8, 0.1]), 1),
                 (np.array([-0.5, 0.2, -0.1, 0.6]), 0)]
        _, grads, _ = loss_and_grad(model, batch, method, CallLedger())
        params = model.parameters()
        step = 1e-5
        for key, p in params.items():
            flat = p.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                lp, _, _ = loss_and_grad(model, batch, BP, CallLedger())
                flat[i] = orig - step
                lm, _, _ = loss_and_grad(model, batch, BP, CallLedger())
                flat[i] = orig
                num = (lp - lm) / (2 * step)
                ana = grads[key].reshape(-1)[i]
                assert abs(num - ana) <= 1e-4 * max(1.0, abs(ana)), \
                    f"{key}[{i}]: analytic {ana} vs numeric {num}"


def flat(**arrays) -> ParamVector:
    return ParamVector(arrays)


def reference_adam(params, grads, state, t):
    """The per-group update rule Adam had before the flat layout, applied
    to dicts of arrays: the oracle of the flat adam_step."""
    b1, b2 = model_mod.ADAM_BETA1, model_mod.ADAM_BETA2
    for k, p in params.items():
        g = grads[k]
        state["m"][k] = b1 * state["m"][k] + (1 - b1) * g
        state["v"][k] = b2 * state["v"][k] + (1 - b2) * g * g
        m_hat = state["m"][k] / (1 - b1 ** t)
        v_hat = state["v"][k] / (1 - b2 ** t)
        p -= model_mod.ADAM_LR * m_hat / (np.sqrt(v_hat) + model_mod.ADAM_EPS)


class TestAdam:
    def test_zero_gradient_no_move(self):
        params = flat(w=np.array([1.0, -2.0]))
        state = OptimizerState.for_params(params)
        adam_step(params, flat(w=np.zeros(2)), state)
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert state.step == 1

    def test_first_step_magnitude(self):
        params = flat(w=np.array([0.5]))
        state = OptimizerState.for_params(params)
        adam_step(params, flat(w=np.array([1.0])), state)
        # bias-corrected first step: m_hat = 1, v_hat = 1 -> lr/(1 + eps)
        assert params["w"][0] == pytest.approx(0.5 - 1e-3, abs=1e-9)

    def test_constant_gradient_limit(self):
        params = flat(w=np.array([0.0]))
        state = OptimizerState.for_params(params)
        prev = 0.0
        for _ in range(5000):
            prev = params["w"][0]
            adam_step(params, flat(w=np.array([2.5])), state)
        # update magnitude approaches lr regardless of gradient scale
        assert prev - params["w"][0] == pytest.approx(1e-3, rel=1e-3)

    def test_defaults(self):
        assert (model_mod.ADAM_LR, model_mod.ADAM_BETA1, model_mod.ADAM_BETA2,
                model_mod.ADAM_EPS) == (1e-3, 0.9, 0.999, 1e-8)

    def test_flat_step_equals_per_group_rule(self):
        rng = np.random.default_rng(30)
        shapes = {"pre_w": (4, 6), "pre_b": (4,), "theta": (8,),
                  "post_w": (2, 4), "post_b": (2,)}
        ref = {k: rng.normal(size=s) for k, s in shapes.items()}
        params = flat(**ref)
        ref_state = {"m": {k: np.zeros(s) for k, s in shapes.items()},
                     "v": {k: np.zeros(s) for k, s in shapes.items()}}
        state = OptimizerState.for_params(params)
        for t in range(1, 51):
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s)
                     for k, s in shapes.items()}
            if t % 7 == 0:  # a whole zero gradient, and zero entries
                grads = {k: np.zeros(s) for k, s in shapes.items()}
            grads["theta"][::3] = 0.0
            reference_adam(ref, grads, ref_state, t)
            adam_step(params, flat(**grads), state)
        assert state.step == 50
        for k in shapes:
            assert np.array_equal(params[k], ref[k])
        for moment in ("m", "v"):
            assert np.array_equal(getattr(state, moment), np.concatenate(
                [ref_state[moment][k].ravel() for k in shapes]))


class TestParamVector:
    def test_paper_size_layout(self):
        model = HybridModel.init(512, CircuitSpec(num_qubits=4, q_depth=1), 0)
        params = model.parameters()
        assert params.vector.shape == (2066,)
        assert params.vector.dtype == np.float64
        assert list(params) == ["pre_w", "pre_b", "theta", "post_w", "post_b"]
        assert [p.shape for p in params.values()] == \
            [(4, 512), (4,), (4,), (2, 4), (2,)]

    def test_views_share_one_vector(self):
        model = tiny_model(n_features=4, q=2, seed=31)
        params = model.parameters()
        assert model.parameters() is params
        for p in params.values():
            assert p.base is params.vector
        assert model.pre.weights.base is params.vector
        assert model.qparams.base is params.vector
        assert model.post.bias.base is params.vector
        x = np.array([0.3, -0.2, 0.5, 0.1])
        before = model.forward(x)
        params["theta"][0] += 0.5
        assert not np.array_equal(model.forward(x), before)
        params.vector[:] = 0.0
        assert np.max(np.abs(model.forward(x))) <= 1e-12

    def test_gradients_share_one_vector(self):
        model = tiny_model(n_features=4, q=2, seed=32)
        _, grads, _ = loss_and_grad(model, [(np.ones(4), 1)], BP, CallLedger())
        assert isinstance(grads, ParamVector)
        assert grads.vector is not model.parameters().vector
        assert grads.vector.shape == model.parameters().vector.shape
        for k, g in grads.items():
            assert g.base is grads.vector
            assert g.shape == model.parameters()[k].shape

    def test_loss_and_grad_refills_the_given_vector(self):
        model = tiny_model(n_features=4, q=2, seed=33)
        batch = [(np.array([0.2, -0.4, 0.1, 0.3]), 0)]
        _, fresh, _ = loss_and_grad(model, batch, PS, CallLedger())
        assert not np.shares_memory(fresh.vector, model.parameters().vector)
        given = ParamVector(fresh, np.full_like(fresh.vector, 7.0))
        _, grads, _ = loss_and_grad(model, batch, PS, CallLedger(),
                                    grads=given)
        assert grads is given
        assert grads.vector.tobytes() == fresh.vector.tobytes()

    def test_constructor_copies_inputs_once(self):
        pre = LinearLayer(np.ones((2, 3)), np.zeros(2))
        post = LinearLayer(np.ones((2, 2)), np.zeros(2))
        theta = np.full(2, 0.25)
        model = HybridModel(pre=pre, qspec=CircuitSpec(num_qubits=2),
                            qparams=theta, post=post)
        vector = model.parameters().vector
        assert vector.tolist() == [1.0] * 6 + [0.0] * 2 + [0.25] * 2 \
            + [1.0] * 4 + [0.0] * 2
        for given in (pre.weights, pre.bias, theta, post.weights, post.bias):
            assert not np.shares_memory(given, vector)
        theta[:] = 9.0
        pre.weights[:] = 9.0
        assert model.qparams.tolist() == [0.25, 0.25]
        assert model.pre.weights.max() == 1.0
        # the model's layers are new objects over the vector, not the inputs
        assert model.pre is not pre and model.post is not post


class TestTrain:
    def test_ledger_mismatch_raises(self, monkeypatch):
        import qcrack.model as model_mod
        real = model_mod.value_and_jacobian

        def over_charging(spec, qinput, method, ledger, mode=None):
            ledger.add_backward(1)
            return real(spec, qinput, method, ledger, mode)

        monkeypatch.setattr(model_mod, "value_and_jacobian", over_charging)
        samples = make_samples(3, 4, 2)
        with pytest.raises(ReconciliationError) as exc:
            train(tiny_model(seed=3), samples[:4], samples[4:], 1, BP, seed=4)
        assert exc.value.report["measured"] == \
            ledger_predict(4, 2, 2, 2, BP) + 4

    def test_forward_rows_match_forward(self):
        model = tiny_model(n_features=5, q=3, d=2, seed=7)
        xs = np.random.default_rng(8).normal(size=(6, 5))
        ledger = CallLedger()
        rows = model.forward_rows(xs, ledger)
        assert ledger.n_forward == 6
        for x, row in zip(xs, rows):
            assert np.max(np.abs(row - model.forward(x))) <= 1e-14
        with pytest.raises(ValueError):
            model.forward_rows(np.zeros((2, 4)))

    def test_zero_epochs(self):
        model = tiny_model()
        before = {k: v.copy() for k, v in model.parameters().items()}
        model, metrics, ledger = train(model, make_samples(3, 4, 0), [],
                                       epochs=0, method=BP, seed=1)
        assert metrics == [] and ledger.n_calls == 0
        for k, v in model.parameters().items():
            assert np.array_equal(v, before[k])

    @pytest.mark.parametrize("epochs", [-1, True, 1.0])
    def test_epochs_must_be_a_count(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            train(tiny_model(), make_samples(3, 4, 0), [], epochs, BP, seed=1)

    def test_one_epoch_backprop_ledger(self):
        samples = make_samples(6, 4, 2)
        train_set, val_set = samples[:8], samples[8:]
        model = tiny_model(seed=3)
        _, metrics, ledger = train(model, train_set, val_set, 1, BP, seed=4)
        assert ledger.n_calls == ledger_predict(8, 4, 2, 2, BP)
        assert metrics[0].n_calls == ledger.n_calls

    @pytest.mark.parametrize("method", [BP, PS, GradMethod.finite_diff()])
    def test_epoch_ledger_composition(self, method):
        samples = make_samples(4, 4, 5)
        train_set, val_set = samples[:6], samples[6:]
        model = tiny_model(seed=6)
        epochs = 3
        _, _, ledger = train(model, train_set, val_set, epochs, method, seed=7)
        assert ledger.n_calls == epochs * ledger_predict(6, 2, 2, 2, method)

    def test_deterministic_for_seed(self):
        samples = make_samples(5, 4, 8)
        runs = []
        for _ in range(2):
            model = tiny_model(seed=9)
            _, metrics, _ = train(model, samples[:6], samples[6:], 2, BP,
                                  seed=10)
            runs.append([(m.train_loss, m.train_acc, m.val_loss, m.val_acc)
                         for m in metrics])
        assert runs[0] == runs[1]

    def test_method_equivalence_one_step(self):
        # the shift rule is exact, so one Adam step must agree with backprop
        x = np.array([0.4, -0.2, 0.1, 0.3])
        results = {}
        for method in (BP, PS):
            model = tiny_model(seed=12)
            params = model.parameters()
            opt = OptimizerState.for_params(params)
            _, grads, _ = loss_and_grad(model, [(x, 1)], method, CallLedger())
            adam_step(params, grads, opt)
            results[method.kind] = params.vector.copy()
        assert np.max(np.abs(results["backprop"]
                             - results["param-shift"])) <= 1e-8

    def test_initial_loss_near_ln2(self):
        samples = make_samples(20, 8, 13)
        model = HybridModel.init(8, CircuitSpec(num_qubits=4, q_depth=1), 14)
        # symmetric head: both logits start identical on every sample
        model.post.weights[1] = model.post.weights[0]
        model.post.bias[:] = 0.0
        loss = np.mean(cross_entropy(
            model.forward_rows([s.values for s in samples]),
            [1 if s.label == "crack" else 0 for s in samples])[0])
        assert abs(loss - math.log(2)) <= 0.05

    def test_learns_separable_data(self):
        samples = make_samples(20, 6, 15, offset=2.0)
        model = HybridModel.init(6, CircuitSpec(num_qubits=2, q_depth=1), 16)
        model, metrics, _ = train(model, samples, [], epochs=15, method=BP,
                                  seed=17)
        assert metrics[-1].train_acc >= 0.9


def pinned_samples(n, seed, prefix):
    rng = np.random.default_rng(seed)
    return [FeatureSample(f"{prefix}{i}", "crack" if i % 2 else "no_crack",
                          rng.normal(size=6)) for i in range(n)]


class TestExactTrainingPinned:
    """Exact-mode training pinned bit for bit to values computed before
    the training step reused its gradient vector and evolve dropped
    ry_pi: SHA-256 of the parameter bytes, and per epoch the train and
    validation losses and the device calls."""

    @pytest.mark.parametrize("method, sha256, epochs", [
        (BP, "ed32718cad2e2b209c5fcc273b8710c96116a50051f21e22ed0f6cd0a3487159",
         [(0.667564140991312, 0.6370543181991147, 12),
          (0.6565364466583052, 0.638630737929567, 12)]),
        (PS, "b37175a498f8deda915a6e0269ba93a6043f11e3251f9f0bfbcf663d38714f16",
         [(0.667564140991312, 0.6370543181991147, 204),
          (0.6565364466583054, 0.638630737929567, 204)]),
        (GradMethod.finite_diff(),
         "636ef0c9230dea55f864d9de65b91c872737e4c15aca4cf0b051b071965fc9b9",
         [(0.6675641440166689, 0.6370543532367562, 108),
          (0.6565364354902813, 0.6386308061383204, 108)]),
    ])
    def test_two_epochs(self, method, sha256, epochs):
        model = HybridModel.init(6, CircuitSpec(num_qubits=4, q_depth=2), 7)
        model, metrics, _ = train(model, pinned_samples(8, 51, "t"),
                                  pinned_samples(4, 52, "v"), 2, method,
                                  seed=5)
        vector = model.parameters().vector
        assert hashlib.sha256(vector.tobytes()).hexdigest() == sha256
        assert [(m.train_loss, m.val_loss, m.n_calls)
                for m in metrics] == epochs


class TestEvaluateTest:
    def test_perfect_predictor(self):
        samples = make_samples(5, 6, 18, offset=2.5)
        model = HybridModel.init(6, CircuitSpec(num_qubits=2, q_depth=1), 19)
        model, _, _ = train(model, samples, [], epochs=20, method=BP, seed=20)
        report = evaluate_test(model, samples)
        if report.accuracy == 1.0:
            assert report.confusion["fp"] == report.confusion["fn"] == 0
            assert report.misclassified == []

    def test_confusion_conservation(self):
        samples = make_samples(7, 4, 21)
        report = evaluate_test(tiny_model(seed=22), samples)
        assert sum(report.confusion.values()) == len(samples)

    def test_constant_crack_predictor_on_table4_test_split(self):
        # 665 crack / 460 clean: always answering "crack" scores 665/1125
        samples = make_samples(1, 4, 23)[:0]
        samples += [FeatureSample(f"c{i}", "crack", np.zeros(4))
                    for i in range(665)]
        samples += [FeatureSample(f"n{i}", "no_crack", np.zeros(4))
                    for i in range(460)]
        model = tiny_model(seed=24)
        model.post.weights[:] = 0.0
        model.post.bias[:] = [0.0, 1.0]  # logit 1 (crack) always wins
        report = evaluate_test(model, samples)
        assert report.accuracy == pytest.approx(665 / 1125)
        assert report.confusion == {"tp": 665, "fp": 460, "fn": 0, "tn": 0}


def per_image_report(model, samples, mode, seed_tag):
    """evaluate_test as it read a split image by image: one scalar
    cross-entropy per row, added into a running float."""
    rows = model.forward_rows([s.values for s in samples], None, mode,
                              (seed_tag,))
    conf = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    loss, wrong = 0.0, []
    for s, logits in zip(samples, rows):
        y = 1 if s.label == "crack" else 0
        pred = int(np.argmax(logits))
        shifted = logits - logits.max()
        loss += float(np.log(np.exp(shifted).sum()) - shifted[y])
        conf[("tn", "fn", "fp", "tp")[2 * pred + y]] += 1
        if pred != y:
            wrong.append(s.id)
    n = len(samples)
    return model_mod.TestReport(loss / n, (conf["tp"] + conf["tn"]) / n,
                                conf, wrong)


class TestOnePassReadout:
    """evaluate_test reads a split in one pass with the bits of the
    image-by-image loop, on every report field."""

    @pytest.mark.parametrize("q,depth,samples,mode", [
        (4, 1, make_samples(92, 6, 61), None),
        (10, 3, make_samples(32, 6, 62), Shots(1024, 63)),
        (4, 1, make_samples(1, 6, 64)[:1], None),
        (3, 2, [s for s in make_samples(9, 6, 65)
                if s.label == "no_crack"], Shots(64, 66)),
    ], ids=["exact-q4-184", "shots-q10-64", "one-row", "single-class"])
    def test_equals_per_image_loop(self, q, depth, samples, mode):
        model = HybridModel.init(6, CircuitSpec(num_qubits=q, q_depth=depth),
                                 q + depth)
        want = per_image_report(model, samples, mode, 0xE7A1)
        got = evaluate_test(model, samples, mode)
        assert got.loss == want.loss and type(got.loss) is float
        assert got.accuracy == want.accuracy
        assert got.confusion == want.confusion
        assert list(got.confusion) == ["tp", "fp", "fn", "tn"]
        assert all(type(v) is int for v in got.confusion.values())
        assert got.misclassified == want.misclassified
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


# A well-formed checkpoint of a 1-feature, 1-qubit model with seed 1.
VALID_ONE_QUBIT = (
    '{"seed": 1, "circuit": {"num_qubits": 1, "q_depth": 1},'
    ' "pre": {"weights": [[0.5]], "bias": [0.0]}, "qparams": [0.1],'
    ' "post": {"weights": [[1.0], [-1.0]], "bias": [0.0, 0.0]}}')

# a well-formed three-qubit checkpoint, and edits that give one layer a
# wrong shape
VALID_THREE_QUBIT = {
    "seed": 1, "circuit": {"num_qubits": 3, "q_depth": 1},
    "pre": {"weights": [[0.5], [0.25], [-0.5]], "bias": [0.0, 0.1, 0.2]},
    "qparams": [0.1, 0.2, 0.3],
    "post": {"weights": [[1.0, 0.5, 0.0], [-1.0, 0.0, 0.5]],
             "bias": [0.0, 0.0]}}
BAD_LAYER_SHAPES = [
    ("post", {"weights": [1.0, -1.0, 0.5]}),  # 1-D
    ("post", {"bias": [0.5]}),                # would broadcast to 2 logits
    ("pre", {"bias": [0.0]}),                 # would broadcast to 3 qubits
    ("pre", {"bias": []}),
    ("post", {"weights": [[1.0, 0.0, 0.0]] * 3, "bias": [0.0] * 3}),
]


def with_layer(layer: str, fields: dict) -> str:
    doc = json.loads(json.dumps(VALID_THREE_QUBIT))
    doc[layer].update(fields)
    return json.dumps(doc)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = tiny_model(n_features=5, q=3, d=2, seed=25)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, seed=33)
        loaded, seed = load_checkpoint(path)
        assert seed == 33
        assert loaded.qspec == model.qspec
        for k, v in model.parameters().items():
            assert np.array_equal(loaded.parameters()[k], v)

    def test_prediction_survives_round_trip(self, tmp_path):
        model = tiny_model(seed=26)
        x = np.array([0.2, 0.4, -0.3, 0.1])
        before = model.forward(x)
        save_checkpoint(tmp_path / "m.json", model, 0)
        loaded, _ = load_checkpoint(tmp_path / "m.json")
        assert np.array_equal(loaded.forward(x), before)

    def test_loads_older_format(self, tmp_path):
        # files written while checkpoints held Adam state and the circuit
        # spec had entanglement and input_scaling fields
        model = tiny_model(n_features=3, q=2, d=1, seed=27)
        moments = {k: np.zeros_like(v).tolist()
                   for k, v in model.parameters().items()}
        doc = {
            "seed": 8,
            "circuit": {"num_qubits": 2, "q_depth": 1,
                        "entanglement": "parallel-brick",
                        "input_scaling": "tanh-halfpi"},
            "pre": {"weights": model.pre.weights.tolist(),
                    "bias": model.pre.bias.tolist()},
            "qparams": model.qparams.tolist(),
            "post": {"weights": model.post.weights.tolist(),
                     "bias": model.post.bias.tolist()},
            "optimizer": {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999,
                          "eps": 1e-8, "step": 4, "m": moments,
                          "v": moments},
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        loaded, seed = load_checkpoint(path)
        assert seed == 8 and loaded.qspec == model.qspec
        for k, v in model.parameters().items():
            assert np.array_equal(loaded.parameters()[k], v)

    def test_one_qubit_fixture_loads(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(VALID_ONE_QUBIT)
        assert load_checkpoint(path)[1] == 1

    def test_three_qubit_fixture_loads(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(VALID_THREE_QUBIT))
        model, _ = load_checkpoint(path)
        assert model.forward(np.array([0.3])).shape == (2,)

    @pytest.mark.parametrize("text", [
        '{"seed": 1}',
        "[1, 2]",
        '{"seed": 1, "circuit": {"num_qbits": 2}, "pre": {}, "qparams": [],'
        ' "post": {}}',
        "not json",
        *(VALID_ONE_QUBIT.replace('"seed": 1', f'"seed": {seed}')
          for seed in ('"x"', "null", "true", "-1", "1.5")),
        *(with_layer(*case) for case in BAD_LAYER_SHAPES),
        with_layer("post", {"bias": [math.nan, 0.0]}),
        with_layer("pre", {"weights": [[0.5], [math.inf], [-0.5]]}),
        # a parameter that is not a number, though numpy would cast it
        VALID_ONE_QUBIT.replace('"qparams": [0.1]', '"qparams": [true]'),
        with_layer("post", {"bias": ["1.5", "2"]}),
        with_layer("pre", {"weights": [[0.5], [None], [-0.5]]}),
        with_layer("pre", {"weights": [[0.5], [0.25, 1.0], [-0.5]]}),
        pytest.param(with_layer("post", {"bias": [10 ** 400, 0.0]}),
                     id="int-beyond-float"),
    ])
    def test_malformed_raises_format_error(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="bad.json"):
            load_checkpoint(path)

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path,
                                                       monkeypatch):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tiny_model(seed=28), seed=1)
        before = path.read_bytes()

        def cut_short(self, text, *args, **kwargs):
            with open(self, "w") as fh:
                fh.write(text[:len(text) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", cut_short)
        with pytest.raises(OSError):
            save_checkpoint(path, tiny_model(seed=29), seed=2)
        assert path.read_bytes() == before


class TestLinearLayer:
    def test_apply(self):
        layer = LinearLayer(np.array([[1.0, 2.0], [0.0, 1.0]]),
                            np.array([1.0, -1.0]))
        assert np.allclose(layer.apply(np.array([1.0, 1.0])), [4.0, 0.0])

    def test_init_scale(self):
        rng = np.random.default_rng(0)
        layer = LinearLayer.init(100, 4, rng)
        assert np.max(np.abs(layer.weights)) <= 0.1
        assert np.array_equal(layer.bias, np.zeros(4))

    @pytest.mark.parametrize("in_dim", [0, -1, True])
    def test_init_needs_a_width(self, in_dim):
        with pytest.raises(ValueError, match="in_dim"):
            LinearLayer.init(in_dim, 4, np.random.default_rng(0))
