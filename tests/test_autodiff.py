import numpy as np
import pytest

from adamoge import autodiff as ad
from adamoge.autodiff import (
    ParameterStore,
    Tape,
    Variable,
    grad_check,
)


def make_store(**arrays):
    store = ParameterStore()
    for name, arr in arrays.items():
        store.add(name, arr)
    return store


class TestStore:
    def test_duplicate_name_rejected(self):
        store = make_store(a=np.zeros(3))
        with pytest.raises(ValueError):
            store.add("a", np.zeros(2))

    def test_grad_buffer_matches_shape(self):
        store = make_store(w=np.zeros((2, 3)))
        assert store["w"].grad.shape == (2, 3)

    def test_state_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        store = make_store(a=rng.standard_normal(5), b=rng.standard_normal((2, 2)))
        state = store.state_dict()
        store["a"].value[...] = 0.0
        store.load_state_dict(state)
        assert np.array_equal(store["a"].value, state["a"])

    def test_count_trainable(self):
        store = make_store(a=np.zeros((2, 3)))
        store.add("frozen", np.zeros(10), trainable=False)
        assert store.count_trainable() == 6


class TestBackward:
    def test_sum_of_squares(self):
        store = make_store(theta=np.array([1.0, -2.0, 3.0]))
        with Tape() as tape:
            loss = ad.vsum(ad.square(store["theta"]))
            tape.backward(loss)
        assert np.allclose(store["theta"].grad, 2.0 * store["theta"].value)

    def test_grad_accumulates_once_per_use(self):
        store = make_store(x=np.array([2.0]))
        with Tape() as tape:
            x = store["x"]
            loss = ad.vsum(x * x + x)  # d/dx = 2x + 1
            tape.backward(loss)
        assert np.allclose(store["x"].grad, 5.0)

    def test_broadcast_unbroadcast(self):
        store = make_store(b=np.array([1.0, 2.0]))
        a = Variable(np.ones((3, 2)))
        with Tape() as tape:
            loss = ad.vsum(a + store["b"])
            tape.backward(loss)
        assert np.allclose(store["b"].grad, [3.0, 3.0])

    def test_no_tape_is_value_only(self):
        x = Variable(np.ones(4))
        y = ad.square(x)
        assert y.grad is None and x.grad is None


def fd_check(build, params, eps=1e-5, tol=1e-6):
    """grad_check wrapper for a loss built from a dict of parameter arrays."""
    store = make_store(**params)
    return grad_check(lambda s: build(s), store, eps=eps)


class TestPrimitiveAdjoints:
    RNG = np.random.default_rng(42)

    @pytest.mark.parametrize(
        "name",
        [
            "add",
            "sub",
            "mul",
            "div",
            "exp",
            "square",
            "relu",
            "sigmoid",
            "absval",
            "softmax",
            "linear",
            "concat",
            "mean",
            "transpose",
            "clamp",
        ],
    )
    def test_against_central_differences(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        a = rng.uniform(0.5, 2.0, size=(3, 4))
        b = rng.uniform(0.5, 2.0, size=(3, 4))
        w = rng.uniform(-1.0, 1.0, size=(5, 4))
        c = rng.uniform(-1.0, 1.0, size=5)
        builders = {
            "add": lambda s: ad.vsum(ad.square(s["a"] + s["b"])),
            "sub": lambda s: ad.vsum(ad.square(s["a"] - s["b"])),
            "mul": lambda s: ad.vsum(s["a"] * s["b"]),
            "div": lambda s: ad.vsum(s["a"] / s["b"]),
            "exp": lambda s: ad.vsum(ad.exp(s["a"])),
            "square": lambda s: ad.vsum(ad.square(s["a"])),
            "relu": lambda s: ad.vsum(ad.relu(s["a"] - 1.0)),
            "sigmoid": lambda s: ad.vsum(ad.sigmoid(s["a"])),
            "absval": lambda s: ad.vsum(ad.absval(s["a"] - 1.2)),
            "softmax": lambda s: ad.vsum(ad.square(ad.softmax(s["a"], axis=1))),
            "linear": lambda s: ad.vsum(ad.square(ad.linear(s["a"], s["w"], s["c"]))),
            "concat": lambda s: ad.vsum(ad.square(ad.concat([s["a"], s["b"]], 1))),
            "mean": lambda s: ad.vsum(ad.vmean(ad.square(s["a"]), axis=1)),
            "transpose": lambda s: ad.vsum(ad.square(ad.transpose(s["a"], (1, 0)))),
            "clamp": lambda s: ad.vsum(ad.clamp(s["a"], 0.8, 1.7)),
        }
        err = fd_check(builders[name], {"a": a, "b": b, "w": w, "c": c})
        assert err < 1e-6, f"{name}: {err}"

    def test_magnitude_adjoint(self):
        rng = np.random.default_rng(9)
        params = {
            "re": rng.standard_normal((2, 5)) + 0.5,
            "im": rng.standard_normal((2, 5)) + 0.5,
        }
        err = fd_check(lambda s: ad.vsum(ad.square(ad.magnitude(s["re"], s["im"]))), params)
        assert err < 1e-6

    def test_magnitude_subgradient_zero_at_origin(self):
        store = make_store(re=np.zeros(3), im=np.zeros(3))
        with Tape() as tape:
            loss = ad.vsum(ad.magnitude(store["re"], store["im"]))
            tape.backward(loss)
        assert np.all(store["re"].grad == 0.0)
        assert np.all(store["im"].grad == 0.0)

    def test_magnitude_pythagorean(self):
        out = ad.magnitude(Variable(np.array([3.0])), Variable(np.array([4.0])))
        assert out.value[0] == 5.0

    def test_rfft_adjoint(self, subtests=None):
        rng = np.random.default_rng(12)
        for n in (8, 12, 96):
            params = {"x": rng.standard_normal((3, n))}

            def build(s):
                re, im = ad.rfft_op(s["x"])
                return ad.vsum(ad.square(re)) + ad.vsum(ad.square(im)) + ad.vsum(re * im)

            err = fd_check(build, params)
            assert err < 1e-6, f"n={n}: {err}"

    def test_irfft_adjoint(self):
        rng = np.random.default_rng(13)
        for n in (8, 13, 96):
            f = n // 2 + 1
            params = {"spec": rng.standard_normal((2, 2 * f))}

            def build(s):
                y = ad.irfft_op(s["spec"], n)
                return ad.vsum(ad.square(y)) + ad.vsum(y)

            err = fd_check(build, params)
            assert err < 1e-6, f"n={n}: {err}"

    def test_complex_expert_map_adjoint(self):
        rng = np.random.default_rng(14)
        b, e, v, f, o = 2, 2, 2, 4, 3
        params = {
            "xre": rng.standard_normal((b, e, v, f)),
            "xim": rng.standard_normal((b, e, v, f)),
            "wre": rng.standard_normal((e, o, f)),
            "wim": rng.standard_normal((e, o, f)),
            "bre": rng.standard_normal((e, o)),
            "bim": rng.standard_normal((e, o)),
        }

        def build(s):
            y = ad.complex_expert_map(
                s["xre"], s["xim"], s["wre"], s["wim"], s["bre"], s["bim"]
            )
            return ad.vsum(ad.square(y))

        err = fd_check(build, params)
        assert err < 1e-6

    def test_complex_expert_map_matches_loop_oracle(self):
        from oracles import complex_matvec

        rng = np.random.default_rng(15)
        b, e, v, f, o = 1, 1, 1, 8, 4
        x = rng.standard_normal((b, e, v, f)) + 1j * rng.standard_normal((b, e, v, f))
        w = rng.standard_normal((e, o, f)) + 1j * rng.standard_normal((e, o, f))
        y = ad.complex_expert_map(
            x.real, x.imag, w.real, w.imag, np.zeros((e, o)), np.zeros((e, o))
        ).value
        want = complex_matvec(w[0].tolist(), x[0, 0, 0].tolist())
        got = y[0, 0, 0, :o] + 1j * y[0, 0, 0, o:]
        assert np.max(np.abs(got - np.array(want))) < 1e-10

    def test_masked_weighted_sum_adjoint(self):
        rng = np.random.default_rng(16)
        mask = np.array([[True, False, True], [False, True, True]])
        params = {
            "y": rng.standard_normal((2, 3, 4, 2)),
            "w": rng.uniform(0.1, 1.0, size=(2, 3)),
        }
        err = fd_check(
            lambda s: ad.vsum(ad.square(ad.masked_weighted_sum(s["y"], s["w"], mask))),
            params,
        )
        assert err < 1e-6

    def test_masked_weighted_sum_ignores_masked_values(self):
        rng = np.random.default_rng(17)
        y = rng.standard_normal((1, 2, 3, 1))
        w = np.array([[0.7, 0.0]])
        mask = np.array([[True, False]])
        out1 = ad.masked_weighted_sum(Variable(y), Variable(w), mask).value
        y2 = y.copy()
        y2[0, 1] = np.pi  # perturb masked expert
        out2 = ad.masked_weighted_sum(Variable(y2), Variable(w), mask).value
        assert out1.tobytes() == out2.tobytes()


class TestGradCheck:
    def test_quadratic_is_tight(self):
        store = make_store(theta=np.array([1.0, -0.5, 2.0]))
        err = grad_check(lambda s: ad.vsum(ad.square(s["theta"])), store)
        assert err < 1e-8

    def test_constant_loss_reports_zero(self):
        store = make_store(theta=np.array([1.0, 2.0]))
        err = grad_check(lambda s: ad.vsum(ad.square(Variable(np.ones(2)))), store)
        assert err == 0.0

    def test_eps_range_enforced(self):
        store = make_store(theta=np.ones(1))
        with pytest.raises(ValueError):
            grad_check(lambda s: ad.vsum(s["theta"]), store, eps=1e-2)

    def test_nonfinite_loss_names_parameter(self):
        store = make_store(bad=np.array([0.0]))

        def build(s):
            return ad.vsum(ad.exp(s["bad"] + 1000.0))  # exp overflows -> inf

        with pytest.raises(ad.NumericError):
            grad_check(build, store)

    def test_name_filter(self):
        store = make_store(a=np.ones(2), b=np.ones(2))
        err = grad_check(
            lambda s: ad.vsum(ad.square(s["a"])) + ad.vsum(ad.exp(s["b"])),
            store,
            names=["a"],
        )
        assert err < 1e-8


class TestDeterminism:
    def test_forward_bitwise_stable(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((4, 96))
        store = make_store(w=rng.standard_normal((5, 49)))

        def run():
            with Tape() as tape:
                re, im = ad.rfft_op(Variable(x))
                h = ad.linear(ad.magnitude(re, im), store["w"])
                loss = ad.vsum(ad.square(h))
                tape.backward(loss)
            g = store["w"].grad.copy()
            store.zero_grads()
            return loss.value.copy(), g

        l1, g1 = run()
        l2, g2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert g1.tobytes() == g2.tobytes()
