import pathlib
import re
import zlib

import numpy as np
import pytest

from adamoge import autodiff as ad
from adamoge.autodiff import (
    ParameterStore,
    Tape,
    Variable,
    grad_check,
)
from adamoge.moge import AdaMoGeModel, ModelConfig


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
        assert store["w"].grad is None
        with Tape() as tape:
            tape.backward(ad.vsum(ad.square(store["w"])))
        assert store["w"].grad.shape == (2, 3)
        store.zero_grads()
        assert store["w"].grad is None

    def test_parameter_owns_its_value(self):
        arr = np.ones(3)
        store = ParameterStore()
        p = store.add("w", arr)
        p.value -= 0.5
        store.load_state_dict({"w": np.zeros(3)})
        assert np.all(arr == 1.0)

    def test_state_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        store = make_store(a=rng.standard_normal(5), b=rng.standard_normal((2, 2)))
        state = store.state_dict()
        store["a"].value[...] = 0.0
        store.load_state_dict(state)
        assert np.array_equal(store["a"].value, state["a"])


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


def small_model(**cfg_kw):
    store = ParameterStore()
    cfg = ModelConfig(**{"e_max": 4, "feature_dim": 8, **cfg_kw})
    model = AdaMoGeModel(store, 32, 16, 2, cfg, seed=5)
    rng = np.random.default_rng(6)
    return store, model, rng.standard_normal((3, 32, 2)), rng.standard_normal((3, 16, 2))


class TestGradientRule:
    """One rule for every Variable: ``grad`` stays None until a cotangent
    arrives, the first is adopted, later ones are added out of place, and a
    node's output cotangent is dropped once its adjoint has run."""

    def test_second_backward_adds_exactly_once_more(self):
        store = make_store(w=np.array([0.3, -1.2, 0.7]))
        with Tape() as tape:
            loss = ad.vsum(ad.square(ad.exp(store["w"]) * 2.0))
            tape.backward(loss)
            once = store["w"].grad.copy()
            tape.backward(loss)
        assert np.allclose(once, 8.0 * np.exp(2.0 * store["w"].value))
        assert np.array_equal(store["w"].grad, 2.0 * once)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_only_leaves_keep_gradients(self, depth):
        store, model, x, y = small_model(depth=depth)
        xv = Variable(x)
        with Tape() as tape:
            loss = ad.vmean(ad.square(model.forward(xv) - y))
            tape.backward(loss)
        outputs = [out for _, out, _ in tape._nodes]
        assert all(out.grad is None for out in outputs)
        assert xv.grad is not None and xv.grad.shape == xv.shape
        for p in store:
            assert p.grad is None or p.grad.shape == p.shape, p.name
        assert store["b0.experts.wre"].grad is not None

    def test_shared_cotangent_stays_independent(self):
        # ``add`` hands its one cotangent object to both inputs; ``a * d`` is
        # recorded first, so its contribution to ``a`` arrives after that
        # and must not reach ``b``
        c = np.array([1.0, 2.0, 3.0])
        d = np.array([0.5, -0.25, 4.0])
        store = make_store(a=np.array([1.0, -1.0, 2.0]), b=np.zeros(3))
        a, b = store["a"], store["b"]
        with Tape() as tape:
            t = a * d
            loss = ad.vsum((a + b) * c) + ad.vsum(t)
            tape.backward(loss)
        assert np.array_equal(b.grad, c)
        assert np.array_equal(a.grad, c + d)

    @pytest.mark.parametrize("cfg_kw", [
        {},
        {"depth": 3},
        {"filter_family": "truncation"},
        {"filter_mode": "abs-dog"},
        {"adaptive_k": False, "fixed_k": 2},
    ], ids=["default", "depth3", "truncation", "abs-dog", "fixed-k"])
    def test_adjoints_never_write_into_their_cotangent(self, cfg_kw):
        store, model, x, y = small_model(**cfg_kw)
        with Tape() as tape:
            loss = ad.vmean(ad.square(model.forward(Variable(x)) - y))
            tape.backward(loss)
            plain = {p.name: None if p.grad is None else p.grad.copy() for p in store}
            store.zero_grads()

            def read_only(bwd):
                def run(g):
                    g.flags.writeable = False
                    return bwd(g)
                return run

            tape._nodes = [(ins, out, read_only(bwd)) for ins, out, bwd in tape._nodes]
            tape.backward(loss)
        for p in store:
            if plain[p.name] is None:
                assert p.grad is None, p.name
            else:
                assert p.grad.tobytes() == plain[p.name].tobytes(), p.name


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "adamoge"
# augmented or subscripted assignment to a ``.grad``, or a ``.grad`` used as
# an ``out=`` target or filled; rebinding (``x.grad = ...``) is the rule
GRAD_WRITE = re.compile(
    r"\.grad(\[[^\]]*\])?\s*(\*\*|//|>>|<<|[-+*/@%&|^])=|\.grad\[[^\]]*\]\s*=(?!=)"
    r"|out=[^,)]*\.grad\b|\.grad\.(fill|put|itemset)\(|copyto\([^,]*\.grad\b"
)


def test_grad_write_pattern_fires():
    for line in ("p.grad += g", "p.grad[...] = 0.0", "v.grad[0] *= 2",
                 "np.add(a, b, out=var.grad)", "p.grad.fill(0.0)"):
        assert GRAD_WRITE.search(line), line
    for line in ("var.grad = g if var.grad is None else var.grad + g", "p.grad = None",
                 "if p.grad[0] == 0.0:"):
        assert not GRAD_WRITE.search(line), line


def test_source_writes_no_gradient_in_place():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    hits = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in files
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if GRAD_WRITE.search(line)
    ]
    assert not hits, "in-place gradient write in src:\n" + "\n".join(hits)


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
        # crc32, unlike the per-process salted str hash, draws the same
        # inputs in every run
        rng = np.random.default_rng(zlib.crc32(name.encode()))
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
        # a central difference straddling a kink of the builder above
        # measures neither one-sided slope
        kinks = {"relu": (1.0,), "absval": (1.2,), "clamp": (0.8, 1.7)}
        for kink in kinks.get(name, ()):
            assert np.min(np.abs(a - kink)) >= 1e-3, f"{name}: input within 1e-3 of {kink}"
        err = fd_check(builders[name], {"a": a, "b": b, "w": w, "c": c})
        assert err < 1e-6, f"{name}: {err}"

    def test_magnitude_adjoint(self):
        rng = np.random.default_rng(9)
        re = rng.standard_normal((2, 5)) + 0.5
        im = rng.standard_normal((2, 5)) + 0.5
        params = {"spec": np.concatenate([re, im], axis=1)}
        err = fd_check(lambda s: ad.vsum(ad.square(ad.magnitude(s["spec"]))), params)
        assert err < 1e-6

    def test_magnitude_subgradient_zero_at_origin(self):
        store = make_store(spec=np.zeros(6))
        with Tape() as tape:
            loss = ad.vsum(ad.magnitude(store["spec"]))
            tape.backward(loss)
        assert np.all(store["spec"].grad[:3] == 0.0)
        assert np.all(store["spec"].grad[3:] == 0.0)

    def test_magnitude_pythagorean(self):
        out = ad.magnitude(Variable(np.array([3.0, 4.0])))
        assert out.value[0] == 5.0

    def test_rfft_adjoint(self, subtests=None):
        rng = np.random.default_rng(12)
        for n in (8, 12, 96):
            params = {"x": rng.standard_normal((3, n))}
            f = n // 2 + 1
            swap = np.roll(np.eye(2 * f), f, axis=0)  # [re | im] @ swap.T = [im | re]

            def build(s):
                spec = ad.rfft_op(s["x"])
                # sum re^2 + sum im^2 + sum re*im
                return ad.vsum(ad.square(spec)) + 0.5 * ad.vsum(spec * ad.linear(spec, swap))

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

    # expert 0 selected by samples 0 and 1, expert 1 by samples 1 and 2,
    # expert 2 by none
    MAP_MASK = np.array([[True, False, False], [True, True, False], [False, True, False]])

    @staticmethod
    def _mixed_map(x, w, mask, wre, wim, bre, bim):
        """The gate's mix of the experts' affine maps, as the block forms it:
        the map on the input side plus the per-sample mix of the biases."""
        e = bre.value.shape[0]
        bias = ad.reshape(ad.concat([bre, bim], axis=1), (e, 1, 1, -1))
        return ad.complex_expert_map(x, w, mask, wre, wim) + ad.masked_weighted_sum(bias, w, mask)

    def test_complex_expert_map_adjoint(self):
        rng = np.random.default_rng(14)
        b, e, v, f, o = 3, 3, 2, 4, 3
        mask = self.MAP_MASK
        params = {
            "x": np.concatenate(
                [rng.standard_normal((e, b, v, f)), rng.standard_normal((e, b, v, f))], axis=-1
            ),
            "w": rng.uniform(0.1, 1.0, size=(b, e)),
            "wre": rng.standard_normal((e, o, f)),
            "wim": rng.standard_normal((e, o, f)),
            "bre": rng.standard_normal((e, o)),
            "bim": rng.standard_normal((e, o)),
        }

        def build(s):
            y = self._mixed_map(s["x"], s["w"], mask, s["wre"], s["wim"], s["bre"], s["bim"])
            return ad.vsum(ad.square(y))

        err = fd_check(build, params)
        assert err < 1e-6

    def _complex_map_case(self, rng, v=2, f=7, o=5):
        """Complex input, weights and biases of an expert map with odd F != O,
        and gate weights, on MAP_MASK's (B, E) = (3, 3)."""
        b, e = self.MAP_MASK.shape

        def crandn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        gate = rng.uniform(0.1, 1.0, size=(b, e))
        return crandn(b, e, v, f), crandn(e, o, f), crandn(e, o), gate

    def test_complex_expert_map_matches_loop_oracle(self):
        from oracles import complex_matvec

        rng = np.random.default_rng(15)
        x, w, bias, gate = self._complex_map_case(rng)
        o = w.shape[1]
        xe = x.transpose(1, 0, 2, 3)  # expert-major
        y = self._mixed_map(
            Variable(np.concatenate([xe.real, xe.imag], axis=-1)), Variable(gate), self.MAP_MASK,
            *(Variable(a) for a in (w.real, w.imag, bias.real, bias.imag)),
        ).value
        for b, v in np.ndindex(x.shape[0], x.shape[2]):
            want = sum(
                gate[b, e] * (np.array(complex_matvec(w[e].tolist(), x[b, e, v].tolist())) + bias[e])
                for e in np.flatnonzero(self.MAP_MASK[b])
            )
            got = y[b, v, :o] + 1j * y[b, v, o:]
            assert np.max(np.abs(got - want)) < 1e-10, (b, v)

    def test_complex_expert_map_gradients_match_complex_reference(self):
        rng = np.random.default_rng(19)
        x, w, bias, gate = self._complex_map_case(rng)
        mask = self.MAP_MASK
        o = w.shape[1]
        store = make_store(gate=gate, wre=w.real, wim=w.imag, bre=bias.real, bim=bias.imag)
        xv = Variable(np.concatenate([x.real, x.imag], axis=-1).transpose(1, 0, 2, 3))
        gy = rng.standard_normal((x.shape[0], x.shape[2], 2 * o))
        with Tape() as tape:
            y = self._mixed_map(xv, store["gate"], mask,
                                *(store[n] for n in ("wre", "wim", "bre", "bim")))
            tape.backward(ad.vsum(y * gy))
        # the packed cotangent as one complex number per output bin
        g = gy[..., :o] + 1j * gy[..., o:]
        wm = gate * mask
        gw = np.einsum("be,bvo,bevf->eof", wm, g, np.conj(x))
        gb = np.einsum("be,bvo->eo", wm, g)
        gx = np.einsum("be,bvo,eof->bevf", wm, g, np.conj(w))
        # d(loss)/d(gate[b,e]) = Re <g, W_e x + b_e> on the mask
        ye = np.einsum("eof,bevf->bevo", w, x) + bias[None, :, None]
        ggate = mask * np.einsum("bvo,bevo->be", np.conj(g), ye).real
        for got, want in (
            (store["wre"].grad, gw.real),
            (store["wim"].grad, gw.imag),
            (store["bre"].grad, gb.real),
            (store["bim"].grad, gb.imag),
            (xv.grad, np.concatenate([gx.real, gx.imag], axis=-1).transpose(1, 0, 2, 3)),
            (store["gate"].grad, ggate),
        ):
            assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))
        # the expert no sample selects is never read: exact zeros
        for name in ("wre", "wim", "bre", "bim"):
            assert np.all(store[name].grad[2] == 0.0), name

    @pytest.mark.parametrize("axis", [1, -2, 2, -1])
    def test_concat_adjoint_hands_each_part_its_slice(self, axis):
        rng = np.random.default_rng(20)
        sizes = (2, 3, 1)
        shapes = []
        for size in sizes:
            shape = [2, 4, 3]
            shape[axis] = size
            shapes.append(tuple(shape))
        parts = [Variable(rng.standard_normal(s)) for s in shapes]
        with Tape() as tape:
            out = ad.concat(parts, axis)
            g = rng.standard_normal(out.shape)
            tape.backward(ad.vsum(out * g))
        for part, chunk in zip(parts, np.split(g, np.cumsum(sizes)[:-1], axis=axis)):
            assert part.grad.shape == part.shape
            assert np.array_equal(part.grad, chunk)

    def test_masked_weighted_sum_adjoint(self):
        rng = np.random.default_rng(16)
        mask = np.array([[True, False, True], [False, True, True]])
        params = {
            "y": rng.standard_normal((2, 3, 4, 2)).transpose(1, 0, 2, 3),
            "w": rng.uniform(0.1, 1.0, size=(2, 3)),
        }
        err = fd_check(
            lambda s: ad.vsum(ad.square(ad.masked_weighted_sum(s["y"], s["w"], mask))),
            params,
        )
        assert err < 1e-6

    def test_masked_weighted_sum_shared_over_samples_adjoint(self):
        # y's B axis is 1: one value per expert, broadcast to every sample
        rng = np.random.default_rng(21)
        mask = np.array([[True, False, True], [False, True, True]])
        params = {
            "y": rng.standard_normal((3, 1, 1, 4)),
            "w": rng.uniform(0.1, 1.0, size=(2, 3)),
        }
        err = fd_check(
            lambda s: ad.vsum(ad.square(ad.masked_weighted_sum(s["y"], s["w"], mask))),
            params,
        )
        assert err < 1e-6

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_masked_weighted_sum_shared_masked_values_are_bit_inert(self):
        # expert 0 selected by sample 0 only, expert 2 by no sample
        rng = np.random.default_rng(22)
        y = rng.standard_normal((3, 1, 1, 2))
        w = np.array([[0.4, 0.6, 0.0], [0.0, 1.0, 0.0]])
        mask = w > 0.0
        g = rng.standard_normal((2, 3, 2))

        def run(values):
            yv, wv = Variable(values), Variable(w)
            with Tape() as tape:
                out = ad.masked_weighted_sum(yv, wv, mask)
                tape.backward(ad.vsum(out * g))
            return out.value, yv.grad, wv.grad

        base_out, base_gy, base_gw = run(y)
        for bad in (np.pi, np.nan, np.inf, -np.inf):
            y2 = y.copy()
            y2[2] = bad  # selected by no sample
            for got, want in zip(run(y2), (base_out, base_gy, base_gw)):
                assert got.tobytes() == want.tobytes()
            y2 = y.copy()
            y2[0] = bad  # selected by sample 0 only: sample 1 and w's row 1 stay
            out, gy, gw = run(y2)
            assert out[1].tobytes() == base_out[1].tobytes()
            assert gw[1].tobytes() == base_gw[1].tobytes()
            assert gy[1:].tobytes() == base_gy[1:].tobytes()

    def test_masked_weighted_sum_ignores_masked_values(self):
        rng = np.random.default_rng(17)
        y = rng.standard_normal((1, 2, 3, 1)).transpose(1, 0, 2, 3)
        w = np.array([[0.7, 0.0]])
        mask = np.array([[True, False]])
        g = rng.standard_normal((1, 3, 1))

        def run(values):
            yv, wv = Variable(values), Variable(w)
            with Tape() as tape:
                out = ad.masked_weighted_sum(yv, wv, mask)
                tape.backward(ad.vsum(out * g))
            return out.value, yv.grad, wv.grad

        finite = run(y)
        # the masked expert at zero weight: perturbed, NaN, +-inf, and mixed
        for bad in (np.pi, np.nan, np.inf, -np.inf, [np.inf, -np.inf, np.nan]):
            y2 = y.copy()
            y2[1, 0, :, 0] = bad
            for got, want in zip(run(y2), finite):
                assert got.tobytes() == want.tobytes()


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp overflows on purpose
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
                h = ad.linear(ad.magnitude(ad.rfft_op(Variable(x))), store["w"])
                loss = ad.vsum(ad.square(h))
                tape.backward(loss)
            g = store["w"].grad.copy()
            store.zero_grads()
            return loss.value.copy(), g

        l1, g1 = run()
        l2, g2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert g1.tobytes() == g2.tobytes()
