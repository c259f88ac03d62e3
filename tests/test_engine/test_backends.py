"""Differential proof for the kernel-backend registry.

Every registered backend — vector, (when a C compiler exists) native,
and whichever of them ``auto`` resolves to — must be *byte-identical*
to the scalar oracle on every code, every plan kind, aligned and
unaligned element sizes, single stripes and batches, and degraded
inputs.  Hypothesis
drives the sweep; the scalar executor and the pure-Python decoder are
the ground truth.

Alongside the differential sweep this file pins the backend contract:
registry resolution rules, the fused kernel-call accounting drop, and
graceful handling of unavailable backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CauchyRSCode,
    EvenOddCode,
    HCode,
    HDPCode,
    HVCode,
    LiberationCode,
    PCode,
    RDPCode,
    XCode,
)
from repro.array.filestore import FileStore
from repro.array.iostats import IOStats
from repro.array.stripe import StripeBatch
from repro.codes.registry import get_code
from repro.engine import (
    ENGINE_CHOICES,
    available_backends,
    compile_plan,
    execute_plan,
    execute_plan_scalar,
    get_backend,
    register_backend,
    require_engine,
    resolve_backend,
)
from repro.engine.backends import KernelBackend
from repro.exceptions import InvalidParameterError, PlanError

CODE_CLASSES = [
    HVCode,
    RDPCode,
    XCode,
    HDPCode,
    HCode,
    EvenOddCode,
    PCode,
    LiberationCode,
    CauchyRSCode,
]

NATIVE_AVAILABLE = get_backend("native").available()

BACKENDS = [
    "vector",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not NATIVE_AVAILABLE, reason="no C compiler on this host"
        ),
    ),
    "auto",
]

code_strategy = st.builds(
    lambda cls, p: cls(p),
    st.sampled_from(CODE_CLASSES),
    st.sampled_from([5, 7]),
)

xor_code_strategy = st.builds(
    lambda cls, p: cls(p),
    st.sampled_from([c for c in CODE_CLASSES if c is not CauchyRSCode]),
    st.sampled_from([5, 7]),
)

#: 5 and 13 force the uint8-lane fallback; 8 and 16 take the uint64 view.
ELEMENT_SIZES = st.sampled_from([5, 8, 13, 16])


@pytest.mark.parametrize("engine", BACKENDS)
class TestBackendsMatchOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        code=code_strategy,
        seed=st.integers(min_value=0, max_value=2**31),
        element_size=ELEMENT_SIZES,
    )
    def test_encode_matches_python(self, engine, code, seed, element_size):
        stripe = code.random_stripe(element_size=element_size, seed=seed)
        redone = stripe.copy()
        for pos in code.parity_positions:
            redone.set(pos, np.zeros(element_size, dtype=np.uint8))
        code.encode(redone, engine=engine)
        assert redone == stripe

    @settings(max_examples=25, deadline=None)
    @given(
        code=code_strategy,
        seed=st.integers(min_value=0, max_value=2**31),
        element_size=ELEMENT_SIZES,
        data=st.data(),
    )
    def test_double_decode_matches_python(
        self, engine, code, seed, element_size, data
    ):
        stripe = code.random_stripe(element_size=element_size, seed=seed)
        f1 = data.draw(st.integers(0, code.cols - 1))
        f2 = data.draw(
            st.integers(0, code.cols - 1).filter(lambda x: x != f1)
        )
        via_python, via_backend = stripe.copy(), stripe.copy()
        code.decode(via_python, failed_disks=[f1, f2])
        code.decode(via_backend, failed_disks=[f1, f2], engine=engine)
        assert via_python == stripe
        assert via_backend == stripe

    @settings(max_examples=25, deadline=None)
    @given(
        code=code_strategy,
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_random_erasures_match_python(self, engine, code, seed, data):
        """Any recoverable degraded stripe decodes identically."""
        stripe = code.random_stripe(element_size=8, seed=seed)
        cells = sorted(code.layout)
        k = data.draw(st.integers(0, min(6, len(cells))))
        erased = data.draw(
            st.lists(
                st.sampled_from(cells), min_size=k, max_size=k, unique=True
            )
        )
        if not code.can_recover(erased):
            return
        via_python, via_backend = stripe.copy(), stripe.copy()
        for pos in erased:
            via_python.erase(pos)
            via_backend.erase(pos)
        code.decode(via_python)
        code.decode(via_backend, engine=engine)
        assert via_python == stripe
        assert via_backend == stripe

    @settings(max_examples=15, deadline=None)
    @given(
        code=xor_code_strategy,
        seed=st.integers(min_value=0, max_value=2**31),
        element_size=ELEMENT_SIZES,
        data=st.data(),
    )
    def test_raw_plan_matches_scalar_executor(
        self, engine, code, seed, element_size, data
    ):
        """Below the decode API: the same XorPlan, backend vs word-by-word."""
        f1 = data.draw(st.integers(0, code.cols - 1))
        f2 = data.draw(
            st.integers(0, code.cols - 1).filter(lambda x: x != f1)
        )
        try:
            plan = compile_plan(code, "recover-double", (f1, f2))
        except PlanError:
            return  # Gaussian-only pattern; nothing to compare
        stripe = code.random_stripe(element_size=element_size, seed=seed)
        via_backend, scal = stripe.copy(), stripe.copy()
        via_backend.erase_disks([f1, f2])
        scal.erase_disks([f1, f2])
        execute_plan(plan, via_backend, backend=engine)
        execute_plan_scalar(plan, scal)
        assert via_backend == stripe
        assert scal == stripe

    def test_batch_encode_matches_per_stripe_scalar(self, engine):
        code = get_code("HV", 7)
        plan = compile_plan(code, "encode")
        stripes = [
            code.random_stripe(element_size=24, seed=i) for i in range(4)
        ]
        expected = [s.copy() for s in stripes]
        for s in expected:
            execute_plan_scalar(plan, s)
        batch = StripeBatch.from_stripes(stripes)
        execute_plan(plan, batch, backend=engine)
        for got, want in zip(batch.stripes(), expected):
            assert got == want

    def test_filestore_flush_matches_python_store(self, engine):
        """The write-back flush path stores identical bytes per backend."""
        code = get_code("RDP", 5)
        payload = bytes((i * 37) % 256 for i in range(500))
        reference = FileStore(code, element_size=32, engine="python")
        store = FileStore(code, element_size=32, engine=engine)
        for s in (reference, store):
            s.write(0, payload)
        for a, b in zip(reference.stripes, store.stripes):
            assert a == b


class TestKernelAccounting:
    def test_fused_backends_charge_fewer_kernel_calls(self):
        """The vector path pays one ufunc per XOR source while the
        native backend pays one fused multi-source reduction per step.
        Pin the drop so it cannot regress."""
        code = get_code("HV", 7)
        plan = compile_plan(code, "encode")
        assert plan.fused_kernel_calls < plan.kernel_calls
        assert plan.fused_kernel_calls == len(plan.steps)

        def run(backend):
            stripe = code.random_stripe(element_size=64, seed=3)
            stats = IOStats(code.cols)
            execute_plan(plan, stripe, stats=stats, backend=backend)
            return stats.kernel_invocations

        assert run("vector") == plan.kernel_calls
        if not NATIVE_AVAILABLE:
            pytest.skip("no C compiler on this host")
        assert run("native") == plan.fused_kernel_calls

    def test_fused_kernel_calls_not_in_plan_hash(self):
        plan = compile_plan(get_code("HV", 7), "encode")
        payload = plan.to_dict()
        assert "fused_kernel_calls" not in payload

    @pytest.mark.skipif(not NATIVE_AVAILABLE, reason="no C compiler on this host")
    def test_backends_charge_same_xor_words(self):
        code = get_code("EVENODD", 7)
        plan = compile_plan(code, "encode")
        words = {}
        for backend in ("vector", "native"):
            stripe = code.random_stripe(element_size=64, seed=5)
            stats = IOStats(code.cols)
            execute_plan(plan, stripe, stats=stats, backend=backend)
            words[backend] = stats.xor_words
        assert words["native"] == words["vector"]


class TestRegistry:
    def test_engine_choices_cover_registry(self):
        assert set(available_backends()) <= set(ENGINE_CHOICES)
        assert "vector" in available_backends()
        assert ENGINE_CHOICES == ("python", "vector", "native", "auto")

    def test_require_engine_accepts_all_choices(self):
        for name in ENGINE_CHOICES:
            assert require_engine(name) == name

    def test_require_engine_rejects_unknown(self):
        with pytest.raises(InvalidParameterError, match="unknown engine"):
            require_engine("cuda")

    def test_resolve_auto_prefers_native_else_vector(self):
        resolved = resolve_backend("auto")
        if NATIVE_AVAILABLE:
            assert resolved.name == "native"
        else:
            assert resolved.name == "vector"

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(InvalidParameterError):
            get_backend("gpu")

    def test_register_backend_rejects_reserved_names(self):
        for reserved in ("python", "auto", "abstract"):
            bad = KernelBackend()
            bad.name = reserved
            with pytest.raises(InvalidParameterError):
                register_backend(bad)

    def test_native_unavailable_is_explicit_not_silent(self, monkeypatch):
        from repro.engine.backends import native as native_mod

        monkeypatch.setattr(native_mod, "_KERNEL", False)
        backend = get_backend("native")
        assert not backend.available()
        code = get_code("HV", 5)
        plan = compile_plan(code, "encode")
        stripe = code.random_stripe(element_size=8, seed=0)
        with pytest.raises(InvalidParameterError, match="auto"):
            backend.execute(plan, stripe)
        # ...while auto degrades gracefully to a working backend.
        assert resolve_backend("auto").name == "vector"


@pytest.mark.skipif(not NATIVE_AVAILABLE, reason="no C compiler on this host")
class TestNativeUpdate:
    """The end-to-end native update path: delta build, remapped plan,
    and parity fold fused into one C call, byte-identical to the
    pure-Python chain-walk update."""

    def _updated_pair(self, code, element_size, width, seed=0):
        """(oracle stripe, native-updated stripe) after the same RMW."""
        from repro.engine.compile import choose_update_strategy

        rng = np.random.default_rng(seed)
        stripe = code.random_stripe(element_size=element_size, seed=seed)
        positions = list(code.data_positions[:width])
        news = {
            pos: rng.integers(0, 256, element_size, dtype=np.uint8)
            for pos in positions
        }
        oracle = stripe.copy()
        code.update_elements(oracle, news)

        pattern = tuple(sorted(r * code.cols + c for (r, c) in positions))
        strategy, plan = choose_update_strategy(code, pattern)
        assert strategy == "rmw"
        target = stripe.copy()
        old = {}
        for (r, c), new in news.items():
            old[r * code.cols + c] = target.data[r, c].copy()
            target.data[r, c] = new
        backend = get_backend("native")
        stats = IOStats(code.cols)
        backend.execute_update(plan, target, old, stats=stats)
        assert stats.kernel_invocations == 1  # the whole RMW, one C call
        assert stats.xor_words > 0
        return oracle, target

    @pytest.mark.parametrize("element_size", [5, 8, 13, 24, 64])
    def test_matches_chain_walk_oracle(self, element_size):
        for name, p, width in (("HV", 7, 2), ("RDP", 5, 3), ("HV", 11, 4)):
            code = get_code(name, p)
            oracle, target = self._updated_pair(code, element_size, width)
            assert target == oracle

    def test_extended_schedule_is_cached_by_plan_hash(self):
        from repro.engine.compile import choose_update_strategy

        code = get_code("HV", 7)
        pattern = tuple(
            sorted(r * code.cols + c for (r, c) in code.data_positions[:2])
        )
        _, plan = choose_update_strategy(code, pattern)
        backend = get_backend("native")
        backend._update_schedules.pop(plan.plan_hash, None)
        self._updated_pair(code, 16, 2, seed=1)
        first = backend._update_schedules[plan.plan_hash]
        self._updated_pair(code, 16, 2, seed=2)
        assert backend._update_schedules[plan.plan_hash] is first

    def test_rejects_non_update_plans_and_missing_preimages(self):
        from repro.engine.compile import choose_update_strategy

        code = get_code("HV", 7)
        stripe = code.random_stripe(element_size=8, seed=0)
        backend = get_backend("native")
        encode_plan = compile_plan(code, "encode")
        with pytest.raises(InvalidParameterError, match="update"):
            backend.execute_update(encode_plan, stripe, {})
        pattern = tuple(
            sorted(r * code.cols + c for (r, c) in code.data_positions[:2])
        )
        _, plan = choose_update_strategy(code, pattern)
        with pytest.raises(InvalidParameterError, match="pre-image"):
            backend.execute_update(plan, stripe, {})

    def test_filestore_native_flush_matches_python_store(self):
        """A cached native-engine store lands the same bytes (data and
        parity) as the write-through python oracle."""
        code = get_code("HV", 11)
        reference = FileStore(code, element_size=32, engine="python")
        store = FileStore(
            code, element_size=32, engine="native", cache_stripes=2
        )
        rng = np.random.default_rng(7)
        for i in range(12):
            offset = int(rng.integers(0, 4)) * 32
            payload = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
            reference.write(offset, payload)
            store.write(offset, payload)
        store.flush()
        assert store.stats.kernel_invocations >= 1
        for a, b in zip(reference.stripes, store.stripes):
            assert a == b
