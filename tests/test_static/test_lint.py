"""Tests for the repo linter (rules R001-R010)."""

import textwrap

import pytest

from repro.exceptions import LintViolationError, StaticAnalysisError
from repro.static import (
    ALL_RULES,
    RULES_BY_ID,
    allowed_exception_names,
    default_lint_target,
    lint_paths,
    select_rules,
)


def lint_source(tmp_path, source, name="snippet.py", rules=None):
    """Write a snippet and lint it, returning the violations."""
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint_paths([target], rule_ids=rules).violations


class TestR001UnseededRandom:
    def test_catches_planted_unseeded_default_rng(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            import numpy as np

            def sample():
                rng = np.random.default_rng()
                return rng.integers(0, 10)
            """,
        )
        assert [v.rule for v in violations] == ["R001"]
        assert "resolve_rng" in violations[0].message

    def test_catches_seeded_default_rng_outside_resolver(self, tmp_path):
        # Even a seeded default_rng bypasses generator threading.
        violations = lint_source(
            tmp_path,
            """
            import numpy as np

            def sample(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert [v.rule for v in violations] == ["R001"]

    def test_allows_default_rng_inside_resolve_rng(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            import numpy as np

            def resolve_rng(state):
                if isinstance(state, np.random.Generator):
                    return state
                return np.random.default_rng(state)
            """,
        )
        assert violations == ()

    def test_catches_global_random_calls(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            import random
            import numpy as np

            def roll():
                return random.randint(1, 6) + np.random.rand()
            """,
        )
        assert sorted(v.rule for v in violations) == ["R001", "R001"]

    def test_catches_unseeded_random_random(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            import random

            rng = random.Random()
            """,
        )
        assert [v.rule for v in violations] == ["R001"]

    def test_allows_seeded_random_random(self, tmp_path):
        # faults/plan.py draws from an explicitly seeded Random.
        violations = lint_source(
            tmp_path,
            """
            import random

            def plan(seed):
                return random.Random(seed)
            """,
        )
        assert violations == ()

    def test_resolves_import_aliases(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            from numpy.random import default_rng

            gen = default_rng()
            """,
        )
        assert [v.rule for v in violations] == ["R001"]


class TestR002WallClock:
    SIM_SNIPPET = """
        import time

        def now():
            return time.time()
        """

    def test_flags_wall_clock_in_sim_module(self, tmp_path):
        # Fabricate a `repro.sim` package so the module path matches.
        pkg = tmp_path / "repro"
        (pkg / "sim").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "sim" / "__init__.py").write_text("")
        violations = lint_source(
            tmp_path, self.SIM_SNIPPET, name="repro/sim/clocked.py"
        )
        assert [v.rule for v in violations] == ["R002"]
        assert "event clock" in violations[0].message

    def test_ignores_wall_clock_outside_simulators(self, tmp_path):
        violations = lint_source(tmp_path, self.SIM_SNIPPET)
        assert violations == ()


class TestR003ExceptionHierarchy:
    def test_flags_builtin_raise(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            def check(x):
                if x < 0:
                    raise ValueError("negative")
            """,
        )
        assert [v.rule for v in violations] == ["R003"]

    def test_allows_not_implemented_and_reraise(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            def abstract():
                raise NotImplementedError

            def passthrough():
                try:
                    abstract()
                except Exception as exc:
                    raise exc
            """,
        )
        assert violations == ()

    def test_allowlist_is_definition_and_export_intersection(self):
        allowed = allowed_exception_names(default_lint_target())
        assert "ReproError" in allowed
        assert "InvalidParameterError" in allowed
        assert "CertificationError" in allowed
        assert "ValueError" not in allowed


class TestR004MutableDefault:
    def test_flags_list_dict_set_defaults(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            def a(x=[]):
                return x

            def b(x={}):
                return x

            def c(*, x=set()):
                return x
            """,
        )
        assert [v.rule for v in violations] == ["R004", "R004", "R004"]

    def test_allows_immutable_defaults(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            def f(x=(), y=None, z="s", w=frozenset()):
                return x, y, z, w
            """,
        )
        assert violations == ()


class TestR005ChainConstruction:
    def test_flags_chain_outside_build_chains(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            from repro.codes.base import ElementKind, ParityChain

            def sneak():
                return ParityChain(ElementKind.ROW, (0, 0), ((0, 1),))
            """,
        )
        assert [v.rule for v in violations] == ["R005"]

    def test_allows_chain_inside_build_chains(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            from repro.codes.base import ElementKind, ParityChain

            class Code:
                def _build_chains(self):
                    def helper(r):
                        return ParityChain(ElementKind.ROW, (r, 0), ((r, 1),))
                    return [helper(0)]
            """,
        )
        assert violations == ()


class TestR006PerWordLoop:
    LOOP_SNIPPET = """
        def xor_words(dst, src):
            for i in range(len(dst)):
                dst[i] ^= src[i]
        """

    def _engine_pkg(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "engine").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "engine" / "__init__.py").write_text("")

    def test_flags_per_word_loop_in_engine_module(self, tmp_path):
        self._engine_pkg(tmp_path)
        violations = lint_source(
            tmp_path, self.LOOP_SNIPPET, name="repro/engine/slow.py"
        )
        assert [v.rule for v in violations] == ["R006"]
        assert "word-wide" in violations[0].message

    def test_ignores_per_word_loop_outside_engine(self, tmp_path):
        violations = lint_source(tmp_path, self.LOOP_SNIPPET)
        assert violations == ()

    def test_ignores_non_xor_loops_in_engine(self, tmp_path):
        self._engine_pkg(tmp_path)
        violations = lint_source(
            tmp_path,
            """
            def total(steps):
                acc = 0
                for i in range(len(steps)):
                    acc += steps[i].cost
                return acc
            """,
            name="repro/engine/fine.py",
        )
        assert violations == ()

    def test_noqa_waives_the_scalar_oracle(self, tmp_path):
        self._engine_pkg(tmp_path)
        violations = lint_source(
            tmp_path,
            """
            def oracle(dst, src):
                for i in range(len(dst)):  # noqa: R006
                    dst[i] ^= src[i]
            """,
            name="repro/engine/oracle.py",
        )
        assert violations == ()

    def test_shipped_engine_package_is_clean(self):
        from repro import engine

        from pathlib import Path

        report = lint_paths(
            [Path(engine.__file__).parent], rule_ids=["R006"]
        )
        assert report.clean


class TestR007JournalMutation:
    def _journal_pkg(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "journal").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "journal" / "__init__.py").write_text("")

    def test_flags_buffer_write_outside_replayers(self, tmp_path):
        self._journal_pkg(tmp_path)
        violations = lint_source(
            tmp_path,
            """
            def sneak(stripe, payload):
                stripe.data[0, 1][4:8] = payload
            """,
            name="repro/journal/sneaky.py",
        )
        assert [v.rule for v in violations] == ["R007"]
        assert "framed record" in violations[0].message

    def test_flags_mutator_call_outside_replayers(self, tmp_path):
        self._journal_pkg(tmp_path)
        violations = lint_source(
            tmp_path,
            """
            def sneak(stripe, buf):
                stripe.set((0, 1), buf)
            """,
            name="repro/journal/mutcall.py",
        )
        assert [v.rule for v in violations] == ["R007"]

    def test_allows_mutation_inside_apply_and_undo(self, tmp_path):
        self._journal_pkg(tmp_path)
        violations = lint_source(
            tmp_path,
            """
            def apply_record(record, stripe, cols):
                stripe.data[0, 1][0:4] = record.payload
                stripe.clear_latent((0, 1))

            def undo_record(record, stripe, cols):
                stripe.data[0, 1] = record.preimage
            """,
            name="repro/journal/replayers.py",
        )
        assert violations == ()

    def test_ignores_mutation_outside_journal_package(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            def fine(stripe, payload):
                stripe.data[0, 1][4:8] = payload
                stripe.set((0, 1), payload)
            """,
        )
        assert violations == ()

    def test_shipped_journal_package_is_clean(self):
        from pathlib import Path

        from repro import journal

        report = lint_paths([Path(journal.__file__).parent], rule_ids=["R007"])
        assert report.clean


class TestR008UnlockedSharedState:
    def _service_pkg(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "service").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "service" / "__init__.py").write_text("")

    SNIPPET = """
    import threading


    class Shared:
        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0
            self.items = []

        def unguarded(self):
            self.total += 1
            self.items.append(1)

        def guarded(self):
            with self._lock:
                self.total += 1
                self.items.append(1)
    """

    def test_flags_unguarded_mutations_only(self, tmp_path):
        self._service_pkg(tmp_path)
        violations = lint_source(
            tmp_path, self.SNIPPET, name="repro/service/shared.py"
        )
        assert [v.rule for v in violations] == ["R008", "R008"]
        assert all("owning lock" in v.message for v in violations)
        # both hits are in unguarded(); the guarded copies are clean
        assert {v.line for v in violations} == {12, 13}

    def test_ignores_code_outside_the_service_package(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "array").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "array" / "__init__.py").write_text("")
        violations = lint_source(
            tmp_path, self.SNIPPET, name="repro/array/shared.py"
        )
        assert violations == ()

    def test_condition_variable_counts_as_a_lock(self, tmp_path):
        self._service_pkg(tmp_path)
        violations = lint_source(
            tmp_path,
            """
            import threading


            class Queue:
                def __init__(self):
                    self._cv = threading.Condition()
                    self.depth = 0

                def push(self):
                    with self._cv:
                        self.depth += 1
            """,
            name="repro/service/q.py",
        )
        assert violations == ()

    def test_locked_suffix_methods_are_exempt(self, tmp_path):
        self._service_pkg(tmp_path)
        violations = lint_source(
            tmp_path,
            """
            class Scanner:
                def _advance_locked(self):
                    self.cursor += 1
            """,
            name="repro/service/scan.py",
        )
        assert violations == ()

    def test_subscript_chains_and_tuple_targets_flagged(self, tmp_path):
        self._service_pkg(tmp_path)
        violations = lint_source(
            tmp_path,
            """
            class Table:
                def poke(self, key):
                    self.rows[key] = 1
                    self.a, other = 1, 2
            """,
            name="repro/service/table.py",
        )
        assert [v.rule for v in violations] == ["R008", "R008"]

    def test_noqa_waiver_respected(self, tmp_path):
        self._service_pkg(tmp_path)
        violations = lint_source(
            tmp_path,
            """
            class Ledger:
                def record(self):
                    self.count += 1  # noqa: R008 - single-owner ledger
            """,
            name="repro/service/ledger.py",
        )
        assert violations == ()

    def test_service_package_is_clean(self):
        """The shipped service code satisfies its own lint rule."""
        import repro.service as service_pkg

        pkg_dir = service_pkg.__path__[0]
        report = lint_paths([pkg_dir], rule_ids=["R008"])
        assert report.clean, report.render()


class TestR010BackendHygiene:
    def _pkg(self, tmp_path, *subs):
        pkg = tmp_path / "repro"
        pkg.mkdir(exist_ok=True)
        (pkg / "__init__.py").write_text("")
        for sub in subs:
            path = pkg
            for part in sub.split("/"):
                path = path / part
                path.mkdir(exist_ok=True)
                (path / "__init__.py").write_text("")

    def test_flags_multiprocessing_import_outside_backends(self, tmp_path):
        self._pkg(tmp_path, "array")
        violations = lint_source(
            tmp_path,
            """
            import multiprocessing

            def spawn():
                return multiprocessing.Pool(4)
            """,
            name="repro/array/fastpath.py",
        )
        assert [v.rule for v in violations] == ["R010", "R010"]
        assert "repro.engine.backends" in violations[0].message

    def test_flags_shared_memory_import_outside_backends(self, tmp_path):
        self._pkg(tmp_path, "engine")
        violations = lint_source(
            tmp_path,
            """
            from multiprocessing import shared_memory

            def attach(name):
                return shared_memory.SharedMemory(name=name)
            """,
            name="repro/engine/shortcut.py",
        )
        assert [v.rule for v in violations] == ["R010", "R010"]

    def test_flags_process_pool_import_outside_backends(self, tmp_path):
        self._pkg(tmp_path, "service")
        violations = lint_source(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor

            def pool():
                return ProcessPoolExecutor(max_workers=2)
            """,
            name="repro/service/workers.py",
        )
        assert [v.rule for v in violations] == ["R010", "R010"]
        assert "ProcessPoolExecutor" in violations[0].message

    def test_thread_pool_stays_legal_everywhere(self, tmp_path):
        self._pkg(tmp_path, "engine")
        violations = lint_source(
            tmp_path,
            """
            from concurrent.futures import ThreadPoolExecutor

            def pool(workers):
                return ThreadPoolExecutor(max_workers=workers)
            """,
            name="repro/engine/threads.py",
        )
        assert violations == ()

    def test_allows_primitives_inside_backends(self, tmp_path):
        self._pkg(tmp_path, "engine/backends")
        violations = lint_source(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import shared_memory

            def execute(plan, target, *, stats=None, workers=None):
                seg = shared_memory.SharedMemory(name="repro-seg-1-1")
                seg.close()
            """,
            name="repro/engine/backends/mine.py",
        )
        assert violations == ()

    def test_flags_backend_entry_point_without_stats_seam(self, tmp_path):
        self._pkg(tmp_path, "engine/backends")
        violations = lint_source(
            tmp_path,
            """
            def execute(plan, target, *, workers=None):
                pass

            def execute_region(plan, buf):
                pass
            """,
            name="repro/engine/backends/silent.py",
        )
        assert [v.rule for v in violations] == ["R010", "R010"]
        assert "IOStats" in violations[0].message

    def test_ignores_files_outside_the_package(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            import multiprocessing

            def execute(job):
                return multiprocessing.cpu_count()
            """,
        )
        assert violations == ()

    def test_shipped_backends_package_is_clean(self):
        from pathlib import Path

        import repro

        report = lint_paths(
            [Path(repro.__file__).parent], rule_ids=["R010"]
        )
        assert report.clean


class TestWaivers:
    def test_noqa_with_rule_id_waives(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            import random

            rng = random.Random()  # noqa: R001
            """,
        )
        assert violations == ()

    def test_bare_noqa_waives_everything(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            def f(x=[]):  # noqa
                return x
            """,
        )
        assert violations == ()

    def test_mismatched_noqa_does_not_waive(self, tmp_path):
        # The R004 still fires, and R009 flags the useless R001 waiver.
        violations = lint_source(
            tmp_path,
            """
            def f(x=[]):  # noqa: R001
                return x
            """,
        )
        assert sorted(v.rule for v in violations) == ["R004", "R009"]


class TestDriver:
    def test_repro_package_is_clean(self):
        report = lint_paths([default_lint_target()])
        assert report.clean, report.render()
        assert report.files_checked > 50

    def test_rule_selection(self, tmp_path):
        violations = lint_source(
            tmp_path,
            """
            import random

            def f(x=[]):
                return random.random()
            """,
            rules=["R004"],
        )
        assert [v.rule for v in violations] == ["R004"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(StaticAnalysisError, match="R999"):
            select_rules(["R999"])

    def test_syntax_error_is_a_clean_failure(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(StaticAnalysisError, match="cannot parse"):
            lint_paths([bad])

    def test_require_clean_raises_with_violations(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("def f(x=[]):\n    return x\n")
        report = lint_paths([target])
        with pytest.raises(LintViolationError) as excinfo:
            report.require_clean()
        assert len(excinfo.value.violations) == 1

    def test_catalogue_is_complete(self):
        assert [r.rule_id for r in ALL_RULES] == [
            "R001", "R002", "R003", "R004", "R005", "R006", "R007",
            "R008", "R009", "R010",
        ]
        assert set(RULES_BY_ID) == {
            "R001", "R002", "R003", "R004", "R005", "R006", "R007",
            "R008", "R009", "R010",
        }

    def test_report_json_shape(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("def f(x=[]):\n    return x\n")
        payload = lint_paths([target]).to_dict()
        assert payload["files_checked"] == 1
        (violation,) = payload["violations"]
        assert violation["rule"] == "R004"
        assert violation["line"] == 1
