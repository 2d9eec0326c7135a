"""repro lint: one positive + one negative fixture per checker, pragmas, CLI."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.devtools.lint import (
    CHECKER_NAMES,
    Finding,
    guarded_fields_of,
    lint_paths,
    lint_source,
    main,
    render_findings,
)

#: Path prefixes that place a fixture inside / outside the simulated world.
SIM = "src/repro/lab/fixture.py"
NONSIM = "src/repro/core/fixture.py"


def lint(source: str, path: str = SIM, **kwargs) -> list[Finding]:
    return lint_source(textwrap.dedent(source), path, **kwargs)


def checks(findings: list[Finding]) -> list[str]:
    return [f.check for f in findings]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_read_flagged(self):
        findings = lint(
            """
            import time

            def tick():
                return time.time()
            """
        )
        assert checks(findings) == ["determinism"]
        assert findings[0].line == 5
        assert "time.time" in findings[0].message

    def test_import_alias_resolved(self):
        findings = lint(
            """
            import time as clock

            def tick():
                return clock.monotonic()
            """
        )
        assert checks(findings) == ["determinism"]

    def test_datetime_now_flagged(self):
        findings = lint(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        )
        assert checks(findings) == ["determinism"]

    def test_unseeded_default_rng_flagged_seeded_clean(self):
        bad = lint(
            """
            import numpy as np

            def draw():
                return np.random.default_rng().normal()
            """
        )
        assert checks(bad) == ["determinism"]
        assert "unseeded" in bad[0].message

        good = lint(
            """
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed).normal()
            """
        )
        assert good == []

    def test_stdlib_global_rng_flagged_seeded_instance_clean(self):
        bad = lint(
            """
            import random

            def draw():
                return random.random()
            """
        )
        assert checks(bad) == ["determinism"]

        good = lint(
            """
            import random

            def make(seed):
                return random.Random(seed)
            """
        )
        assert good == []

    def test_numpy_legacy_global_flagged(self):
        findings = lint(
            """
            import numpy as np

            def shuffle(items):
                np.random.shuffle(items)
            """
        )
        assert checks(findings) == ["determinism"]

    def test_only_simulation_packages_checked(self):
        source = """
        import time

        def tick():
            return time.time()
        """
        assert lint(source, path=NONSIM) == []
        assert checks(lint(source, path="src/repro/cli.py")) == ["determinism"]


# ---------------------------------------------------------------------------
# executor-discipline
# ---------------------------------------------------------------------------


class TestExecutorDiscipline:
    SOURCE = """
    from concurrent.futures import ThreadPoolExecutor

    def fan_out(tasks):
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(str, tasks))
    """

    def test_raw_executor_flagged(self):
        findings = lint(self.SOURCE, path=NONSIM)
        assert checks(findings) == ["executor-discipline"]
        assert "shared_pool" in findings[0].message

    def test_thread_constructor_flagged(self):
        findings = lint(
            """
            import threading

            def spawn(fn):
                threading.Thread(target=fn).start()
            """,
            path=NONSIM,
        )
        assert checks(findings) == ["executor-discipline"]

    def test_pools_module_exempt(self):
        assert lint(self.SOURCE, path="src/repro/runtime/pools.py") == []

    def test_procpool_module_exempt(self):
        source = """
        import multiprocessing

        def spawn(fn):
            ctx = multiprocessing.get_context("fork")
            multiprocessing.Process(target=fn).start()
        """
        assert lint(source, path="src/repro/runtime/procpool.py") == []

    def test_multiprocessing_primitives_flagged(self):
        findings = lint(
            """
            import multiprocessing

            def plumbing():
                return multiprocessing.Queue(), multiprocessing.get_context()
            """,
            path=NONSIM,
        )
        assert checks(findings) == ["executor-discipline", "executor-discipline"]


# ---------------------------------------------------------------------------
# keyspace-literal
# ---------------------------------------------------------------------------


class TestKeyspaceLiteral:
    def test_class_attribute_literal_flagged(self):
        findings = lint(
            """
            class RunJournal:
                KEYSPACE = "runs"
            """,
            path=NONSIM,
        )
        assert checks(findings) == ["keyspace-literal"]

    def test_registry_reference_clean(self):
        assert (
            lint(
                """
                from repro.storage.keyspaces import RUNS

                class RunJournal:
                    KEYSPACE = RUNS
                """,
                path=NONSIM,
            )
            == []
        )

    def test_parameter_default_literal_flagged(self):
        findings = lint(
            """
            def open_store(path, *, keyspace="metrics"):
                pass
            """,
            path=NONSIM,
        )
        assert checks(findings) == ["keyspace-literal"]

    def test_call_keyword_literal_flagged(self):
        findings = lint(
            """
            def dump(backend):
                return list(backend.scan(keyspace="events"))
            """,
            path=NONSIM,
        )
        assert checks(findings) == ["keyspace-literal"]

    def test_registry_module_itself_exempt(self):
        assert (
            lint(
                """
                class Anything:
                    KEYSPACE = "metrics"
                """,
                path="src/repro/storage/keyspaces.py",
            )
            == []
        )


# ---------------------------------------------------------------------------
# guarded-fields
# ---------------------------------------------------------------------------


class TestGuardedFields:
    def test_unlocked_rebind_flagged(self):
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    # guarded-by: _lock
                    self._cache = {}
                    self._lock = threading.Lock()

                def invalidate(self):
                    self._cache = {}
            """,
            path=NONSIM,
        )
        assert checks(findings) == ["guarded-fields"]
        assert "_lock" in findings[0].message

    def test_locked_mutation_clean(self):
        assert (
            lint(
                """
                import threading

                class Store:
                    def __init__(self):
                        # guarded-by: _lock
                        self._cache = {}
                        self._lock = threading.Lock()

                    def invalidate(self):
                        with self._lock:
                            self._cache = {}
                """,
                path=NONSIM,
            )
            == []
        )

    def test_container_mutator_call_flagged(self):
        findings = lint(
            """
            import threading

            class Store:
                def __init__(self):
                    # guarded-by: _lock
                    self._items = []
                    self._lock = threading.Lock()

                def push(self, item):
                    self._items.append(item)
            """,
            path=NONSIM,
        )
        assert checks(findings) == ["guarded-fields"]

    def test_init_exempt(self):
        # Construction happens before the object escapes to other threads.
        assert (
            lint(
                """
                import threading

                class Store:
                    def __init__(self):
                        # guarded-by: _lock
                        self._cache = {}
                        self._lock = threading.Lock()
                        self._cache = {"warm": True}
                """,
                path=NONSIM,
            )
            == []
        )

    def test_dataclass_annotation_binds(self):
        findings = lint(
            """
            import threading
            from dataclasses import dataclass, field

            @dataclass
            class Store:
                # guarded-by: _lock
                _cache: dict = field(default_factory=dict)
                _lock: threading.Lock = field(default_factory=threading.Lock)

                def invalidate(self):
                    self._cache.clear()
            """,
            path=NONSIM,
        )
        assert checks(findings) == ["guarded-fields"]

    def test_guarded_fields_of_mapping(self):
        mapping = guarded_fields_of(
            textwrap.dedent(
                """
                class Store:
                    def __init__(self):
                        # guarded-by: _lock
                        self._cache = {}
                        self._plain = 0
                """
            )
        )
        assert mapping == {"Store": {"_cache": "_lock"}}


# ---------------------------------------------------------------------------
# obs-discipline
# ---------------------------------------------------------------------------


class TestObsDiscipline:
    def test_wall_clock_call_outside_obs_flagged(self):
        findings = lint(
            """
            from repro.obs.clock import wall_clock

            def measure():
                return wall_clock()
            """,
            path=NONSIM,
        )
        assert checks(findings) == ["obs-discipline"]
        assert "wall_clock" in findings[0].message

    def test_wall_clock_inside_obs_package_exempt(self):
        findings = lint(
            """
            from .clock import wall_clock

            def bracket():
                return wall_clock()
            """,
            path="src/repro/obs/trace.py",
        )
        assert findings == []

    def test_span_outside_with_statement_flagged(self):
        findings = lint(
            """
            from repro.obs import span

            def manual():
                open_span = span("advance")
                return open_span
            """,
            path=NONSIM,
        )
        assert checks(findings) == ["obs-discipline"]
        assert "with span" in findings[0].message

    def test_worker_span_outside_with_statement_flagged(self):
        findings = lint(
            """
            from repro.obs import worker as obs_worker

            def leak():
                return obs_worker.worker_span("worker.leak")
            """,
            path=NONSIM,
        )
        assert checks(findings) == ["obs-discipline"]
        assert "with worker_span" in findings[0].message

    def test_span_as_with_item_clean(self):
        findings = lint(
            """
            from repro.obs import span

            def bracketed():
                with span("advance", env="db1"):
                    pass
            """,
            path=NONSIM,
        )
        assert findings == []

    def test_span_in_async_with_clean(self):
        findings = lint(
            """
            from repro.obs import span

            async def bracketed():
                with span("advance") as s:
                    s.annotate(count=1)
            """,
            path=NONSIM,
        )
        assert findings == []

    def test_obs_clock_module_exempt_from_determinism(self):
        # The one sanctioned monotonic read lives in obs/clock.py; the same
        # call in any other obs module is still a determinism finding.
        source = """
        import time

        def wall_clock():
            return time.perf_counter()
        """
        assert lint(source, path="src/repro/obs/clock.py") == []
        findings = lint(source, path="src/repro/obs/metrics.py")
        assert "determinism" in checks(findings)


# ---------------------------------------------------------------------------
# pragmas, strict mode, selection
# ---------------------------------------------------------------------------


class TestPragmas:
    def test_line_pragma_suppresses(self):
        findings = lint(
            """
            import time

            def tick():
                return time.time()  # repro-lint: disable=determinism
            """
        )
        assert findings == []

    def test_file_pragma_suppresses(self):
        findings = lint(
            """\
            # repro-lint: disable=determinism
            import time

            def tick():
                return time.time()
            """
        )
        assert findings == []

    def test_pragma_only_covers_named_check(self):
        findings = lint(
            """
            import time

            def tick():
                return time.time()  # repro-lint: disable=executor-discipline
            """
        )
        assert checks(findings) == ["determinism"]

    def test_stale_pragma_reported_in_strict(self):
        findings = lint(
            """
            def quiet():
                return 1  # repro-lint: disable=determinism
            """,
            strict=True,
        )
        assert checks(findings) == ["stale-pragma"]

    def test_used_pragma_not_stale(self):
        findings = lint(
            """
            import time

            def tick():
                return time.time()  # repro-lint: disable=determinism
            """,
            strict=True,
        )
        assert findings == []

    def test_select_subset(self):
        source = """
        import time
        from concurrent.futures import ThreadPoolExecutor

        def tick():
            ThreadPoolExecutor()
            return time.time()
        """
        only_exec = lint(source, select=["executor-discipline"])
        assert checks(only_exec) == ["executor-discipline"]

    def test_unknown_select_raises(self):
        with pytest.raises(ValueError, match="unknown checker"):
            lint("x = 1", select=["no-such-check"])

    def test_parse_error_is_a_finding(self):
        findings = lint("def broken(:\n")
        assert checks(findings) == ["parse-error"]


# ---------------------------------------------------------------------------
# the merged tree is clean; the CLI gates on findings
# ---------------------------------------------------------------------------


class TestRunner:
    def test_src_tree_is_clean_strict(self):
        assert lint_paths(["src"], strict=True) == []

    def test_render_clean_and_summary(self):
        assert render_findings([]) == "repro lint: clean"
        finding = Finding(path="p.py", line=3, col=1, check="determinism", message="m")
        report = render_findings([finding])
        assert "p.py:3:1: [determinism] m" in report
        assert "1 finding(s)" in report

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0

        dirty = tmp_path / "lab" / "dirty.py"
        dirty.parent.mkdir()
        dirty.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out

        assert main(["--select", "no-such-check", str(clean)]) == 2
        assert main([str(tmp_path / "missing.txt")]) == 2

    def test_cli_json_output(self, tmp_path, capsys):
        dirty = tmp_path / "lab" / "dirty.py"
        dirty.parent.mkdir()
        dirty.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main(["--json", str(dirty)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["check"] == "determinism"
        assert payload[0]["line"] == 4

    def test_checker_names_stable(self):
        # The README / CONTRIBUTING documentation names these literally.
        assert CHECKER_NAMES == (
            "determinism",
            "executor-discipline",
            "keyspace-literal",
            "guarded-fields",
            "obs-discipline",
        )
