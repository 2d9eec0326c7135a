"""The DIADS diagnosis workflow: batch and interactive facades (Figure 2).

Both facades sit on top of the declarative engine in
:mod:`repro.core.pipeline`: the module set, its ordering, and the
plans-differ branch all come from the modules' own ``requires``/``after``/
``gate`` declarations rather than imperative code here.

Batch mode (:meth:`Diads.diagnose`) runs the pipeline and returns a
:class:`DiagnosisReport`; :meth:`Diads.diagnose_many` fans a batch of
queries over a thread pool.  Interactive mode exposes the same pipeline one
step at a time: after each module the administrator can inspect the result,
*edit* it (e.g. remove an operator they know is harmless from COS), *re-run*
a module, or *bypass* one — mirroring the tool's workflow-execution screen
(Figure 7).
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from ..lab.environment import DiagnosisBundle
from ..lab.scenarios import ScenarioBundle
from .modules.base import DiagnosisContext, ModuleResult
from .pipeline import (
    DEFAULT_MODULES,
    DiagnosisPipeline,
    DiagnosisReport,
    DiagnosisRequest,
    RankedCause,
    default_pipeline,
    diagnosable_queries,
)
from .registry import DiagnosisModule, ModuleRegistry
from .symptoms import SymptomsDatabase

__all__ = ["RankedCause", "DiagnosisReport", "Diads", "InteractiveSession", "MODULE_ORDER"]

#: Execution order of the paper's workflow.  The engine derives it from the
#: module declarations at pipeline construction; tests assert this constant
#: matches ``default_pipeline().order``, so importing :mod:`repro` stays
#: free of module instantiation side effects.
MODULE_ORDER = DEFAULT_MODULES

class Diads:
    """The integrated diagnosis tool over one monitoring bundle.

    A thin facade over :class:`DiagnosisPipeline`: it holds the bundle and
    thresholds, builds per-query contexts, and caches finished reports.
    Custom module sets plug in via ``modules`` (registered names or
    instances — see :func:`repro.core.registry.register_module`) or a
    ready-made ``pipeline``.
    """

    def __init__(
        self,
        bundle: DiagnosisBundle,
        threshold: float = 0.8,
        correlation_threshold: float = 0.5,
        symptoms_db: SymptomsDatabase | None = None,
        *,
        modules: Sequence[str | DiagnosisModule] | None = None,
        registry: ModuleRegistry | None = None,
        pipeline: DiagnosisPipeline | None = None,
    ) -> None:
        self.bundle = bundle
        self.threshold = threshold
        self.correlation_threshold = correlation_threshold
        self._registry = registry
        self._default_built = pipeline is None and modules is None
        self._symptoms_db = symptoms_db
        if pipeline is None:
            if modules is None:
                pipeline = default_pipeline(symptoms_db, registry=registry)
            else:
                # Honour the symptoms_db argument when SD is named literally.
                from .modules import SymptomsDatabaseModule

                resolved = [
                    SymptomsDatabaseModule(symptoms_db) if m == "SD" else m
                    for m in modules
                ]
                pipeline = DiagnosisPipeline(resolved, registry=registry)
        self.pipeline = pipeline
        # guarded-by: _cache_lock
        self._reports: dict[tuple, DiagnosisReport] = {}
        self._cache_lock = threading.Lock()
        from ..devtools.sanitize import instrument_guarded

        instrument_guarded(self)  # no-op unless REPRO_SANITIZE=1

    @property
    def symptoms_db(self) -> SymptomsDatabase | None:
        return self._symptoms_db

    @symptoms_db.setter
    def symptoms_db(self, value: SymptomsDatabase | None) -> None:
        """Swap the symptoms database; rebuilds the (default) pipeline."""
        if not self._default_built:
            raise ValueError(
                "cannot swap symptoms_db on a Diads built with a custom "
                "modules=/pipeline= — construct a new Diads (or a new "
                "SymptomsDatabaseModule) instead"
            )
        self._symptoms_db = value
        self.pipeline = default_pipeline(value, registry=self._registry)
        with self._cache_lock:
            self._reports.clear()

    @classmethod
    def from_bundle(cls, bundle: DiagnosisBundle | ScenarioBundle, **kwargs) -> "Diads":
        if isinstance(bundle, ScenarioBundle):
            return cls(bundle.bundle, **kwargs)
        return cls(bundle, **kwargs)

    # ------------------------------------------------------------------
    def context(self, query_name: str) -> DiagnosisContext:
        return DiagnosisContext(
            bundle=self.bundle,
            query_name=query_name,
            threshold=self.threshold,
            correlation_threshold=self.correlation_threshold,
        )

    def modules(self) -> dict[str, DiagnosisModule]:
        """The pipeline's module instances, in execution order."""
        return self.pipeline.modules()

    def queries(self) -> list[str]:
        """Query names in the bundle with both labels, i.e. diagnosable."""
        return diagnosable_queries(self.bundle)

    def _cache_key(self, query_name: str) -> tuple:
        return (query_name, self.threshold, self.correlation_threshold)

    # ------------------------------------------------------------------
    def diagnose(self, query_name: str, *, refresh: bool = False) -> DiagnosisReport:
        """Batch mode: run the full workflow and rank root causes.

        Reports are cached per query (the monitoring bundle is immutable
        during diagnosis); pass ``refresh=True`` to re-run the pipeline.
        """
        key = self._cache_key(query_name)
        if not refresh:
            with self._cache_lock:
                cached = self._reports.get(key)
            if cached is not None:
                return cached
        report = self.pipeline.diagnose(
            self.bundle,
            query_name,
            threshold=self.threshold,
            correlation_threshold=self.correlation_threshold,
        )
        with self._cache_lock:
            self._reports[key] = report
        return report

    def diagnose_many(
        self,
        query_names: Sequence[str] | None = None,
        max_workers: int | None = None,
    ) -> list[DiagnosisReport]:
        """Diagnose many queries of this bundle concurrently.

        ``query_names`` defaults to every diagnosable query in the bundle
        (see :meth:`queries`).  Results come back in input order and share
        the per-query cache :meth:`diagnose` uses — cached queries are not
        re-diagnosed.
        """
        names = list(query_names) if query_names is not None else self.queries()
        with self._cache_lock:
            cached = {
                name: self._reports.get(self._cache_key(name)) for name in names
            }
        missing = [name for name in names if cached[name] is None]
        fresh = self.pipeline.diagnose_many(
            [
                DiagnosisRequest(
                    bundle=self.bundle,
                    query_name=name,
                    threshold=self.threshold,
                    correlation_threshold=self.correlation_threshold,
                )
                for name in missing
            ],
            max_workers=max_workers,
        )
        with self._cache_lock:
            for name, report in zip(missing, fresh):
                cached[name] = report
                self._reports[self._cache_key(name)] = report
        return [cached[name] for name in names]

    def interactive(self, query_name: str) -> "InteractiveSession":
        """Interactive mode: step through modules, editing results."""
        return InteractiveSession(self, query_name)


class InteractiveSession:
    """Step-wise workflow execution with result editing (Figure 7).

    The first pass must follow the pipeline order; afterwards any module can
    be re-executed in any order (matching the tool's behaviour: "Only the
    first execution of the modules should be in order").  What is *pending*
    is recomputed from the pipeline's declarations after every step, so
    gates (e.g. the plans-differ branch) and bypasses reshape the remaining
    schedule exactly as they do in batch mode.
    """

    def __init__(self, diads: Diads, query_name: str) -> None:
        self.diads = diads
        self.query_name = query_name
        self.ctx = diads.context(query_name)
        self.pipeline = diads.pipeline
        self._modules = self.pipeline.modules()
        self.executed: list[str] = []
        self.bypassed: set[str] = set()

    # -- progression ----------------------------------------------------
    @property
    def pending(self) -> list[str]:
        return self.pipeline.pending(self.ctx, self.executed, self.bypassed)

    @property
    def finished(self) -> bool:
        return not self.pending

    def run_next(self) -> ModuleResult | None:
        """Execute the next pending module; None when finished."""
        pending = self.pending
        if not pending:
            return None
        name = pending[0]
        result = self._modules[name].run(self.ctx)
        self.executed.append(name)
        return result

    def run_all(self) -> None:
        while not self.finished:
            self.run_next()

    # -- administrator interventions --------------------------------------
    def rerun(self, module: str) -> ModuleResult:
        """Re-execute an already-run module (any order allowed after 1st run)."""
        if module not in self.executed:
            raise ValueError(f"module {module!r} has not been run yet")
        return self._modules[module].run(self.ctx)

    def edit(self, module: str, editor: Callable[[ModuleResult], None]) -> ModuleResult:
        """Let the administrator amend a module result before the next step."""
        result = self.ctx.result(module)
        editor(result)
        return result

    def bypass(self, module: str) -> None:
        """Skip a module entirely (its consumers see no result)."""
        if module in self.executed:
            raise ValueError(f"module {module!r} already executed")
        self.bypassed.add(module)

    # -- output --------------------------------------------------------------
    def report(self) -> DiagnosisReport:
        skipped = self.pipeline.skip_reasons(self.ctx, self.executed, self.bypassed)
        return self.pipeline.report(self.ctx, skipped)
