"""Module registry: the plug-in surface of the diagnosis pipeline.

The paper presents DIADS as a *modular workflow* (Figure 2) whose modules
are independently replaceable.  This file makes that claim executable: a
:class:`DiagnosisModule` protocol every module satisfies, and a
:class:`ModuleRegistry` where implementations are registered by name —
usually via the :func:`register_module` decorator::

    @register_module
    class HotTableModule:
        name = "HT"
        requires = ("CO",)

        def run(self, ctx):
            ...

Registered modules can be referenced by name when assembling a
:class:`~repro.core.pipeline.DiagnosisPipeline`, so new drill-down modules
plug into :class:`~repro.core.workflow.Diads` without touching the engine.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Protocol, runtime_checkable

from .modules.base import DiagnosisContext, ModuleResult

__all__ = [
    "DiagnosisModule",
    "ModuleRegistry",
    "RegistryError",
    "default_registry",
    "register_module",
]


@runtime_checkable
class DiagnosisModule(Protocol):
    """What the pipeline engine expects of a workflow module.

    Required:

    * ``name`` — short unique identifier (``"PD"``, ``"CO"``, ...); also the
      key under which the module's result lands in ``ctx.results``.
    * ``run(ctx)`` — execute against a :class:`DiagnosisContext`, record the
      result via ``ctx.set_result`` and return it.  Modules must be
      stateless across calls: one instance may serve many queries,
      concurrently.

    Optional (read via ``getattr`` with defaults):

    * ``requires`` — names of upstream modules whose results this module
      consumes.  Hard edges: the pipeline orders the module after them and
      skips it when any of them was skipped or bypassed.
    * ``after`` — soft ordering hints: schedule after these modules *if
      present*, but run regardless of whether they ran.
    * ``provides`` — result key, defaulting to ``name``.  A drop-in
      replacement module advertises the key it fills in ``ctx.results``
      (its ``run`` must store the result under that key, i.e.
      ``ModuleResult(module=<provides>, ...)``); ``requires``/``after``
      edges are resolved against these keys.
    * ``gate(ctx)`` — predicate evaluated just before execution; returning
      ``False`` skips the module (and, transitively, its hard dependents).
    """

    name: str

    def run(self, ctx: DiagnosisContext) -> ModuleResult: ...


ModuleFactory = Callable[..., DiagnosisModule]


class RegistryError(KeyError):
    """Unknown or conflicting module registration."""


class ModuleRegistry:
    """Name → factory mapping for diagnosis modules.

    Factories are usually the module classes themselves; any callable
    returning a :class:`DiagnosisModule` works.  Keyword arguments given to
    :meth:`create` are forwarded to the factory, so configurable modules
    (e.g. ``SymptomsDatabaseModule(symptoms_db)``) stay configurable.
    """

    def __init__(self) -> None:
        self._factories: dict[str, ModuleFactory] = {}

    # -- registration ---------------------------------------------------
    def register(
        self,
        factory: ModuleFactory,
        name: str | None = None,
        *,
        replace: bool = False,
    ) -> ModuleFactory:
        key = name or getattr(factory, "name", None)
        if not key:
            raise RegistryError(
                f"cannot infer a module name from {factory!r}; pass name="
            )
        if key in self._factories and not replace:
            raise RegistryError(
                f"module {key!r} already registered (pass replace=True to override)"
            )
        self._factories[key] = factory
        return factory

    # -- lookup ---------------------------------------------------------
    def factory(self, name: str) -> ModuleFactory:
        try:
            return self._factories[name]
        except KeyError:
            known = ", ".join(sorted(self._factories)) or "(none)"
            raise RegistryError(
                f"no module {name!r} registered (known: {known})"
            ) from None

    def create(self, name: str, **kwargs: Any) -> DiagnosisModule:
        return self.factory(name)(**kwargs)

    def names(self) -> list[str]:
        return sorted(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    def copy(self) -> "ModuleRegistry":
        clone = ModuleRegistry()
        clone._factories.update(self._factories)
        return clone


#: Process-wide registry that ``@register_module`` populates.  The six
#: paper modules register themselves on import of :mod:`repro.core.modules`.
_DEFAULT_REGISTRY = ModuleRegistry()


def default_registry() -> ModuleRegistry:
    """The shared registry backing :func:`register_module`."""
    return _DEFAULT_REGISTRY


def register_module(
    factory: ModuleFactory | None = None,
    *,
    name: str | None = None,
    replace: bool = False,
    registry: ModuleRegistry | None = None,
) -> Any:
    """Class decorator registering a diagnosis module.

    Usable bare (``@register_module``) or with options
    (``@register_module(name="X", replace=True)``).
    """
    target = registry if registry is not None else _DEFAULT_REGISTRY

    def _register(f: ModuleFactory) -> ModuleFactory:
        return target.register(f, name=name, replace=replace)

    if factory is not None:
        return _register(factory)
    return _register
