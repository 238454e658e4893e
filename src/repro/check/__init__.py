"""Machine-checked guardrails for the simulation (`repro.check`).

Three legs, each defending a different class of silent corruption:

* :mod:`repro.check.lint` — a custom AST lint (``python -m repro.check
  lint``) enforcing simulation-purity rules: no wall-clock or global
  ``random`` state outside the harness allowlist, no iteration-order
  nondeterminism in serialization paths, ``bytes`` keys at the
  ``core.keys`` API boundary, no mutable default arguments, and no raw
  :class:`~repro.device.block.BlockDevice` / FTL call sites outside the
  cost-charging layers.
* :mod:`repro.check.sanitize` — opt-in runtime sanitizers
  (``BeTreeConfig.sanitize``), zero-cost when off: Bε-tree structural
  invariants on every flush/split/write-back, clock/cost accounting,
  allocator double-free and extent overlap, FTL↔store divergence, and
  cache pin/dirty-eviction discipline.
* :mod:`repro.check.fsck` — an offline crash-image checker
  (``python -m repro.harness fsck <image>``) walking superblock →
  checkpoint → nodes → WAL → FTL state.

All sanitizer failures raise typed :class:`~repro.check.errors.InvariantError`
subclasses so they survive ``python -O``.
"""

from repro.check.errors import (
    AllocInvariantError,
    CacheInvariantError,
    CheckError,
    CostInvariantError,
    FsckError,
    InvariantError,
    TreeInvariantError,
    require,
)

# fsck / lint / sanitize are loaded lazily (PEP 562): core modules
# import ``repro.check.errors`` for :func:`require`, which executes this
# package __init__ — an eager ``from repro.check.fsck import ...`` here
# would re-enter those half-initialized core modules.
_LAZY = {
    "FsckReport": "repro.check.fsck",
    "fsck_device": "repro.check.fsck",
    "load_image": "repro.check.fsck",
    "save_image": "repro.check.fsck",
    "Violation": "repro.check.waivers",
    "lint_paths": "repro.check.lint",
    "lint_repo": "repro.check.lint",
    "SanitizerSuite": "repro.check.sanitize",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.check' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "AllocInvariantError",
    "CacheInvariantError",
    "CheckError",
    "CostInvariantError",
    "FsckError",
    "FsckReport",
    "InvariantError",
    "SanitizerSuite",
    "TreeInvariantError",
    "Violation",
    "fsck_device",
    "lint_paths",
    "lint_repo",
    "load_image",
    "require",
    "save_image",
]
