"""The benchmark tracer's targets still name the program's functions.

``perfbench/tracer.py`` wraps functions by module and name and skips a
name the module no longer has, so a moved or renamed function would
silently zero its per-layer metric. The tracer is read, never imported,
so this test writes nothing under ``perfbench/``.
"""

import importlib
import types

from conftest import REPO_ROOT

# Targets that name functions deleted before the tracer was last updated.
STALE = [
    ("topmix.evaluate", "evaluate_kfold"),
    ("topmix.evaluate", "knn_predict"),
    ("topmix.persistence", "pairwise_distances"),
    ("topmix.pipeline", "build_point_cloud"),
    ("topmix.pipeline", "choose_maxscale"),
    ("topmix.pipeline", "evaluate_kfold"),
    ("topmix.pipeline", "load_diagrams"),
    ("topmix.pipeline", "pairwise_distances"),
    ("topmix.pipeline", "rips_dim0_diagram"),
    ("topmix.pipeline", "save_diagrams"),
]


def _tracer_targets():
    path = REPO_ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
    return tracer.TARGETS


def test_every_live_tracer_target_resolves():
    targets = _tracer_targets()
    unresolved = sorted(
        (module, attr)
        for module, attr, _, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    )
    assert unresolved == STALE
    assert len(targets) - len(STALE) == 19
