"""Every name a module under ``repro`` lists in ``__all__`` exists, so a
deleted function cannot leave a dangling export behind."""
import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    modules = [repro.__name__] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    )
    dangling = []
    for name in modules:
        module = importlib.import_module(name)
        names = getattr(module, "__all__", ())
        dangling += [f"{name}.{n}" for n in names if not hasattr(module, n)]
    assert len(modules) > 100
    assert dangling == []
