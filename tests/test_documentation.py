"""Documentation-discipline tests.

A library is adoptable only if its public surface is documented: every
module under ``repro`` must carry a module docstring, and every public
class/function reachable from a package ``__all__`` must have one too.
"""

import importlib
import inspect
import pkgutil

import repro


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would execute the CLI
        yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        undocumented = [
            module.__name__
            for module in iter_modules()
            if not (module.__doc__ or "").strip()
        ]
        assert not undocumented, undocumented

    def test_every_public_name_is_documented(self):
        undocumented = []
        for module in iter_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name, None)
                if obj is None or not (
                    inspect.isclass(obj) or inspect.isfunction(obj)
                ):
                    continue
                if not (inspect.getdoc(obj) or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, undocumented

    def test_public_methods_documented_on_core_classes(self):
        from repro.core.protocol import IcpdaProtocol
        from repro.net.stack import NetworkStack
        from repro.service.service import AggregationService
        from repro.sim.kernel import Simulator

        undocumented = []
        for cls in (Simulator, NetworkStack, IcpdaProtocol, AggregationService):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                if not (inspect.getdoc(member) or "").strip():
                    undocumented.append(f"{cls.__name__}.{name}")
        assert not undocumented, undocumented

    def test_top_level_service_is_the_live_service(self):
        import repro.service

        assert repro.AggregationService is repro.service.AggregationService

    def test_version_is_exposed(self):
        assert repro.__version__
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None or name == "__version__"
