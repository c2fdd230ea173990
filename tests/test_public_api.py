"""The exported names stay consistent across renames.

Every name in an ``__all__`` must resolve, and the package root must
re-export the public names of the library modules, so a class or function
renamed in one place cannot leave a dangling export in another.
"""

import importlib
import pkgutil

import pytest

import spectral_denoise

MODULES = ["spectral_denoise"] + [
    info.name for info in pkgutil.walk_packages(spectral_denoise.__path__, "spectral_denoise.")]

#: Modules whose whole ``__all__`` the package root re-exports.
REEXPORTED = ["denoise", "applications", "localized", "geometry", "spiked"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ has duplicates"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", REEXPORTED)
def test_package_root_reexports(name):
    module = importlib.import_module(f"spectral_denoise.{name}")
    missing = [attr for attr in module.__all__ if attr not in spectral_denoise.__all__
               or getattr(spectral_denoise, attr) is not getattr(module, attr)]
    assert missing == [], f"spectral_denoise does not re-export {missing} from {name}"


def test_fit_and_pipeline_result_are_public():
    for attr in ("SpectralFit", "spectral_fit", "PipelineResult"):
        assert attr in spectral_denoise.__all__
    for attr in ("SubmatrixResult", "WhitenResult", "MissingDataResult"):
        assert not hasattr(spectral_denoise, attr)
