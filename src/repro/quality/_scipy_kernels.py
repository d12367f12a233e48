"""SciPy's two compiled posterior kernels, without the ``scipy.special`` package.

The LOO posteriors call two SciPy functions: ``scipy.special.stdtr``, the
Student-t CDF, for continuous metrics and ``scipy.special.betaln`` for the
classification posterior's Beta–Binomial sum.  Importing ``scipy.special``
for them maps 66 modules and about 25 MB.  Both kernels live in extension
modules that load on their own:

* ``scipy.special._ufuncs_cxx`` exports the t CDF through its Cython
  ``__pyx_capi__`` table: ``_export_t_cdf_double`` is a ``"void *"``
  capsule whose pointer is the address of a ``void *`` holding
  ``double t_cdf(double df, double t)``.  Every ``stdtr`` ufunc loop calls
  that function.
* ``scipy.special._special_ufuncs`` holds ``betaln``, the very ufunc that
  ``scipy.special`` re-exports.

Each module is loaded from its own file and registered in ``sys.modules``
under its real dotted name, so a later ``from scipy import special``
reuses it: ``special.betaln`` *is* the ufunc loaded here.  Calling the same
compiled code gives the same bytes by construction.

The capsule is checked once, on first use: its name must be ``"void *"``
and the function must return the pinned ``stdtr(3, 1)``.  A missing name
or any mismatch falls back to ``scipy.special`` itself, as the
``_umath_linalg`` fast path in :mod:`repro.inference.als` falls back to
``np.linalg``.  When ``scipy.special`` is already imported it is used
directly: it costs nothing more, and its vectorised ufunc beats one
foreign call per element.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType
from typing import Callable, NamedTuple, Optional

import numpy as np

#: The extension module exporting the t CDF, and the capsule's key.
T_CDF_MODULE = "scipy.special._ufuncs_cxx"
T_CDF_CAPSULE = "_export_t_cdf_double"
#: Cython names a capsule after the C type of what it points to.
CAPSULE_NAME = b"void *"
#: ``(df, t, stdtr(df, t))``: one value the t CDF must reproduce exactly.
T_CDF_PIN = (3.0, 1.0, 0.8044988905221148)
#: The extension module holding the ``betaln`` ufunc.
BETALN_MODULE = "scipy.special._special_ufuncs"


class Kernels(NamedTuple):
    """The two posterior kernels and where they came from."""

    #: ``stdtr(df, t)``: the Student-t CDF over a 1-D float array ``t``.
    stdtr: Callable[[int, np.ndarray], np.ndarray]
    #: The ``betaln`` ufunc.
    betaln: np.ufunc
    #: True when loaded without the ``scipy.special`` package.
    standalone: bool


_KERNELS: Optional[Kernels] = None


def kernels() -> Kernels:
    """The posterior kernels, loaded on first use."""
    global _KERNELS
    if _KERNELS is None:
        _KERNELS = _load()
    return _KERNELS


def _load() -> Kernels:
    if "scipy.special" not in sys.modules:
        try:
            return load_standalone()
        except (ImportError, OSError, AttributeError, KeyError, TypeError, ValueError):
            pass
    # Already imported, or a private name moved: the package has both kernels.
    # repro: allow[lazy-import-hygiene] the fallback when the standalone kernels cannot load
    from scipy import special

    return Kernels(stdtr=special.stdtr, betaln=special.betaln, standalone=False)


def load_standalone() -> Kernels:
    """Both kernels from their extension modules; raises if either is not as expected."""
    import ctypes

    capsule = _extension(T_CDF_MODULE).__pyx_capi__[T_CDF_CAPSULE]
    # Private prototypes: typing ``ctypes.pythonapi``'s shared attributes
    # would retype them for every other user in the process.
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    name = get_name(capsule)
    if name != CAPSULE_NAME:
        raise ValueError(f"{T_CDF_CAPSULE} capsule is named {name!r}, not {CAPSULE_NAME!r}")
    function = ctypes.c_void_p.from_address(get_pointer(capsule, name)).value
    if not function:
        raise ValueError(f"{T_CDF_CAPSULE} holds a null pointer")
    t_cdf = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_double, ctypes.c_double)(function)
    df, t, expected = T_CDF_PIN
    if t_cdf(df, t) != expected:
        raise ValueError(f"{T_CDF_CAPSULE}({df}, {t}) is not {expected!r}")

    betaln = _extension(BETALN_MODULE).betaln
    if not isinstance(betaln, np.ufunc):
        raise TypeError(f"{BETALN_MODULE}.betaln is not a ufunc")

    def stdtr(df: int, t: np.ndarray) -> np.ndarray:
        return np.array([t_cdf(df, value) for value in t.tolist()], dtype=float)

    return Kernels(stdtr=stdtr, betaln=betaln, standalone=True)


def _extension(name: str) -> ModuleType:
    """The extension module ``name``, loaded from its file without its package.

    A module already in ``sys.modules`` is reused.  Otherwise the file is
    found under SciPy's install directory with each of this interpreter's
    extension suffixes, loaded, and registered under ``name``.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")  # locates SciPy, imports nothing
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("SciPy is not installed")
    parts = name.split(".")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy.submodule_search_locations[0], *parts[1:-1], parts[-1] + suffix)
        if os.path.exists(path):
            break
    else:
        raise ImportError(f"no extension file for {name}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module
