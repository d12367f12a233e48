"""Legacy setup shim.

The project metadata lives in ``pyproject.toml``.  This file lets
``python setup.py develop`` install the package in place on environments
where ``pip install -e .`` cannot build an editable wheel (no ``wheel``
package and no index to fetch it from).
"""

from setuptools import setup

setup()
