"""Legacy setup shim.

All project metadata lives in ``pyproject.toml``. pip's editable install
builds an editable wheel, which on setuptools older than 70.1 needs the
``wheel`` package. Where that is missing and nothing can be downloaded,
this shim keeps ``python setup.py develop --no-deps`` available as a
fully offline editable install.
"""

from setuptools import setup

setup()
