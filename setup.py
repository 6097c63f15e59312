"""Package metadata for ``pip install -e .``.

The offline build environment ships setuptools without ``wheel``; modern
PEP 660 editable installs need ``bdist_wheel``, so ``pip install -e .``
falls back to this ``setup.py develop`` path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
