"""Package metadata for ``pip install -e .`` (the classic setuptools path).

The package lives under ``src/`` and needs only numpy at run time; the
tests also need pytest and hypothesis (see the CI install lines).
There is no ``pyproject.toml``: this file is all the metadata.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
