"""Setuptools configuration.

Kept as an executable ``setup.py`` so the package installs in environments
whose tooling predates PEP 660 editable installs (``pip install -e .
--no-use-pep517``).  The core library needs numpy/scipy; networkx backs
only the seed reference decoder (``repro.decoder.reference``), which nothing
imports at runtime but the decoder tests check the fast path against.  The
``[report]`` extra adds matplotlib for PNG figure rendering in
``eraser-repro report`` (the report degrades gracefully to tables/CSV
without it).
"""

from setuptools import find_packages, setup

setup(
    name="eraser-repro",
    version="0.3.0",
    description="Reproduction of ERASER: Adaptive Leakage Suppression for FTQC (MICRO 2023)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "networkx"],
    extras_require={"report": ["matplotlib"]},
    entry_points={"console_scripts": ["eraser-repro=repro.cli:main"]},
)
