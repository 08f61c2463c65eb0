"""Setuptools configuration.

Kept as an executable ``setup.py`` so the package installs in environments
whose tooling predates PEP 660 editable installs (``pip install -e .
--no-use-pep517``).  The library needs only numpy/scipy at run time.  The
``[test]`` extra adds networkx, which backs only the seed reference decoder
(``repro.decoder.reference``) that the decoder tests check the fast path
against; nothing imports it at run time.  The ``[report]`` extra adds
matplotlib for PNG figure rendering in ``eraser-repro report`` (the report
degrades gracefully to tables/CSV without it).
"""

from setuptools import find_packages, setup

setup(
    name="eraser-repro",
    version="0.3.0",
    description="Reproduction of ERASER: Adaptive Leakage Suppression for FTQC (MICRO 2023)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    extras_require={"report": ["matplotlib"], "test": ["networkx"]},
    entry_points={"console_scripts": ["eraser-repro=repro.cli:main"]},
)
