"""Packaging entry point.

numpy policy: the library is pure Python and installs without any
third-party runtime dependency.  ``numpy`` is an *optional* accelerator,
declared under the ``[fast]`` extra:

* the calibration kernels (``repro.calibration``) use it for the
  work-rate micro-benchmarks;
* the ``analytic-vec`` backend (``repro.core.model_vec``) uses it for
  struct-of-arrays batch evaluation; without it, ``analytic-vec`` prices
  each point on the scalar fast path - the same numbers as
  ``analytic-fast``, at its speed.

Nothing in the prediction stack imports numpy unconditionally, which is
pinned by ``tests/test_conformance.py``'s without-numpy conformance
test.
"""

from setuptools import find_packages, setup

setup(
    name="repro-wavebench",
    description=(
        "Reusable LogGP performance model of pipelined wavefront "
        "computations (Mudalige, Vernon & Jarvis, IPDPS 2008 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],  # pure stdlib at runtime - see the numpy policy above
    extras_require={
        "fast": ["numpy"],  # vectorized batch backend + calibration kernels
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={"console_scripts": ["wavebench=repro.cli:main"]},
)
