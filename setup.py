from setuptools import find_packages, setup

setup(
    name="repro",
    description=(
        "Inconsistency measures for relational data "
        "(Livshits et al., SIGMOD 2021 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    entry_points={
        "console_scripts": [
            # The invariant lint engine (repro/analysis): AST contract
            # checks for determinism, preview purity, import hygiene,
            # fault-point registration and component read-set discipline.
            "repro-lint=repro.analysis.cli:main",
        ],
    },
    # The core package is dependency-free on purpose: every solver has a
    # pure-python implementation, and the optional backends below only
    # *sharpen* results (the anytime chain reports status=FALLBACK and
    # keeps honest bounds when they are absent — see
    # repro/solvers/anytime.py).
    extras_require={
        # CP-SAT backend for the I_R hitting-set chain (and any future
        # chain stage that probes repro.solvers.anytime.has_cpsat()).
        "cpsat": ["ortools>=9.4"],
        # Per-test wall-clock ceilings in CI; tests/conftest.py falls back
        # to a SIGALRM-based ceiling when the plugin is not installed.
        "timeout": ["pytest-timeout"],
        # Vectorized column kernels for the batch enumeration engine
        # (repro/session/vectorized.py).  Witness families are bit-identical
        # with and without it; the backend is detected, not chosen: absent
        # numpy the session runs the pure-python list backend.
        "vector": ["numpy>=1.24"],
    },
)
