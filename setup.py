"""Legacy setup shim so the package installs in offline environments without wheel."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of MEMO: fine-grained tensor management for ultra-long "
        "context LLM training (SIGMOD 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
