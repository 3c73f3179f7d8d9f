"""High-frequency jump detection toolkit.

Ingests tick data, aggregates across exchanges, runs the noise-robust
moment-level (Lee & Mykland) and day-level (Ait-Sahalia-Jacod-Li) jump
tests, combines them into a jump catalog, and reproduces the standard
descriptive and panel-regression analyses, all verifiable against a
built-in jump-diffusion simulator.

Each name is imported from the module that defines it, for example
``from hfjumps.pipeline import run_range``; ``import hfjumps`` loads no
submodule.
"""

__version__ = "0.1.0"
