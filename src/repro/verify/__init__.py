"""Layout verification harness (``repro verify``).

Four layers of defence for the environment's correctness-by-construction
promise (see ``docs/verification.md``):

* :mod:`~repro.verify.oracles` — post-build invariant checks;
* :mod:`~repro.verify.differential` — successive vs. graph compaction;
* :mod:`~repro.verify.fuzzer` — random PLDL programs through the
  production interpreter and the tree-walking oracle;
* :mod:`~repro.verify.golden` — content-hash regression over every
  library cell × builtin technology.
"""

from .differential import TrialReport, random_object_set, run_differential, run_trial
from .fuzzer import FuzzResult, fuzz, generate_program, run_fuzz_case
from .inject import INJECTORS, Injection, inject_violation
from .golden import (
    GOLDEN_PATH,
    GoldenMismatch,
    cell_fingerprint,
    compute_fingerprints,
    load_golden,
    update_golden,
    verify_golden,
)
from .oracles import (
    LayoutSnapshot,
    OracleViolation,
    check_layout,
    oracle_bbox_bounded,
    oracle_connectivity,
    oracle_drc_clean,
    oracle_no_overlap,
)

__all__ = [
    "TrialReport",
    "random_object_set",
    "run_differential",
    "run_trial",
    "FuzzResult",
    "fuzz",
    "generate_program",
    "run_fuzz_case",
    "INJECTORS",
    "Injection",
    "inject_violation",
    "GOLDEN_PATH",
    "GoldenMismatch",
    "cell_fingerprint",
    "compute_fingerprints",
    "load_golden",
    "update_golden",
    "verify_golden",
    "LayoutSnapshot",
    "OracleViolation",
    "check_layout",
    "oracle_bbox_bounded",
    "oracle_connectivity",
    "oracle_drc_clean",
    "oracle_no_overlap",
]
