"""Sum sets, product sets and sum-product bound verification over Z_m."""

from .estimates import (
    Check,
    Derivation,
    FieldBoundReport,
    RingBoundReport,
    RingExtremalExample,
    field_bound_report,
    field_checks,
    ring_bound_report,
    ring_checks,
    spectral_checks,
    zm_extremal,
)
from .extremal import ExtremalConstruction, best_window, build_extremal, power_prefix
from .residues import (
    Modulus,
    NonInvertibleError,
    ResidueSet,
    find_generator,
    make_modulus,
    residue_set,
)
from .setops import indicator, productset, sumset
from .spectra import dft_counts, spectrum_of_set
from .sweeps import (
    CSV_HEADER,
    DuplicateResidueWarning,
    ExhaustiveSummary,
    SweepConfig,
    SweepRow,
    derive_seed,
    parse_set_file,
    run_exhaustive,
    run_sweep,
    splitmix64,
)

__version__ = "0.1.0"
