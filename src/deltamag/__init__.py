"""Magnetotransport modeling and inference for 2D delta-doped layers.

Forward models for the weak-localization and Zeeman interaction
corrections to the sheet conductivity, Hall characterization, difference
fitting of the two field orientations, the B/T scaling collapse that
measures electron temperatures, and a synthetic-data generator closing the
loop.
"""

from ._version import __version__
from .constants import G0, Quantity, from_si, to_si
from .special import digamma, trigamma
from .models import (
    AaParams,
    InPlaneParams,
    WlParams,
    elastic_field,
    g2,
    gamma_param,
    orbital_delta_sigma,
    phase_breaking_field,
    reduced_field,
    thickness_from_gamma,
    total_delta_sigma,
    wl_inplane,
    wl_perp,
    wl_perp_shape,
    zeeman_aa,
)
from .hall import (
    Geometry,
    KAPPA_DEFAULT,
    SamplePhysics,
    characterize,
    density_from_hall,
    fermi_wavevector,
    interaction_rs,
    mean_free_path,
    mobility,
)
from .fit import (
    FitResult,
    LinearFit,
    Measured,
    PowerLawFit,
    Residual,
    ResidualError,
    WlDifferenceFit,
    fit_coherence_power_law,
    fit_wl_difference,
    levmar,
    linear_fit,
)
from .collapse import (
    AaCurve,
    CollapseResult,
    collapse_teff,
    dispersion,
    isolate_aa,
)
from .synth import (
    SweepPlanEntry,
    SynthConfig,
    effective_temperature,
    generate_dataset,
    generate_sweep,
)
from .sweepio import SweepRecord, parse_sweep_csv, write_plot_csv, write_sweep_csv
from .pipeline import (
    AnalysisConfig,
    Dataset,
    Report,
    load_datasets,
    run_analysis,
    write_report,
)
from .samples import LayerRecord, REFERENCE_LAYERS

__all__ = [
    "__version__",
    "AaCurve",
    "AaParams",
    "AnalysisConfig",
    "CollapseResult",
    "Dataset",
    "FitResult",
    "G0",
    "Geometry",
    "InPlaneParams",
    "KAPPA_DEFAULT",
    "LayerRecord",
    "LinearFit",
    "Measured",
    "PowerLawFit",
    "Quantity",
    "REFERENCE_LAYERS",
    "Report",
    "Residual",
    "ResidualError",
    "SamplePhysics",
    "SweepPlanEntry",
    "SweepRecord",
    "SynthConfig",
    "WlDifferenceFit",
    "WlParams",
    "characterize",
    "collapse_teff",
    "density_from_hall",
    "digamma",
    "dispersion",
    "effective_temperature",
    "elastic_field",
    "fermi_wavevector",
    "fit_coherence_power_law",
    "fit_wl_difference",
    "from_si",
    "g2",
    "gamma_param",
    "generate_dataset",
    "generate_sweep",
    "interaction_rs",
    "isolate_aa",
    "levmar",
    "linear_fit",
    "load_datasets",
    "mean_free_path",
    "mobility",
    "orbital_delta_sigma",
    "parse_sweep_csv",
    "phase_breaking_field",
    "reduced_field",
    "run_analysis",
    "thickness_from_gamma",
    "to_si",
    "total_delta_sigma",
    "trigamma",
    "wl_inplane",
    "wl_perp",
    "wl_perp_shape",
    "write_plot_csv",
    "write_report",
    "write_sweep_csv",
    "zeeman_aa",
]
