"""Time-frequency norms, flat atomic measures, and analytic composition.

A numerics toolbox for 1-D harmonic analysis on uniform grids: the
short-time Fourier transform and its exact discrete Moyal identity, block
(partition-of-unity) modulation norms alongside Fourier-Beurling and
Fourier-Segal norms, Rudin-Shapiro flat-measure trains, plateau windows,
and norm-controlled power-series composition of analytic functions with
signals.  The command line (``tfnorms``) exposes every construction as a
deterministic experiment with JSON/CSV reports.
"""

from .grid import (
    Grid,
    NormSpec,
    SampledSignal,
    Space,
    convolve,
    fourier_forward,
    fourier_inverse,
    inner_product,
    support_leakage,
    upsample,
    weighted_lp_norm,
)
from .stft import TimeFrequencyMatrix, gaussian_window, stft_gram
from .partition import FrequencyPartition, build_frequency_partition, frequency_block
from .norms import (
    NormReport,
    fourier_beurling_norm,
    fourier_segal_norm,
    modulation_norm,
    norm_value,
    partition_for,
)
from .measures import (
    DiscreteMeasure,
    Normalization,
    RudinShapiroPair,
    convolve_measures,
    dirac,
    disjointness_spacing,
    rudin_shapiro,
    rudin_shapiro_sup,
    rudin_shapiro_transforms,
)
from .windows import PlateauWindow, plateau_window, translation_difference_bound
from .compose import (
    LocalPatch,
    PowerSeries,
    dilation_difference_norm,
    global_compose,
    glue_local,
    local_compose,
    named_series,
    reciprocal_on_compact,
    resample_progression,
)
from .corpus import make_corpus, make_signal

__version__ = "0.1.0"
