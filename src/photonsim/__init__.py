"""Simulator for the steady-state output photon states of a two-qubit
coherent feedback network driven by one or two continuous-mode photons."""

from .amplitudes import (
    Channel,
    JointAmplitude,
    amplitude_grid,
    amplitudes_at,
    channel_matrices,
)
from .errors import (
    NoConvergence,
    NonMonotoneGrid,
    ParseError,
    PhotonSimError,
    ShapeMismatch,
    ValidationError,
    WindowTooNarrow,
    ZeroAmplitude,
    ZeroNorm,
)
from .kernels import (
    SinglePhotonOutput,
    g_kernel,
    single_photon_output,
    theta_arrays,
)
from .model import (
    FrequencyGrid,
    LorentzianPulse,
    NetworkParams,
    PulseSpec,
    SampledPulse,
    TwoPhotonInput,
    load_sampled_pulse,
    make_sampled_pulse,
    pulse_amplitude,
    save_sampled_pulse,
    tabulate_pulse,
)
from .observables import (
    HomScanRow,
    ScatteringProbabilities,
    SchmidtReport,
    hom_scan,
    probabilities,
    schmidt_report,
    single_photon_norm,
    single_photon_probabilities,
)
from .oracle import residue_convolution
from .quadrature import (
    QuadConfig,
    QuadResult,
    integrate_grid_2d,
)

__version__ = "0.1.0"
