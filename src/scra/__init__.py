"""Spatially coupled repeat-accumulate codes on the binary erasure channel.

Construction and rate analysis of coupled RA ensembles and coupled LDPC
baselines, density evolution thresholds, and Monte Carlo decoding
experiments, with a command line front end.
"""

from scra.ensembles import (
    ScRaParams,
    ScLdpcParams,
    ParameterError,
    smoothed_rate,
    code_size,
    design_rate,
    density_matched_q,
)
from scra.construct import (
    CodeInstance,
    ConstructionError,
    DescriptorError,
    build_sc_ra,
    build_sc_ldpc,
    export_alist,
    save_descriptor,
    load_descriptor,
)
from scra.codec import (
    ERASED,
    CodecError,
    DecodeOutcome,
    encode,
    syndrome,
    transmit_bec,
    decode_peel,
)
from scra.density_evolution import (
    DeState,
    DeRunResult,
    ThresholdResult,
    de_run,
    make_de_model,
    threshold,
    sweep_fig4,
)
from scra.simulate import (
    SweepPlan,
    SimResult,
    run_sweep,
    wilson_interval,
)

__version__ = "0.1.0"
