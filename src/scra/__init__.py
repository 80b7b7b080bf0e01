"""Spatially coupled repeat-accumulate codes on the binary erasure channel.

Construction and rate analysis of coupled RA ensembles and coupled LDPC
baselines, density evolution thresholds, and Monte Carlo decoding
experiments, with a command line front end.
"""

from scra.ensembles import (
    ScRaParams,
    ScLdpcParams,
    ParameterError,
    rate_sc_ra,
    rate_sc_ra_w,
    rate_sc_ldpc,
    code_size,
    density_matched_q,
)
from scra.construct import (
    CodeInstance,
    ConstructionError,
    AlistError,
    DescriptorError,
    build_sc_ra,
    build_sc_ldpc,
    degree_profile,
    export_alist,
    import_alist,
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
    decode_ml_oracle,
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
    waterfall_crossing,
)

__version__ = "0.1.0"
