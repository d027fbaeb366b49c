"""Deterministic simulator and codec for coded distributed computing shuffles."""

from .analytics import (
    LoadReport,
    build_load_report,
    fig2_table,
    l_cdc,
    l_cdc_ld,
    l_cdc_ld_accounting,
    l_uncoded,
    load_vs_t_sweep,
    tradeoff_sweep,
)
from .codec import (
    IncompleteShuffleError,
    build_vset,
    decode_cdc_s1,
    encode_cdc,
    ld_compress,
    ld_decompress,
    segment_usymbol,
)
from .engine import RunResult, ShuffleTranscript, run, run_on, run_uncoded_shuffle
from .gf2 import (
    BasisDecomposition,
    Gf2ExtField,
    Gf2Matrix,
    ext_field,
    rank_and_basis,
    reconstruct,
    vandermonde,
)
from .placement import JobSpec, Placement, ksubsets, make_placement, needed_values
from .workloads import (
    CodedLinearTransformWorkload,
    LinearTransformWorkload,
    SyntheticRankWorkload,
    ValueTable,
    WordCountWorkload,
    ingest_text,
)

__version__ = "0.1.0"
