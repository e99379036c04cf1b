"""Polar codes with pruned successive-cancellation decoding and exact
latency modeling under a limited number of processing elements."""

from .channel import (
    LLR_CAP,
    SCALING_EXPONENT,
    BmsChannel,
    ChannelKind,
    bhattacharyya,
    capacity,
    channel_from_capacity,
    polarize,
    sample_llrs,
    z_minus,
    z_plus,
)
from .codec import (
    encode,
    encode_message,
    polar_transform,
    sc_decode,
    sc_decode_batch,
    sc_schedule,
    sc_ssc_agreement,
    schedule_profile,
    ssc_decode,
    ssc_decode_batch,
    ssc_schedule,
)
from .construct import (
    PolarCode,
    build_code,
    code_from_frozen,
    code_from_text,
    code_to_text,
    cube_interval,
    h2_inv,
    leaf_reliabilities,
    load_code,
    midzone_interval,
    save_code,
)
from .experiments import (
    SweepRecord,
    realize_policy,
    run_parallelism_sweep,
    run_policy_sweep,
    run_serial_sweep,
)
from .latency import (
    LatencyReport,
    NodeKind,
    SscTree,
    build_ssc_tree,
    decoding_weight,
    latency_report,
    latency_upper_bound,
    min_p_within_factor,
    scan_edge_profile,
    scan_edge_profiles,
    scan_ssc_tree,
    sc_latency_closed_form,
    sc_latency_tree,
    ssc_latency,
)

__version__ = "0.1.0"
