import enum
import inspect

import sscpolar

# The parameter names of every callable that sscpolar exports.  Each is a value
# a caller can set; one added to the package, or to a signature, edits this table.
SIGNATURES = {
    "BmsChannel": ("kind", "param"),
    "LatencyReport": ("n", "N", "P", "sc_tree", "sc_closed", "ssc", "normalized"),
    "PolarCode": ("channel", "n", "pe", "frozen"),
    "SscTree": ("kinds",),
    "SweepRecord": ("channel", "capacity", "pe", "n", "p_policy", "P", "latency"),
    "bhattacharyya": ("kind", "param"),
    "build_code": ("channel", "n", "pe"),
    "build_ssc_tree": ("code",),
    "capacity": ("kind", "param"),
    "channel_from_capacity": ("kind", "target_capacity"),
    "code_from_frozen": ("channel", "frozen", "pe"),
    "code_from_text": ("text",),
    "code_to_text": ("code",),
    "cube_interval": ("N",),
    "decoding_weight": ("s", "P"),
    "encode": ("code", "u"),
    "encode_message": ("code", "message"),
    "h2_inv": ("y",),
    "latency_report": ("code", "P"),
    "latency_upper_bound": ("N", "P", "mu", "c", "eps"),
    "leaf_reliabilities": ("channel", "n"),
    "load_code": ("path",),
    "midzone_interval": ("n", "gamma", "mu"),
    "min_p_within_factor": ("tree", "factor"),
    "polar_transform": ("u",),
    "polarize": ("z",),
    "realize_policy": ("policy", "n", "mu"),
    "run_parallelism_sweep": ("n_max", "factor"),
    "run_policy_sweep": ("n_max",),
    "run_serial_sweep": ("kinds", "n_max"),
    "sample_llrs": ("channel", "codeword", "seed"),
    "save_code": ("code", "path"),
    "sc_decode": ("code", "llrs"),
    "sc_decode_batch": ("code", "llrs"),
    "sc_latency_closed_form": ("N", "P"),
    "sc_latency_tree": ("n", "P"),
    "sc_schedule": ("frozen",),
    "sc_ssc_agreement": ("code", "channel", "trials", "seed", "batch"),
    "scan_edge_profile": ("channel", "n", "pe"),
    "scan_edge_profiles": ("channels", "n", "pe"),
    "scan_ssc_tree": ("channel", "n", "pe"),
    "schedule_profile": ("ops", "n"),
    "ssc_decode": ("code", "llrs", "tree"),
    "ssc_decode_batch": ("code", "llrs", "tree"),
    "ssc_latency": ("tree", "P"),
    "ssc_schedule": ("tree",),
    "z_minus": ("z",),
    "z_plus": ("z",),
}


def test_settable_values_are_pinned():
    # an Enum is called with one of its members' values; the rest of its
    # signature is Python's, so ChannelKind and NodeKind are left out
    exported = {name: obj for name, obj in vars(sscpolar).items()
                if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
                and not isinstance(obj, enum.EnumMeta)}
    assert {name: tuple(inspect.signature(obj).parameters)
            for name, obj in exported.items()} == SIGNATURES
