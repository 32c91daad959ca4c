"""JSON schemas of the manifest and the metrics report that the CLI writes."""

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["command", "config_digest", "seed_range", "output_paths", "tool_version"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string", "enum": ["simulate", "metrics", "experiment"]},
        "config_digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "seed_range": {
            "oneOf": [
                {"type": "null"},
                {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
            ]
        },
        "output_paths": {"type": "array", "items": {"type": "string"}},
        "tool_version": {"type": "string"},
    },
}

METRICS_REPORT_SCHEMA = {
    "type": "object",
    "required": ["n_returns", "hill", "k_used", "mean_ot", "ot_std", "per_ref_ot",
                 "kurtosis", "vol_volume_corr", "abs_autocorr"],
    "additionalProperties": False,
    "properties": {
        "n_returns": {"type": "integer", "minimum": 1},
        "hill": {"type": "number", "exclusiveMinimum": 0},
        "k_used": {"type": "integer", "minimum": 1},
        "mean_ot": {"oneOf": [{"type": "number", "minimum": 0}, {"type": "null"}]},
        "ot_std": {"oneOf": [{"type": "number", "minimum": 0}, {"type": "null"}]},
        "per_ref_ot": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["ref", "ot"],
                "additionalProperties": False,
                "properties": {"ref": {"type": "string"}, "ot": {"type": "number"}},
            },
        },
        "kurtosis": {"type": "number"},
        "vol_volume_corr": {"oneOf": [{"type": "number"}, {"type": "null"}]},
        "abs_autocorr": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
}
