"""Versioned JSON persistence for fitted models.

The layout is deliberately plain: order specification, node keys,
thresholds, the CDF matrix and the pooled fallback distribution, all
as JSON arrays.  Serialization is canonical (sorted keys, no spaces),
so the same model always produces the same bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .fitting import IdrModel
from .orders import OrderGroup, OrderSpec, build_order_dag
from .stepfun import StepCdf
from .subagging import SubaggedModel

__all__ = ["model_to_json", "model_from_json", "save_model", "load_model"]

FORMAT_VERSION = "1.0"


def _spec_payload(spec: OrderSpec) -> dict:
    return {
        "groups": [
            {"columns": list(g.columns), "relation": g.relation} for g in spec.groups
        ],
        "column_names": list(spec.column_names) if spec.column_names else None,
    }


def _spec_from_payload(payload: dict) -> OrderSpec:
    groups = tuple(
        OrderGroup(tuple(g["columns"]), g["relation"]) for g in payload["groups"]
    )
    names = payload.get("column_names")
    return OrderSpec(groups, tuple(names) if names else None)


def _model_payload(model: IdrModel) -> dict:
    return {
        "type": "idr",
        "order_spec": _spec_payload(model.dag.spec),
        "node_keys": [list(key) for key in model.dag.keys],
        "thresholds": model.thresholds.tolist(),
        "cdf_matrix": model.cdf.tolist(),
        "climatology": {
            "jumps": model.climatology.jumps.tolist(),
            "cum": model.climatology.cum.tolist(),
        },
    }


def _model_from_payload(payload: dict) -> IdrModel:
    spec = _spec_from_payload(payload["order_spec"])
    keys = np.array(payload["node_keys"], dtype=float)
    if keys.ndim != 2:
        raise ValueError("node_keys must be a rectangular array")
    dag = build_order_dag(spec, keys, points_are_keys=True)
    stored = [tuple(k) for k in payload["node_keys"]]
    if dag.keys != stored:
        raise ValueError("node_keys are not in canonical order")
    thresholds = np.asarray(payload["thresholds"], dtype=float)
    if (thresholds.ndim != 1 or thresholds.size == 0 or not np.isfinite(thresholds).all()
            or np.any(np.diff(thresholds) <= 0)):
        raise ValueError("thresholds must be finite and strictly increasing")
    cdf = np.asarray(payload["cdf_matrix"], dtype=float)
    if cdf.shape != (dag.n_nodes, thresholds.size):
        raise ValueError(f"cdf_matrix has shape {cdf.shape}, not nodes x thresholds "
                         f"({dag.n_nodes}, {thresholds.size})")
    if not (np.isfinite(cdf).all() and cdf.min() >= 0.0 and cdf.max() <= 1.0
            and np.all(cdf[:, 1:] >= cdf[:, :-1]) and np.all(cdf[:, -1] == 1.0)):
        raise ValueError("every cdf_matrix row must be finite, within [0, 1], nondecreasing and end at 1")
    clim = payload["climatology"]
    return IdrModel(
        thresholds,
        cdf,
        dag,
        StepCdf(np.asarray(clim["jumps"], dtype=float), np.asarray(clim["cum"], dtype=float)),
    )


def model_to_json(model) -> str:
    """Serialize a fitted model (plain or subagged) to a JSON string."""
    if isinstance(model, IdrModel):
        payload = _model_payload(model)
    elif isinstance(model, SubaggedModel):
        payload = {
            "type": "subagged",
            "members": [_model_payload(m) for m in model.members],
            "subsample_size": model.subsample_size,
            "seed": model.seed,
            "split": model.split,
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload["version"] = FORMAT_VERSION
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _check_version(payload: dict):
    version = payload.get("version")
    if not isinstance(version, str) or "." not in version:
        raise ValueError("model file lacks a valid version field")
    major = version.split(".", 1)[0]
    if major != FORMAT_VERSION.split(".", 1)[0]:
        raise ValueError(f"unsupported model format version {version!r}")


def model_from_json(text: str):
    """Rebuild a model from :func:`model_to_json` output."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("model file must contain a JSON object")
    _check_version(payload)
    kind = payload.get("type")
    if kind == "idr":
        return _model_from_payload(payload)
    if kind == "subagged":
        members = tuple(_model_from_payload(m) for m in payload["members"])
        return SubaggedModel(
            members,
            int(payload["subsample_size"]),
            int(payload["seed"]),
            payload.get("split", "random"),
        )
    raise ValueError(f"unknown model type {kind!r}")


def save_model(model, path):
    """Write a model to ``path`` as canonical JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def load_model(path):
    """Read a model written by :func:`save_model`."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
