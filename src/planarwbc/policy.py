"""Actor-critic network: scan encoders, shared trunk, one fused output layer.

Front and rear range scans pass through two independent two-layer encoders;
their embeddings are concatenated with the proprioceptive/goal inputs and fed
to a tanh trunk. One linear `heads` layer gives, per action dimension, the
logits of a categorical distribution over bins (an odd bin count keeps zero
acceleration representable), and in its last column the value estimate.

All parameters live in one flat float64 master array with a documented
(name, shape, offset) layout, which makes checkpoints, optimizer state, and
gradient checks straightforward. The network arithmetic runs in
COMPUTE_DTYPE on a copy of that array, which the policy refreshes whenever
the master changes; the logits and values leave the network as float64.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .envs import observation_layout
from .robot import Action, RobotConfig

CHECKPOINT_MAGIC = b"PWBCNET1"
CHECKPOINT_VERSION = 2
# dtype of the network arithmetic; parameters, gradients and losses stay float64.
COMPUTE_DTYPE = np.float32


@dataclass(frozen=True)
class PolicyConfig:
    """Network sizes plus the fixed input scaling vector.

    obs_scale multiplies the raw observation before the first layer so all
    inputs land in roughly [-1, 1]; it is part of the architecture (and the
    checkpoint hash), not of the environment.
    """

    scan_beams: int = 64
    scan_hidden: tuple[int, int] = (128, 64)
    proprio_size: int = 12
    trunk_hidden: tuple[int, int] = (256, 256)
    action_dims: int = 6
    bins: int = 7
    obs_scale: tuple[float, ...] = ()

    @classmethod
    def for_robot(cls, robot: RobotConfig, **overrides) -> "PolicyConfig":
        """Sizes and input scaling derived from the robot's observation layout."""
        scale = tuple(s for _, field_scale in observation_layout(robot) for s in field_scale)
        defaults = dict(
            scan_beams=robot.lidar.beams,
            proprio_size=len(scale) - 2 * robot.lidar.beams,
            action_dims=3 + robot.num_joints,
            obs_scale=scale,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @property
    def observation_size(self) -> int:
        return 2 * self.scan_beams + self.proprio_size

    def validate(self) -> list[str]:
        errors = []
        if self.scan_beams < 1 or self.proprio_size < 1:
            errors.append("scan_beams and proprio_size must be >= 1")
        if self.bins < 2 or self.bins % 2 == 0:
            errors.append("bins must be odd and >= 3 so zero acceleration is a bin center")
        if self.action_dims < 1:
            errors.append("action_dims must be >= 1")
        if self.obs_scale and len(self.obs_scale) != self.observation_size:
            errors.append("obs_scale length must equal the observation size")
        return errors


@dataclass
class PolicyOutput:
    """Per-dimension bin logits and the value estimate for one observation."""

    logits: np.ndarray  # (action_dims, bins)
    value: float


def layout(config: PolicyConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, offset) table of the flat parameter array."""
    h1, h2 = config.scan_hidden
    t1, t2 = config.trunk_hidden
    trunk_in = 2 * h2 + config.proprio_size
    entries: list[tuple[str, tuple[int, ...]]] = []
    for side in ("front", "rear"):
        entries += [
            (f"scan_{side}.w0", (config.scan_beams, h1)),
            (f"scan_{side}.b0", (h1,)),
            (f"scan_{side}.w1", (h1, h2)),
            (f"scan_{side}.b1", (h2,)),
        ]
    entries += [
        ("trunk.w0", (trunk_in, t1)),
        ("trunk.b0", (t1,)),
        ("trunk.w1", (t1, t2)),
        ("trunk.b1", (t2,)),
    ]
    # Columns d*bins:(d+1)*bins are the logits of action dimension d, the last the value.
    outputs = config.action_dims * config.bins + 1
    entries += [("heads.w", (t2, outputs)), ("heads.b", (outputs,))]
    table = []
    offset = 0
    for name, shape in entries:
        table.append((name, shape, offset))
        offset += math.prod(shape)
    return table


def param_count(config: PolicyConfig) -> int:
    name, shape, offset = layout(config)[-1]
    return offset + math.prod(shape)


def param_views(config: PolicyConfig, params: np.ndarray) -> dict[str, np.ndarray]:
    """Named reshaped views into the flat array (no copies)."""
    if params.shape != (param_count(config),):
        raise ValueError(
            f"params must have shape ({param_count(config)},), got {params.shape}"
        )
    views = {}
    for name, shape, offset in layout(config):
        size = math.prod(shape)
        views[name] = params[offset : offset + size].reshape(shape)
    return views


def _orthogonal(rng: np.random.Generator, shape: tuple[int, int], gain: float) -> np.ndarray:
    rows, cols = max(shape), min(shape)
    a = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix QR sign ambiguity
    if q.shape != shape:
        q = q.T
    return gain * q


def init_params(config: PolicyConfig, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal hidden weights, small-gain heads, zero biases."""
    params = np.zeros(param_count(config))
    views = param_views(config, params)
    for name, view in views.items():
        if not name.endswith(".w0") and not name.endswith(".w1") and not name.endswith(".w"):
            continue
        gain = 0.01 if name.startswith("heads.") else 1.0
        view[...] = _orthogonal(rng, view.shape, gain)
    return params


def _dense(x, w, b, tanh):
    z = x @ w
    z += b
    return np.tanh(z, out=z) if tanh else z


def _columns(a, start, stop, dtype):
    return a[:, start:stop].astype(dtype)


def _network(cfg: PolicyConfig, views, x, leaf, dense, concat, columns):
    """The architecture, written once over an op set.

    views maps layout names to weights, x is the scaled (N, obs) batch in
    their dtype, leaf wraps an input slice, dense(h, w, b, tanh) is one layer
    and columns(out, start, stop, dtype) a copy of some output columns in
    dtype: numpy ops give the fast forward, autodiff ops the taped one, with
    the same arithmetic. Returns the float64 (N, dims, bins) logits and
    (N,) values.
    """
    def layer(h, name, suffix="", tanh=True):
        return dense(h, views[f"{name}.w{suffix}"], views[f"{name}.b{suffix}"], tanh)

    nb = cfg.scan_beams
    scans = [
        layer(layer(leaf(x[:, lo : lo + nb]), name, "0"), name, "1")
        for name, lo in (("scan_front", 0), ("scan_rear", nb))
    ]
    h = layer(concat(scans + [leaf(x[:, 2 * nb :])], axis=1), "trunk", "0")
    out = layer(layer(h, "trunk", "1"), "heads", tanh=False)
    k = cfg.action_dims * cfg.bins
    logits = columns(out, 0, k, np.float64).reshape(-1, cfg.action_dims, cfg.bins)
    return logits, columns(out, k, k + 1, np.float64).reshape(-1)


class Policy:
    """Flat float64 master parameters bound to a config, with fast and taped forwards.

    The policy owns `params`, a copy of the array it was built from. Both
    forwards read `compute`, a COMPUTE_DTYPE copy of `params`: whoever
    writes `params` calls refresh() before the next forward.
    """

    def __init__(self, config: PolicyConfig, params: np.ndarray):
        issues = config.validate()
        if issues:
            raise ValueError("; ".join(issues))
        self.config = config
        self.params = np.array(params, dtype=np.float64)
        self.views = param_views(config, self.params)
        self.compute = np.empty(self.params.shape, COMPUTE_DTYPE)
        self.compute_views = param_views(config, self.compute)
        # Multiplying by 1.0 is exact, so a config without a scale needs no branch.
        self.obs_scale = np.asarray(config.obs_scale or 1.0)
        self.refresh()

    def refresh(self, block: slice = slice(None)) -> None:
        """Copy the master parameters (a flat block of them) into the compute
        copy the forwards read."""
        self.compute[block] = self.params[block]

    def _scaled(self, obs: np.ndarray) -> np.ndarray:
        return (obs * self.obs_scale).astype(self.compute.dtype)

    def forward_batch(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, obs) -> logits (N, dims, bins) and values (N,)."""
        cfg = self.config
        if obs.ndim != 2 or obs.shape[1] != cfg.observation_size:
            raise ValueError(
                f"expected observations of shape (N, {cfg.observation_size}), got {obs.shape}"
            )
        return _network(cfg, self.compute_views, self._scaled(obs), lambda a: a, _dense,
                        np.concatenate, _columns)

    def forward(self, obs: np.ndarray) -> PolicyOutput:
        logits, values = self.forward_batch(obs.reshape(1, -1))
        return PolicyOutput(logits=logits[0], value=float(values[0]))

    def graph_forward(self, obs: np.ndarray):
        """Taped batch forward.

        Returns (logits tensor (N, dims, bins), value tensor (N,), flat
        gradient). The flat gradient is float64, zeroed and in layout order:
        backward() adds each parameter's gradient into its slot.
        """
        grad = np.zeros_like(self.params)
        slots = param_views(self.config, grad)
        v = {name: ad.Tensor(view, requires_grad=True, grad=slots[name])
             for name, view in self.compute_views.items()}
        logits, value = _network(self.config, v, self._scaled(obs), ad.Tensor, ad.dense,
                                 ad.concat, ad.columns)
        return logits, value, grad


# -- action distribution helpers ---------------------------------------------

def log_softmax_np(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sample_bins(output: PolicyOutput, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """(bins, log_prob): one bin index per action dimension via inverse-CDF
    sampling, and the summed log-probability of the chosen bins."""
    logp = log_softmax_np(output.logits)
    probs = np.exp(logp)
    u = rng.random(probs.shape[0])
    cum = np.cumsum(probs, axis=-1)
    bins = np.minimum(
        (u[:, None] > cum).sum(axis=-1), probs.shape[-1] - 1
    ).astype(np.int64)
    taken = np.take_along_axis(logp, bins[:, None], axis=-1)[:, 0]
    return bins, float(taken.sum())


def greedy_bins(output: PolicyOutput) -> np.ndarray:
    return output.logits.argmax(axis=-1).astype(np.int64)


def acceleration_limits(robot: RobotConfig) -> np.ndarray:
    return np.concatenate(
        [np.asarray(robot.max_base_acc, dtype=float),
         np.full(robot.num_joints, robot.max_joint_acc, dtype=float)]
    )


def bins_to_action(robot: RobotConfig, bins: np.ndarray, n_bins: int) -> Action:
    """Affine bin-to-acceleration map; the center bin is exactly zero."""
    limits = acceleration_limits(robot)
    acc = (2.0 * bins / (n_bins - 1) - 1.0) * limits
    return Action(base_acc=acc[:3], joint_acc=acc[3:])


def sample_action(
    robot: RobotConfig, output: PolicyOutput, rng: np.random.Generator
) -> tuple[Action, np.ndarray, float]:
    """(Action, bins, log_prob) sampled from the policy output."""
    bins, log_prob = sample_bins(output, rng)
    return bins_to_action(robot, bins, output.logits.shape[-1]), bins, log_prob


# -- checkpointing -------------------------------------------------------------

def config_hash(config) -> bytes:
    """SHA-256 over the canonical JSON form of any dataclass config."""
    text = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).digest()


def save_params(path, config: PolicyConfig, params: np.ndarray) -> None:
    """Versioned binary checkpoint: header, config hash, flat float64 params, digest."""
    write_bytes_atomic(path, pack_checkpoint(POLICY_CHECKPOINT, config_hash(config), [params]))


def write_bytes_atomic(path, data: bytes) -> None:
    """Replace the file at path with data; a crash leaves the old or the new file.

    The bytes go to a temporary file in the same directory, are flushed to
    disk and renamed over path; the directory is then flushed so the rename
    itself survives a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_params(path, config: PolicyConfig) -> np.ndarray:
    (params,), _ = unpack_checkpoint(POLICY_CHECKPOINT, Path(path).read_bytes(),
                                     config_hash(config), param_count(config))
    return params


@dataclass(frozen=True)
class CheckpointFormat:
    """One checkpoint kind in the shared framing.

    A file is the magic, <I version, the 32-byte config digest, <Q element
    count, then `arrays` float64 arrays of that many elements each as <f8,
    then, with `meta`, a <Q length and that many bytes of metadata, and last
    the SHA-256 digest of all the bytes before it.
    """

    kind: str  # names the file kind in error messages
    config: str  # names the config the digest hashes, likewise
    magic: bytes
    version: int
    arrays: int
    meta: bool


POLICY_CHECKPOINT = CheckpointFormat("policy", "policy", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                     arrays=1, meta=False)
DIGEST_SIZE = hashlib.sha256().digest_size


def pack_checkpoint(fmt: CheckpointFormat, digest: bytes, arrays, meta: bytes | None = None
                    ) -> bytes:
    """The bytes of one checkpoint file in fmt."""
    parts = [fmt.magic, struct.pack("<I", fmt.version), digest,
             struct.pack("<Q", np.asarray(arrays[0]).size)]
    parts += [np.asarray(a, dtype=np.float64).astype("<f8").tobytes() for a in arrays]
    if fmt.meta:
        parts += [struct.pack("<Q", len(meta)), meta]
    payload = b"".join(parts)
    return payload + hashlib.sha256(payload).digest()


def unpack_checkpoint(fmt: CheckpointFormat, raw: bytes, digest: bytes, count: int):
    """(float64 arrays, metadata bytes or None) of a checkpoint file in fmt.

    Raises ValueError for a wrong magic, version, config digest or element
    count, for a file shorter or longer than its framing says, and for a
    payload that does not match its digest.
    """
    header = len(fmt.magic) + 4 + 32 + 8
    if raw[: len(fmt.magic)] != fmt.magic[: len(raw)]:
        raise ValueError(f"not a {fmt.kind} checkpoint (bad magic)")
    if len(raw) < header:
        raise ValueError(f"{fmt.kind} checkpoint is truncated: {len(raw)} bytes")
    (version,) = struct.unpack_from("<I", raw, len(fmt.magic))
    if version != fmt.version:
        raise ValueError(f"unsupported {fmt.kind} checkpoint version {version}")
    if raw[len(fmt.magic) + 4 : header - 8] != digest:
        raise ValueError(f"{fmt.kind} checkpoint was written for a different {fmt.config} config")
    (got,) = struct.unpack_from("<Q", raw, header - 8)
    if got != count:
        raise ValueError(f"checkpoint holds {got} params, config needs {count}")
    body = header + 8 * count * fmt.arrays
    payload = body + 8 if fmt.meta else body
    if fmt.meta and len(raw) >= payload:
        payload += struct.unpack_from("<Q", raw, body)[0]
    end = payload + DIGEST_SIZE
    if len(raw) != end:
        problem = "is truncated" if len(raw) < end else "has extra bytes"
        raise ValueError(f"{fmt.kind} checkpoint {problem}: {len(raw)} bytes, expected {end}")
    if hashlib.sha256(raw[:payload]).digest() != raw[payload:]:
        raise ValueError(f"{fmt.kind} checkpoint is corrupted: payload digest mismatch")
    arrays = [np.frombuffer(raw, dtype="<f8", count=count, offset=header + 8 * count * k)
              .astype(np.float64) for k in range(fmt.arrays)]
    return arrays, (raw[body + 8 : payload] if fmt.meta else None)
