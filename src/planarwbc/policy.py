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

import contextlib
import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .envs import observation_layout
from .robot import Action, RobotConfig

# dtype of the network arithmetic; parameters, gradients and losses stay float64.
COMPUTE_DTYPE = np.float32


@dataclass(frozen=True)
class NetworkConfig:
    """The network's own sizes; the robot fixes the rest (PolicyConfig.for_robot)."""

    scan_hidden: tuple[int, int] = (128, 64)
    trunk_hidden: tuple[int, int] = (256, 256)
    bins: int = 7


@dataclass(frozen=True)
class PolicyConfig:
    """Network sizes plus the fixed input scaling vector.

    obs_scale multiplies the raw observation before the first layer so all
    inputs land in roughly [-1, 1]; it is part of the architecture (and the
    checkpoint hash), not of the environment.
    """

    scan_beams: int
    scan_hidden: tuple[int, int]
    proprio_size: int
    trunk_hidden: tuple[int, int]
    action_dims: int
    bins: int
    obs_scale: tuple[float, ...]

    @classmethod
    def for_robot(cls, robot: RobotConfig,
                  network: NetworkConfig = NetworkConfig()) -> "PolicyConfig":
        """The network's sizes, with the input sizes and scaling from the robot's observations."""
        scale = tuple(s for _, field_scale in observation_layout(robot) for s in field_scale)
        return cls(
            scan_beams=robot.lidar.beams,
            proprio_size=len(scale) - 2 * robot.lidar.beams,
            action_dims=3 + robot.num_joints,
            obs_scale=scale,
            **asdict(network),
        )

    @property
    def observation_size(self) -> int:
        return 2 * self.scan_beams + self.proprio_size

    def validate(self) -> list[str]:
        errors = []
        if self.scan_beams < 1 or self.proprio_size < 1:
            errors.append("scan_beams and proprio_size must be >= 1")
        if any(len(s) != 2 or min(s) < 1 for s in (self.scan_hidden, self.trunk_hidden)):
            errors.append("scan_hidden and trunk_hidden must each be two layer sizes >= 1")
        if self.bins < 2 or self.bins % 2 == 0:
            errors.append("bins must be odd and >= 3 so zero acceleration is a bin center")
        if self.action_dims < 1:
            errors.append("action_dims must be >= 1")
        if len(self.obs_scale) != self.observation_size:
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
    # One dense layer after another in the order the network runs them, each
    # weight before its bias.
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


def _layers(config: PolicyConfig, flat: np.ndarray) -> tuple:
    """(weight, bias) views of each dense layer of a flat array, in layout order."""
    views = list(param_views(config, flat).values())
    return tuple(zip(views[::2], views[1::2]))


def _dense(h, layer, z, tanh: bool) -> None:
    """z = h @ w + b into z, then tanh in place when tanh; layer is (w, b)."""
    w, b = layer
    np.matmul(h, w, out=z)
    z += b
    if tanh:
        np.tanh(z, out=z)


def _dense_backward(h, z, g, layer, grad_layer, tanh: bool, dh=None) -> None:
    """The backward of _dense(h, layer, z, tanh) given g = dL/dz: adds dL/dw
    and dL/db into grad_layer, and writes dL/dh into dh when one is given.

    Each expression is autodiff.dense's, so the gradient is the tape's bit
    for bit; g * (1 - z*z) is formed in z's buffer, which no later step reads.
    """
    gz = g
    if tanh:
        gz = np.multiply(z, z, out=z)
        np.subtract(1.0, gz, out=gz)
        np.multiply(g, gz, out=gz)
    if dh is not None:
        np.matmul(gz, layer[0].T, out=dh)
    gw, gb = grad_layer
    gw += h.T @ gz
    gb += gz.sum(axis=0)


class _Workspace:
    """The buffers of one network pass over n observations: each layer's
    activation in the compute dtype, the logits and values in float64, and,
    with gradients, what backward() writes: the gradients of the activations
    a later backward step reads, and the flat float64 parameter gradient.
    """

    def __init__(self, policy: "Policy", n: int, gradients: bool = False):
        cfg, dtype = policy.config, policy.compute.dtype
        (h1, h2), (t1, t2) = cfg.scan_hidden, cfg.trunk_hidden
        self.n = n
        self.x = np.empty((n, cfg.observation_size), dtype)
        self.front0, self.rear0 = np.empty((n, h1), dtype), np.empty((n, h1), dtype)
        self.front1, self.rear1 = np.empty((n, h2), dtype), np.empty((n, h2), dtype)
        self.cat = np.empty((n, 2 * h2 + cfg.proprio_size), dtype)
        self.trunk0, self.trunk1 = np.empty((n, t1), dtype), np.empty((n, t2), dtype)
        self.heads = np.empty((n, cfg.action_dims * cfg.bins + 1), dtype)
        self.logits = np.empty((n, cfg.action_dims, cfg.bins))
        self.values = np.empty(n)
        if gradients:
            self.dheads, self.dtrunk1, self.dtrunk0, self.dcat, self.dfront0, self.drear0 = (
                np.empty_like(a) for a in
                (self.heads, self.trunk1, self.trunk0, self.cat, self.front0, self.rear0))
            self.grad = np.empty(policy.params.shape)
            self.grad_layers = _layers(cfg, self.grad)


class Policy:
    """Flat float64 master parameters bound to a config, with the network's
    forward and its backward.

    The policy owns `params`, a copy of the array it was built from. Both
    passes read `compute`, a COMPUTE_DTYPE copy of `params`, through
    `layers`, the layer table bound once: whoever writes `params` calls
    refresh() before the next forward.
    """

    def __init__(self, config: PolicyConfig, params: np.ndarray):
        issues = config.validate()
        if issues:
            raise ValueError("; ".join(issues))
        self.config = config
        self.params = np.array(params, dtype=np.float64)
        self.compute = np.empty(self.params.shape, COMPUTE_DTYPE)
        self.layers = _layers(config, self.compute)
        self.obs_scale = np.asarray(config.obs_scale)
        self._graph: _Workspace | None = None  # reused by graph_forward() of its size
        self._pending: _Workspace | None = None  # a graph_forward() backward() has not read
        self.refresh()

    def refresh(self, block: slice = slice(None)) -> None:
        """Copy the master parameters (a flat block of them) into the compute
        copy the forwards read."""
        self.compute[block] = self.params[block]

    def _forward(self, ws: _Workspace, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The network on obs (N, obs) through ws: its logits (N, dims, bins)
        and values (N,)."""
        front0, front1, rear0, rear1, trunk0, trunk1, heads = self.layers
        nb = self.config.scan_beams
        x = np.multiply(obs, self.obs_scale, out=ws.x)
        _dense(x[:, :nb], front0, ws.front0, True)
        _dense(ws.front0, front1, ws.front1, True)
        _dense(x[:, nb : 2 * nb], rear0, ws.rear0, True)
        _dense(ws.rear0, rear1, ws.rear1, True)
        np.concatenate((ws.front1, ws.rear1, x[:, 2 * nb :]), axis=1, out=ws.cat)
        _dense(ws.cat, trunk0, ws.trunk0, True)
        _dense(ws.trunk0, trunk1, ws.trunk1, True)
        _dense(ws.trunk1, heads, ws.heads, False)
        k = ws.heads.shape[1] - 1
        np.copyto(ws.logits.reshape(ws.n, k), ws.heads[:, :k])
        np.copyto(ws.values, ws.heads[:, k])
        return ws.logits, ws.values

    def forward_batch(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, obs) -> logits (N, dims, bins) and values (N,), both the caller's."""
        cfg = self.config
        if obs.ndim != 2 or obs.shape[1] != cfg.observation_size:
            raise ValueError(
                f"expected observations of shape (N, {cfg.observation_size}), got {obs.shape}"
            )
        return self._forward(_Workspace(self, len(obs)), obs)

    def forward(self, obs: np.ndarray) -> PolicyOutput:
        logits, values = self.forward_batch(obs.reshape(1, -1))
        return PolicyOutput(logits=logits[0], value=float(values[0]))

    def graph_forward(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """forward_batch into the workspace for len(obs), kept for backward().

        The returned logits (N, dims, bins) and values (N,) equal
        forward_batch's bit for bit; they live in the workspace until the
        next graph_forward of the same batch size.
        """
        if self._graph is None or self._graph.n != len(obs):
            self._graph = _Workspace(self, len(obs), gradients=True)
        out = self._forward(self._graph, obs)
        self._pending = self._graph
        return out

    def backward(self, d_logits: np.ndarray, d_values: np.ndarray) -> np.ndarray:
        """Flat float64 gradient, in layout order, of a loss whose gradient with
        respect to the latest graph_forward's logits and values is given.

        The walk mirrors _forward layer by layer. The array is the
        workspace's: the next backward() overwrites it.
        """
        ws, self._pending = self._pending, None
        if ws is None:
            raise RuntimeError("backward() needs a graph_forward() since the last backward()")
        front0, front1, rear0, rear1, trunk0, trunk1, heads = self.layers
        g_front0, g_front1, g_rear0, g_rear1, g_trunk0, g_trunk1, g_heads = ws.grad_layers
        nb, h2 = self.config.scan_beams, self.config.scan_hidden[1]
        k = ws.heads.shape[1] - 1
        # The tape adds the zero-padded gradients of the two float64 output
        # copies, so each column holds 0 + its gradient (and -0.0 becomes 0.0).
        ws.dheads.fill(0.0)
        for view, d in ((ws.dheads[:, :k], d_logits), (ws.dheads[:, k:], d_values)):
            np.add(view, d.reshape(view.shape), out=view)
        ws.grad.fill(0.0)
        _dense_backward(ws.trunk1, ws.heads, ws.dheads, heads, g_heads, False, ws.dtrunk1)
        _dense_backward(ws.trunk0, ws.trunk1, ws.dtrunk1, trunk1, g_trunk1, True, ws.dtrunk0)
        _dense_backward(ws.cat, ws.trunk0, ws.dtrunk0, trunk0, g_trunk0, True, ws.dcat)
        # The scans' gradients are views of the concat's; its proprioceptive
        # columns reach no parameter, nor do the input scans.
        dfront1, drear1 = ws.dcat[:, :h2], ws.dcat[:, h2 : 2 * h2]
        _dense_backward(ws.rear0, ws.rear1, drear1, rear1, g_rear1, True, ws.drear0)
        _dense_backward(ws.x[:, nb : 2 * nb], ws.rear0, ws.drear0, rear0, g_rear0, True)
        _dense_backward(ws.front0, ws.front1, dfront1, front1, g_front1, True, ws.dfront0)
        _dense_backward(ws.x[:, :nb], ws.front0, ws.dfront0, front0, g_front0, True)
        return ws.grad


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
    bins = np.minimum((u[:, None] > cum).sum(axis=-1), probs.shape[-1] - 1).astype(np.int64)
    taken = np.take_along_axis(logp, bins[:, None], axis=-1)[:, 0]
    return bins, float(taken.sum())


def greedy_bins(output: PolicyOutput) -> np.ndarray:
    return output.logits.argmax(axis=-1).astype(np.int64)


def acceleration_table(robot: RobotConfig, n_bins: int) -> np.ndarray:
    """(action dims, n_bins) accelerations of the bins: an affine map from
    -limit to +limit per dimension whose center bin is exactly zero."""
    limits = np.concatenate([np.asarray(robot.max_base_acc, dtype=float),
                             np.full(robot.num_joints, robot.max_joint_acc, dtype=float)])
    levels = 2.0 * np.arange(n_bins) / (n_bins - 1) - 1.0
    return levels * limits[:, None]


def bins_to_action(table: np.ndarray, bins: np.ndarray) -> Action:
    """The Action of one bin per dimension, read from an acceleration_table."""
    acc = table[np.arange(len(bins)), bins]
    return Action(base_acc=acc[:3], joint_acc=acc[3:])


def sample_action(table: np.ndarray, output: PolicyOutput,
                  rng: np.random.Generator) -> tuple[Action, np.ndarray, float]:
    """(Action, bins, log_prob) sampled from the policy output; table is an acceleration_table."""
    bins, log_prob = sample_bins(output, rng)
    return bins_to_action(table, bins), bins, log_prob


# -- checkpointing -------------------------------------------------------------

def config_hash(config) -> bytes:
    """SHA-256 over the canonical JSON form of any dataclass config."""
    text = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).digest()


def save_params(path, config: PolicyConfig, params: np.ndarray) -> None:
    """Versioned binary checkpoint: header, config hash, flat float64 params, digest."""
    write_checkpoint(path, POLICY_CHECKPOINT, config_hash(config), [params])


def load_params(path, config: PolicyConfig) -> np.ndarray:
    params = np.empty(param_count(config))
    read_checkpoint(path, POLICY_CHECKPOINT, config_hash(config), [params])
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


POLICY_CHECKPOINT = CheckpointFormat("policy", "policy", b"PWBCNET1", 2, arrays=1, meta=False)


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read, or does not fit what reads it."""


@contextlib.contextmanager
def replacing(path, mode: str = "wb"):
    """Open a temporary file beside path for writing; when the block ends
    cleanly, flush it to disk and rename it over path. A crash or an error
    in the block leaves the old file, a clean end the new one.

    The directory is flushed after the rename so that the rename itself
    survives a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
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


def write_checkpoint(path, fmt: CheckpointFormat, digest: bytes, arrays,
                     meta: bytes | None = None) -> None:
    """Replace the file at path with a checkpoint in fmt; a crash leaves the
    old or the new file (see replacing).

    The framing goes piece by piece into the temporary file, each float64
    array as a view of its own buffer, and the same pieces feed the closing
    SHA-256, so nothing is copied whole.
    """
    pieces = [fmt.magic, struct.pack("<I", fmt.version), digest,
              struct.pack("<Q", np.asarray(arrays[0]).size)]
    pieces += [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    if fmt.meta:
        pieces += [struct.pack("<Q", len(meta)), meta]
    payload = hashlib.sha256()
    with replacing(path) as fh:
        for piece in pieces:
            view = memoryview(piece).cast("B")
            fh.write(view)
            payload.update(view)
        fh.write(payload.digest())


def read_checkpoint(path, fmt: CheckpointFormat, digest: bytes, arrays) -> bytes | None:
    """Read the checkpoint in fmt at path into arrays, fmt.arrays float64
    buffers of one size, each straight into its buffer while the payload is
    hashed; return the metadata bytes, or None for a format without.

    Raises CheckpointError, naming path, for a file that cannot be read, for
    a wrong magic, version, config digest or element count, for a file
    shorter or longer than its framing says, and for a digest mismatch.
    """
    kind, count = fmt.kind, arrays[0].size
    header_size = len(fmt.magic) + 4 + 32 + 8
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            header = fh.read(header_size)
            if header[: len(fmt.magic)] != fmt.magic[: len(header)]:
                raise CheckpointError(f"not a {kind} checkpoint (bad magic)")
            if len(header) < header_size:
                raise CheckpointError(f"{kind} checkpoint is truncated: {size} bytes")
            (version,) = struct.unpack_from("<I", header, len(fmt.magic))
            if version != fmt.version:
                raise CheckpointError(f"unsupported {kind} checkpoint version {version}")
            if header[len(fmt.magic) + 4 : header_size - 8] != digest:
                raise CheckpointError(
                    f"{kind} checkpoint was written for a different {fmt.config} config")
            (got,) = struct.unpack_from("<Q", header, header_size - 8)
            if got != count:
                raise CheckpointError(f"checkpoint holds {got} params, config needs {count}")
            body = header_size + 8 * count * fmt.arrays
            payload = body + 8 if fmt.meta else body
            if fmt.meta and size >= payload:
                fh.seek(body)
                payload += struct.unpack("<Q", fh.read(8))[0]
                fh.seek(header_size)
            end = payload + 32
            if size != end:
                problem = "is truncated" if size < end else "has extra bytes"
                raise CheckpointError(f"{kind} checkpoint {problem}: {size} bytes, expected {end}")
            hasher = hashlib.sha256(header)
            for array in arrays:
                view = memoryview(array).cast("B")
                fh.readinto(view)
                hasher.update(view)
            meta = fh.read(payload - body)
            hasher.update(meta)
            if hasher.digest() != fh.read(32):
                raise CheckpointError(f"{kind} checkpoint is corrupted: payload digest mismatch")
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read {kind} checkpoint: "
                              f"{exc.strerror or exc}") from None
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if sys.byteorder != "little":  # the file holds <f8
        for array in arrays:
            array.byteswap(inplace=True)
    return meta[8:] if fmt.meta else None
