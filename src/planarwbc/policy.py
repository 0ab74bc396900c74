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


# Dense layers in the order the network runs them: (layout prefix, suffix).
LAYERS = (("scan_front", "0"), ("scan_front", "1"), ("scan_rear", "0"), ("scan_rear", "1"),
          ("trunk", "0"), ("trunk", "1"), ("heads", ""))


def layer_table(views) -> tuple:
    """(weight, bias) of each dense layer in LAYERS order, from layout-named views."""
    return tuple((views[f"{name}.w{suffix}"], views[f"{name}.b{suffix}"])
                 for name, suffix in LAYERS)


def _dense(x, layer, tanh):
    w, b = layer
    z = x @ w
    z += b
    return np.tanh(z, out=z) if tanh else z


def _leaf(a):
    return a


def _columns(a, start, stop, dtype):
    return a[:, start:stop].astype(dtype)


def _network(cfg: PolicyConfig, layers, x, leaf, dense, concat, columns):
    """The architecture, written once over an op set.

    layers holds one entry per dense layer, in LAYERS order, that only
    dense(h, layer, tanh) reads; x is the scaled (N, obs) batch in the
    compute dtype, leaf wraps an input slice, and columns(out, start, stop,
    dtype) is a copy of some output columns in dtype. numpy ops give the
    fast forward and the policy's graph pass the differentiated one, with
    the same arithmetic. Returns the float64 (N, dims, bins) logits and
    (N,) values.
    """
    front0, front1, rear0, rear1, trunk0, trunk1, heads = layers
    nb = cfg.scan_beams
    scans = [dense(dense(leaf(x[:, lo : lo + nb]), first, True), second, True)
             for first, second, lo in ((front0, front1, 0), (rear0, rear1, nb))]
    h = dense(concat(scans + [leaf(x[:, 2 * nb :])], axis=1), trunk0, True)
    out = dense(dense(h, trunk1, True), heads, False)
    k = cfg.action_dims * cfg.bins
    logits = columns(out, 0, k, np.float64).reshape(-1, cfg.action_dims, cfg.bins)
    return logits, columns(out, k, k + 1, np.float64).reshape(-1)


class _GraphPass:
    """The network pass that ppo_loss differentiates, over a reused workspace.

    A Policy keeps one per minibatch size. Every op writes its output into
    a buffer of the workspace, made on the first pass and reused by each
    later one; the dense and concat ops are recorded in order, and
    backward() walks the records in reverse into one flat float64 gradient.
    Each backward step evaluates the expression that the reverse-mode tape
    (autodiff.py) evaluates for the same op, and every array receives its
    gradient in one piece, so the gradient is the tape's bit for bit.
    """

    def __init__(self, policy: "Policy", n: int):
        self.n = n
        self.config = policy.config
        self.layers = policy.layers
        self.obs_scale = policy.obs_scale
        self.x = np.empty((n, policy.config.observation_size), policy.compute.dtype)
        self.outs: list[np.ndarray] = []  # output of the k-th recorded op
        self.douts: list[np.ndarray | None] = []  # its gradient, made when first needed
        self.copies: dict[tuple[int, int], np.ndarray] = {}  # float64 output columns
        self.grad = np.empty(policy.params.shape)
        self.grad_layers = layer_table(param_views(policy.config, self.grad))
        # Of the latest pass: ("dense", input, layer index, tanh, input's op) or
        # ("concat", inputs' ops, widths, axis) per op, and (op, start, stop)
        # per columns copy; an input's op is None for a leaf.
        self.records: list[tuple] = []
        self.outputs: list[tuple[int, int, int]] = []
        self.made: dict[int, int] = {}  # id of an op's output -> the op

    def run(self, obs: np.ndarray):
        self.records.clear()
        self.outputs.clear()
        self.made.clear()
        np.multiply(obs, self.obs_scale, out=self.x)
        return _network(self.config, range(len(self.layers)), self.x, _leaf, self.dense,
                        self.concat, self.columns)

    def _record(self, record: tuple, shape, dtype) -> np.ndarray:
        k = len(self.records)
        if k == len(self.outs):
            self.outs.append(np.empty(shape, dtype))
            self.douts.append(None)
        self.records.append(record)
        self.made[id(self.outs[k])] = k
        return self.outs[k]

    def dense(self, h, index, tanh):
        w, b = self.layers[index]
        z = self._record(("dense", h, index, tanh, self.made.get(id(h))),
                         (self.n, w.shape[1]), w.dtype)
        np.matmul(h, w, out=z)
        z += b
        if tanh:
            np.tanh(z, out=z)
        return z

    def concat(self, parts, axis):
        widths = [p.shape[axis] for p in parts]
        shape = list(parts[0].shape)
        shape[axis] = sum(widths)
        out = self._record(("concat", [self.made.get(id(p)) for p in parts], widths, axis),
                           tuple(shape), parts[0].dtype)
        return np.concatenate(parts, axis=axis, out=out)

    def columns(self, out, start, stop, dtype):
        copy = self.copies.get((start, stop))
        if copy is None:
            copy = self.copies[start, stop] = np.empty((self.n, stop - start), dtype)
        np.copyto(copy, out[:, start:stop])
        self.outputs.append((self.made[id(out)], start, stop))
        return copy

    def _dout(self, k: int) -> np.ndarray:
        if self.douts[k] is None:
            self.douts[k] = np.empty_like(self.outs[k])
        return self.douts[k]

    def backward(self, d_outputs) -> np.ndarray:
        if not self.records:
            raise RuntimeError("backward() needs a graph_forward() since the last backward()")
        douts: list[np.ndarray | None] = [None] * len(self.records)
        # The tape adds the zero-padded gradients of the two column copies, so
        # each column holds 0 + its gradient (and -0.0 becomes 0.0).
        for (k, start, stop), d in zip(self.outputs, d_outputs, strict=True):
            if douts[k] is None:
                douts[k] = self._dout(k)
                douts[k].fill(0.0)
            view = douts[k][:, start:stop]
            np.add(view, d.reshape(view.shape), out=view)
        grad = self.grad
        grad.fill(0.0)
        for k in range(len(self.records) - 1, -1, -1):
            record, g = self.records[k], douts[k]
            if record[0] == "concat":
                _, sources, widths, axis = record
                for q, piece in zip(sources, np.split(g, np.cumsum(widths)[:-1], axis=axis)):
                    if q is not None:
                        douts[q] = piece
                continue
            _, h, index, tanh, q = record
            w = self.layers[index][0]
            gw, gb = self.grad_layers[index]
            gz = g
            if tanh:
                # g * (1 - z*z), formed in z's buffer: no later step reads z.
                gz = np.multiply(self.outs[k], self.outs[k], out=self.outs[k])
                np.subtract(1.0, gz, out=gz)
                np.multiply(g, gz, out=gz)
            if q is not None:
                douts[q] = np.matmul(gz, w.T, out=self._dout(q))
            gw += h.T @ gz
            gb += gz.sum(axis=0)
        self.records.clear()
        return grad


class Policy:
    """Flat float64 master parameters bound to a config, with a fast forward
    and a differentiated graph pass.

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
        self.views = param_views(config, self.params)
        self.compute = np.empty(self.params.shape, COMPUTE_DTYPE)
        self.compute_views = param_views(config, self.compute)
        self.layers = layer_table(self.compute_views)
        # Multiplying by 1.0 is exact, so a config without a scale needs no branch.
        self.obs_scale = np.asarray(config.obs_scale or 1.0)
        self._graph: _GraphPass | None = None
        self.refresh()

    def refresh(self, block: slice = slice(None)) -> None:
        """Copy the master parameters (a flat block of them) into the compute
        copy the forwards read."""
        self.compute[block] = self.params[block]

    def forward_batch(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, obs) -> logits (N, dims, bins) and values (N,)."""
        cfg = self.config
        if obs.ndim != 2 or obs.shape[1] != cfg.observation_size:
            raise ValueError(
                f"expected observations of shape (N, {cfg.observation_size}), got {obs.shape}"
            )
        x = (obs * self.obs_scale).astype(self.compute.dtype)
        return _network(cfg, self.layers, x, _leaf, _dense, np.concatenate, _columns)

    def forward(self, obs: np.ndarray) -> PolicyOutput:
        logits, values = self.forward_batch(obs.reshape(1, -1))
        return PolicyOutput(logits=logits[0], value=float(values[0]))

    def graph_forward(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """forward_batch into the workspace for len(obs), recorded for backward().

        The returned logits (N, dims, bins) and values (N,) equal
        forward_batch's bit for bit; they live in the workspace until the
        next graph_forward of the same batch size.
        """
        if self._graph is None or self._graph.n != len(obs):
            self._graph = _GraphPass(self, len(obs))
        return self._graph.run(obs)

    def backward(self, d_logits: np.ndarray, d_values: np.ndarray) -> np.ndarray:
        """Flat float64 gradient, in layout order, of a loss whose gradient with
        respect to the latest graph_forward's logits and values is given.

        The array is the workspace's: the next backward() overwrites it.
        """
        if self._graph is None:
            raise RuntimeError("backward() needs a graph_forward() first")
        return self._graph.backward((d_logits, d_values))


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
