"""The benchmark's workloads.

Each workload makes its inputs from a seed (the benchmark's own input
generation), prepares its operations with program calls (the set-up that
``setup_s`` times), runs one operation per call of ``run`` and checks each
output with NumPy, apart from the program: against the truth it generated or
against a property the method must have.

Program functions are looked up through their module at call time
(``rtd.solver.decompose``, not a name imported here), so the traced run sees
the hooks that ``tracing`` installs on those modules.
"""

import contextlib
import io
import math
import os

import numpy as np

import rtd.cli
import rtd.experiments
import rtd.solver
import rtd.stego
from rtd.netpbm import GrayImage, RgbImage

# Recovery below this is not recovery: the acceptance tests' threshold.
MIN_DB = 25.0
# The solver stops at a relative residual of 1e-7; allow for recomputation.
RESIDUAL_TOL = 1e-6
STRENGTH = 0.05
KEY_SEED = 42
COMPONENTS = 2  # N of the phase grid
DB_CAP = 300.0


def low_rank_image(rng, h, w, rank, peak=0.8):
    """Nonnegative rank-``rank`` image with values in [0, peak].

    The recipe of ``low_rank_image`` in tests/conftest.py (absolute Gaussian
    factors, scaled to the peak), drawn from NumPy's generator so that the
    inputs do not depend on the program's own random streams.
    """
    F = np.abs(rng.standard_normal((h, rank)))
    G = np.abs(rng.standard_normal((w, rank)))
    M = F @ G.T
    return M * (peak / M.max())


def tsir_db(truth, estimates):
    """Total signal-to-interference ratio in dB, capped at DB_CAP."""
    num = sum(float(np.sum(np.square(a))) for a in truth)
    den = sum(float(np.sum(np.square(a - b))) for a, b in zip(truth, estimates))
    return 10.0 * math.log10(num / max(den, num * 10.0 ** (-DB_CAP / 10.0)))


def write_pnm(path, pixels, maxval):
    """Binary PGM (h x w) or PPM (h x w x 3) at maxval 255 or 65535."""
    magic = "P5" if pixels.ndim == 2 else "P6"
    h, w = pixels.shape[:2]
    levels = np.rint(np.clip(pixels, 0.0, 1.0) * maxval)
    body = levels.astype(">u2" if maxval > 255 else "u1").tobytes()
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n{maxval}\n".encode() + body)


def read_pnm(path):
    """Pixels in [0, 1] of a binary PGM or PPM without header comments."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while data[pos : pos + 1].isspace():
            pos += 1
        end = pos
        while end < len(data) and not data[end : end + 1].isspace():
            end += 1
        fields.append(data[pos:end])
        pos = end
    magic, w, h, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"{path}: not a binary PGM/PPM")
    shape = (h, w) if magic == b"P5" else (h, w, 3)
    dtype = ">u2" if maxval > 255 else "u1"
    raw = np.frombuffer(data[pos + 1 :], dtype=dtype)
    if raw.size != math.prod(shape):
        raise ValueError(f"{path}: {raw.size} samples, expected {math.prod(shape)}")
    return raw.reshape(shape).astype(np.float64) / maxval


def quantized(pixels, maxval):
    """The samples a reader gets back from pixels written at maxval."""
    return np.rint(np.clip(pixels, 0.0, 1.0) * maxval) / maxval


def check_images(secret, secret_est, cover, cover_est):
    """(ok, secret tSIR, message) of a reveal against the concealed images."""
    secret_est = np.asarray(secret_est, dtype=np.float64)
    cover_est = np.asarray(cover_est, dtype=np.float64)
    if secret_est.shape != secret.shape or cover_est.shape != cover.shape:
        return False, None, f"shapes {secret_est.shape}, {cover_est.shape}"
    secret_db = tsir_db([secret[:, :, c] for c in range(3)],
                        [secret_est[:, :, c] for c in range(3)])
    cover_db = tsir_db([cover], [cover_est])
    ok = secret_db >= MIN_DB and cover_db >= MIN_DB
    return ok, secret_db, f"secret {secret_db:.1f} dB, cover {cover_db:.1f} dB"


def check_container_sum(container, cover, secret, slack):
    """A reshuffle moves entries, so it keeps their sum: the container must
    exceed the cover by STRENGTH times the secret's sum."""
    gap = float(np.sum(container) - np.sum(cover) - STRENGTH * np.sum(secret))
    if abs(gap) > slack:
        raise RuntimeError(f"container sum is off by {gap:.3e}")


class PhaseGrid:
    """Seeded make_instance -> decompose over the acceptance phase grid.

    Cells are n = 20..100 step 10 by r = 1..8 with N = 2, on both sides of
    the recovery bound n >= (3N-2)^2 r + 1.  One round is one solve per cell
    on fresh instances; an operation is one decompose.
    """

    name = "phase-grid"
    round_s = 8.3  # one round on a 2-core box, BLAS at 1 thread

    def __init__(self, seed, rounds, workdir=None,
                 sizes=range(20, 101, 10), ranks=range(1, 9)):
        self.params = []
        for t in range(rounds):
            for r in ranks:
                for n in sizes:
                    ss = np.random.SeedSequence([seed, t, n, r])
                    self.params.append((n, r, int(ss.generate_state(1, np.uint64)[0])))
        self.instances = []

    def __len__(self):
        return len(self.params)

    def prepare(self):
        self.instances = [
            rtd.experiments.make_instance(n, r, COMPONENTS, s) for n, r, s in self.params
        ]

    def validate(self):
        """The instances are what the benchmark asked for: N rank-r n x n
        components relocated by true permutations and summed into X."""
        for (n, r, _), (comps, ops, X) in zip(self.params, self.instances):
            if len(comps) != COMPONENTS or len(ops) != COMPONENTS:
                raise RuntimeError(f"instance ({n}, {r}) has {len(comps)} components")
            total = np.zeros(n * n)
            for A, op in zip(comps, ops):
                if A.shape != (n, n) or np.linalg.matrix_rank(A) != r:
                    raise RuntimeError(f"instance ({n}, {r}): bad component")
                if not np.array_equal(np.sort(op.inv_perm), np.arange(n * n)):
                    raise RuntimeError(f"instance ({n}, {r}): inv_perm is no permutation")
                total += A.ravel()[op.inv_perm]
            if not np.allclose(np.ravel(X), total, rtol=0.0, atol=1e-12):
                raise RuntimeError(f"instance ({n}, {r}): X is not the sum")

    def run(self, i):
        _, ops, X = self.instances[i]
        return rtd.solver.decompose(rtd.solver.Problem(X, ops))

    def check(self, i, result):
        """Constraint residual for every cell; tSIR past the bound."""
        n, r, _ = self.params[i]
        comps, ops, X = self.instances[i]
        est = [np.asarray(a, dtype=np.float64) for a in result.components]
        if len(est) != len(ops) or any(a.shape != (n, n) for a in est):
            return False, None, "wrong component shapes"
        fit = sum(a.ravel()[op.inv_perm] for a, op in zip(est, ops))
        residual = float(np.linalg.norm(np.ravel(X) - fit) / np.linalg.norm(X))
        if not residual <= RESIDUAL_TOL:
            return False, None, f"({n}, {r}): residual {residual:.2e}"
        if n < (3 * COMPONENTS - 2) ** 2 * r + 1:
            return True, None, ""
        quality = tsir_db(comps, est)
        return quality >= MIN_DB, quality, f"({n}, {r}): tSIR {quality:.1f} dB"


def _secret_images(seed, size):
    rng = np.random.default_rng(seed)
    cover = low_rank_image(rng, size, size, 5)
    secret = np.stack([low_rank_image(rng, size, size, 2) for _ in range(3)], axis=-1)
    return cover, secret


class StegoReveal:
    """The acceptance steganography case, in memory.

    A rank-5 cover and a secret of rank 2 per channel are concealed at
    strength 0.05, float mode, key 42; an operation is one rtd.stego.reveal.
    """

    name = "stego-reveal-256"
    round_s = 23.5

    def __init__(self, seed, rounds, workdir=None, size=256):
        self.cover, self.secret = _secret_images(seed, size)
        self.rounds = rounds

    def __len__(self):
        return self.rounds

    def prepare(self):
        self.container, self.key = rtd.stego.conceal(
            GrayImage(self.cover), RgbImage(self.secret), STRENGTH, KEY_SEED, "float"
        )

    def validate(self):
        check_container_sum(self.container.pixels, self.cover, self.secret, 1e-9 * self.cover.size)

    def run(self, i):
        return rtd.stego.reveal(
            self.container, self.key,
            ref_secret=RgbImage(self.secret), ref_cover=GrayImage(self.cover),
        )

    def check(self, i, out):
        secret_est, cover_est, _ = out
        return check_images(self.secret, secret_est.pixels, self.cover, cover_est.pixels)


class CliReveal:
    """rtd hide and rtd reveal on files, through rtd.cli.main.

    The benchmark writes a 16-bit cover PGM and secret PPM; set-up runs
    ``hide``, which writes the float-mode container as a 16-bit PGM; an
    operation is one ``reveal`` of that file with ``--ref-secret``.  The
    revealed images are read back from disk and checked.
    """

    name = "stego-reveal-cli"
    round_s = 4.8

    def __init__(self, seed, rounds, workdir, size=64):
        self.rounds = rounds
        cover, secret = _secret_images(seed, size)
        self.cover, self.secret = quantized(cover, 65535), quantized(secret, 65535)
        self.paths = {
            name: os.path.join(workdir, name)
            for name in ("cover.pgm", "secret.ppm", "container.pgm", "stego.key",
                         "revealed.ppm", "restored.pgm")
        }
        write_pnm(self.paths["cover.pgm"], cover, 65535)
        write_pnm(self.paths["secret.ppm"], secret, 65535)

    def __len__(self):
        return self.rounds

    def _main(self, *args):
        with contextlib.redirect_stdout(io.StringIO()):
            return rtd.cli.main(list(args))

    def prepare(self):
        p = self.paths
        code = self._main(
            "hide", "--cover", p["cover.pgm"], "--secret", p["secret.ppm"],
            "--out", p["container.pgm"], "--key", p["stego.key"],
            "--seed", str(KEY_SEED), "--strength", str(STRENGTH), "--mode", "float",
        )
        if code != 0:
            raise RuntimeError(f"rtd hide exited {code}")

    def validate(self):
        container = read_pnm(self.paths["container.pgm"])
        check_container_sum(container, self.cover, self.secret, container.size / 65535.0)

    def run(self, i):
        p = self.paths
        for name in ("revealed.ppm", "restored.pgm"):
            if os.path.exists(p[name]):
                os.remove(p[name])
        return self._main(
            "reveal", "--container", p["container.pgm"], "--key", p["stego.key"],
            "--out", p["revealed.ppm"], "--out-cover", p["restored.pgm"],
            "--ref-secret", p["secret.ppm"],
        )

    def check(self, i, code):
        if code != 0:
            return False, None, f"rtd reveal exited {code}"
        return check_images(self.secret, read_pnm(self.paths["revealed.ppm"]),
                            self.cover, read_pnm(self.paths["restored.pgm"]))


WORKLOADS = {w.name: w for w in (PhaseGrid, StegoReveal, CliReveal)}
