"""Store open time: memory-mapped checkpoint vs full array load.

Checkpoints store one ``.npy`` per array precisely so a read-only
replica can ``np.load(mmap_mode="r")`` them: the kernel maps the pages
and the open costs O(header-parse) per array, independent of how many
megabytes ``U``/``V`` hold — pages fault in only when a query touches
their rows.  This bench writes a serving-scale checkpoint, then times

* **full** — ``read_arrays(mmap=False)``: every array byte is read and
  materialized (what a naive "load the whole model at boot" restart
  pays, scaling with checkpoint size);
* **mmap** — ``read_arrays(mmap=True)``: header parse + page-table
  setup only, O(1)-ish in array bytes.

The end-to-end time of the store's door opening that checkpoint *by
name* (``open_checkpoint(data_dir, name).model()``: manifest JSON with
every doc id, parsed once + vocabulary rebuild + the mapped arrays; no
CRC pass — a named checkpoint is not re-verified) is reported alongside,
and the first query against the mapped model must match the eagerly
loaded arrays element-identically.  That number is the manifest, not
the arrays: at the smoke size (60 000 docs, a 0.98 MB manifest that
lists each id once) the named open takes 8–12 ms of which mapping the
arrays is under 1 ms; before the door parsed the manifest once it was
~10 ms (two parses).

Acceptance: the mapped model scores element-identically, and at full
size the mmap array open is ≥ 5× faster than the full load.
"""

import pathlib
import tempfile
import time

import numpy as np

from conftest import SMOKE, emit
from obs_export import maybe_export_obs
from repro.serving.kernel import cosine_scores
from repro.store.checkpoint import CHECKPOINTS_DIR, MANIFEST_NAME, write_checkpoint
from repro.store.recovery import open_checkpoint

N_DOCS = 60_000 if SMOKE else 400_000
M_TERMS = 2_000 if SMOKE else 6_000
N_BASE = 1_000
K = 64
REPEATS = 3
MIN_SPEEDUP = 5.0


def _write_serving_checkpoint(data_dir: pathlib.Path) -> pathlib.Path:
    """A fold-in-shaped checkpoint: a small consolidated base plus the
    serving-scale folded document rows a replica maps."""
    rng = np.random.default_rng(99)
    V = rng.standard_normal((N_DOCS, K))
    arrays = {
        "base_U": rng.standard_normal((M_TERMS, K)),
        "base_s": np.sort(rng.random(K) + 0.5)[::-1],
        "base_V": V[:N_BASE],
        "base_gw": np.ones(M_TERMS),
        "model_V": V,
    }
    meta = {
        "vocabulary": [f"term{i}" for i in range(M_TERMS)],
        "doc_ids": [f"D{j}" for j in range(N_DOCS)],
        "model_scheme": {"local": "raw", "global": "none"},
        "provenance": "fold-in",
        "base_provenance": "svd",
        "n_documents": N_DOCS,
    }
    info = write_checkpoint(data_dir / CHECKPOINTS_DIR, arrays, meta)
    return info.path


def _time(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_mmap_open_is_fast_and_identical():
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = _write_serving_checkpoint(pathlib.Path(tmp))
        total_bytes = sum(f.stat().st_size for f in ckpt.glob("*.npy"))

        files = sorted(ckpt.glob("*.npy"))

        def full_load():
            arrays = {f.stem: np.load(f) for f in files}
            # Touch every array so lazy readers can't cheat the clock.
            for a in arrays.values():
                a.sum()
            return arrays

        def mmap_arrays():
            return {f.stem: np.load(f, mmap_mode="r") for f in files}

        t_full, eager = _time(full_load)
        t_mmap, mapped = _time(mmap_arrays)
        t_model, model = _time(
            lambda: open_checkpoint(tmp, ckpt.name, mmap=True).model()
        )
        speedup = t_full / t_mmap

        # One real query: fault in exactly the pages scoring needs and
        # check parity between the mapped model and the eager arrays.
        q = np.random.default_rng(7).standard_normal((1, K))
        t0 = time.perf_counter()
        mapped_scores = cosine_scores(np.asarray(model.V) * model.s, q)
        t_first_query = time.perf_counter() - t0
        eager_scores = cosine_scores(eager["model_V"] * eager["base_s"], q)
        assert np.array_equal(mapped_scores, eager_scores)
        # LSIModel.__post_init__'s asarray keeps the mapping (a view over
        # the memmap, no copy) — confirm no eager materialization happened.
        assert isinstance(model.V, np.memmap) or isinstance(
            model.V.base, np.memmap
        )
        assert isinstance(mapped["model_V"], np.memmap)

        emit(
            f"store open (V: {N_DOCS}x{K}, {total_bytes / 1e6:.0f} MB "
            "checkpoint)",
            [
                f"full array load : {t_full * 1e3:>9.2f} ms",
                f"mmap array open : {t_mmap * 1e3:>9.2f} ms   "
                f"({speedup:.0f}x)",
                f"model open (mmap + manifest): {t_model * 1e3:.2f} ms "
                f"({(ckpt / MANIFEST_NAME).stat().st_size / 1e6:.2f} MB "
                "manifest)",
                f"first query on mapped model : {t_first_query * 1e3:.2f} ms",
            ],
        )
        maybe_export_obs(
            "store_open",
            extra={
                "n_docs": N_DOCS,
                "k": K,
                "checkpoint_bytes": total_bytes,
                "full_load_seconds": t_full,
                "mmap_open_seconds": t_mmap,
                "model_open_seconds": t_model,
                "speedup": speedup,
                "first_query_seconds": t_first_query,
            },
        )
        if not SMOKE:
            assert speedup >= MIN_SPEEDUP, (
                f"mmap open only {speedup:.1f}x faster than full load, "
                f"need >= {MIN_SPEEDUP}x"
            )


if __name__ == "__main__":
    test_mmap_open_is_fast_and_identical()
