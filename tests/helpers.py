"""Test-only views of the library's types: a decoder whose heads all output
zero, one pixel's contributor list, the sum of two gradient sets, a digest
of a model's float64 parameters and the digests of a directory's files."""
from __future__ import annotations

import hashlib
import os
from dataclasses import fields

import numpy as np

from igsplat.renderer import Raster, SplatGrads
from igsplat.scene_model import (
    HEAD_ORDER,
    HEAD_OUTPUT_DIMS,
    HIDDEN_WIDTH,
    AnchorSet,
    DecoderParams,
    HeadParams,
    parameters,
)


def zero_decoder(embedding_dim: int, offset_range: float, base_scale: float) -> DecoderParams:
    heads = {
        name: HeadParams(
            w1=np.zeros((embedding_dim, HIDDEN_WIDTH)),
            b1=np.zeros(HIDDEN_WIDTH),
            w2=np.zeros((HIDDEN_WIDTH, HEAD_OUTPUT_DIMS[name])),
            b2=np.zeros(HEAD_OUTPUT_DIMS[name]),
        )
        for name in HEAD_ORDER
    }
    return DecoderParams(offset_range=offset_range, base_scale=base_scale, **heads)


def contributors(raster: Raster, row: int, col: int) -> list:
    """(splat index, alpha, T) triples for one pixel, front to back."""
    flat = row * raster.alpha.shape[1] + col
    pos = np.searchsorted(raster.seg_pix, flat)
    if pos == len(raster.seg_pix) or raster.seg_pix[pos] != flat:
        return []
    lo = raster.seg_start[pos]
    hi = raster.seg_start[pos + 1] if pos + 1 < len(raster.seg_start) else len(raster.slot)
    splat = raster.projected.indices.take(raster.slot[lo:hi])
    return list(zip(splat, raster.alpha_i[lo:hi], raster.trans[lo:hi]))


def add_grads(a: SplatGrads, b: SplatGrads) -> SplatGrads:
    return SplatGrads(**{f.name: getattr(a, f.name) + getattr(b, f.name) for f in fields(a)})


def parameter_digest(anchors: AnchorSet, decoder: DecoderParams) -> str:
    """sha256 of the float64 bytes of every trained tensor, in name order:
    unlike the float32 checkpoint, it sees every bit of the parameters."""
    digest = hashlib.sha256()
    for name, tensor in sorted(parameters(anchors, decoder).items()):
        digest.update(np.ascontiguousarray(tensor, dtype=np.float64).tobytes())
    return digest.hexdigest()


def hash_tree(root: str) -> dict:
    """sha256 of every file under ``root``, by its path relative to it."""
    digests = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digests
