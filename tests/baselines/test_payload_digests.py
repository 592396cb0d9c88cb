"""The comparators' payload bytes are pinned.

Each entry is the SHA-256 of one comparator payload, for every mode, over
three corpus inputs: a 4:2:0 photo, a 4:4:4 photo with a restart interval
and a q97 grayscale photo.  A rewrite of the frame the comparators share
(``repro.baselines.container``) or of a coefficient coder must leave them
unmoved, and each payload must still decode to its input.
"""

import hashlib

import pytest

from repro.baselines import jpegrescan_like, mozjpeg_arith, packjpg_like, paq_like
from repro.corpus.builder import corpus_jpeg

INPUTS = {
    "color_420": lambda: corpus_jpeg(seed=9, height=32, width=48, quality=85),
    "restart_444": lambda: corpus_jpeg(seed=4, height=48, width=64, quality=85,
                                       restart_interval=3, subsampling="4:4:4"),
    "gray_q97": lambda: corpus_jpeg(seed=3, height=40, width=48, quality=97,
                                    grayscale=True),
}


def _mode(module, mode):
    return lambda data: module.compress(data, mode=mode)


#: codec name -> (compress, decompress).
CODECS = {
    **{f"packjpg-{mode}": (_mode(packjpg_like, mode), packjpg_like.decompress)
       for mode in packjpg_like.MODES},
    **{f"jpegrescan-{mode}": (_mode(jpegrescan_like, mode),
                              jpegrescan_like.decompress)
       for mode in ("optimize", "progressive", "best")},
    "mozjpeg": (mozjpeg_arith.compress, mozjpeg_arith.decompress),
    "paq8px": (paq_like.compress, paq_like.decompress),
}

DIGESTS = {
    "color_420": {
        "packjpg-latest": "6e31e6efc87113a78a34abc74b6b04fa6d948eee611d1f19bc514f9ac811bc65",
        "packjpg-2007": "f12970e47f10a555d456eca6520d5856e1cc38037a259780e7d44d15250c9c78",
        "packjpg-planar": "acadd9ff0ce9dcfceffe852cb135e06cd85136eca8d26b168de32d134c09ad72",
        "jpegrescan-optimize": "7934a947f3c52445a6029451890bc4a4e68392be4b61441b96a5c6b452413c07",
        "jpegrescan-progressive": "bb3a8b0ddab65b59056f7cf76e44ed7e97e6aff8c16a45ccdd1bd8c7c00a39d3",
        "jpegrescan-best": "7934a947f3c52445a6029451890bc4a4e68392be4b61441b96a5c6b452413c07",
        "mozjpeg": "f11dc975f56fb722eaab6933fc07a080f51aaa24683df684f19cf7894df6fd8b",
        "paq8px": "2a0d7965b1c0135d7c826058884a8ee55f40d511ad57f9a75999f1a517184f26",
    },
    "restart_444": {
        "packjpg-latest": "3909439cb043c0278fc0df5c0670f2109bd3bb7536d3aa74f9b733b755418953",
        "packjpg-2007": "ea165fca28c2a8de7b9488e0f79d454297b60385ca444a645745eaddeb5e1bf6",
        "packjpg-planar": "a6202185d646c50ec50d4c86b75b725674ffee0f1ea2cc7e0de5c3f94a4c3bbf",
        "jpegrescan-optimize": "28bf010c09aeac4d00643c4e6d6e84ce19ae609c177ec32b3ec6450515b87385",
        "jpegrescan-progressive": "941725eee620d2a8a13f199ba8ad10e5736a8dbaaeead7cab5c68b692aa80d07",
        "jpegrescan-best": "28bf010c09aeac4d00643c4e6d6e84ce19ae609c177ec32b3ec6450515b87385",
        "mozjpeg": "90831fb1ebf5140081077c63979428b8be1a9e8efbd4581df235538cc2d8fa5f",
        "paq8px": "9a6ef6ea12c420007f367aa62e84619f1f70064ebb4fe5adffc5ba83de0b2932",
    },
    "gray_q97": {
        "packjpg-latest": "d55a47683944e3786e204cf4bc26ddcd5c1c46dc4e5781c3ef42001f5edc6069",
        "packjpg-2007": "1df6d29d554fc7f05b1dad79dd4d469ae5a3eb309358224f5450d49f065eaf7c",
        "packjpg-planar": "ef20f098bf13f47e2aa940647a9d5f99f304663c53396021ece3ca6356eb356b",
        "jpegrescan-optimize": "a11f3b96ac8db3e31c1cf6e59863a39b050b981fea17d83d06e5b7009255b4c9",
        "jpegrescan-progressive": "596a04108e0d64bde8ab67c962efe07cbd09b58336d97f801bb32aafda34286e",
        "jpegrescan-best": "a11f3b96ac8db3e31c1cf6e59863a39b050b981fea17d83d06e5b7009255b4c9",
        "mozjpeg": "998ac36bc8cf066b2d22d50c912757f0b42d9ea7ee19cbc050b707b58d912a10",
        "paq8px": "edd4388b48433af8800a08ce4b15a41be297a83d3329759af73041ec4d6bef0b",
    },
}


@pytest.mark.parametrize("case, codec", [(case, codec)
                                         for case, pins in sorted(DIGESTS.items())
                                         for codec in sorted(pins)])
def test_payload_digest(case, codec):
    data = INPUTS[case]()
    compress, decompress = CODECS[codec]
    payload = compress(data)
    assert hashlib.sha256(payload).hexdigest() == DIGESTS[case][codec]
    assert decompress(payload) == data
