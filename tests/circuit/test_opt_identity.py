"""Identity pins: the optimizer's output is fixed across rewrites.

Optimized circuits key result caches (through ``content_hash()``) and
steer every DIP the miter solver finds (through their structure), so a
rewrite of the pass machinery must reproduce them exactly.  For the
keyed match plane and its SARLock lock, the ``real_*`` corpus and the
scenario grid's circuits locked by each of its schemes, every entry
below pins, at ``light`` and at ``full``:

* the optimized circuit's ``content_hash()``;
* its gate count (``gates_after``);
* a digest of ``passes``, ``stats`` and the slot provenance.

The values were captured from the per-pass ``Netlist``/``compile()``
implementation that preceded the slot-array pipeline.  A change that
moves any of them changes cache keys and must say so: update the pins
in the same change.
"""

import hashlib
from functools import lru_cache

import pytest

from repro.bench_circuits.corpus import resolve_circuit
from repro.bench_circuits.generators import keyed_match_plane
from repro.locking.registry import lock_circuit
from repro.locking.sarlock import sarlock_lock

#: The scenario grid's schemes and key sizes (seed 0, scale 0.25).
_GRID_SCHEMES = {"xor8": ("xor", 8), "sarlock4": ("sarlock", 4), "antisat4": ("antisat", 4)}

#: label -> level -> (content_hash, gates_after, trace digest)
PINNED = {
    "plane": {
        "light": (
            "2b987fdc57eab2fc413fb04e35be6f3a591c2d8bf2ea7a9d31a9a3ddede0a229",
            3361,
            "ed1b8d106e62f04f",
        ),
        "full": (
            "64cc2a50a23c047eab959080daa18157cde345377bc76a386161c790a9f07565",
            2361,
            "bcc2b4683d27a20b",
        ),
    },
    "plane/sarlock6": {
        "light": (
            "b6961b5b668e1dfa24331450d1f66e141fedab1485cb59a62bcb4de86e38be5e",
            3370,
            "38cbbd90be9ebe12",
        ),
        "full": (
            "a791eb94e8836440cae66681df36498e3b20b39c70949e53106bbfad8ca93078",
            2370,
            "532d0e63c403d14b",
        ),
    },
    "real_c432": {
        "light": (
            "7ad5e11e9c205a4344c2538e3da65f928a50411696e66891ec90675f5f97c95f",
            160,
            "9043167ddbfc7f63",
        ),
        "full": (
            "7ad5e11e9c205a4344c2538e3da65f928a50411696e66891ec90675f5f97c95f",
            160,
            "f195b7bf916b2385",
        ),
    },
    "real_c499": {
        "light": (
            "4abf4d8ec4666a9f8902ffa1d709f8827a26559bc7a93c0ad20bea67d68b207d",
            202,
            "7ac685109bf66b43",
        ),
        "full": (
            "012b36686c2749db5faf6f20c5d2302ff36b9315a1c458ff02c36c5ee5a86254",
            118,
            "629c8c68f535b0ae",
        ),
    },
    "real_c880": {
        "light": (
            "d7aa020d499b6fb83260e1af2dea486aa3b6fda70bf4a211fec8e4eba0296127",
            383,
            "b6cecba0a24d5899",
        ),
        "full": (
            "ccda00622fcb8df1efc87beeae6c6e377389be90b9ba96d481bbd2cae81504b8",
            375,
            "18fbccc4dca27884",
        ),
    },
    "c432@0.25/xor8": {
        "light": (
            "b52bebde107b2e65c5f6745cc04fe958dbc2d2690a06ac7d3c827e20182bdf1f",
            25,
            "fdfcec03061a9dff",
        ),
        "full": (
            "b52bebde107b2e65c5f6745cc04fe958dbc2d2690a06ac7d3c827e20182bdf1f",
            25,
            "aa9e0afc20db962c",
        ),
    },
    "c432@0.25/sarlock4": {
        "light": (
            "05ba0e9bfa00ce25d383baac8e097fe64b8e6945cf2f5a6f4813a1259ecfffc0",
            25,
            "66b2499313494ea3",
        ),
        "full": (
            "05ba0e9bfa00ce25d383baac8e097fe64b8e6945cf2f5a6f4813a1259ecfffc0",
            25,
            "40956e21c651b632",
        ),
    },
    "c432@0.25/antisat4": {
        "light": (
            "263e89e8e270f50fdcae4600bc52960c2be30003a9a5637e77119b037e57a7c5",
            25,
            "66b2499313494ea3",
        ),
        "full": (
            "263e89e8e270f50fdcae4600bc52960c2be30003a9a5637e77119b037e57a7c5",
            25,
            "40956e21c651b632",
        ),
    },
    "c880@0.25/xor8": {
        "light": (
            "c4fdf32b33faa85f39be860ef042b3743ba2e30f388498a86627dfd6733edb29",
            97,
            "3b70514137f267c8",
        ),
        "full": (
            "65db7399757766a630b6da41265d665ec28bcf0d39210ca44d6aa59d80024dbf",
            93,
            "371b964b902989bc",
        ),
    },
    "c880@0.25/sarlock4": {
        "light": (
            "0379348b449fdffa6bbb8c952a46455d8785a22b8b1ee3948984ed3421ab23dc",
            96,
            "19a434fd90b1b8eb",
        ),
        "full": (
            "bcda2d88c9736d395d5b83d86088d6c414bba5b185d7bb6223dd4c243da3a33e",
            92,
            "1f6c6d3399d280a6",
        ),
    },
    "c880@0.25/antisat4": {
        "light": (
            "ce0ba7c500435821638043a0482fa2cb6893dc7b23dfa8b8e54e456263612adb",
            96,
            "19a434fd90b1b8eb",
        ),
        "full": (
            "d6b87dc4a6f20381bfb09a7764de6bfb5b3bd648d4872ba7fb7d94718ef1e272",
            92,
            "1f6c6d3399d280a6",
        ),
    },
    "real_c432/xor8": {
        "light": (
            "3f29863996d8b7d306431417798d48b947c3aec1037f2eea8e3a5ff489278390",
            168,
            "8b651e22aef5c86f",
        ),
        "full": (
            "3f29863996d8b7d306431417798d48b947c3aec1037f2eea8e3a5ff489278390",
            168,
            "e3b03bd3dda67054",
        ),
    },
    "real_c432/sarlock4": {
        "light": (
            "9de892aa983fd6dcc6c796582875900bfaa4b84a81a217d04f2312a991cd2b62",
            168,
            "c5a379082c3dea5c",
        ),
        "full": (
            "9de892aa983fd6dcc6c796582875900bfaa4b84a81a217d04f2312a991cd2b62",
            168,
            "ac85f774d13a957f",
        ),
    },
    "real_c432/antisat4": {
        "light": (
            "987fa18d9003be01e828032413c424e6836ac3a5dc3f0e54a38de962e256163b",
            168,
            "c5a379082c3dea5c",
        ),
        "full": (
            "987fa18d9003be01e828032413c424e6836ac3a5dc3f0e54a38de962e256163b",
            168,
            "ac85f774d13a957f",
        ),
    },
}


@lru_cache(maxsize=1)
def _plane():
    return keyed_match_plane(terms=192, taps=8, bus=24)


def _netlist(label: str):
    if label == "plane":
        return _plane()
    if label == "plane/sarlock6":
        return sarlock_lock(_plane(), 6, seed=0).netlist
    circuit, _, lock = label.partition("/")
    original = resolve_circuit(circuit.removesuffix("@0.25"), 0.25)
    if not lock:
        return original
    scheme, key_size = _GRID_SCHEMES[lock]
    return lock_circuit(scheme, original, seed=0, key_size=key_size).netlist


def _trace(result) -> str:
    blob = repr(
        (
            result.passes,
            sorted(result.stats.items()),
            sorted(result.provenance.items()),
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("label", sorted(PINNED))
def test_optimized_identity_is_pinned(label):
    compiled = _netlist(label).compile()
    for level, expected in PINNED[label].items():
        result = compiled.optimized(level)
        got = (result.compiled.content_hash(), result.gates_after, _trace(result))
        assert got == expected, f"{label} at {level}"
