"""Golden pin of the specializer's output on the corpus.

The sha256 of ``specialized_source()`` on twenty configurations — the
seven zoo programs plus fig3 and fig5 at effort ``dce`` and ``full`` with
the registry's ``skip_parser``, and switch with the other ``skip_parser``
at both efforts — at the empty config and after the inserts of a fixed
policy roll-out (seed 1, one update at a time, from
``tests/engine/test_incremental_specialize.py``).  The deletes that
complete the roll-out bring every configuration back to its empty-config
source.

The digests were taken with a cold prune pass in the pipeline, which
deleted branches dead under every control-plane configuration before
the analysis ran; the analysis decides those branches DEAD and the
specializer drops them, so the output did not move when the pass went.
A change to the analysis, the verdicts or the specializer that moves
one printed byte fails here; if the move is intended, regenerate the
digests and say why in the change.
"""

import hashlib

import pytest

from repro.core import Flay, FlayOptions
from repro.programs import registry

from tests.engine.test_incremental_specialize import rollout

#: (program, effort, skip_parser) → (empty config, after the inserts).
GOLDEN = {
    ("scion", "dce", False): (
        "48aa22268bfc349b8beb7f98b5ae2fe135452717baff648a5affe4088380339c",
        "39fdb1747819c1c701ef463730a4ac0954902963bb957caaf19e2df028f919b6",
    ),
    ("scion", "full", False): (
        "e8eb76dc4349fc22ae1e6b93ee9f32b0116430bd98a91aba010111736a2ee66f",
        "ffa2db9f4418a4eab74152132588a497114051123aeb089ee53c29f1e4168759",
    ),
    ("switch", "dce", True): (
        "a62fade2762635f2b4aa8974df54edcb8fb4eb7086f2d3c381f7e3f8b2a503d3",
        "6b6674b421fedc39922cc21dac0edd3746127d30b0f1aa181cca0bbc20c5a72d",
    ),
    ("switch", "full", True): (
        "23735f889974973c3fd54dc96c8b713cdebbbcefd7a04de136f59d6258789909",
        "9a597818a2328354dcdaae22a3ec822bb221577cc1ea575ed09d780baed6c1e9",
    ),
    ("middleblock", "dce", False): (
        "5ca62e14b32dc53f6948ce0a90ced4c68ccdd3c193d3e0fce6c52127430aae90",
        "ff1a70b0aeabeac9cf89182ca01cc2c83ada722a6ce2dcdf8c7c95156febabc5",
    ),
    ("middleblock", "full", False): (
        "cb329e9f558b0d0b02999fa55dd6f5d67db59f5ad01c0e0effe13c6d76734cde",
        "6aaf7050e6bf01dbb9e11bc1113eb8ba9c638e86bd22f253604f94d02e00ba23",
    ),
    ("dash", "dce", False): (
        "e8fbb9b5e2cb960bc77c599db0d00e3c0b59a2c2c483ed5e14e96c1b33997d29",
        "09bc226313c89a1aa9f9ee4be4409939a8d26311998cf73ce28c9e446724d792",
    ),
    ("dash", "full", False): (
        "0a8bb39c17ea68467ec95f0bc1636e9bb027a522c16a7537225c68b62f16caaa",
        "f3dce4b28304d34e91cb85b18ea6daea81167906556182398d1122a73effe44e",
    ),
    ("beaucoup", "dce", False): (
        "861299c696b12d6d36c9fbeaec4391709c9e4ee82120c0e8c250753f142c498e",
        "9dca27b544df78fd97463ead2b9c2c818713139a549bf3a112215f93bc1ef672",
    ),
    ("beaucoup", "full", False): (
        "861299c696b12d6d36c9fbeaec4391709c9e4ee82120c0e8c250753f142c498e",
        "b493f3e5188657d932ac1b43d50313acbf77942022fe9839a214e61e98827b60",
    ),
    ("accturbo", "dce", False): (
        "8f68636ac9d3d7301288fa5999b499f353a87f66e75a3e98e322af8bd64e65cf",
        "d676bab4b45df231c1d0f093b9642aa8cd699583b4667234627898f54e90ac9e",
    ),
    ("accturbo", "full", False): (
        "4cb22dc0e88d1c2bf4127ca4a414c8d53da69652cfbdd15e153f0de3c8b6e6c1",
        "2b5ec2e75a68cc5054250e6100662aeefbab22acbd73618a9e415f099af650eb",
    ),
    ("dta", "dce", False): (
        "fed11b19bcd7c381d19a0d856c2cf8220f9a432dd3389e250cb2de3440d737cb",
        "681761f9ba3d0c96de16c8bf9398f0544d00c9abc939b0e4fad3eae075180efb",
    ),
    ("dta", "full", False): (
        "cf3c43d3819abdbe5203baef1bc0f56021b494e1ffc2e50f905425fac74133d2",
        "681761f9ba3d0c96de16c8bf9398f0544d00c9abc939b0e4fad3eae075180efb",
    ),
    ("fig3", "dce", False): (
        "9ff21c062f4e2f528b1baa9e8db0ec5d005722eca59b0e84f416776df8049fab",
        "6adbd3fa71963e74f14b09d59aa38c1eec0495b8ccc08cebacb5bac773dc095b",
    ),
    ("fig3", "full", False): (
        "dce530bc47f16ab01e61e94429858192d818dfcf6bf8448129cf2431507beeef",
        "6adbd3fa71963e74f14b09d59aa38c1eec0495b8ccc08cebacb5bac773dc095b",
    ),
    ("fig5", "dce", False): (
        "7f676efce4ddf665ee308dd809bc8b9c75a4859d3eca812aa7769e8dae395e73",
        "c0c862e8f27b2a7b7d792744c2efec75d9ac9aa2bb52c408a2955866879c3806",
    ),
    ("fig5", "full", False): (
        "e4b3ad7532071319b60017d0eb381c4f89922787c123a87f20e98e340d2e7ebe",
        "c0c862e8f27b2a7b7d792744c2efec75d9ac9aa2bb52c408a2955866879c3806",
    ),
    ("switch", "dce", False): (
        "a62fade2762635f2b4aa8974df54edcb8fb4eb7086f2d3c381f7e3f8b2a503d3",
        "6b6674b421fedc39922cc21dac0edd3746127d30b0f1aa181cca0bbc20c5a72d",
    ),
    ("switch", "full", False): (
        "23735f889974973c3fd54dc96c8b713cdebbbcefd7a04de136f59d6258789909",
        "9a597818a2328354dcdaae22a3ec822bb221577cc1ea575ed09d780baed6c1e9",
    ),
}


def digest(flay) -> str:
    return hashlib.sha256(flay.specialized_source().encode()).hexdigest()


@pytest.mark.parametrize(
    "name, effort, skip_parser", list(GOLDEN), ids=lambda value: str(value)
)
def test_specialized_source_is_pinned(name, effort, skip_parser):
    empty, inserted = GOLDEN[name, effort, skip_parser]
    flay = Flay(
        registry.load(name),
        FlayOptions(target="none", effort=effort, skip_parser=skip_parser),
    )
    assert digest(flay) == empty
    stream = rollout(flay)
    half = len(stream) // 2  # the inserts, then their deletes
    for update in stream[:half]:
        flay.decide(update)
    assert digest(flay) == inserted
    for update in stream[half:]:
        flay.decide(update)
    assert digest(flay) == empty
