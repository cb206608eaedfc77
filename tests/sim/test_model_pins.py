"""What the two time models compute, pinned byte for byte.

The fluid simulator (Figure 9) and the per-stripe serial model
(Figure 10) both read a plan's flows and decodes.  Their outputs are
deterministic per seed, and the simulator queues serial tasks FIFO with
an insertion tie-breaker, so even the order of :func:`build_tasks`'s
list is behaviour.  Each case pins three SHA-256 digests: the task list
(id, tag, resource, deps, duration, size and path, in list order), the
``repr`` of :meth:`RecoverySimulator.simulate`'s timing, and the
``repr`` of :meth:`StripeSerialTimingModel.evaluate`'s.  A change to a
task's order, a dependency, a duration or a summed float shows up as a
new digest.  Figure 9 itself, which simulates every stripe's repair at
once, is pinned the same way at its documented scale.
"""

import dataclasses
import hashlib

import pytest

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState
from repro.cluster.topology import BandwidthProfile
from repro.erasure.lrc import LRCCode
from repro.experiments.configs import CFS1, CFS2, CFS3, build_state
from repro.experiments.fig9 import run_fig9
from repro.faults.events import FaultKind, FaultSpec
from repro.faults.injector import FaultInjector
from repro.faults.robust import recover_with_faults
from repro.recovery.baselines import (
    CarStrategy,
    MinRackNoAggregationStrategy,
    RandomAggregatedStrategy,
    RandomRecoveryStrategy,
)
from repro.recovery.executor import PipelineStage
from repro.recovery.lrc import LrcLocalRecoveryStrategy
from repro.recovery.planner import plan_recovery
from repro.recovery.replacement import eligible_replacements, with_replacement
from repro.sim.recovery_sim import (
    DurabilityCostModel,
    RecoverySimulator,
    build_tasks,
)
from repro.sim.timing import StripeSerialTimingModel

CHUNK = 4 << 20
STRIPES = 20
MOVED_STRIPES = 8
CONFIGS = {c.name: c for c in (CFS1, CFS2, CFS3)}

STRATEGIES = {
    "car": lambda seed: CarStrategy(),
    "car-nolb": lambda seed: CarStrategy(load_balance=False),
    "rr": lambda seed: RandomRecoveryStrategy(rng=seed),
    "min-rack": lambda seed: MinRackNoAggregationStrategy(),
    "random-agg": lambda seed: RandomAggregatedStrategy(rng=seed),
    "lrc-local": lambda seed: LrcLocalRecoveryStrategy(),
    "lrc-direct": lambda seed: LrcLocalRecoveryStrategy(aggregated=False),
}


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def failed(config, name, seed, with_data=False, stripes=STRIPES):
    if name.startswith("lrc"):
        code = LRCCode(6, 2, 2)
        topology = config.topology()
        placement = RandomPlacementPolicy(rng=seed).place(
            topology, stripes, code.k, code.n - code.k
        )
        state = ClusterState(topology, code, placement)
    else:
        state = build_state(
            config, seed, with_data=with_data, chunk_size=64,
            num_stripes=stripes,
        )
    return state, FailureInjector(rng=seed).fail_random_node(state)


def moved(config, name, seed):
    """A failure whose replacement is an eligible node (one holding no
    chunk of a stripe it rebuilds) of another rack, so the failed rack's
    survivors cross the core: the first seed from ``seed`` on that has
    one."""
    while True:
        state, event = failed(config, name, seed, stripes=MOVED_STRIPES)
        for node in eligible_replacements(state, event):
            if state.topology.rack_of(node) != event.failed_rack:
                return state, with_replacement(event, node)
        seed += 1


def faulty(state, event, name, seed):
    """A fault-injected robust run's final plan and timeline."""
    injector = FaultInjector([
        FaultSpec(kind=FaultKind.DISK_STALL, stage=PipelineStage.DISK_READ,
                  stall_seconds=2.5, max_fires=2),
        FaultSpec(kind=FaultKind.FLOW_DROP,
                  stage=PipelineStage.CROSS_TRANSFER, max_fires=3),
        FaultSpec(kind=FaultKind.HELPER_CRASH,
                  stage=PipelineStage.DISK_READ, stripe_id=None),
    ], seed=seed)
    robust = recover_with_faults(
        state, event, STRATEGIES[name](seed), injector=injector
    )
    assert robust.verified
    return robust.final_plan, robust.timeline


def digests(config_name, name, seed, variant):
    config = CONFIGS[config_name]
    if variant == "mixed-uplink":
        config = dataclasses.replace(config, bandwidth=BandwidthProfile(
            per_rack_uplink_gbps=tuple(
                (1.0, 0.5, 2.0)[r % 3] for r in range(config.num_racks)
            ),
        ))
    if variant == "moved":
        state, event = moved(config, name, seed)
    else:
        state, event = failed(
            config, name, seed, with_data=variant == "faults"
        )
    timeline = None
    if variant == "faults":
        plan, timeline = faulty(state, event, name, seed)
    else:
        plan = plan_recovery(state, event, STRATEGIES[name](seed).solve(state))
    include_disk = variant != "no-disk"
    durability = DurabilityCostModel() if variant == "durable" else None
    sim = RecoverySimulator(
        state, include_disk=include_disk, durability=durability
    )
    tasks = build_tasks(
        state, plan, sim.fabric, sim.hardware, CHUNK,
        include_disk=include_disk, timeline=timeline, durability=durability,
    )
    rows = [
        (t.task_id, t.tag, t.resource, tuple(sorted(t.deps)), t.duration,
         t.size_bytes, t.path)
        for t in tasks
    ]
    timing = sim.simulate(plan, CHUNK, timeline=timeline)
    serial = StripeSerialTimingModel(state).evaluate(plan, CHUNK)
    return len(tasks), sha256(rows), sha256(timing), sha256(serial)


#: (config, strategy, seed, variant) -> (task count, task-list digest,
#: simulate digest, evaluate digest).
PINS = {
    ('CFS1', 'car', 0, 'base'): (
        180,
        "5c6ac9a38c37637aa2a0481ffb8d1b048b5d45ac2ccb19fd9f658b8ee5cbe7cc",
        "3f238b8b5f3cd322a4995b88d28210963fb5d09f5a5a849f0f680bd9c13b8f9b",
        "6c168d4f557458f74f81efe715094e1faaf2cf54d359281cf5144f85ddf373c4",
    ),
    ('CFS1', 'car', 1, 'base'): (
        120,
        "ca7765685456331d8d77bd2442360d98af7c2ea3760d5a429cb15d92094ee4e4",
        "7ef16182cef2e6d659f62308ac67f8a94262c788050ddece3e6af9c86f9a15c9",
        "e83eed93e98cee8483b7929d34cfc7a655150d9ce1bca7f17dba47fbc8049487",
    ),
    ('CFS1', 'car', 2, 'base'): (
        132,
        "3648ce129ed6ceb44fd2722e8a43b8e646fcee6a81dfddec371eecd65c685b09",
        "270a0cf8a687f9bd6fc85e8bd3166ee90b145cce93525539419eb774b27a8c6e",
        "9a34b0f83d099f274ae95fbd41f465298442e0990bdf5e63b72d09581f67d381",
    ),
    ('CFS1', 'car-nolb', 0, 'base'): (
        180,
        "b3ec7ce804889fde0517734e3a7eb5f22fbc08977ca8e3a1307135c931f3d244",
        "d0cc12f7ecd8c0ad0baaba681f4799ec245bdd327d7070fdd3fe804373c494c7",
        "77780a607fa48278317c25584862be7fd4f95a7b3dc1a21508d874845d8c0423",
    ),
    ('CFS1', 'car-nolb', 1, 'base'): (
        120,
        "ca7765685456331d8d77bd2442360d98af7c2ea3760d5a429cb15d92094ee4e4",
        "7ef16182cef2e6d659f62308ac67f8a94262c788050ddece3e6af9c86f9a15c9",
        "e83eed93e98cee8483b7929d34cfc7a655150d9ce1bca7f17dba47fbc8049487",
    ),
    ('CFS1', 'car-nolb', 2, 'base'): (
        132,
        "5731cdccf66d422725c19a42df5497754ee78e83f5545ef8c5e629805fdbd3ab",
        "5a59dfabe8a36fb79cc58131b44d1841a602d961f1e1f606a6efe09c39b47b43",
        "81fbf8291264c44f5d999020438f336965662b9f8ef8fd55144932e19287f19b",
    ),
    ('CFS1', 'rr', 0, 'base'): (
        150,
        "2673d62e8392fbe1f019e649ce4633ae86e3b1db8bcfe06245e6fba5962d017a",
        "0da3a7f3e77fad4bf32768a69f716bdc79a720c8066c0e6e7c79a844b060ae6d",
        "3050989d7185615b8daa38ed949cd6543908018d13ea8ae7dc4bc4a1403b6284",
    ),
    ('CFS1', 'rr', 1, 'base'): (
        100,
        "a611ce15e5e9ec0a9be2b2c4b57e8701cf340d0ecde66d899bc82a9befea4db2",
        "83a96acd0cff5a72494a2eb312aa5f216dde6c326ac2e4c514c49bf7bea0cc0a",
        "b1a47a54c11b11370dd31c6d4e6f15963b8d64c7d59cd8c7a048cf926287fbbc",
    ),
    ('CFS1', 'rr', 2, 'base'): (
        110,
        "0557403270d31d5051b5d7173d5b58f760258d8eebffa23477ac032817d93e71",
        "f2573a21fb116d9b00477f9f36c78d1041feffdcef7735546c4fd23532e0d77f",
        "5caee74f1cd2feff16649175e272c8c3ec3a12e05da1bc176b0d7effb2d0b808",
    ),
    ('CFS1', 'min-rack', 0, 'base'): (
        150,
        "292896e21324df06402f06c1132ddb8ab6ec21908386df61afbbf23cf3b92dc0",
        "c3ef9abd284bccba45c69587f1dd97f97792bddac9e7c971595da5bff1f0ebd1",
        "3050989d7185615b8daa38ed949cd6543908018d13ea8ae7dc4bc4a1403b6284",
    ),
    ('CFS1', 'min-rack', 1, 'base'): (
        100,
        "18ce8482404277e7bf9f8a7b9f57d015c7b76d252d54ea277d1e05b31461bcb0",
        "06d6a681fed29ddc88bae5d8af699121746adf13bb5c3cead5acd8c8f5d2c52c",
        "b1a47a54c11b11370dd31c6d4e6f15963b8d64c7d59cd8c7a048cf926287fbbc",
    ),
    ('CFS1', 'min-rack', 2, 'base'): (
        110,
        "36562d1bb0e85f7f7dd4a73c76c80951f61b40a06ff0cfbbb694863262c3dcee",
        "3076540cc46f0e3e70454e924c69e3b7b0c655d52b2b1190e47018bf7a3a8575",
        "5caee74f1cd2feff16649175e272c8c3ec3a12e05da1bc176b0d7effb2d0b808",
    ),
    ('CFS1', 'random-agg', 0, 'base'): (
        188,
        "84489b3ab4ccb57b001706cca571e9e1c17b897bd11e07032a398be1b2d4c560",
        "f9e1f72bf4948cfe743c7f08211d0814dd809617cb482e3cf8bd636e20579ee1",
        "5506fdc7e48acac4a63c016459ab2c13a383f402187be4b332fa47d06c4157e1",
    ),
    ('CFS1', 'random-agg', 1, 'base'): (
        127,
        "d520bdc15ea4914858dedc2e2f07830741d48060d6ea26011a1fedd35af49f72",
        "aef16e5c1746360e66a805ff3427be90add960f629fe883a18da1c42fb6fcd63",
        "8aca742fd81c98df11f1ddb24de98df7ac50600b43a115adb9f68e67ec43a7e3",
    ),
    ('CFS1', 'random-agg', 2, 'base'): (
        140,
        "2219c21946d67989953768c597e2173933e65e2b19197204fbdfcf3b36d69d28",
        "8a2c5f79950394cdf6555c85cf9f3f8dfcd3f16f2761b44116024d9f181323e3",
        "dcd3eed7338c457be434b32d4f7746153c57891554da0c26c8cda1f5dc4c991a",
    ),
    ('CFS1', 'lrc-local', 0, 'base'): (
        219,
        "74e05050931b90175dcb8eaf5c8ccc6daff786435d7a0c4e1f95377d909b12bc",
        "2fee80ef182c66f4f9e2d675a0e1779dbb3bd1d4b2bea177e8ee0340d16312cc",
        "af8ff5a8d15b7002d4d32dfaadb7f7ca29765429bdfea3fe0d04bfd451e251b2",
    ),
    ('CFS1', 'lrc-local', 1, 'base'): (
        255,
        "62466eb9945944abab9331c47c3689597b91ca56cf66948426db9185a8740748",
        "18d8e46ffbb0f75b884ffdc9cefb6bd0e82fc5e98b8bab76bb6e6d7e86ed418c",
        "d9acba4b82a0444b6b8aef2fb87657cfa1aff7f44cd28f07d57486aa8a895d15",
    ),
    ('CFS1', 'lrc-local', 2, 'base'): (
        252,
        "b3e7669695394939591cd26d097467fdcb3ba37375fe2cf64746547063f1d642",
        "de48709b65374b9b48092f6b467f1de8d5c65c9d8f386ad10ca74cb5ab365134",
        "ee2c8177b62693e6948998e1b356212acf78aad8abcc15b7dadd1d5cbd752c77",
    ),
    ('CFS1', 'lrc-direct', 0, 'base'): (
        172,
        "5b66e947ff7c25b94d398c562885db2dc2802aedca4520e46d9f7b36f0b75f2a",
        "fda4a3c31a36297eea4bd7e159b5a4a863c8ee135312426a721f11baff8c0b06",
        "d3ac49a167053f8d2120631ed9fb1b412e3e050b7bf649ae70d03fb5bb21c84c",
    ),
    ('CFS1', 'lrc-direct', 1, 'base'): (
        202,
        "49fa92212fbb26bde79ca76a6ebe505d0a8fdd489b5bc5874f3f90478df42a9b",
        "1efbae6581014735228a1523476d771b3f5ccd8f20921ed46e2742aab651c732",
        "19887490aa5d813b4e5f55da9cd3c23616fdd6c45ee80fc764d3f5452318227d",
    ),
    ('CFS1', 'lrc-direct', 2, 'base'): (
        202,
        "c7290227d5299de83d1f41dc553ce4fb68f343f6a6ab51325e764b8ab2f34412",
        "8a845fe9a88c3e15feebcb0c286f72db39ebb7fe614f4b0b9d813fbcea2ca7f3",
        "b3339e541ebbbc0f0cfda473b88438dc950a152aafcffee74dec53ff7878176f",
    ),
    ('CFS2', 'car', 0, 'base'): (
        306,
        "51a1a55049b9501dd766782940287106f21d91941ff2728faa6300a81c2419cc",
        "686c2ad9d5343ea8e240f9c4cfb6b9cb6018e42655c9fc394ed31981e4ca2b56",
        "3c936273a50fdccf8a78b4441d34e7bb5c355216ad93fad0c5887f6d5ae3ab49",
    ),
    ('CFS2', 'car', 1, 'base'): (
        238,
        "eb45aa6c19b20b8d6511cab8d1dfadb778162cac90a5c5d1a95398679da94f09",
        "95667d5be2268a16d74a4bbae11055760bd95a378855b4822d56c730f061c3e4",
        "ffc25c54ccf37fba31cbb722985a01ed58fb9d3eabb89bacbad85c947a56c1f8",
    ),
    ('CFS2', 'car', 2, 'base'): (
        204,
        "d83cdc03e812fb3a090104b1cfaaf714f0a87a5e8b79d5151f6b6762609c3800",
        "6bf173065a62a41987ffa07b53005d42a3ec1b49141ddcadbfc582b71ee3e5e9",
        "5b82b31adfe91cf49240e0dab82cce4b0ab54e72e495c5193cf312a36ed359ff",
    ),
    ('CFS2', 'car-nolb', 0, 'base'): (
        306,
        "e4ac751204d224fe89fe2ba592c08d6a5fbde5670aa454fc310b719f4e62f8bc",
        "75ef727d3fbfe7be6dc828d37338a1aa707ead6fe8a9f02c538012bdd832a2bb",
        "b29fa2339d558d190d0b0a46849942cfdb89537c1daa72e720c930e6b0206eb9",
    ),
    ('CFS2', 'car-nolb', 1, 'base'): (
        238,
        "7dcfe699f710b773e6ba4e1a02caaf64f7857327b8afb0c6fe50d049591a4512",
        "ea53863ea0a96863650d817324e0bb76849c46cb1e4685ada50565d8b3369607",
        "aecc3e6f7be1432ba138e0713a5cde6e577269dc4f91e8747dc3ee46af22c6ea",
    ),
    ('CFS2', 'car-nolb', 2, 'base'): (
        204,
        "5abd6c1c28a8cf57a147eae84f219fcf4f65e6506099eba4a1b595388b0a4465",
        "7f55fb2445b12e1270aa1a4dd73f3b92cb742476150d8e32296b61c6fe4d2554",
        "3daeb69ad5876f865ba278dded85da66d21d070cd711cd02f01b0eb5d61850d3",
    ),
    ('CFS2', 'rr', 0, 'base'): (
        252,
        "886d3cc9567fd67b40ff7a019a21bc9204b2a99506a54a8ffdbe09c501572fe9",
        "85aa18127387ab96eec2357a4e19368466a8abd89d901e18c2db2d2a7093442b",
        "5349c7d1299c62a63aea0da7ad0ff11eec62a2478e5d475888848f7d8ebaed28",
    ),
    ('CFS2', 'rr', 1, 'base'): (
        196,
        "823659287a7ffc92d7d7701637dfaab6e94c024cbdd03e7830f6a1ff2fe73a7e",
        "2db81a9f72d5fd95d5228640c05257ce9a7dbdbfdfb94c9903b7077826b3586e",
        "9150b90209d6cd6e359e515088d7ad601d28e376e185174ee04d0da7cb5aab40",
    ),
    ('CFS2', 'rr', 2, 'base'): (
        168,
        "6263d3aa568b8f3e62a814cf0ead48b66ab21e39d6f08ee90a35bb6de361ccb0",
        "5853cff3f77737c1d19aef7cbca9ade953834e7c00c80fbab7b0f7a86330b4c3",
        "ffcef1ace91a550401a86ec50b9a1bbbece346ee40200c625f18d7801ee83f2e",
    ),
    ('CFS2', 'min-rack', 0, 'base'): (
        252,
        "3ff948f66ee82b8b38d8c564f9fd16aaeb35287da1ea7d46eb704ab495acfac3",
        "f313d12db0f7913c70ff80b32858b0f2120cea272b6f2d70d542d98bb93f8c0a",
        "5349c7d1299c62a63aea0da7ad0ff11eec62a2478e5d475888848f7d8ebaed28",
    ),
    ('CFS2', 'min-rack', 1, 'base'): (
        196,
        "8d17c203c85d1acab0495486635c35a3ddfd81ea7ae7e6b1177963b8c703d7ba",
        "af04e19082cac0dc908701ed3137a0e801f325302c3c9d9287b03895cffdd9b0",
        "9150b90209d6cd6e359e515088d7ad601d28e376e185174ee04d0da7cb5aab40",
    ),
    ('CFS2', 'min-rack', 2, 'base'): (
        168,
        "aad4d68d95dcaca0f3e9e7a574a82261d98584695f200b26dfd4d3dfff0875a5",
        "7b4712145db8794a85fff9363cd3b47066b47f23ffc2ddf6f1e5ccc58763c240",
        "ffcef1ace91a550401a86ec50b9a1bbbece346ee40200c625f18d7801ee83f2e",
    ),
    ('CFS2', 'random-agg', 0, 'base'): (
        320,
        "9fe15857dc925a363a157c9183c48fef422e878d30c14df885327d0d9189f726",
        "3eefa365a42ec82fd5e3eefc2d4d71cfae3bb615725928a772dc83451dabb788",
        "05acd111939511677c38262477e37e1989ac30d31abce60059a80c55a0318bf9",
    ),
    ('CFS2', 'random-agg', 1, 'base'): (
        246,
        "283353e7fb64d075aac22a63d3e895017779a5c234647023823d086e64d8cb27",
        "73f86a0e7180e00db3f74025449e891ebb5e72567c5b52eb8a13ac0227aab9b4",
        "dad6f432e2ffd2f4e705966fc0629447267e7db11d52c11265b41f6538552eb9",
    ),
    ('CFS2', 'random-agg', 2, 'base'): (
        212,
        "bae31ea34d9366a93097ef5ab469d0b23c3d16c5c456f8e9ecdfac54e89750cf",
        "9c6b90d9a940d0b5d646a4da1e33d7e3c5be8212f7eb348763eb4dd4d71fc08e",
        "a12f41758f42886e6bd9c3e4f030e08d83b68b0cb856b46466a898b00a1172a3",
    ),
    ('CFS2', 'lrc-local', 0, 'base'): (
        195,
        "0d4fba263888600c9f10aa683e10da555ed2adea100139455a8fc45666f0753d",
        "055947d8e12a832b75962f3bf7cda85a77159f0caa55629edc6d0aea697c678a",
        "2f9da337bed7f8990ad460dd9b03e4ca2e5c51fdac16e37bb7f64f06f53a10b4",
    ),
    ('CFS2', 'lrc-local', 1, 'base'): (
        131,
        "775f06e3f1557f37878c94ea5d2d46eeed272df52f823b91ba3451b5826b04eb",
        "48a06f19374cfb92b6c1e64737bfc07cccb93d4a760149013e6219ce566e97f2",
        "3b91ac010eb04f44e6d5c77c2ca168b9def00e58a4fd5829e97c15c60e90d6f0",
    ),
    ('CFS2', 'lrc-local', 2, 'base'): (
        161,
        "e8d60d1aec1fabe6eb249a5c8f632c283c398f1b7839da33f2c52303d097f020",
        "aee0da799e36e3519a634574f64e0e10e5e14f5e127f0ddb126b174775f0a3ac",
        "11e0d4091434dad55a510c757f69d763840f62aaa636086edb7471772ca6476a",
    ),
    ('CFS2', 'lrc-direct', 0, 'base'): (
        152,
        "2ce2ca0ad1cda1e2fbfbc3a006b8e387a21d25957d4cb90d9cfc79ff8ec71bef",
        "5c5471655c2f1f51d7da9af42a13e904fbbcd7e24edf256f4f2f8d238df91089",
        "1a65168b14e68ecae6e58a2cf48ef884c70410e519d1796363e9627d5c5aad3d",
    ),
    ('CFS2', 'lrc-direct', 1, 'base'): (
        102,
        "f883bb9884f675306689385d939302666f826ccec73cf0d2e0915d27e60db421",
        "a8fc49117f3786f396f5b996b19826986f4befee15e981a3758212eebf581a9a",
        "b789fc7e28ea71c1f8cb13e8d147753d16dad0d9e0618f255e2a5e1cf8abfb46",
    ),
    ('CFS2', 'lrc-direct', 2, 'base'): (
        124,
        "9b3632d19bd83fad62541d86169f24517de66420921a1d000732f25bcb3f5b36",
        "60784b90e7ef77d1126406ea6f30d282a79f90333158730fa85ca7dd0f0c3446",
        "524ea11efa02c1310e31fed43ce960c2204d3f8b1b906a2f49172c54a7d8bc0a",
    ),
    ('CFS3', 'car', 0, 'base'): (
        281,
        "c831edfab2575682d660da653e14ff255e4b7d4a1a5e795c494d2890940bf492",
        "3b372ec19c85df974037340bac7b80e098f2313f6d3dbdf1ed4b9950c70d9fbf",
        "aa9d27c188972decb07b6209843525debff873ae36ad0f8a5b2861243fed608b",
    ),
    ('CFS3', 'car', 1, 'base'): (
        355,
        "195e5bdfbf5ac110ec074dbba4e6954fced261e9e1c01edaeb8a0a6de79946ed",
        "1379c8c560aeb55d24f731577ef3cc9b73511446a50b04649d6937717b505f49",
        "9b80d611c41cc876da611ecfdf557736819b7c391cca28297bf1c3b06c64e2ed",
    ),
    ('CFS3', 'car', 2, 'base'): (
        308,
        "c5989e12783da86c0aeca2384a6ac900f6b9f54b3fe270cf0ae8cf254b19a6ff",
        "60d0709ca71b2b8c82320bdf21ecdd12ea96a71fba6a759ddb790ca38e87ec22",
        "55a533a2fe65cd62c143a71d47d11ca3577d962a92555ad1c8aca9ece0ce419f",
    ),
    ('CFS3', 'car-nolb', 0, 'base'): (
        281,
        "955a0074cb14f505ff7796631af200155fd5ef814cf60714ac1e679ad0d4ce4d",
        "4d10c544eb91ada436298a3185ebadf4cafbfd5e5105a7d23faac9b1be9bf704",
        "409f15397767026063680a2a9c987ab9ef4f4e1167d8f91486772365d2ebaaba",
    ),
    ('CFS3', 'car-nolb', 1, 'base'): (
        355,
        "799a8b01eaa405c47c13cabf0af277c824dc4f417c6a369f4f6c3fb56a367c21",
        "64d3ea8f12bad34ebd95aade5fba3a95daef1642cbc98db14bbd96e1064fbc45",
        "43964620c31d0c9ed1083f90ff5dedc728b4fc46932375fafc41852af67a0ab4",
    ),
    ('CFS3', 'car-nolb', 2, 'base'): (
        308,
        "3a8e719e786d6779b0dfb44004a6715213227c77953a1633c752db037785086f",
        "755f93884f3bea102ccea38b3d6adc625a45533d1eb36182076a76a7e05b6cae",
        "abf553c63ec8a7a4f6082fe96a0464a88ef551d9fad7773dd9a99a98a5bed307",
    ),
    ('CFS3', 'rr', 0, 'base'): (
        242,
        "73007d6bd7b2d3e37ae780af0e6a81ab5006c06d792ed4d4f12ae0aeda321c6f",
        "2a8fa9264e4cadfed8af955087166e903eff85979c76f4c88d8849a11646e1a2",
        "f84ebbd448fbbcf5abdd009bb6fa09fcf30be9f447c5e552031382b394611042",
    ),
    ('CFS3', 'rr', 1, 'base'): (
        308,
        "15212c1be4a7225053e49d88896d57b942e838402eb4d69418bd93ffabb062ba",
        "7139e4066418c5e843b62bd56b004905ce1a6323f0eaa9290d5a4d9c3831ca96",
        "499c422a40db537a1b68f78ba4ef2c9fc21050e5345fea38ae417471a3416a23",
    ),
    ('CFS3', 'rr', 2, 'base'): (
        264,
        "c610520d890f65c97f710fb1ba3833e208d4df326373bb6c82e611a813ca6548",
        "81788c6f08a00a9b93e6aa887062d2fae36b95f2abd6607dc010a17487e0b51b",
        "5045f59adde92911181ba5a302a23c8d3cad7947ed233385d990f27eb21f32c0",
    ),
    ('CFS3', 'min-rack', 0, 'base'): (
        242,
        "350858e46ceb80cd43bfaf425b6c64c9921d0bf1ac2d1f5caec2acb29e0fc218",
        "5b90c1bacbe22c1a270c903c20fe8e7fdee7d474b2d4db747196f1b07e66e265",
        "f84ebbd448fbbcf5abdd009bb6fa09fcf30be9f447c5e552031382b394611042",
    ),
    ('CFS3', 'min-rack', 1, 'base'): (
        308,
        "3863ce58ea0dc412eb9e0ee7ed581b160c17e94f2263fc93d814417bf310d411",
        "8e21ccaaf9c2d03f63bb85ec917ff1af0b0abcec1d27de6ae4aee148be93d294",
        "499c422a40db537a1b68f78ba4ef2c9fc21050e5345fea38ae417471a3416a23",
    ),
    ('CFS3', 'min-rack', 2, 'base'): (
        264,
        "8a79ead35c5423e8a5bffdb7355517c5cccd1c05e5fc04fd01c19b092100e3f1",
        "d6260194ec68b357a1b3d00e0ff5deb82aae9fea063d43172a183d7ca96fbac0",
        "5045f59adde92911181ba5a302a23c8d3cad7947ed233385d990f27eb21f32c0",
    ),
    ('CFS3', 'random-agg', 0, 'base'): (
        295,
        "f060e4d32a62b9878c121cbbf31289575788a6c1b2690f447f2f19740ee379dd",
        "f08bda7e793b2845c48ffb2a3c5d2ddd4e3932ff8a471a457c966bb728a60947",
        "a77bbf1f0901cfe63bb1e12e441db306dced6968cd64382fa4cf1b91f67ccd58",
    ),
    ('CFS3', 'random-agg', 1, 'base'): (
        374,
        "57e6c39bed8f497977858c4d8551caef4cc2bf7f669d5ec54c009381eba1a468",
        "5f93e9ac442ecae679db106be3d31368b6484ae01188c82811dadc0d47c95c6a",
        "7793e52dca986facbb262fcd15102cf2c52e33d1d3a4aec4342b281170a70b99",
    ),
    ('CFS3', 'random-agg', 2, 'base'): (
        319,
        "a6efd1f9958c48b7874d5f224d4ce410b0f6e92900c6a43997dcfbfbf5c10dad",
        "d571d912ae250a8f3af8a3c99b7536c749e3f8670bb42c853ed62f7bddb26944",
        "afd0ca3a04ccc5ef54b23538b27f5e2fface590ca5a0a33580e4966293305e6f",
    ),
    ('CFS3', 'lrc-local', 0, 'base'): (
        62,
        "55baf356b0e95f7c2e389159642057465f1cc558cafc6046480f6adb444e21cb",
        "30a262aedbfff68a883c5afbc0ddf7becc7396068c6f75c264023decbdf66956",
        "1813bc3ffe28304933ed7c4594c19a038df724a7864728f83a4f3583de726991",
    ),
    ('CFS3', 'lrc-local', 1, 'base'): (
        86,
        "89d219dd95dd8d603ea932406c9bcfa98674894bf74cfa3f0399ab947e986445",
        "67b9a9cb7ffbba6fbf6bff3f9bc839e50ca9b5b1c25db17413643b38be562547",
        "431f93d5375a042b4cb294d77c057631cbb4fdd305e85ab1d2a1bb4556a636f0",
    ),
    ('CFS3', 'lrc-local', 2, 'base'): (
        54,
        "d674c776ada24a6336c47f85253ce9fa1af4a4d992977a0b2bb38adac7d0f511",
        "89bd66b21237291610624982c6fcee44548585a65050a06125202e74e4f6d137",
        "0e374fc0e2fef7c609c722468c4af15742a84febd25297d218f426cf4ceb3d1a",
    ),
    ('CFS3', 'lrc-direct', 0, 'base'): (
        48,
        "34a4b65b1d672294ef741ea6538e17518b4c44e1130e2aadb0ba4c990e316012",
        "63a2d6f108fd08e7c5dc8ea2badbc64ed91cd8bd06c50b5d2a2741952ca1ed74",
        "9006303a3912d7870db1b1d14df105f087d99361b80f5ec59d789e93a07bdebd",
    ),
    ('CFS3', 'lrc-direct', 1, 'base'): (
        68,
        "0cdf0d90dba67080f99a4d04c04d516463b4cb744635144dd5bb7c1dbd6af115",
        "599b047c5821af4aa0ffbaa58d704e2fd4e605eaee256b3a9d45a39fcf96da4c",
        "f5be4644fb7a53c022b2027b0c024e95be0dc73042b7280f252a68aff9a6a562",
    ),
    ('CFS3', 'lrc-direct', 2, 'base'): (
        40,
        "707d6c5d2008cf2f2270e1e2fb37d9df30428dd44480ea968fdc720c611d7bb1",
        "39cf33b2c2ba45b29de397ef5abd50314ccc585ee490a5077e35206dd5d9c746",
        "29e035e23dda182877f58a87c2d3f933b94c991a3185442a8c1a83a16dfedbde",
    ),
    ('CFS1', 'car', 1, 'no-disk'): (
        70,
        "161b898531644dbd6ff4f1eeb8671f029a385257cccef6b61e2ec70e7853c854",
        "6a8df28713b397829cfad90804a6502b9f5a114dbf4246ee97e60060243decce",
        "e83eed93e98cee8483b7929d34cfc7a655150d9ce1bca7f17dba47fbc8049487",
    ),
    ('CFS1', 'rr', 1, 'no-disk'): (
        50,
        "ce1f3974d908aac20fa02cee4e9b01bf0855fa11ecec532a654678d0899cbac3",
        "8be2dc5146b3f7abe1774a60a6fc5590805755634901c76b2f6ebb8f816996cb",
        "b1a47a54c11b11370dd31c6d4e6f15963b8d64c7d59cd8c7a048cf926287fbbc",
    ),
    ('CFS2', 'car', 1, 'no-disk'): (
        140,
        "17f87495b1583bc9fedaaeef44ca36b7a1d231a7d4e80ac015fe5b31faa522f2",
        "bd648da6b3778575fcef8d23568137434722b59b44742a410c874c8f39dae5ac",
        "ffc25c54ccf37fba31cbb722985a01ed58fb9d3eabb89bacbad85c947a56c1f8",
    ),
    ('CFS2', 'rr', 1, 'no-disk'): (
        98,
        "398a4b63d1dae761e1fc23891a4e95df7692b8faaea09e3cd95da4fdb4866411",
        "2d11e08ce4c91aa865c8797c51d5a2877b7ed1bfa4e4b962402476268918d12c",
        "9150b90209d6cd6e359e515088d7ad601d28e376e185174ee04d0da7cb5aab40",
    ),
    ('CFS3', 'car', 1, 'no-disk'): (
        201,
        "81edd757d8eb38210340d5a8b8f78fbaa8b928b438bfc24b98af96b80234e5e4",
        "a71d2b88c791957451c9135d93e03f40d8fcc6b218e970f4e65461686bc83d71",
        "9b80d611c41cc876da611ecfdf557736819b7c391cca28297bf1c3b06c64e2ed",
    ),
    ('CFS3', 'rr', 1, 'no-disk'): (
        154,
        "0b1fb778db42af4524bd2f9b1da8d3d355a9eb84bd464521beeae669a8a5908c",
        "9074824e28dcc33703461b9439356fea3b797435ea28373f9fdcdf31ade1250d",
        "499c422a40db537a1b68f78ba4ef2c9fc21050e5345fea38ae417471a3416a23",
    ),
    ('CFS1', 'car', 1, 'durable'): (
        180,
        "5fe3554d6ca2d814ba8eebcdae7c292a417b67839728894db4dbbf2cd50a148a",
        "3241c187b15ca932e1bad1bda9f68d9eb06dbab22b390ab4a2b92cba1a57124d",
        "e83eed93e98cee8483b7929d34cfc7a655150d9ce1bca7f17dba47fbc8049487",
    ),
    ('CFS1', 'rr', 1, 'durable'): (
        160,
        "108138e3f2a776a4f04726492d8d3f9d8e322f9c3e0ed48daf4db7eac2297281",
        "dfab2dd1906c41ea141fc9fa36758035acc6e861567bcebdc1117149bf25b7d5",
        "b1a47a54c11b11370dd31c6d4e6f15963b8d64c7d59cd8c7a048cf926287fbbc",
    ),
    ('CFS2', 'car', 1, 'durable'): (
        350,
        "68c8446dbad3b939a37cdb33fafa4ac783b6df942794401ad8e011ac540b80bf",
        "1cb1a4e8aacb8e8461f82d73ebcb4d5915a3b99a469b86a07eef5d2b454d04f0",
        "ffc25c54ccf37fba31cbb722985a01ed58fb9d3eabb89bacbad85c947a56c1f8",
    ),
    ('CFS2', 'rr', 1, 'durable'): (
        308,
        "29208d5aee5f8f96cc742dc39d1eb5ec82c1b8a0af5a7b94ea806ef7d9489f65",
        "889a26700bf903c288fc42da89bc3b88c61f8a69283ffd100ae4c835eadd898b",
        "9150b90209d6cd6e359e515088d7ad601d28e376e185174ee04d0da7cb5aab40",
    ),
    ('CFS3', 'car', 1, 'durable'): (
        523,
        "a4c0822e3dc82eb7b1141dcf6e4bc4a9ebc500957869cfe781580e17ecfac259",
        "47691d57c6bffb5e488008cfa2b1cae31c29d621a6acdad13c0a4f2c02257a2a",
        "9b80d611c41cc876da611ecfdf557736819b7c391cca28297bf1c3b06c64e2ed",
    ),
    ('CFS3', 'rr', 1, 'durable'): (
        476,
        "18810f7bb5c0158993736f1ea7086c738c0a0d28429a42b9acc5c5a2090339ef",
        "b4c08b45bb91a2be0419970a3534ae5384ebc2aa97e17ad0aa48492446de71fd",
        "499c422a40db537a1b68f78ba4ef2c9fc21050e5345fea38ae417471a3416a23",
    ),
    ('CFS1', 'car', 1, 'faults'): (
        125,
        "22d8911ef0512560bdac3000e6755aa710388b5e752534a8bdd4df01c849f843",
        "49df17b91d85d008d453f40b334c119a6e8ed388e52123e096f180ed54fb97d8",
        "c33cd78015ec271fcf036f8c32ff35f83cff40206c8c4e1a02f6fc87fa12c966",
    ),
    ('CFS1', 'rr', 1, 'faults'): (
        103,
        "35545e3ddf99c21a2b008277df4967ffd780d811611ee87d1e2e7ca69bf31ddc",
        "90eec9fde58b2fa465ad2830882b2809696a0a7e9c73da060020744c9dc2e03c",
        "b1a47a54c11b11370dd31c6d4e6f15963b8d64c7d59cd8c7a048cf926287fbbc",
    ),
    ('CFS2', 'car', 1, 'faults'): (
        243,
        "18d0d2a7527c03c67cb2117435c64cdfc3ac48188236c6a8ec139282184a6dfd",
        "08af712c5da0259960b0c5b0c44289b49a3913bdb6c8daa914ce80a2131aa5dd",
        "c323be62f9337f7af20fa9998200141eaec6ab2cab878acd4963434a81a9d671",
    ),
    ('CFS2', 'rr', 1, 'faults'): (
        199,
        "6ce3d5705f883cb5a5e2975bdbd894c4a826f1704e47ae54ed5e8173a089670c",
        "73ca4cd4a9b90c8e7a26dbaf92c54c6badc7dbf9fb329d993917b3bf60573961",
        "9150b90209d6cd6e359e515088d7ad601d28e376e185174ee04d0da7cb5aab40",
    ),
    ('CFS3', 'car', 1, 'faults'): (
        363,
        "1575fd26e4a00b6fbb5719c1beed74831840188545ba297d063cacd4e20f846b",
        "4acd343e71363ec5ca7f896f8d676c506132b65d1ce99f74b93943698a86817d",
        "f2c0a077d69f2272454fce483930ace2236443ded096f1d36d753d15697b514a",
    ),
    ('CFS3', 'rr', 1, 'faults'): (
        311,
        "4b742208e479fb64dfd3336df9ebf254915e181a253e1f3392f1dce6dd6a06aa",
        "88b682062a0755939ddd382a01949e1c32449087e1a0fb75f0c6c47abbc064a2",
        "499c422a40db537a1b68f78ba4ef2c9fc21050e5345fea38ae417471a3416a23",
    ),
    ('CFS1', 'car', 1, 'moved'): (
        36,
        "a9775946d6b05265065f923746a5915ce9bd6da8d801394718d9ee4c868bbef8",
        "4740455d4d026a0b92be67223d96a52c439bc05979dfa43236d22509ebcc73bb",
        "82bc7d1819b0292987087ae9689cbac76e853de672d3f57150a9bdae46abfe17",
    ),
    ('CFS1', 'rr', 1, 'moved'): (
        30,
        "3e7e99e1dcc69a1ca0d051ed8ca78095e38b1f0f291e36f2853d6175fe65a25a",
        "fdef334050effb0cd258d8d5e00ad8b1272b0addc94978d4156dff4492fd0f9f",
        "4d3160bc861cb5dc47dccb96da63d244e08f8a6f4a7613573582bd5553d77054",
    ),
    ('CFS2', 'car', 1, 'moved'): (
        85,
        "38525f4bdd56d8a28b0c3fc0e8b56a24295cae8bc2a4fd5ef2a795eb53a2942b",
        "e3b4ac854a3d2f5a73c473223295f0fceeb16a34518351a6ba0c8c1f5207a6ba",
        "53f13f8f62d6f30857c6d7da80c7892f21b10bd2381b3aba3628c0b49319375d",
    ),
    ('CFS2', 'rr', 1, 'moved'): (
        70,
        "ffaa1e1d3e7074d8e163e7142097dd0aeba5854b0bb18f049178690eb54b03a1",
        "da2fbe280ebf1af89f4c645b153b1e4a14481f76729b7cbc0a29c697ce1a00b6",
        "822ae1dea0368c16e41ab3dcdde6b3c097a1bcda98338eaf9e1a5f3c11a04843",
    ),
    ('CFS3', 'car', 1, 'moved'): (
        103,
        "5856acfca0a313736a8e6747035f223b775991f3fb5398298423680929314009",
        "b6547d59e1f03be3b9908aa0aa2851b3696c4572ec6ff3e5f83f5b3e492fd11b",
        "f770d1689bce5b6f98f85bb079fd81b78e08dc940aa5d18f1e9467dba8ca9137",
    ),
    ('CFS3', 'rr', 1, 'moved'): (
        88,
        "1ab2fb89405d562f94a5dd1d1a1265c9c6d7b532460d5eed9640c3e3c5ce1e1b",
        "46bc0a984bf1396f31981e8c98b05ca66a9913bb94ea5e72f0471343fafc9880",
        "eda044eea2dca1e866ea09de08623953e5abe81a44ab5d3b23cdacea496aaa42",
    ),
    ('CFS1', 'car', 1, 'mixed-uplink'): (
        120,
        "cb7c9ab83d3da6980936945f366596de48bd0f9630933f397006f9bb3840c749",
        "e4cd025277d6e7baae7fa5b4b0e8a6a1dcb9340c41bcde76875ba193fe8fa0a5",
        "b8812abd3d2272afdbb810b3aab97133f00de64809436115d1ad78d57cc392e4",
    ),
    ('CFS1', 'rr', 1, 'mixed-uplink'): (
        100,
        "a611ce15e5e9ec0a9be2b2c4b57e8701cf340d0ecde66d899bc82a9befea4db2",
        "ccb2d910865891177a59c2c753434d0edefbf35c32a91ae1745fb472a6a1948b",
        "334219b17baa4c7bcc4db74a4923e206490bc7edd70bf5639f17bce6f3abf2d5",
    ),
    ('CFS2', 'car', 1, 'mixed-uplink'): (
        238,
        "c110f79f5f9cd8d9d84060e055a121371c9803c3ebc83dba9387bf6c77384db1",
        "2ef083b7f586e9a3aa14b4b9ff8565fb7363ae1b0228024692e3afd7296f9c35",
        "e16bb75912e413ef02ce8f8e4051a44c9d24e12ab48023a478909271de2c0117",
    ),
    ('CFS2', 'rr', 1, 'mixed-uplink'): (
        196,
        "823659287a7ffc92d7d7701637dfaab6e94c024cbdd03e7830f6a1ff2fe73a7e",
        "72e2b3af572cdc4d9b8c4a47e45d060c22fe4af9f1a0507d59a5500e33df52bc",
        "9150b90209d6cd6e359e515088d7ad601d28e376e185174ee04d0da7cb5aab40",
    ),
    ('CFS3', 'car', 1, 'mixed-uplink'): (
        355,
        "5dfff64e56c6d549945b967d7066909c536ab0e96694d266be390b299c42c13f",
        "0e3590d006aecf8298c66bc7610c59d23e16a212d9f457ee95bfefff90b273e1",
        "e207899b55811a6dd51cb6d4e4af28da0c4df9bcae1d64600c144c15370ad655",
    ),
    ('CFS3', 'rr', 1, 'mixed-uplink'): (
        308,
        "15212c1be4a7225053e49d88896d57b942e838402eb4d69418bd93ffabb062ba",
        "cf20a71be1ef4132b674710ff77d70e562a28099a1365505bf80e23943c866d5",
        "499c422a40db537a1b68f78ba4ef2c9fc21050e5345fea38ae417471a3416a23",
    ),
}


@pytest.mark.parametrize(
    "case", list(PINS), ids=["-".join(map(str, c)) for c in PINS]
)
def test_time_models_are_pinned(case):
    assert digests(*case) == PINS[case]


#: Figure 9 at the scale EXPERIMENTS.md documents (``repro-car fig9
#: --runs 3``): the digest of every panel's series means and stds and its
#: savings per chunk size.
FIG9_DIGEST = "a6bf1c9e6737b37e91086d372b0780480ae56dd5fc660df0b29c29f908d11f84"


def test_fig9_is_pinned():
    panels = [
        (
            r.config.name,
            {name: (s.means, s.stds) for name, s in r.series.items()},
            r.savings,
        )
        for r in run_fig9(runs=3)
    ]
    assert sha256(panels) == FIG9_DIGEST
