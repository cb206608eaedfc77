"""The node tables the placement policies draw, pinned by SHA-256.

The benchmark's exact metrics (cross-rack chunks per stripe, the saving
over random repair, the balance ratio, the modelled time per chunk) are
functions of these layouts, so a change to how a policy stores or
builds its table must leave every pinned table byte-identical.  Each
digest is over ``node_table().astype("<i4").tobytes()`` for seeds 0-11:
the three Table II settings under ``build_state``'s two policies, and
the LRC(8, 2, 2) group-aligned layout the LRC ablation bench builds
(racks 6/6/4/4, 100 stripes).
"""

import hashlib

import pytest

from repro.cluster import ClusterTopology, GroupAlignedPlacementPolicy
from repro.erasure import LRCCode
from repro.experiments.configs import ALL_CFS, build_state
from repro.recovery import lrc_groups_for_placement

SEEDS = range(12)

PINS = {
    "CFS1/random": (
        "3a4663efffb175ac884eb65870c695e56c319ec256fcfd0acb3b71cbbfe4cd7c",
        "036d823d863c6800e36e999376eb74497377aa6143af94581f6c45558f96969c",
        "8ce5a161b56317584604750ccd44f076bff77bd59440a3d14ab3c9181f680594",
        "113621fcd3edc2a75464102dedb4078bd49ba51bf5cad536656e9776a32221bb",
        "21ad4fd69768bcfbf314bcdd2d332f6068e6d08215bdb2d636763e3de640f256",
        "5a85b7fcf21f09f54ef7657aba0d00d5f7c0f5ed3682306fe8aa104be3ae5754",
        "1b48d5489c526809c9a49f4865790e9f0ac7744251268b0e64c01b29e1a79217",
        "281891a469f9ae8ed37426eefd2c9de36400d12ac188d8f064e6a2c94d94b087",
        "a7c876baa530c9cc04764db6ec3fc894c2a894230502ec38fd8d13535b0e2c46",
        "575587e9f59968ab0aa10643d770f09b12e5d3d6826938c97843288386b0f93b",
        "b3fe2ffa4e293412bccec62e52cc6b2b83605cbd735290b4fbb071c2936f3300",
        "e46b1c683e43c227bfc207c9de4205a987a407453d5f1e55e30cbdef9880692f",
    ),
    "CFS1/rack_aligned": (
        "3a059abde735e528626feed1fc2799081a829563cbed11d34a32992130a3e0b5",
        "966fb4630325c02f41f3900e2f9ec2630d2856fb15058cb310fcd11d58d4a1d7",
        "314114bf0b4825231294e236a16bcd971be8fe1b90b91a7cf59220b28a5a1ba9",
        "fdf186da2c65a3d1e637fb98164b28b5b9270354ea8cd5e578ada2edbf527640",
        "5389ed289ea84acbed5755be100fa8ce83274f001ccb391e0aeb34e91a6d440b",
        "d13e5b98c6b934f901f759376e9d622538bf3631437ef6117fd48839adefaab2",
        "dda789f20bb65772dfa54b29117b53d0fd542acb74fa683e686fdb33d5871a72",
        "adac36a3d961c3e16e05ea783e921e9fae332710378128a7725ab527a4989c23",
        "7ec26c49bcbdbba367d86fb19592527c37be01ffa8751f674774324905efe815",
        "d03666e38503412004c2778d611cca2cd7f3621f1f8583c968a663030de93b78",
        "665012c94bad08df1acf16f812ca5cfc12a9fbffd69997c1dc866aee5c85ef5e",
        "d02f7fff48f16b3dd7a6c32ce51fe56dbbee3c65e5ce343fc78ed81883e6b669",
    ),
    "CFS2/random": (
        "7c60d9d13419e83c51fc8f0124bc1f52b1da26fabe4c875d1dab2b4f879f82e9",
        "2932f9fbd005268edb5cd6d5fcb2f241e88679e889c5e5e3b31a98c6c7bb1aed",
        "aeb7337725569b5b2f7fcf289aceb7a9e3e18c15b7ec8e226d5c126976973363",
        "4b461578558410e025354fe0c0bc4721699ba47d890760adb6cec4a80b121a0a",
        "27bb058e15cdf86cc2de1f80a65627e9526e6793ff6604223e10015c1f66b875",
        "82f3679c17102e15ca874a4704f3c54a24e5e63d2478517c2f25da774eb069dd",
        "1e1b9d7bc2bcfe4ffefa9940e22f05bb72db3d70aee024d713cacb21c5989657",
        "a09c3c67b6c0cf2ea980ea27b6a3c07c5e356dafd1dc65503ae496cd6c53f3f0",
        "425e3c5d69199d0f929934a95c6c3cd84fb946b33efe8cd5889e43a77cff256a",
        "61f1c6e924fc4323a54c816de666ab8a5748a3646a108178257ffd9bfb10def2",
        "169ea3973af85479fe328bf3debd01957ac123988a57255d773ae26bfd54668d",
        "7ca42af32193a2923f19efd0b8cfae57dfdd34306b41b794897561159cf9a2d8",
    ),
    "CFS2/rack_aligned": (
        "1a2fe80ed8037282ca22bdee84a7c0fb25b1746246f81d4b34fe7439df1cd186",
        "e247237892368b4ec00061676d4c147f09583023b2b06381aa9751dbf32a94e9",
        "3cccfd41851e378a2e16583df94f1a2f256faf8f7c074a0c97ac1eaaa280577d",
        "df1921731540ef2aa1b0f7b058357677ea2afa872c10fd74b5dc10f534038060",
        "f27fd70d934b72ddde7450630d390dc1395eff7f2724d5d666c33772e4b5b9ad",
        "4b66ac121618abe51924840239a577f3623cfa8d0fb06fb091af2754f6e01799",
        "ac6953a6f819ff99ba3a576e5ab8bb2358806152a8b32a7526283f52cc62da87",
        "7f65dfe3678acd2a0a940ec98524a83db76b6d62dd05ec30a43df15609c9d558",
        "182588e1a2e741f26f9ac60a00b670b339f13229796b504d1e361d539e44473a",
        "b3b7672d859544d1eb35ed06b492a3a52f06d4bc8d3e731aa40ed625dcdb2504",
        "7bcf2ec03c32cd73b1b10ff7d3663a7298f0e24798664ed4ea9f1ce5bdf191a3",
        "71956119aa2631ea3096911025f040a68af0057cf420ec8a04f23243c8c698a4",
    ),
    "CFS3/random": (
        "e1a1cbe3a339e5488b6f769528943f5d31f66a7e96edab8caeefe2714efd1049",
        "eec337b0340ada126c73fada081fb21302e57fa66437e1c8425f3724287c1693",
        "7063a6e3a4a846f7393c9dbfd8fb251832b793a1c80d1a29bdb0c3771b9f9458",
        "e7c265d79a23609cc58d0a2a50eeac8ba66e09edeed9c1388a1a1719a8672a37",
        "3249864b4c04fa7c9aca9f9321efd3684e47635d8671f3851ddcf9b3d424ede1",
        "1dd3b0fadd2ec81a394b8518bcbd26d199e8ab5d044fc5f0e106e42060b021e2",
        "a22baff18335dcc4659f3ae09ca6151a1bae582d599a846180ee7471acb8472b",
        "c5d1906d912c7accb4469e55d179e0c80cf8eb5d2b3a4a11ed94cc0ec92d832a",
        "f63dba4af22512d16bd9bc99a1d84c58f536d6fbc4fd4d73cf0d92eab72052a3",
        "c11b0ccd6c410465c93058f1930bb0464e3c0c2613d89439798d0f83a8605306",
        "63d0aa9d24d4901b3c7d26a7e11d1191813368dbb35f2ab3250504ada1a548d2",
        "f769b5a45642d075844a841a1248fd1c96d35e8ccfb2d7efbffcf1c9938a2326",
    ),
    "CFS3/rack_aligned": (
        "2fe376e8d2a7b49a0eb86bce7f83bbc3c0d09932d3acc002baaef9f6ce52c228",
        "a8f6ef8e1faf18cb46a66304472496f2abd025632e291c753543dc61abc3e59c",
        "c9f9fa7b69254d88a50dbe786a27d2469ec6ee7c9e36af0bb75585765294ca0a",
        "c3a1e38879cac50fc2c6fbd10b73b83b3e3bde672bddb53e799e29e38ed08d2b",
        "c4797a6e41822d4b7c3a5c64c0ac0a460e5b410f943a8c36835f3c58b1366418",
        "4e57a222caac51329329f12acd59714779aa77ab7562e410f43e94b6a3cbe3ff",
        "2353494f4cb76db8811ddd66647b744dce24da0620bbed5f2e2ab4e51e528a94",
        "0e1fd1801a247bdac7229b0baa251953bca7fce282243c5f553b6910ab75b4ab",
        "a1f31f02840c91c198dbd21e89b32bac54f17d5660ec8c6f904c90b8c8663171",
        "b9e87f811ed9c3dadb3cb17b2272d0d663f18586deb8d1350d3ec351b6f5dab4",
        "a93eb675a9439a0b53a250094cb74b3fbb261389b709a44a1759b3b1fee8e0fa",
        "2fa3329ed1f4b8dd5d8bc8bfe56187cf78312bb0868e159c913b7aff0e8f3b86",
    ),
    "LRC(8,2,2)/group_aligned": (
        "95ccee96aeaba231e4b93cd5103d40600b1fc4e3c825562fcaea5fa2350808b6",
        "7a18a0ecc540aa540982f5b397d5dd0a7da38a86935e523e7013e4062f4a7663",
        "b316ebd65862344960bae5779b8db21e67a6727f7a4f3331761c5483a86d6daf",
        "c8e31059dc386afcec24d141f0d29858fa8304c55d775141d6c297dcb6faee40",
        "b848fb4baeb7bfbe93354e238e28a706e6da76cf6fccc426b19d5debe34c16b7",
        "b29aee9cac9d877775385790d960d3909cb30e789150476e07048abb44d02312",
        "de0903ae0f3ee745a384259b3405ddf5e93aa11f446d5720b211334297d6c370",
        "df8c2deabf68d09b9a19e1e2be0256b07ee34a4c7b8b59f84e694e827ea87045",
        "a26a715a9ad708fdafe0ac78bc718705c43e24c8ce94557a5f4a46444bccdfff",
        "6bf549954dde9fa6ada4c6c6b17f54b6b65f74ea4208e6c4f8313a5944f5fb60",
        "eccacc4618a79221bac3dede56d2a2ed9ba629630920250d3d691c47b5cfc97f",
        "11613040a958d4d0043c1a3cb5feebc93395bdbd7926496495b503c0041c3792",
    ),
}


def _digest(placement) -> str:
    table = placement.node_table().astype("<i4")
    return hashlib.sha256(table.tobytes()).hexdigest()


@pytest.mark.parametrize("policy", ["random", "rack_aligned"])
@pytest.mark.parametrize("config", ALL_CFS, ids=lambda c: c.name)
def test_build_state_layouts_are_pinned(config, policy):
    digests = tuple(
        _digest(build_state(config, seed, placement_policy=policy).placement)
        for seed in SEEDS
    )
    assert digests == PINS[f"{config.name}/{policy}"]


def test_group_aligned_lrc_layouts_are_pinned():
    lrc = LRCCode(k=8, l=2, g=2)
    topo = ClusterTopology.from_rack_sizes([6, 6, 4, 4])
    digests = tuple(
        _digest(
            GroupAlignedPlacementPolicy(
                lrc_groups_for_placement(lrc), rng=seed
            ).place(topo, 100, lrc.k, lrc.m)
        )
        for seed in SEEDS
    )
    assert digests == PINS["LRC(8,2,2)/group_aligned"]
