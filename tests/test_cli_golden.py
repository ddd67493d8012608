"""Byte-identical output: the SHA-256 of each command's JSON and text
output and its exit code, pinned.

A refactor that must keep every output as it is leaves this file alone;
a change that alters an output on purpose updates the digest here and
says why.
"""

import hashlib

import pytest

from qonsager import cli

GOLDEN = [
    (['normalize', 'W[1]*W[0] + (q^2+1)/(q)'], 0,
     "5113ece8516949e52ed544f1c5131317a7af1c2f4758b3f6ed1f9412ecb93d79",
     "d03b97daf8c1f4bda3c6a710e42019e323d3036087a79c9f10ec36d026f1c294"),
    (['check', 'relations', '--bound', '1'], 0,
     "e4160c12816c859cd17ab12dd77b2396100a2be4a675ff036d1343f7ef7e9b36",
     "e0d66e828a607d1917076b64c669387780ec75f8ba66262894fb5bb3b272d501"),
    (['check', 'ambiguities', '--bound', '1'], 0,
     "899038bacd24e58aa4b023315f3469d043729e918f23f65566c5d2ac71825af0",
     "1805bec08d68280d7284e9770eea524e1ad232a27bbdd12e19b1f8b3a4b6a2b6"),
    (['check', 'gf', '--order', '2'], 0,
     "70b25674c61fe4f4b31ca44a63cc49a23e4b7db3085db51b90326f39a42a07ba",
     "18cb8fcdb6ba9930e9705a5068d97231c627d96dcfc6916512c728ad0213b65c"),
    (['check', 'prop41', '--order', '2'], 0,
     "7ab0789ecdb1b46842a5bc3f05ae7762b780f26cbbebccbc2aa57cd2ef9490e2",
     "53f5dcfed7dab866ae07b176eb1cfcdd6e1db3ce078c99b36bcc89f1d5286f51"),
    (['check', 'central', '--n', '2', '--bound', '2'], 0,
     "6ba1cdfcf758cb631c636834b86d6a0784ff0337bb1443de1c52b6c352f4777a",
     "760ad3de4bdd5925cbef7f45c5a815b1be13382351c74e449c75dc91136cdfb0"),
    (['check', 'dolan-grady'], 0,
     "3a0cbba2a7b7c7b0f30fadddf637caa74efadb74efb697212b19d874b3ef1ffe",
     "624a3518c73dbf4371d41b1e9bdc0f7eeccd00cb0d51af94eee94eb12d5b2c09"),
    (['check', 'matrix', '--order', '2'], 0,
     "234ce0c365ded55a43ba7d2601b3a73527532c89a7c801f9f2b6945b3f41c3de",
     "2e5385d5b56590c321f0c9d6717418bf681003d450815f68281fb69d66d09f26"),
    (['check', 'appendix-b'], 0,
     "fe0d7606fdedd10769c7063e7dfeec66ca3d15fe3531dffc1863c66979a4c155",
     "4fa6c98ba9668fb611cc4d0aecdfbd2211624e9c7b57757507e1eb1fc62fa4be"),
    (['zn', '--n', '3'], 0,
     "e1b04d53334bd615144c55f4067d6c7acb1236ad3aa4c440163629ea41dc30f5",
     "9a431f1db77c97affead8fbedd1e08f6194efbdfd42826a3cdbb381814c03b0b"),
    (['dims', '--max-degree', '6'], 0,
     "d94cddba681e08bf5ec9933e9d8268fca3b758531d47cb6d341aff0071ed448f",
     "1317299ad251fb93e0f40742eaef679d8aafe93cd425bddbd9a3cc2df1892c62"),
    (['series', 'W-', '--order', '2'], 0,
     "f2a4451451feb22b12af99220b3baf657fb837e14cd4aa3b3617a4aead47b117",
     "a89ae30c4224b07ff554c58d8e7b98d594a8dcfa7c646865f217ee90b40d5d9e"),
    (['series', 'A', '--order', '2'], 0,
     "d40bd7d576d13ddd9ad9d94a1fe4b45044771bf9506641051eb44cc1bbba15cc",
     "ce998c34fca5ccebc6d51514b0f6a43510561530aae5ea7dc65d37a24b818c43"),
    (['series', 'Z', '--order', '2'], 0,
     "32d3bc2a3039bdf13f8356dd72c5188d33778219cbbdfb65123a6c8d1e7c39cc",
     "bb2b1ed15bb0a913e13278670567ff1edef2cfcbce70f25ab1f10591bdc36c84"),
    (['series', 'A', '--order', '0'], 0,
     "98aa736038bb832300e611968f60be4753caca31e97cf2b4a8e7cb48ad3935a3",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (['recover', '--n', '2'], 0,
     "68162575c9cb508d296949507dea7b6af050e948aafcc2ad1f6a5932b6d86b2a",
     "c91af0b6306105229080160e1887ad8dbc5a23cf117d07672dc51819b15894a7"),
    (['series', 'B', '--order', '2'], 0,
     "9085e3deb813ead15b2a055438459b8104712e26db3cb5c77d55ab7a6ce5893b",
     "672070b7eb72cbd47e3425ad4f6e495ed1bdf1dc012a9985dbfc13abb63d8c60"),
    (['series', 'Q', '--order', '2'], 0,
     "ba0568cb16d53ee7e1d7c98ab79a4ed230a716120c6693d7644f87c22b6ce97e",
     "487567525bcb801bb2456352ee5a66239d72ea8c16f90f7886a5f33b9d6ff36a"),
    (['series', 'S', '--order', '2'], 0,
     "cedafd6ed1343e8c9be571c782fe466484566a436f418b289d31c28c2ec0f9ea",
     "56748dd3e27eddee305100435c9f74a56106f7b2c1ac4ec3a8387e38800a45f4"),
    (['check', 'prop41', '--order', '3'], 0,
     "081a5a7a2fb5441f8a95a38b676e5990a510287f83ae0fb7278b451bd9f73a10",
     "53f5dcfed7dab866ae07b176eb1cfcdd6e1db3ce078c99b36bcc89f1d5286f51"),
    (['check', 'ambiguities', '--bound', '2'], 0,
     "22541f392c9751db637d0a3bc10e1d959ebb0a2b7c8793379fc4d3a7668fde4b",
     "07d821c9a63cdf5ce110fe73a1dbd8687833f55764053787f6cc23277450ff58"),
    (['recover', '--n', '4'], 0,
     "8dfcfd3373592ed9363adca300c594c5d9030ddc109a30edb059e829463c79b3",
     "5431c9f021e8a46f7ff71d3b7f24ff6fee14a053c9bc25a3f8e15d4c9f2cc3a7"),
    (['dims', '--max-degree', '10'], 0,
     "b69230217b065d6ed98146be9c3add7aefb9ee4f329f0e6ef985503036205968",
     "578802930579776765af434d50bbecbb12d497ba0a20d2d2df63030a746351f6"),
    (['normalize', 'Gt[2]*W[2]*W[-1]*G[2]'], 0,
     "b39d9f1f93b7244694130f25afd0d59d545766cacf4207083f47b1efb7605c88",
     "8957041cf23009022cdfb89c8fca1f5e5ea7e1a1184b13b8d7768d91df8cc537"),
    (['normalize',
      '1/(q^2 + q^-2)*[3]q*W[1]*G[2] + (q^2+1)/(q^4+1)*Gt[1]*W[0]'], 0,
     "ded594b982ee3caa4352f5841075a35cc108d0bf3925e376afe4e99177d98a87",
     "2a48b8d4a198cab7547cda3901bc89de2ce8ce41e0608a2ce734c30735cd2a62"),
    (['check', 'ambiguities', '--bound', '3'], 0,
     "99322e5a654a67598e4322bd10ea1186abc3b8d48c61ce6210d024478b1858a1",
     "73a020a479c033d22cf7b4ba096a91dbf6222f231f0a5e02e8d4a3ed4c2041b2"),
    (['normalize', '[3]q*W[1]*G[2] + (q - q^-1)*G[2]*W[1]'
      ' + 1/(q^2 + q^-2)*W[2]*W[-1]'], 0,
     "0f7a8b5546003d2171e04c73008b96fb264d148c171811a24d36bc44cb9ed0e0",
     "c33857720449b395a8b51a7092254551967efc7e26613f0c246c40b2138c2241"),
    # two distinct V's, q^4 + 1 and q^4 - q^2 + 1, meet in one sum
    (['normalize',
      '1/(q^2 + q^-2)*W[1]*G[2] + 1/(q^3 + q^-3)*G[2]*W[1]'], 0,
     "a4cd5d10a9773087e5c6819cc40eb1cff1f0225405a9e71c8d889e262c0fd5e7",
     "950c9b56cb4ae6b5eacfa82b62185ccbb6c3c2a93274c312ceaca1a0a6c500e4"),
    # 1,245 terms over 936 distinct coefficient values: each value's text
    # is rendered once and then reused
    (['normalize', 'Gt[3]*W[3]*W[-2]*G[3]'], 0,
     "24fb43051063882e0601e0444408ecd72990b99ce6aa3c3154a929c3d41c3c3b",
     "7b6db3ff068ef346bad96397a0a3531ed32bccfe39b72e2a71fdc98652497d62"),
    # E and L are dagger images of D and K, F and M sigma images of E and L
    (['series', 'E', '--order', '2'], 0,
     "01dc667300d9de65d4d5845a5db64c3d224855196c1d2a9869988ca4bc76d6fc",
     "c1a16217af36630d92abaaf6cdac538f5f1b6f0cbb2c874bae6de10364e59875"),
    (['series', 'F', '--order', '2'], 0,
     "31334147d7c8f7d5fd8f02515a7b724c2ea26cc4c50319702374c99086202044",
     "b83eba27b4cf6d1b421e0393506f6e7c99d581ffa7040caf65aa8ea646d0dcef"),
    (['series', 'L', '--order', '2'], 0,
     "26a2b809a7fceb62ff2cee6ebd824f9484e30acbb7ef9021ff1a7c03555f0d80",
     "d7d49626391f25698b97677fbedc5cc6e722638d98be3477c3ba142702daf581"),
    (['series', 'M', '--order', '2'], 0,
     "503d4cdce5b8ecb8041769f1793c6fb27e3e1173d40272f010f8d937642ef583",
     "1847cec5249074d7429da31c5332238ee04061c6ef31c0572eae314b3e6690be"),
    # nine of the sixteen relation families are sigma/dagger images
    (['check', 'relations', '--bound', '3'], 0,
     "e20b333eacbb722402b4e825e7e110ba999b1aa24f15b385a3ea4c919c25a192",
     "ba06f0e0a3462e25565631c083235c31f322407aaeac07858cfcca79d53dc078"),
]


def _digest(capsys, fmt, argv):
    rc = cli.main(["--format", fmt, *argv])
    return rc, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


IDS = [" ".join(row[0]) for row in GOLDEN]


@pytest.mark.parametrize("argv,code,digest,text_digest", GOLDEN, ids=IDS)
def test_json_output_digest(capsys, argv, code, digest, text_digest):
    assert _digest(capsys, "json", argv) == (code, digest)


@pytest.mark.parametrize("argv,code,json_digest,digest", GOLDEN, ids=IDS)
def test_text_output_digest(capsys, argv, code, json_digest, digest):
    assert _digest(capsys, "text", argv) == (code, digest)
