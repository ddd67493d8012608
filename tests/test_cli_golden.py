"""Byte-identical output: the SHA-256 of each command's JSON output and
its exit code, pinned.

A refactor that must keep every output as it is leaves this file alone;
a change that alters an output on purpose updates the digest here and
says why.
"""

import hashlib

import pytest

from qonsager import cli

GOLDEN = [
    (['normalize', 'W[1]*W[0] + (q^2+1)/(q)'], 0,
     "5113ece8516949e52ed544f1c5131317a7af1c2f4758b3f6ed1f9412ecb93d79"),
    (['check', 'relations', '--bound', '1'], 0,
     "e4160c12816c859cd17ab12dd77b2396100a2be4a675ff036d1343f7ef7e9b36"),
    (['check', 'ambiguities', '--bound', '1'], 0,
     "899038bacd24e58aa4b023315f3469d043729e918f23f65566c5d2ac71825af0"),
    (['check', 'gf', '--order', '2'], 0,
     "70b25674c61fe4f4b31ca44a63cc49a23e4b7db3085db51b90326f39a42a07ba"),
    (['check', 'prop41', '--order', '2'], 0,
     "7ab0789ecdb1b46842a5bc3f05ae7762b780f26cbbebccbc2aa57cd2ef9490e2"),
    (['check', 'central', '--n', '2', '--bound', '2'], 0,
     "6ba1cdfcf758cb631c636834b86d6a0784ff0337bb1443de1c52b6c352f4777a"),
    (['check', 'dolan-grady'], 0,
     "3a0cbba2a7b7c7b0f30fadddf637caa74efadb74efb697212b19d874b3ef1ffe"),
    (['check', 'matrix', '--order', '2'], 0,
     "234ce0c365ded55a43ba7d2601b3a73527532c89a7c801f9f2b6945b3f41c3de"),
    (['check', 'appendix-b'], 0,
     "fe0d7606fdedd10769c7063e7dfeec66ca3d15fe3531dffc1863c66979a4c155"),
    (['zn', '--n', '3'], 0,
     "e1b04d53334bd615144c55f4067d6c7acb1236ad3aa4c440163629ea41dc30f5"),
    (['dims', '--max-degree', '6'], 0,
     "d94cddba681e08bf5ec9933e9d8268fca3b758531d47cb6d341aff0071ed448f"),
    (['series', 'W-', '--order', '2'], 0,
     "f2a4451451feb22b12af99220b3baf657fb837e14cd4aa3b3617a4aead47b117"),
    (['series', 'A', '--order', '2'], 0,
     "d40bd7d576d13ddd9ad9d94a1fe4b45044771bf9506641051eb44cc1bbba15cc"),
    (['series', 'Z', '--order', '2'], 0,
     "32d3bc2a3039bdf13f8356dd72c5188d33778219cbbdfb65123a6c8d1e7c39cc"),
    (['series', 'A', '--order', '0'], 0,
     "98aa736038bb832300e611968f60be4753caca31e97cf2b4a8e7cb48ad3935a3"),
    (['recover', '--n', '2'], 0,
     "68162575c9cb508d296949507dea7b6af050e948aafcc2ad1f6a5932b6d86b2a"),
    (['series', 'B', '--order', '2'], 0,
     "9085e3deb813ead15b2a055438459b8104712e26db3cb5c77d55ab7a6ce5893b"),
    (['series', 'Q', '--order', '2'], 0,
     "ba0568cb16d53ee7e1d7c98ab79a4ed230a716120c6693d7644f87c22b6ce97e"),
    (['series', 'S', '--order', '2'], 0,
     "cedafd6ed1343e8c9be571c782fe466484566a436f418b289d31c28c2ec0f9ea"),
    (['check', 'prop41', '--order', '3'], 0,
     "081a5a7a2fb5441f8a95a38b676e5990a510287f83ae0fb7278b451bd9f73a10"),
    (['check', 'ambiguities', '--bound', '2'], 0,
     "22541f392c9751db637d0a3bc10e1d959ebb0a2b7c8793379fc4d3a7668fde4b"),
    (['recover', '--n', '4'], 0,
     "8dfcfd3373592ed9363adca300c594c5d9030ddc109a30edb059e829463c79b3"),
    (['dims', '--max-degree', '10'], 0,
     "b69230217b065d6ed98146be9c3add7aefb9ee4f329f0e6ef985503036205968"),
    (['normalize', 'Gt[2]*W[2]*W[-1]*G[2]'], 0,
     "b39d9f1f93b7244694130f25afd0d59d545766cacf4207083f47b1efb7605c88"),
    (['normalize',
      '1/(q^2 + q^-2)*[3]q*W[1]*G[2] + (q^2+1)/(q^4+1)*Gt[1]*W[0]'], 0,
     "ded594b982ee3caa4352f5841075a35cc108d0bf3925e376afe4e99177d98a87"),
    (['check', 'ambiguities', '--bound', '3'], 0,
     "99322e5a654a67598e4322bd10ea1186abc3b8d48c61ce6210d024478b1858a1"),
    (['normalize', '[3]q*W[1]*G[2] + (q - q^-1)*G[2]*W[1]'
      ' + 1/(q^2 + q^-2)*W[2]*W[-1]'], 0,
     "0f7a8b5546003d2171e04c73008b96fb264d148c171811a24d36bc44cb9ed0e0"),
    # two distinct V's, q^4 + 1 and q^4 - q^2 + 1, meet in one sum
    (['normalize',
      '1/(q^2 + q^-2)*W[1]*G[2] + 1/(q^3 + q^-3)*G[2]*W[1]'], 0,
     "a4cd5d10a9773087e5c6819cc40eb1cff1f0225405a9e71c8d889e262c0fd5e7"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(row[0]) for row in GOLDEN])
def test_json_output_digest(capsys, argv, code, digest):
    rc = cli.main(["--format", "json", *argv])
    out = capsys.readouterr().out
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
