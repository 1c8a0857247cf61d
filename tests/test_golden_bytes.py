"""Golden-bytes gate for the CLI.

Every case runs ``main`` in-process and compares the sha256 of the output
bytes, and the exit code, with a digest recorded from the per-value
implementation (one ``RunConfig`` and one set of validated dataclasses per
sweep value, one ``fmt`` call per printed number) that the column-native
sweep and the single row template replaced.  The thresholds sweeps over
n3, n_s, r0 and tau_coh, and the two error cases whose failing value is
not the first, were recorded from the sweep that still rebuilt the
ladder's arguments per value, before it bound them once.  The JSON curves
far out of the window (--kmax 1e6) and the masses sweep without a density
were recorded while JSON rows were still read back from the CSV lines and
every column was printed per value.  The multi-block curve CSVs (a 6147-row
dispersion sweep and a 10001-row hopfield curve) were recorded while the
numtext kernel still returned a whole table as one string.  The saturated
masses and the wide-beam trap were recorded when they were added, and the
wide-beam trap's stderr warning is pinned apart.  Error cases pin
the exact stderr line instead.  All cases run with RuntimeWarning raised as an
error, so no evaluation path may overflow or divide 0/0 inside numpy on
these inputs.
"""

import hashlib
import warnings
from pathlib import Path

import pytest

from polbec.cli import main

PLAIN = """\
E0 = 2.104 eV
d = 1 D
n3 = 3.5e11 cm^-3
tau_coh = 1e-8 s
mode_index = 33940
Delta = 0 eV
g = 1 meV
d_beam = 2e-4 cm
T = 300 K
n2 = 0.5e8 cm^-2
"""

EXAMPLE = (Path(__file__).resolve().parents[1] / "example.cfg").read_text()

CONFIGS = {
    # no m_eff: thresholds derive the lower-branch mass from the coupling keys
    "plain": PLAIN,
    "trap": PLAIN + "omega_eff = 5.0e10 s^-1\n",
    # n2 estimated as lambda_T(T) * n3; n_s given apart from n2
    "n3-only": PLAIN.replace("n2 = 0.5e8 cm^-2\n", "n_s = 2e7 cm^-2\n"),
    "geometry": PLAIN.replace("Delta = 0 eV", "L_cav = 1 cm"),
    # neither n2 nor n_s: both masses T_KT columns are empty throughout
    "no-density": PLAIN.replace("n2 = 0.5e8 cm^-2\n", ""),
    "inconsistent-trap": PLAIN + "omega_eff = 5.0e10 s^-1\nU0 = 1 meV\nr0 = 1e-3 cm\n",
    # U(r0) = U0 holds at r0 = 1e-3 cm only: 0.5 * 5e-33 g * (5e10 s^-1)^2 * (1e-3 cm)^2
    "consistent-trap": PLAIN + "m_eff = 5e-33 g\nomega_eff = 5.0e10 s^-1\n"
                               "U0 = 6.25e-18 erg\nr0 = 1e-3 cm\n",
    "example": EXAMPLE,
    # trap's energy scale: E0 as the default of E_char, or E_char itself, not positive
    "negative-E0": PLAIN.replace("E0 = 2.104 eV", "E0 = -2 eV") + "m_eff = 5e-33 g\n",
    "negative-E_char": PLAIN + "E_char = -2 eV\n",
    # the magnetic-trap frequency that trap echoes, negative
    "negative-omega_at": EXAMPLE + "omega_at = -5 s^-1\n",
    "negative-m_eff": PLAIN.replace("E0 = 2.104 eV", "E0 = 2 eV") + "m_eff = -5e-33 g\n",
    # the particle count as a key, the default of trap --n-particles
    "example-N": EXAMPLE + "N = 1e6\n",
    # energies the eV and kelvin columns cannot hold, once scaled
    "g-1e300-erg": PLAIN.replace("g = 1 meV", "g = 1e300 erg"),
    "E_char-1e300-erg": PLAIN + "m_eff = 5e-33 g\nE_char = 1e300 erg\n",
    # a one-wavelength mode with a tiny coupling: (E0 - E_ph) / g overflows far out
    "tiny-coupling": PLAIN.replace("E0 = 2.104 eV", "E0 = 1e-9 eV")
                          .replace("mode_index = 33940", "mode_index = 1")
                          .replace("g = 1 meV", "g = 1e-20 eV")
                          .replace("d_beam = 2e-4 cm\n", "") + "m_eff = 5e-33 g\n",
    # neither m_eff nor the coupling keys that derive it
    "T-n2-only": "T = 300 K\nn2 = 0.5e8 cm^-2\n",
    # |Delta| / g = 1e9: both branch masses saturate at the 1e-12 denominator
    "saturated-mass": PLAIN.replace("Delta = 0 eV", "Delta = 1 eV")
                           .replace("g = 1 meV", "g = 1e-9 eV"),
    # letter O for the digit 0
    "T-3OO": PLAIN.replace("T = 300 K", "T = 3OO K"),
    # trap's energy scale: neither E_char nor E0, its default
    "no-E0": PLAIN.replace("E0 = 2.104 eV\n", "") + "m_eff = 5e-33 g\n",
    # a beam wider than the lens profile's harmonic region
    "wide-beam": EXAMPLE.replace("d_beam = 2e-4 cm", "d_beam = 2 cm"),
    # m_eff Omega_eff^2 r0^2 / 2 overflows to inf, with no w**2 or r0**2 past the range
    "trap-overflow": "T = 300 K\nm_eff = 1e-30 g\nn2 = 5e7 cm^-2\nomega_eff = 1e150 s^-1\n"
                     "U0 = 1 eV\nr0 = 1e20 cm\n",
    # pi hbar^2 n_s underflows to 0, though T_KT itself is a normal double
    "n2-1e-300": EXAMPLE.replace("n2 = 0.5e8 cm^-2", "n2 = 1e-300 cm^-2"),
    "n_s-1e-300": EXAMPLE + "n_s = 1e-300 cm^-2\n",
    "tau_coh-1e300": EXAMPLE.replace("tau_coh = 1e-8 s", "tau_coh = 1e300 s"),
    # the Delta path without d_beam, whose cavity check would also check mode_index
    "mode_index--3-no-beam": PLAIN.replace("mode_index = 33940", "mode_index = -3")
                                  .replace("d_beam = 2e-4 cm\n", ""),
}

SWEEPS = {
    "T": ["--from", "2", "--to", "2000", "--steps", "41", "--scale", "log"],
    "n2": ["--from", "1e6", "--to", "1e9", "--steps", "31", "--scale", "log"],
    "Delta": ["--from", "-0.004", "--to", "0.004", "--steps", "21"],
    "g": ["--from", "0.0002", "--to", "0.005", "--steps", "13", "--scale", "log"],
    "m_eff": ["--from", "1e-33", "--to", "1e-31", "--steps", "15", "--scale", "log"],
}


def _cases() -> dict:
    cases = {}
    for target in ("thresholds", "masses", "hopfield", "dispersion"):
        for param, grid in SWEEPS.items():
            for config in ("plain", "trap"):
                cases[f"sweep-{target}-{param}-{config}"] = (
                    config, ["sweep", "--param", param, *grid, "--command", target])
    cases.update({
        "sweep-thresholds-T-n3-only": ("n3-only", ["sweep", "--param", "T", *SWEEPS["T"],
                                                   "--command", "thresholds"]),
        "sweep-masses-Delta-n3-only": ("n3-only", ["sweep", "--param", "Delta",
                                                   *SWEEPS["Delta"], "--command", "masses"]),
        "sweep-masses-Delta-si": ("trap", ["sweep", "--param", "Delta", *SWEEPS["Delta"],
                                           "--command", "masses", "--units", "si"]),
        # omega_eff = 0 leaves N2 empty in the first row only
        "sweep-thresholds-omega_eff-through-0": ("trap", [
            "sweep", "--param", "omega_eff", "--from", "0", "--to", "1e11", "--steps", "5",
            "--command", "thresholds"]),
        # keys the ladder reads, swapped into arguments bound at the first value,
        # and tau_coh, which neither the ladder nor the derived mass reads
        "sweep-thresholds-n3-n3-only": ("n3-only", [
            "sweep", "--param", "n3", "--from", "1e9", "--to", "1e13", "--steps", "17",
            "--scale", "log", "--command", "thresholds"]),
        "sweep-thresholds-n_s-plain": ("plain", [
            "sweep", "--param", "n_s", "--from", "1e6", "--to", "1e9", "--steps", "13",
            "--scale", "log", "--command", "thresholds"]),
        "sweep-thresholds-r0-trap": ("trap", [
            "sweep", "--param", "r0", "--from", "1e-4", "--to", "1e-2", "--steps", "5",
            "--scale", "log", "--command", "thresholds"]),
        "sweep-thresholds-tau_coh-plain": ("plain", [
            "sweep", "--param", "tau_coh", "--from", "1e-9", "--to", "1e-7", "--steps", "5",
            "--scale", "log", "--command", "thresholds"]),
        "sweep-masses-Delta-no-density": ("no-density", ["sweep", "--param", "Delta",
                                                        *SWEEPS["Delta"], "--command", "masses"]),
        # printed numbers 263000000002 and 1.052e+12, whose json spelling is
        # not the 12-digit one
        "dispersion-example-json-kmax-1e6": ("example", ["dispersion", "--format", "json",
                                                         "--kmax", "1e6", "--samples", "3"]),
        "hopfield-example-json-kmax-1e6": ("example", ["hopfield", "--format", "json",
                                                       "--kmax", "1e6", "--samples", "3"]),
        "dispersion-100001-csv": ("example", ["dispersion", "--samples", "100001"]),
        # 6147 rows: a block edge of the numtext kernel falls inside a value's table
        "sweep-dispersion-Delta-2049-samples-plain": ("plain", [
            "sweep", "--param", "Delta", "--from", "-0.004", "--to", "0.004", "--steps", "3",
            "--samples", "2049", "--command", "dispersion"]),
        "hopfield-10001-csv": ("example", ["hopfield", "--samples", "10001"]),
        "dispersion-100001-json": ("example", ["dispersion", "--samples", "100001",
                                               "--format", "json"]),
    })
    for command in ("check-coupling", "dispersion", "hopfield", "masses", "thresholds"):
        cases[f"{command}-example"] = ("example", [command])
        cases[f"{command}-example-json"] = ("example", [command, "--format", "json"])
    cases["masses-example-si"] = ("example", ["masses", "--units", "si"])
    cases["trap-example"] = ("example", ["trap", "--target-tc", "300", "--n-particles", "1e6"])
    cases["trap-example-N"] = ("example-N", ["trap", "--target-tc", "300"])
    cases["masses-saturated"] = ("saturated-mass", ["masses"])
    cases["trap-wide-beam"] = ("wide-beam", ["trap", "--target-tc", "300", "--n-particles", "1e6"])
    return cases


CASES = _cases()

# name -> (exit code, sha256 of the output bytes)
DIGESTS = {
    "check-coupling-example": (0, "1947d9c45bb579cdbdb6f643d6f05890c26ae8058633b6709edc42857e954192"),
    "check-coupling-example-json": (0, "289b5e915aa0605b0e9fd4f549a4307ba4987c304f68d05ac345591e941157b2"),
    "dispersion-100001-csv": (0, "9bccd790dff1b75a57bbac1a4c2b31ad66c8e4dc650009e67cde5f9d7ec3fbbe"),
    "dispersion-100001-json": (0, "e7260fccfc1d17a1605eaa72f38965fd42289657ce8a3e6b7b2a77bbf2e43afa"),
    "dispersion-example": (0, "832802bc93882a6fd0f8b36e38feb5b4e6cd2b50f63d115d40ad6c217132ad18"),
    "dispersion-example-json-kmax-1e6": (0, "2b9648777e166870fe58bcfbac4d5464581941109994d07bf249ed4fe8c78a51"),
    "dispersion-example-json": (0, "ec6f198678b868118c9a28124ebe4a6e2fa8c6de2ed19fa9a35b51a4a188fc04"),
    "hopfield-10001-csv": (0, "3d07b5618aebd2bd2891bf38a537d6ebd2a71b2eb12919bf83132c655389698e"),
    "hopfield-example": (0, "76633c7ca0599bdfe02778dbb968a2f0df6a42108a0cd981d4853cc74dd3273f"),
    "hopfield-example-json-kmax-1e6": (0, "559d69f3e1f2dd4aa3e0558928ee0ca2276964d95bae9955c7820fab87b07abe"),
    "hopfield-example-json": (0, "291141eeca94c873ca83d1a1cca84c6bb9cf352f863570d1fa2f6d5b8bf69bab"),
    "masses-example": (0, "31347a1de5cbee081a7f0b25d7b47ed12e212884b069ba4addcd2ad6432b3102"),
    "masses-example-json": (0, "f15c50d8d85ab61cbe7bdfac3cc6dc29357b6f6f5b1c3f67c77f1b2b8af1a2bc"),
    "masses-saturated": (0, "ae83ad11ac809fb8729c44099ffcf09def587e24501fb2de3c34f3edeb1dd6fa"),
    "masses-example-si": (0, "f5165685909a3c44f8f37cd9ed93f68e8e25785c2411539abda3cbc224be0bd5"),
    "sweep-dispersion-Delta-plain": (0, "a94b27be30333b04b9205e95693437863b380fcc21e4d00f039a2794dcfaa96a"),
    "sweep-dispersion-Delta-trap": (0, "3d8f1cf96e78bb99a76599c1a75f8f9fb405bbb1f8dbb9fde7d3cd720041ee6f"),
    "sweep-dispersion-T-plain": (0, "261cd475b7e6ff5a17a9113259333c65c924e8b0a88d7507e6c3220ff402df0a"),
    "sweep-dispersion-T-trap": (0, "402d753dd09067f527c518111c46b5f7fe78291f8d949833cc8583971d933742"),
    "sweep-dispersion-g-plain": (0, "6b1a2c17bea989e0771f9032cd715417f9393b247ca572d3e408319605c57628"),
    "sweep-dispersion-g-trap": (0, "b4b98491b21650b880a99cb0f2596725c48334ef9f3d44b497641cb47c8a4213"),
    "sweep-dispersion-m_eff-plain": (0, "17a598aac40887bf8ce66d549b69fd347fdf5065b90df43f73e7e6b3979648ab"),
    "sweep-dispersion-m_eff-trap": (0, "197df3105f7bf58e7376cad27c0cf52f90bab7b50ad294c6722b1450e03263af"),
    "sweep-dispersion-n2-plain": (0, "665e5087108be7b76551a2ce53210e633e9f47535e330b83226688624c7cc117"),
    "sweep-dispersion-n2-trap": (0, "4fcae61cc919f2c9efdf18c227546966ee3477da803ee4fd6af576edcfe25c58"),
    "sweep-hopfield-Delta-plain": (0, "3783d6dc60db051824206a4232b4028efecdefa74c8bb8ff750976c1cd1b4496"),
    "sweep-hopfield-Delta-trap": (0, "b0d5ab42b08740ac29ee87909f6e4d0b70fc161ea196a92206f57f6f76ef9db8"),
    "sweep-hopfield-T-plain": (0, "1bf0bf3227051ed0b19d2aaa2880a8aed690aadbde00c296e2f5ae05f18b9622"),
    "sweep-hopfield-T-trap": (0, "f76aec948c4cb15d9da33fa93e98beacfba3d7b61379576bee0be3846da04986"),
    "sweep-hopfield-g-plain": (0, "069af047a0f49e081cbc064ab0cf90b66bee13c66c54abf1f5ce6945e15eb004"),
    "sweep-hopfield-g-trap": (0, "e8ee7465041db5f4057e8040c46888baf97a286a508de76a3ba913e5264b7e6f"),
    "sweep-hopfield-m_eff-plain": (0, "a6891226fc2225f9ae7ee5d5d575f0f36b7460e056fdde9553b5c0f273163a50"),
    "sweep-hopfield-m_eff-trap": (0, "d0f2759eb88d51f98356fe2082d045c08dc2ef9e3ce9074767fab3ccb89d8cc5"),
    "sweep-hopfield-n2-plain": (0, "e412dc64e1dce1ff9ff15f7844a5a31626a79b1659e7b44d4aae1b10aafa738f"),
    "sweep-hopfield-n2-trap": (0, "a80af55611541089665364b2cdcebb0677e9c6e47719448dea415b2fe4388e5a"),
    "sweep-masses-Delta-n3-only": (0, "2fe9ca104d9f16396d85c80edd662fab86c9cf747a0451e524ba99d14157a1d8"),
    "sweep-masses-Delta-no-density": (0, "70f64220226c3ae572412d9330b42ee59643e551895f6b5dd840c4374ab0ac74"),
    "sweep-masses-Delta-plain": (0, "cd6ebcc61c816d8dcece563495e6e840de8d8a2de3a361f18250d367ff9a9065"),
    "sweep-masses-Delta-si": (0, "930ef090a3c51e6080e74e1b8d29d6a4c637b2672870f1346f3ed36ff10c56d1"),
    "sweep-masses-Delta-trap": (0, "ff86c3b760a6a037ef33274f69618f2189870c85548ef22f8a53a734ca8a249f"),
    "sweep-masses-T-plain": (0, "4e3011fd0e855872d470b3531e17dd98b875af4079bd6cacc16b19d5cb969d5c"),
    "sweep-masses-T-trap": (0, "1ff9e7bdc6ec45e6f77a50ddc35280e62ac6aa482e0c3b45ee86d2957dede89e"),
    "sweep-masses-g-plain": (0, "9c452cd4db44a86ccbbbb6260c2064fad0fd84e936a2c65b01748ea61dbaa603"),
    "sweep-masses-g-trap": (0, "ab07b3b297b068c8b0bc7b0dc423b89c68339101c27ee00e42b9f466d574c820"),
    "sweep-masses-m_eff-plain": (0, "86e49884cc1c02d986a41d414c7036bbe01534a6bdc0bb24c51205f5bd099ec8"),
    "sweep-masses-m_eff-trap": (0, "3071bc4955b30ed31061f42fcda313134b4cc79b35d617df7ef1d34fbd5883c9"),
    "sweep-masses-n2-plain": (0, "ff1855b18128c5ed56982818b2ed460b25e9a723ae246ee94417b257bfa41054"),
    "sweep-masses-n2-trap": (0, "28e3f9bd72aff52d0dd99fe7c4d16b3c63ad1d67536299c5dd46ab0862d5a2ee"),
    "sweep-thresholds-Delta-plain": (0, "d0ddefbb09512d25235c228534049b03a95b294cae1f70fac9c87bbc4b6b7658"),
    "sweep-thresholds-Delta-trap": (0, "d5e76a57f225ac4a14294a91bb205ebd25dc179f114893a2ed44139e9dfb9072"),
    "sweep-thresholds-T-n3-only": (0, "eaa9b11dd7c00df9c117973bb51f14f85aa48cc41003a8fea7c97d413d4892bb"),
    "sweep-thresholds-T-plain": (0, "e6c1fbfc8d78c9e47e9c66279af2a44285983eeca7a95a72a5556c531017829f"),
    "sweep-thresholds-T-trap": (0, "a943819a9234055865d10445d7f725e7be6233bd0c94f53542938ddab60bf75c"),
    "sweep-thresholds-g-plain": (0, "0269fea3240386980e2996ffb00b4c7e8bd26fb53b19a3c828fac39c3eb47409"),
    "sweep-thresholds-g-trap": (0, "06ed47f6f91af969fc2ec0bfe20ffcf6c810562a0104296b93100559c4451fe9"),
    "sweep-thresholds-m_eff-plain": (0, "9546ebf6e367ed54bc7235657648e365a056697065887f4731bfc77c3cca4b25"),
    "sweep-thresholds-m_eff-trap": (0, "2eef6912a10c8067ea956e22d2f1e2a2f0ed3aa656d58229b929d92e5d1edeb7"),
    "sweep-thresholds-n2-plain": (0, "852af42c742d0b10b119ed7645057bafa653717853a81b06769f5dc6951b896c"),
    "sweep-thresholds-n2-trap": (0, "640dcbe7971c85b79aa1e452ff6a21aeaa33ad07aa582a4bee700752d0361f58"),
    "sweep-thresholds-n3-n3-only": (0, "f70d31cffaacc12703369f1671713aa57b01b8665e970f6fafcca6a71a6780b3"),
    "sweep-thresholds-n_s-plain": (0, "3ab7417da14e4f40cfcf59af85b4b92371fcbd6503097c2e8d01e28e8fdca514"),
    "sweep-thresholds-omega_eff-through-0": (0, "327754e791a713e14c13b77f38e9cb414f3d96b2f6ced96bf636184db6c59a8b"),
    "sweep-thresholds-r0-trap": (0, "cc777efec5b94286eb41020e731b576e93cc2bf93f5148bc3842ae6254968276"),
    "sweep-thresholds-tau_coh-plain": (0, "ab680a67052f9a87a459a12ebf048ecc4c4c75d72c990573cd74ec52fb1ba636"),
    "sweep-dispersion-Delta-2049-samples-plain": (0, "ffd4a7f2066529f18fd58f7feddc925de66e0e30fc6a54bd55757009c5c34f2e"),
    "thresholds-example": (0, "7a96aebb4276765616406eb9e1d801af6fc6fda5bdfd4a10a2c9c89dac160a7d"),
    "thresholds-example-json": (0, "820e7f7eabcf4091354e3eebd580bd21065d676148512dcc698ef4a8083879ce"),
    "trap-example": (0, "d44d065c07f49a590670273ad900dad60eed79ff0f6c9a23524bdf544e882771"),
    # the warning goes to stderr; the design's bytes are those of trap-example
    "trap-wide-beam": (0, "d44d065c07f49a590670273ad900dad60eed79ff0f6c9a23524bdf544e882771"),
    # N = 1e6 in the config gives the bytes of --n-particles 1e6
    "trap-example-N": (0, "d44d065c07f49a590670273ad900dad60eed79ff0f6c9a23524bdf544e882771"),
}


def run(tmp_path, config: str, argv: list[str]) -> tuple[int, bytes]:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIGS[config])
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
    return code, out.read_bytes() if out.exists() else b""


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_recorded_digest(tmp_path, name):
    code, data = run(tmp_path, *CASES[name])
    assert (code, hashlib.sha256(data).hexdigest()) == DIGESTS[name]


KMAX_OVERFLOW = ("kmax = %s puts the grid edge kmax * k_perp out of range: "
                 "the photon energy there overflows")

# name -> (config, command line, exact stderr); every one exits 1 and writes
# nothing.  Negative exponent literals take '--to=' form, because argparse reads
# '-1e7' as an option.
ERRORS = {
    "masses-Delta-past-E0": (
        "plain", "sweep --param Delta --from 0 --to 4 --steps 3 --command masses",
        'polbec: error: detuning leaves no positive mode energy\n'),
    "masses-L_cav-through-0": (
        "geometry", "sweep --param L_cav --from 1 --to -1 --steps 3 --command masses",
        'polbec: error: float division by zero\n'),
    "masses-L_cav-to-0": (
        "geometry", "sweep --param L_cav --from 1 --to 0 --steps 3 --command masses",
        'polbec: error: float division by zero\n'),
    "masses-d_beam-through-0": (
        "plain", "sweep --param d_beam --from 1e-4 --to=-1e-4 --steps 3 --command masses",
        'polbec: error: beam_diameter must be strictly positive, got 0.0\n'),
    "masses-g-through-0": (
        "trap", "sweep --param g --from -0.001 --to 0.001 --steps 3 --command masses",
        'polbec: error: g must be strictly positive, got -1.602176634e-15\n'),
    "masses-mode_index-non-integer": (
        "plain", "sweep --param mode_index --from 1 --to 2 --steps 3 --command masses",
        "polbec: config error: sweep over 'mode_index' produced non-integer 1.5\n"),
    "masses-mode_index-through-0": (
        "plain", "sweep --param mode_index --from 1 --to -1 --steps 3 --command masses",
        'polbec: error: mode_index must be an integer >= 1, got 0\n'),
    "masses-n2-through-0": (
        "plain", "sweep --param n2 --from=-1e7 --to 1e7 --steps 3 --command masses",
        'polbec: error: n_s and mass must be positive\n'),
    "thresholds-E0-through-0": (
        "plain", "sweep --param E0 --from 2 --to -2 --steps 3 --command thresholds",
        'polbec: error: detuning leaves no positive mode energy\n'),
    "thresholds-L_cav-with-Delta": (
        "plain", "sweep --param L_cav --from 1 --to 2 --steps 3 --command thresholds",
        "polbec: config error: give either 'L_cav' or 'Delta', not both\n"),
    "thresholds-T-through-0": (
        "plain", "sweep --param T --from -1 --to 1 --steps 3 --command thresholds",
        'polbec: error: temperature must be positive\n'),
    "thresholds-T-to-0": (
        "trap", "sweep --param T --from 1 --to 0 --steps 3 --command thresholds",
        'polbec: error: temperature must be positive\n'),
    "thresholds-g-through-0": (
        "plain", "sweep --param g --from 0.001 --to -0.001 --steps 3 --command thresholds",
        'polbec: error: g must be strictly positive, got 0.0\n'),
    # the first value passes; the second fails once the arguments are bound
    "thresholds-r0-leaves-consistent-trap": (
        "consistent-trap", "sweep --param r0 --from 1e-3 --to 2e-3 --steps 3 --command thresholds",
        "polbec: error: inconsistent trap: U0 = 6.25e-18 erg but "
        "m_eff*Omega_eff^2*r0^2/2 = 1.40625e-17 erg\n"),
    # the mass is derived per value, and the second value fails the cavity check
    "thresholds-d_beam-through-0": (
        "plain", "sweep --param d_beam --from 1e-4 --to=-1e-4 --steps 3 --command thresholds",
        'polbec: error: beam_diameter must be strictly positive, got 0.0\n'),
    "thresholds-inconsistent-trap": (
        "inconsistent-trap", "sweep --param T --from 1 --to 2 --steps 3 --command thresholds",
        "polbec: error: inconsistent trap: U0 = 1.60218e-15 erg but "
        "m_eff*Omega_eff^2*r0^2/2 = 9.3768e-18 erg\n"),
    "thresholds-m_eff-through-0": (
        "plain", "sweep --param m_eff --from=-1e-33 --to 1e-33 --steps 3 --command thresholds",
        'polbec: error: m_eff must be positive\n'),
    "thresholds-mode_index-through-0-geometry": (
        "geometry", "sweep --param mode_index --from 1 --to -1 --steps 3 --command thresholds",
        'polbec: error: mode_index must be an integer >= 1, got 0\n'),
    "thresholds-n2-through-0": (
        "plain", "sweep --param n2 --from 1e7 --to=-1e7 --steps 3 --command thresholds",
        'polbec: error: n2 must be positive\n'),
    "thresholds-n3-through-0": (
        "n3-only", "sweep --param n3 --from 1e11 --to=-1e11 --steps 3 --command thresholds",
        'polbec: error: n3 must be positive\n'),
    "thresholds-n_s-through-0": (
        "n3-only", "sweep --param n_s --from 1e7 --to=-1e7 --steps 3 --command thresholds",
        'polbec: error: n_s and mass must be positive\n'),
    "thresholds-omega_eff-through-0": (
        "trap", "sweep --param omega_eff --from 1e10 --to=-1e10 --steps 3 --command thresholds",
        'polbec: error: omega_eff must be non-negative\n'),
    # recorded with the check that names the key; before it, both exited 1 with
    # the lens core's "omega_eff must be >= 0; m_eff and energy_scale positive"
    "trap-E0-negative": (
        "negative-E0", "trap --target-tc 300 --n-particles 1e6",
        "polbec: config error: key 'E0' (the default of 'E_char') must be positive, got -2 eV\n"),
    "trap-E_char-negative": (
        "negative-E_char", "trap --target-tc 300 --n-particles 1e6",
        "polbec: config error: key 'E_char' must be positive, got -2 eV\n"),
    "trap-omega_at-negative": (
        "negative-omega_at", "trap --target-tc 300 --n-particles 1e6",
        "polbec: config error: key 'omega_at' must be non-negative, got -5 s^-1\n"),
    # recorded once the lens core checked each argument on its own; before,
    # it said "omega_eff must be >= 0; m_eff and energy_scale positive"
    "trap-m_eff-negative": (
        "negative-m_eff", "trap --target-tc 300 --n-particles 1e6",
        "polbec: error: m_eff must be positive\n"),
    # recorded with the grid-edge check; before it, numpy warned and the run
    # failed on "k_par grid must be strictly increasing", or blamed 'g'
    "dispersion-kmax-inf": (
        "example", "dispersion --kmax inf",
        f"polbec: error: {KMAX_OVERFLOW % 'inf'}\n"),
    "hopfield-kmax-1e308": (
        "example", "hopfield --kmax 1e308",
        f"polbec: error: {KMAX_OVERFLOW % '1e+308'}\n"),
    "hopfield-kmax-1e300-3-samples": (
        "example", "hopfield --samples 3 --kmax 1e300",
        f"polbec: error: {KMAX_OVERFLOW % '1e+300'}\n"),
    # a grid no 64-bit address space holds, so the allocation fails at once;
    # before, the run ended in numpy's _ArrayMemoryError traceback
    "dispersion-samples-1e17": (
        "example", "dispersion --samples 100000000000000000",
        "polbec: error: --samples 100000000000000000: "
        "the k_par grid does not fit in memory\n"),
    # past 2^59 samples numpy cannot size the grid and raised a ValueError that
    # named no flag ("Maximum allowed size exceeded", or "array is too big")
    "dispersion-samples-2^60": (
        "example", "dispersion --samples 1152921504606846976",
        "polbec: error: --samples 1152921504606846976: "
        "the k_par grid does not fit in memory\n"),
    "dispersion-samples-1e20": (
        "example", "dispersion --samples 100000000000000000000",
        "polbec: error: --samples 100000000000000000000: "
        "the k_par grid does not fit in memory\n"),
    # recorded with the checks of the scaled values; before them, each printed
    # inf (or json's Infinity) with exit 0
    "hopfield-delta-over-g-overflows": (
        "tiny-coupling", "hopfield --samples 3 --kmax 1e150",
        "polbec: error: (E0 - E_ph) / g leaves the float range on the grid for "
        "--kmax 1e+150, 'g' = 1e-20 eV\n"),
    "masses-g-1e300-erg": (
        "g-1e300-erg", "masses",
        "polbec: error: T_eff = g / kB leaves the float range for 'g' = 1e+300 erg\n"),
    "trap-E_char-1e300-erg": (
        "E_char-1e300-erg", "trap --target-tc 300 --n-particles 1e6",
        "polbec: error: E_char in eV leaves the float range for 'E_char' = 1e+300 erg\n"),
    # recorded with the check of the threshold; before it, nan and inf read as
    # weak (exit 2, and json's invalid NaN for nan), 0 and -1 always as strong
    "check-coupling-threshold-nan": (
        "example", "check-coupling --threshold nan",
        "polbec: error: threshold must be positive and finite, got nan\n"),
    "check-coupling-threshold-inf-json": (
        "example", "check-coupling --threshold inf --format json",
        "polbec: error: threshold must be positive and finite, got inf\n"),
    "check-coupling-threshold-0": (
        "example", "check-coupling --threshold 0",
        "polbec: error: threshold must be positive and finite, got 0.0\n"),
    "check-coupling-threshold--1-json": (
        "example", "check-coupling --threshold=-1 --format json",
        "polbec: error: threshold must be positive and finite, got -1.0\n"),
    "thresholds-no-mass-keys": (
        "T-n2-only", "thresholds",
        "polbec: config error: missing required key 'm_eff' (or the coupling keys "
        "E0, g, mode_index and L_cav|Delta to derive it)\n"),
    "thresholds-T-unparsable": (
        "T-3OO", "thresholds",
        "polbec: config error: key 'T': cannot parse number from '3OO'\n"),
    "trap-no-E_char-or-E0": (
        "no-E0", "trap --target-tc 300 --n-particles 1e6",
        "polbec: config error: missing required key 'E_char' (or 'E0' as its default)\n"),
    # recorded with the check of an expected U0 that is not finite; before it,
    # thresholds took inf as consistent with any U0 and printed a row, exit 0
    "thresholds-trap-consistency-overflows": (
        "trap-overflow", "thresholds",
        "polbec: error: trap consistency: m_eff*Omega_eff^2*r0^2/2 overflows for "
        "'omega_eff' = 1e+150 s^-1, 'r0' = 1e+20 cm\n"),
    # recorded with the check of a T_KT that underflows to 0; before it, both
    # printed T_KT as 0 with exit 0
    "masses-T_KT-underflows": (
        "n2-1e-300", "masses",
        "polbec: error: T_KT = pi hbar^2 n_s / (2 m kB) underflows to 0 for "
        "'n_s' = 1e-300 cm^-2, 'm' = 7.50144e-33 g\n"),
    "thresholds-T_KT-underflows": (
        "n_s-1e-300", "thresholds",
        "polbec: error: T_KT = pi hbar^2 n_s / (2 m kB) underflows to 0 for "
        "'n_s' = 1e-300 cm^-2, 'm_eff' = 5e-33 g\n"),
    "check-coupling-ratio-overflows": (
        "tau_coh-1e300", "check-coupling",
        "polbec: error: ratio = omega_c * 2 tau_coh leaves the float range for 'd' = 1 D, "
        "'n3' = 3.5e+11 cm^-3, 'E0' = 2.104 eV, 'tau_coh' = 1e+300 s\n"),
    # recorded with the mode_index check of the Delta path; before it, both
    # printed a table with exit 0
    "thresholds-mode_index--3-no-beam": (
        "mode_index--3-no-beam", "thresholds",
        "polbec: error: mode_index must be an integer >= 1, got -3\n"),
    "masses-mode_index-through-0-no-beam": (
        "mode_index--3-no-beam",
        "sweep --param mode_index --from 1 --to -1 --steps 3 --command masses",
        "polbec: error: mode_index must be an integer >= 1, got 0\n"),
}
# the curve targets: the same failures on their path, recorded from the sweep
# that rebuilt a RunConfig per value (the kmax case after the grid-edge check)
for _target in ("dispersion", "hopfield"):
    ERRORS.update({
        f"{_target}-Delta-kmax-inf": (
            "plain", f"sweep --param Delta --from -0.001 --to 0.001 --steps 3 --kmax inf "
                     f"--command {_target}",
            f"polbec: error: {KMAX_OVERFLOW % 'inf'}\n"),
        f"{_target}-g-through-0": (
            "plain", f"sweep --param g --from 0.001 --to -0.001 --steps 3 --command {_target}",
            'polbec: error: g must be strictly positive, got 0.0\n'),
        f"{_target}-d_beam-through-0": (
            "plain", f"sweep --param d_beam --from 1e-4 --to=-1e-4 --steps 3 --command {_target}",
            'polbec: error: beam_diameter must be strictly positive, got 0.0\n'),
        f"{_target}-E0-through-0": (
            "plain", f"sweep --param E0 --from 2 --to -2 --steps 3 --command {_target}",
            'polbec: error: detuning leaves no positive mode energy\n'),
        f"{_target}-mode_index-non-integer": (
            "plain", f"sweep --param mode_index --from 1 --to 2 --steps 3 --command {_target}",
            "polbec: config error: sweep over 'mode_index' produced non-integer 1.5\n"),
    })


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_sweep_error_parity(tmp_path, capsys, name):
    config, argv, err = ERRORS[name]
    code, data = run(tmp_path, config, argv.split())
    assert code == 1
    assert data == b""
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("name", ["dispersion-samples-2^60", "hopfield-delta-over-g-overflows",
                                  "dispersion-g-through-0"])
def test_failing_curve_creates_no_file(tmp_path, name):
    # every error comes before the output file is opened, so none is left behind,
    # not even an empty one
    config, argv, _ = ERRORS[name]
    assert run(tmp_path, config, argv.split())[0] == 1
    assert not (tmp_path / "out").exists()


def test_wide_beam_trap_warns_on_stderr(tmp_path, capsys):
    # the design is still written, with exit 0 (its bytes are pinned as trap-wide-beam)
    code, data = run(tmp_path, *CASES["trap-wide-beam"])
    assert code == 0 and data
    assert capsys.readouterr().err == (
        "warning: beam diameter exceeds the harmonic region of the lens profile\n")
