"""The trace reads that replaced numpy, pinned to what numpy computed.

Window signatures, the plans clustered from them and the warm spans all
read the trace's typed arrays in pure Python: ``Counter``, ``map``,
``bytes.translate`` masks and :func:`itertools.compress`.  Each used to
have a numpy twin, so nothing is left to compare against at run time;
instead the signatures and plans are pinned as sha256 digests recorded
while numpy still computed them, and the warm spans are held to the
per-record walks of :mod:`tests.reference_warm`.
"""

import functools
import hashlib
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import ProcessorConfig
from repro.core.pipeline import Pipeline
from repro.sampling.regions import DEFAULT_MEASURE
from repro.sampling.signature import cluster_windows, window_signature
from repro.trace import capture_trace
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile, spec2006_profiles
from tests import reference_warm

SKIP = 2000
SPANS = (16000, 60000)

#: Per ``"<program>-<span>"``: the sha256 of every window signature of
#: the span (``DEFAULT_MEASURE``-record windows from record ``SKIP`` on),
#: items in order, and of ``cluster_windows`` over them for k = 3 and 16.
PINNED_PLANS = {
    "GemsFDTD-16000": (
        "1d71a88f8a95ffbaf73c64e91631aea8ebe089f32bfa05f46dcf11f42453ae56",
        "31754ad7235162908271476a174820680fdd4813d32c125c45a5da97283d9452"),
    "GemsFDTD-60000": (
        "23cc3aa00a22d412a766c74735fbe45cd43e1f7015f150509b701ac464aab88b",
        "c109df4312ce0867841753cd0f77e14820ecb3fb2ff9090fac37ee7936d2d308"),
    "astar-16000": (
        "a53f3c3e8393ab2636e54698ca5f2db4fcc0a97f84ef15931b113461ac415b49",
        "7fbdb87c9e180481b06b89a66e02383a95a1b4401c8cadef8754196609d09b29"),
    "astar-60000": (
        "5113028060760dae87df9f824da22a9b56c28fb2a36a3ff7efb5b20c9473bc8b",
        "52beac9494a54105066ca75ee59a8aad0b29e98284886e666e1138a30e8cfce6"),
    "bwaves-16000": (
        "031a1e6dffa844a5fae604ee0d9ca536a2147f25691db1337b23b6efed6c7eda",
        "3619310c9e5720aea566c7d889e8010418d4cffb4efdfe5ff772854d0317d5ff"),
    "bwaves-60000": (
        "f1e2a3775812bdf15468167c1d2983aa4f11c2f5bbd7604d1493e596314c09dc",
        "96cca2d80544a792574bdf86ee41c23d2e47a4e72b3a6ace58b51051d333c093"),
    "bzip2-16000": (
        "f410762d69024df0a5cf3b5956cb6536395dff8ec2688197bc81cff09180e365",
        "3a009b312f12fa1b1c8de305cd72b029fef30cd1f38a55cb4b0e6a850775c8f9"),
    "bzip2-60000": (
        "0bf9a7fb70062d7b70be8c5be340260ac6ac1e00a6f02859432193562ebb0f3f",
        "0910586839079915bfcd2c01b50ccb8b79b6498baa0f7f7534bd2e7b0cf7f722"),
    "cactusADM-16000": (
        "43ca0814903b885ad13cb784afa4fe7e83214182ef3ac7bcf5d385085315b02a",
        "5f8ae8f9e51f76d2e4c67834a19718048a30b525c651dbdcffba00cdbd49c555"),
    "cactusADM-60000": (
        "14e6ba38fdc376b21ef88b6d74e69f94f05f8f031d5faa7d90d5952f1ddb99ee",
        "49e77f23f60d6a499dcbe4e84dd68eebef6bbe093253b64e1cb01d99439e6940"),
    "calculix-16000": (
        "08d8e14e7306f199c53dbfc1bc98d60d2317bd44effad614166d1d4ed1fde4f1",
        "e9d8202fa22ae49bdc87f6a0690f0b4beb30a97ac7a22cefeae5947baaf0bad5"),
    "calculix-60000": (
        "66030e03434fbfa82a39a4fa419dccf4f3d054c84d2fd5a6f0875695d16635a8",
        "66f74662bc5ff282e7ec78cb271ae19e4c98457deb9e7ed95539cdcab6c096b1"),
    "dealII-16000": (
        "c6f3d1081ddd2863bd09d178e217615fa5a7391a54b684fb434fc778db1be346",
        "f08f88abded1e9f3674b1104a87e95717a47308e86350cf14c4f4b883124555a"),
    "dealII-60000": (
        "a153eb953fda5cb48965930a9b081c0e60052b81cd36bbda3b112f580fb7b0a2",
        "fd617eaba1342ed4166eb3d0c48696365eb2899a705eaf03940ac45731a3b889"),
    "gamess-16000": (
        "99a3db69420bac742d71b7b4b53bdfed0cac141e9b870146ba761f2e94a9f923",
        "ce456cf76510fcb63c98abae54340e51209b5c8315a17912d2143671e256e63d"),
    "gamess-60000": (
        "023b9d34958e16c8800730d5c34f10e109492366fa1ef98cfe672a866c7dff44",
        "e3f2c5a49c60c8de1b7c4a0b3fe67c86057356e7ae7eb0d3a4a2668495d4011a"),
    "gcc-16000": (
        "e1338f95c936ffdd3151c427a06718059152d3ef68cc2678216cb1cb4b4370d8",
        "0c8b8cb4f1bcb283af60e7d7cef139307f88b5236a30c9083763e1c5f4ae643a"),
    "gcc-60000": (
        "f7ec76e7e1911a6d5986c6d4eed5f69bf270048dca420ec0c502361919fa3507",
        "f8a3298ab2941ea366170548c7129bc3f4890ba89ce6432ce70639a2fc72ead6"),
    "gobmk-16000": (
        "a5076e8c46b9dbeb8c3a7f2d3c84d04a5d657e692f275f24b39306c26a423e3d",
        "8150d223090421f38a9c0aaac3d650c65e3e86451246ece4536a14f1b4e6152b"),
    "gobmk-60000": (
        "542db1606a225847a40c7706740990a9a158b29558493b45391818e218abbbfd",
        "bd7ef645edaad3eed1238517ade81f5a50b7b8361307e554429ec27cf1bea8a9"),
    "gromacs-16000": (
        "06516d99244e8f4e1bebc5c574bc22213845c661dec3a63e0dd6a152e86c9af6",
        "4c14101a12faf627e08e44f6e755049aed5bfd3ba6882d9409fc6b0f9e59469f"),
    "gromacs-60000": (
        "809c0744593e5b850de330486ff46788c89e2d55c678e2162b29dfaa11c7f52d",
        "eb2c8f277b793a0cfd0285b6adcdfc203303798b3e7b9c6ea529b2363c654b76"),
    "h264ref-16000": (
        "bd3de52039b6e1451a01d15d96d3c97e7585efd5102d9be6751070a8cf239af3",
        "c83759dca7e190eabcfe22353eb1acbcd7ebe425e4ea2cee97663f316493cc69"),
    "h264ref-60000": (
        "4304ea9b386abe5c0123e0bed33050f42cdc8b9c7d7adefc14f4190813a32dca",
        "f14472b1f9fd7e3620d73bdaac8c6289b6433e50f697f602b6b3a167f359d8e8"),
    "hmmer-16000": (
        "62dcace68f2ce1c647cf7805701b13e865a9a260f24ae43c64e228bde530d82e",
        "45c170aa3ff27cdfbba6770dd1eefc945556c80a714afe6afa686498857d7656"),
    "hmmer-60000": (
        "b902a65cbc871f52f5d8b09025a3dbbaa2aa85d2008d5a613747e6acd931df1b",
        "8b825e925e48ff80fa6c1f49e9f7da9cfc9585bc6d18b8a36693cb557f67986e"),
    "lbm-16000": (
        "07fdff417329b00c67b453047754ecf15b331be4ce7a1fe65f8b952a6a4b0a3b",
        "9b0aa0a939804467f09dcda226e2a7dee8e5a3280a72a77d1c958f010fe67f4a"),
    "lbm-60000": (
        "190827230b6b07e2231ff0576b3c48408a4b514d893e0026574068d953015981",
        "608e951c08ec1e510a94a4867bd5fff5ce07a422e10dda5919626f0b50f6f5c1"),
    "leslie3d-16000": (
        "7ba580ff6454ace0469da20e294d5057f7afd7d135c61a00c38b10da71b3f941",
        "1c17b15539057c26b8ab407de489add66b5e2c01013a16ad6dc78b6270ff6c4c"),
    "leslie3d-60000": (
        "6a5d757c62f620dd8c757824cf10f21c58a0c69a25a8060b84d3b2b9cca0c0cc",
        "3f61315c3ec03da2360fa7fd6e8f67e3b7eb2d4c746aa88e5a13f525f3daaa11"),
    "libquantum-16000": (
        "c3215f970ac5720ed1dc59c2f06ccb3384d120e53f3cfd8078d2e994aebaab2a",
        "15a1529af9393c63eb98b74a03b351fcaf87097d9c0e67d1f4485548d23d5c49"),
    "libquantum-60000": (
        "77693e60f8863fc3a8d11a3f9229ca0a0fa850933c7f0cad3b55455cacc87096",
        "12dbdbb3e1047e81cd86139958d0eedfc8f37b5f61fadf934deec347533c0d23"),
    "mcf-16000": (
        "efced2436d368f247e6f71ce69646f1ff49b99df61ec10886fef5798798dc6ad",
        "edb3a7f879b0ff0bb54942fb9c3fbf193bf6292814f6d4642c35224cda893fa4"),
    "mcf-60000": (
        "fd12f12b6ebda331a7cc80db93467ef5fa8a74a09fdebbe7b24eba891edc09a7",
        "ed8f0809ac5f754e903452a21e9dbef8cc28a53770585f89cf9ded8a00607f23"),
    "milc-16000": (
        "11407cb994dc5f65a3bc47a813571c456a286cc09ef1bde33a41e3a52a0be45b",
        "9ed47d0e578a130ca3c45e66d9422b301792dfce0fd1d643508319ff8898baf4"),
    "milc-60000": (
        "e0fc609f4f651f06fe7106973983cd7551938c75e895005699f47f59bd692908",
        "6d329110f6534d9844f1d0d61cf8b36961e54dac3307d238e63af4c4e4eb0e7a"),
    "namd-16000": (
        "1eb0ff4be65ed6f2e7c92655e1a2eadc6170bb6cd5a2cde1d70ca12ba1d75245",
        "0c2d9099b35518089c574da614dc94ae1210feed1c2c92f41c333e9cad005cf9"),
    "namd-60000": (
        "b4090b5e885f2b1cda051a3c83d6ee71d9276d00ba16f7ab628eda166f2a048f",
        "f95674333c30a660ebd4ef87a047cea3ef55eb59bdffe8e19c50509798b20349"),
    "omnetpp-16000": (
        "baf024c6d946f843a23c72be5973f0a9853ee5cbb0f1f5645134aa6039611fc7",
        "475726f32a0ca268bf91bcc2792c52693e6a469430bba862a5f4969f5ad2c1a9"),
    "omnetpp-60000": (
        "20ab52d53e44e80bf610d8d36fee93c045d3287f844a1f12472a8a9dbc39bdf2",
        "3ab147c8cea8f0c86be6e9c408ccdd06101b1b91fcf74667c183bdee51ead073"),
    "perlbench-16000": (
        "23eabd40c92f0f4437cf235674217263b1a906db6e49cf6342abb077bcbda7df",
        "9ae7404fec1df5e8b9ce52b00b5d88f0dd700c1d28cb054f2ecc4073e0c71c28"),
    "perlbench-60000": (
        "a873a07b11bd6a4b790068d734c6d2a9cd4f5313bdff8575d1f397e3bba59888",
        "be71bc42fd9081e7024dc2478de8d011f6f0249a35637f5e1e57d3ca53d636ae"),
    "povray-16000": (
        "d00d6f72c6188526fa57f6dbcc4781fb3b7aba77289db7507da6b63e6f7e9dda",
        "5751a643607568d750dd11da08f2a67b3de7697d2724342c0644fe0c4f79f914"),
    "povray-60000": (
        "ef1f498bc7c704de1290658363b76c59894401426b678f8e361e95ddad50984b",
        "558695c39561938131682afedd89d23de3e539f8b3280532b51fcf7746877ff7"),
    "sjeng-16000": (
        "a6cfc26b845ae4fb7bfa452f0876c1daf7e1240dbf0656eb75052a81dc60a9d1",
        "d5578c5357019e2aeb73b094e92419a18f8d665624a8cae075f20a77b7d021be"),
    "sjeng-60000": (
        "b007a84a26121da6653eb4ee149cec57fc86d60179656856e3332d1e8e19c600",
        "75b133a9158d8340326eca94dff9c5590c66fd9edf10cde009c0b66d2a616927"),
    "soplex-16000": (
        "a184612e73474fa9728f650a084b6dac8db4a1f9dea5bdceb029fc9d9685e64b",
        "1315d4711e73f4f4683b3556a54d1478c078f0f35749d107d88e10c9d4eb29ee"),
    "soplex-60000": (
        "503e47e49f754faa1f12879f10ab7fa7c7025d83908440dbb1ef5b4799d7bcc5",
        "8a18c98920dd799f814a71ce43068afb68c4f979b14abed88bc71373f62519fb"),
    "sphinx3-16000": (
        "f606c04ce931b9537baaf1cb321e8b1296b8a3ee78bc1f9f18864ae6a80a8925",
        "de77631a0b6679baca8aa48de9e8d71f52c6bdbdcde660850b3ac2e8c2bbf595"),
    "sphinx3-60000": (
        "68336ecbd4c5bd061d18472f3e96bfbc2e5baa4d26146941949bd924cd92d4a6",
        "b62e2e141de2f04c9020bba4bb68685d797e94abe5d2d8b1091ed1ae40628135"),
    "tonto-16000": (
        "a7441b20abd5d24df6e2d0ba3efbeaa05f4c9f96c26f9b3d2afd3fad15258b74",
        "016b06a873b99a0864fdf61f835209d9d556e2584c943a94ea8dae634c00ce15"),
    "tonto-60000": (
        "1dd29e49ee30b6ce134f8950027b1b6a168e2f53aa1f9e2a92a940a8d927ce74",
        "fee4226262879655fc6ad95b86382403eb54678f4b9030a0115b288ce7210a35"),
    "xalancbmk-16000": (
        "3533fcad53184c3a6a1e87a8753d77a5f5e53d9116084e788ba61a78a54b283e",
        "ee936072f3ab76c66f0988e0cde23e76de7dbe685c47375b5018d06b4ef77689"),
    "xalancbmk-60000": (
        "5ef33db868bbbf61a21e8be8db17a33e951a2a596530551bd8b4d7bf5b658264",
        "b75e7d000989f893f139b9c309fd739732aaa021c21a3fdf8972e817cb05f221"),
    "zeusmp-16000": (
        "429ccf43cd41498e27d43136c880de5c0c990c3d5169605cee0465c334a1e8df",
        "0f960ee174ecbb37be04cba3c84c5147213ceb19cabc12deb592db9d6f54ef00"),
    "zeusmp-60000": (
        "3dddc6f9a260121fb889e589459d2f8d72b02c3be9ee5b6fc7b7b9b5f2987636",
        "5dcc5aa950b3eb586885abfa79aeec365f1b483360a3ed0a99c307eb23c3d90f")
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(spec2006_profiles()))
def test_signatures_and_plans_match_the_numpy_pins(name):
    profile = get_profile(name)
    trace = capture_trace(build_program(profile), profile.mem_seed,
                          SKIP + max(SPANS))
    for span in SPANS:
        signatures = [window_signature(trace, SKIP + i * DEFAULT_MEASURE,
                                       DEFAULT_MEASURE)
                      for i in range(span // DEFAULT_MEASURE)]
        assert (_digest([list(s.items()) for s in signatures]),
                _digest([cluster_windows(signatures, k) for k in (3, 16)])
                ) == PINNED_PLANS[f"{name}-{span}"]


# ----------------------------------------------------------------------
# Warm spans against the per-record walks
# ----------------------------------------------------------------------

RECORDS = 4096
BASE = ProcessorConfig.cortex_a72_like()


@functools.lru_cache(maxsize=None)
def _trace(workload):
    profile = get_profile(workload)
    program = build_program(profile)
    return program, capture_trace(program, profile.mem_seed, RECORDS)


def _state(pipeline):
    return (pickle.dumps((pipeline.hierarchy, pipeline.predictor,
                          pipeline.btb, pipeline.slice_tracker)),
            pipeline._last_ifetch_line)


#: A span's length: empty, one record, or up to a few hundred.
_lengths = st.one_of(st.just(0), st.just(1), st.integers(2, 700))


@given(workload=st.sampled_from(["sjeng", "mcf", "gcc", "libquantum"]),
       pubs=st.booleans(),
       mark=st.sampled_from(["none", "first-line", "other-line"]),
       spans=st.lists(st.tuples(st.integers(0, RECORDS - 1), _lengths),
                      min_size=1, max_size=4))
def test_warm_spans_match_the_per_record_walks(workload, pubs, mark, spans):
    """Random spans, carrying the I-line mark from span to span: the
    hierarchy, predictor, BTB, slice tracker and mark equal the
    reference's after every span."""
    program, trace = _trace(workload)
    config = BASE.with_pubs() if pubs else BASE
    fast, ref = (Pipeline(program, config) for _ in range(2))
    first_line = trace.pcs[spans[0][0]] >> 6
    for pipeline in (fast, ref):
        # The mark a previous span left: none, the first record's own
        # line (its fetch is deduplicated) or some other line.
        pipeline._last_ifetch_line = {"none": -1, "first-line": first_line,
                                      "other-line": first_line + 1}[mark]
    for start, length in spans:
        end = min(start + length, RECORDS)
        fast._warm_mem_span(trace, start, end)
        fast._warm_front_span(trace, start, end)
        reference_warm.warm_mem_span(ref, trace, start, end)
        reference_warm.warm_front_span(ref, trace, start, end)
        assert _state(fast) == _state(ref)
