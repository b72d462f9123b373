// Golden regression: the legacy (full-vector) Graphine annealer must keep
// producing byte-for-byte the placements it produced before the delta-cost
// hot path landed — that is what lets a pre-existing warm cache replay with
// zero new anneals. Each golden is the Digest128 of the placed Topology for
// a Table III benchmark under the default sweep seed derivation
// (derive_seed(master, circuit, kPlacementSeedSalt), master 0xA77AC5).
//
// If one of these fails, the legacy anneal arithmetic changed: either revert
// the change or accept a cache-breaking release and re-record the digests
// (and say so loudly in the changelog — every cached placement invalidates).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_circuits/registry.hpp"
#include "cache/cache.hpp"
#include "cache/fingerprint.hpp"
#include "cache/serialize.hpp"
#include "circuit/interaction_graph.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "parallax/scheduler.hpp"
#include "pipeline/passes.hpp"
#include "placement/graphine.hpp"
#include "placement/windowed.hpp"
#include "serve/protocol.hpp"
#include "shard/shard.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

namespace pp = parallax::placement;

struct Golden {
  const char* acronym;
  const char* digest;
};

// Recorded from the pre-delta-path annealer (identical before and after the
// hot-path change, by construction).
constexpr Golden kGoldens[] = {
    {"WST", "a40b5a9b76348f6f8ff02fb4daada8c3"},
    {"QAOA", "604db70e27888f3153dd2759dd31f8c6"},
    {"TFIM", "1a2bfd705b07a1796e30776eba6799b6"},
    {"QV", "87cbb0b544623116fe118afa62eadd6d"},
};

// The fast-path registry variants: the fingerprint of each one's tuned
// GraphineOptions (default seed) and its placements on the kGoldens circuits
// under the same seed derivation. Recorded before the anneal paths were
// collapsed to one kernel lane, one reducer and one incremental walk; the
// fingerprint pins ProposalMode's numeric value, which cached keys feed.
struct TunedGolden {
  const char* technique;
  const char* fingerprint;
  Golden placements[4];
};

constexpr TunedGolden kTunedGoldens[] = {
    {"parallax-fast",
     "8e9527a6aa82ae698798fbbd1539b6fd",
     {{"WST", "291ffe841bcb9ca4a23166efd32c23e5"},
      {"QAOA", "eec8dfe4056ee4ca2647e8d56f2b620d"},
      {"TFIM", "12ee73969c39123b20a5f04a945ee439"},
      {"QV", "6629bb7221ea3cc6cfc431ed68b9220d"}}},
    {"parallax-mc4",
     "f40ffacace97a92baaeb52462421d72c",
     {{"WST", "2a9ba8bf5c74d6924af26c9d8250bc4a"},
      {"QAOA", "fae376c373745f617a4fbb1d7e569642"},
      {"TFIM", "21faa6c94fd2c8eb855eec57f802a21d"},
      {"QV", "26dc3ff1a0cd209bc5baf506111b5bc6"}}},
    {"parallax-race",
     "50e4722ef15bf9b9862edb8c2a24be82",
     {{"WST", "2ccea121e871ccdb333105a9bbda8bd7"},
      {"QAOA", "11f97b94f27da024d94822b2585f38c5"},
      {"TFIM", "12ee73969c39123b20a5f04a945ee439"},
      {"QV", "b1f5dfb33d3e2cb95c42435b923b04e5"}}},
};

pp::GraphineOptions tuned_placement(const char* technique) {
  parallax::pipeline::CompileOptions options;
  parallax::technique::Registry::global().apply_tuning(technique, options);
  return options.placement;
}

/// Digest of the placement of benchmark `acronym` under `options`, seeded
/// the way the sweep derives placement seeds.
std::string placement_digest(const char* acronym, pp::GraphineOptions options) {
  namespace pc = parallax::circuit;
  namespace pu = parallax::util;
  const pc::Circuit circuit =
      pc::transpile(parallax::bench_circuits::make_benchmark(acronym, {}));
  options.seed =
      pu::derive_seed(0xA77AC5ULL, circuit.name(), pu::kPlacementSeedSalt);
  const pp::Topology topology =
      pp::graphine_place(pc::InteractionGraph(circuit), options);
  return parallax::cache::fingerprint(topology).hex();
}

}  // namespace

// Fingerprint goldens: the digests every persistent-cache key derives from,
// recorded before windowed placement and the streaming front end landed. A
// change here silently invalidates (or worse, aliases) every existing cache
// directory, so new fingerprint-visible fields must be fed conditionally —
// only when non-default — like ProposalMode/chains and max_window_qubits.
TEST(Goldens, LegacyFingerprintsAreByteStable) {
  namespace pb = parallax::bench_circuits;
  namespace pc = parallax::circuit;
  namespace pk = parallax::cache;

  EXPECT_EQ(pk::fingerprint(pp::GraphineOptions{}).hex(),
            "842bb19d21fa30e04924c724d58d71a6");
  EXPECT_EQ(pk::fingerprint(parallax::pipeline::CompileOptions{}).hex(),
            "acc1310dc7ec9ecfeae37db9679dfb69");

  const pc::Circuit wst = pc::transpile(pb::make_benchmark("WST", {}));
  const pk::Digest128 wst_fp = pk::fingerprint(wst);
  EXPECT_EQ(wst_fp.hex(), "c2606d893511fa1d1935b3f5e074933e");
  EXPECT_EQ(pk::placement_key(wst_fp, pp::GraphineOptions{}).hex(),
            "6382dc9309d9bb78b22499316a893a97");
}

TEST(Goldens, WindowCapIsFingerprintInvisibleWhenNormalized) {
  namespace pk = parallax::cache;
  // max_window_qubits is fed only when non-zero: callers normalize it to 0
  // whenever the circuit fits one window, so every legacy digest above (and
  // every cache entry written before windowing existed) stays valid.
  pp::GraphineOptions options;
  options.max_window_qubits = 0;
  EXPECT_EQ(pk::fingerprint(options).hex(),
            "842bb19d21fa30e04924c724d58d71a6");
  options.max_window_qubits = 64;
  EXPECT_NE(pk::fingerprint(options).hex(),
            "842bb19d21fa30e04924c724d58d71a6");
}

TEST(Goldens, AnnealerModesKeyDistinctlyWithoutMovingDefaults) {
  namespace pk = parallax::cache;
  // Same conditional-feed contract as the window cap: batched proposals and
  // the raced portfolio are fingerprint-visible only when enabled, so every
  // legacy key stays byte-stable while each new mode keys its own entries.
  const std::string legacy = "842bb19d21fa30e04924c724d58d71a6";
  pp::GraphineOptions options;
  options.portfolio_entrants = 0;
  EXPECT_EQ(pk::fingerprint(options).hex(), legacy);

  pp::GraphineOptions batched;
  batched.proposal = pp::ProposalMode::kBatched;
  const std::string batched_hex = pk::fingerprint(batched).hex();
  EXPECT_NE(batched_hex, legacy);

  pp::GraphineOptions race = batched;
  race.portfolio_entrants = 4;
  const std::string race_hex = pk::fingerprint(race).hex();
  EXPECT_NE(race_hex, legacy);
  EXPECT_NE(race_hex, batched_hex);

  race.portfolio_entrants = 2;
  EXPECT_NE(pk::fingerprint(race).hex(), race_hex);
}

TEST(Goldens, TunedFingerprintsAreByteStable) {
  for (const TunedGolden& tuned : kTunedGoldens) {
    EXPECT_EQ(parallax::cache::fingerprint(tuned_placement(tuned.technique))
                  .hex(),
              tuned.fingerprint)
        << tuned.technique;
  }
}

TEST(Goldens, LegacyPlacementsAreByteStable) {
  for (const Golden& golden : kGoldens) {
    // Default options = the legacy full-vector path.
    EXPECT_EQ(placement_digest(golden.acronym, pp::GraphineOptions{}),
              golden.digest)
        << golden.acronym;
  }
}

TEST(Goldens, TunedPlacementsAreByteStable) {
  for (const TunedGolden& tuned : kTunedGoldens) {
    const pp::GraphineOptions options = tuned_placement(tuned.technique);
    for (const Golden& golden : tuned.placements) {
      EXPECT_EQ(placement_digest(golden.acronym, options), golden.digest)
          << tuned.technique << " " << golden.acronym;
    }
  }
}

// --- schedule goldens --------------------------------------------------------
//
// The Digest128 of cache::serialize_result for whole Parallax compiles: every
// layer's gates, move and return distances, trap changes, aod_moves and
// recorded positions, plus the stats and the runtime. Recorded before the
// schedule pass memoized its moves; any change to the scheduler or the
// movement engine that moves one byte of a schedule fails here.

namespace {

namespace pc = parallax::circuit;
namespace ph = parallax::hardware;
namespace pl = parallax::pipeline;

struct ScheduleGolden {
  const char* cell;  // circuit/machine/technique[/variant]
  const char* digest;
};

constexpr const char* kScheduleTechniques[] = {"parallax", "parallax-fast"};

struct NamedMachine {
  const char* name;
  ph::HardwareConfig config;
};

std::vector<NamedMachine> golden_machines() {
  return {{"quera256", ph::HardwareConfig::quera_aquila_256()},
          {"atom1225", ph::HardwareConfig::atom_computing_1225()}};
}

/// The normalized placement `technique` anneals for `circuit` at the default
/// seed. It is annealed once and shared by both machines and every scheduler
/// variant, the way sweep::run shares it.
pp::Topology anneal_once(const pc::Circuit& circuit, const char* technique) {
  pl::CompileOptions options;
  parallax::technique::Registry::global().apply_tuning(technique, options);
  std::optional<pp::Topology> normalized;
  pl::Pipeline placement(technique);
  placement.add(pl::passes::transpile())
      .add(pl::passes::graphine_placement())
      .add(pl::Pass("capture", [&normalized](pl::CompileContext& ctx) {
        normalized = ctx.normalized;
      }));
  (void)placement.run(circuit, ph::HardwareConfig::quera_aquila_256(),
                      options);
  return *normalized;
}

std::string schedule_digest(const pc::Circuit& circuit, const char* technique,
                            const pp::Topology& placement,
                            const ph::HardwareConfig& config,
                            const parallax::compiler::SchedulerOptions&
                                scheduler) {
  pl::CompileOptions options;
  options.scheduler = scheduler;
  options.preset_topology = placement;
  const std::string bytes = parallax::cache::serialize_result(
      parallax::technique::compile(technique, circuit, config, options));
  return parallax::util::hash128(bytes.data(), bytes.size()).hex();
}

void expect_goldens(const std::map<std::string, std::string>& actual,
                    std::span<const ScheduleGolden> goldens) {
  EXPECT_EQ(actual.size(), goldens.size());
  for (const ScheduleGolden& golden : goldens) {
    const auto it = actual.find(golden.cell);
    ASSERT_TRUE(it != actual.end()) << golden.cell;
    EXPECT_EQ(it->second, golden.digest) << golden.cell;
  }
}

constexpr ScheduleGolden kSuiteScheduleGoldens[] = {
    {"ADD/atom1225/parallax", "e06ae1c731e8e8a8bb2ec28610094463"},
    {"ADD/atom1225/parallax-fast", "c86217fcc99e7ca23d71248229d0621f"},
    {"ADD/quera256/parallax", "276f12e9ce5be89e933cdf5cf23de9af"},
    {"ADD/quera256/parallax-fast", "89fa391423711b15e07b838d308a256e"},
    {"ADV/atom1225/parallax", "b615213d5a9b684015b6e13b347f2e1b"},
    {"ADV/atom1225/parallax-fast", "34a509d588d5cf75e61485b174ecdf2f"},
    {"ADV/quera256/parallax", "74a26a4f698d0b15961ae24745cae264"},
    {"ADV/quera256/parallax-fast", "db2bd72967014c70f6a8e2823f478abd"},
    {"GCM/atom1225/parallax", "3d1d958656ca98b3cebe3603c87c6453"},
    {"GCM/atom1225/parallax-fast", "ac73ef4103410ee35663526cf2ea1321"},
    {"GCM/quera256/parallax", "301661fb485933385f93ce65a6579f2d"},
    {"GCM/quera256/parallax-fast", "6cc56617e52186b8d7297e0a51d220c3"},
    {"HLF/atom1225/parallax", "3eb04a0745fe70b6256fe2fe71f6aff1"},
    {"HLF/atom1225/parallax-fast", "577ff2bb30733b17f7331231077ad80b"},
    {"HLF/quera256/parallax", "790e2a019ea7cb9df847bcd3d2b4b071"},
    {"HLF/quera256/parallax-fast", "8d12e8fc3347138f7600914a9b2cb253"},
    {"HSB/atom1225/parallax", "84e303410df5ec06e08222b075811f74"},
    {"HSB/atom1225/parallax-fast", "5ba2e8c3830146c4be84f07966a5fd60"},
    {"HSB/quera256/parallax", "7f483f5d0b61aeb874d04b37ff60ac18"},
    {"HSB/quera256/parallax-fast", "b5c5d71e8540f6a8198f5e2c6ce18720"},
    {"KNN/atom1225/parallax", "4eed4c439191a70bed5f750b32c10db9"},
    {"KNN/atom1225/parallax-fast", "258c288c77e16c5dfe0523db8898bd2a"},
    {"KNN/quera256/parallax", "1b9f9aae7ac35f1fabaad848ee923448"},
    {"KNN/quera256/parallax-fast", "e15da2013ca4e1c784040881a0604f11"},
    {"MLT/atom1225/parallax", "d793a1146efd5aed0283dc186c29cc06"},
    {"MLT/atom1225/parallax-fast", "3c7682233675fe13afd4b69f4e9dd0a4"},
    {"MLT/quera256/parallax", "176c5cae53886821d194d8cccc05f04e"},
    {"MLT/quera256/parallax-fast", "05367e310de162c75cd07d9349e7b809"},
    {"QAOA/atom1225/parallax", "17cf1d9236f7da04c6abf1a045fd70b6"},
    {"QAOA/atom1225/parallax-fast", "ce65bfbd1fe9dfee95c172373c1b1d61"},
    {"QAOA/quera256/parallax", "7cd29b18045f1133724cd643bb25d28f"},
    {"QAOA/quera256/parallax-fast", "9f323ce31b3fd396136cdd484e160fb8"},
    {"QEC/atom1225/parallax", "cf6d8d68ec188ceecfd2fb5f842cc0d3"},
    {"QEC/atom1225/parallax-fast", "0abb99e43f7603d11a93834fdd58de1c"},
    {"QEC/quera256/parallax", "39f2430358d0b8cd16b0b51df0ad9485"},
    {"QEC/quera256/parallax-fast", "2bb13c8d0a5d43a136429b3f83d8f370"},
    {"QFT/atom1225/parallax", "f1c11264af0686fac21e897f1ad51340"},
    {"QFT/atom1225/parallax-fast", "9e782d836dd910fc19583e9feab42ef6"},
    {"QFT/quera256/parallax", "6b4c843869bb86ac8f65e52fdc02c735"},
    {"QFT/quera256/parallax-fast", "84113f383f05ef56837107edcadc76f3"},
    {"QGAN/atom1225/parallax", "47b1ecb274ceeaf61ee377e148c32f71"},
    {"QGAN/atom1225/parallax-fast", "88be18e5cbe5f4ca0d76ad0def8ba800"},
    {"QGAN/quera256/parallax", "e395717223aab3e3dbc733ed1317c4c5"},
    {"QGAN/quera256/parallax-fast", "7ef2120db7ecc6b92db50adcff61def1"},
    {"QV/atom1225/parallax", "816b0cdf8ec0a52399c7598646f511db"},
    {"QV/atom1225/parallax-fast", "3638f7c24053ce26aa9ba6d71cf5b6fb"},
    {"QV/quera256/parallax", "4413d7f7121c3bdbb42f0c60147d6c96"},
    {"QV/quera256/parallax-fast", "5d2fa00f03679b141f2625e1f683aa0b"},
    {"SAT/atom1225/parallax", "6a5572b7d9d61e2a3aee6d5d3327fe0b"},
    {"SAT/atom1225/parallax-fast", "5038ff1a2496219639afb19c948837c0"},
    {"SAT/quera256/parallax", "325801579a2f8600a0b49dc97d921398"},
    {"SAT/quera256/parallax-fast", "533a5eb0d6348daef5108417098237b9"},
    {"SECA/atom1225/parallax", "3af7e26b93f7891dec9b675c69d88408"},
    {"SECA/atom1225/parallax-fast", "9d70729bcc085901a5a3e67708c3a9ac"},
    {"SECA/quera256/parallax", "2ca482ae32476fc7f67a94292f9a49e5"},
    {"SECA/quera256/parallax-fast", "9cb98f1c12858b10645b39ed571be30e"},
    {"SQRT/atom1225/parallax", "7f3d4c3e75d0ee9e60ef2679ff5988dc"},
    {"SQRT/atom1225/parallax-fast", "d41cb12a5410870361e5c56cda4d9a38"},
    {"SQRT/quera256/parallax", "7679f43c3ad4fe5b1ea089bd649ed836"},
    {"SQRT/quera256/parallax-fast", "803d863d17b58fee44751c8b494e0cf1"},
    {"TFIM/atom1225/parallax", "7f1d5fc5e1017af809f00077152c411a"},
    {"TFIM/atom1225/parallax-fast", "0bd9303b9d8fa86dbaba92682386913b"},
    {"TFIM/quera256/parallax", "1079c2227e0a0ee09eac120862fc13f4"},
    {"TFIM/quera256/parallax-fast", "b2cc9214dac36d5c7e3521ef0bfbf594"},
    {"VQE/atom1225/parallax", "38bd3bf8411cb46a0a6fad847cdde9d7"},
    {"VQE/atom1225/parallax-fast", "0d9cfaae953324e0adaca6badd74392d"},
    {"VQE/quera256/parallax", "020c61dabd9fdef4a3780030c5c0b066"},
    {"VQE/quera256/parallax-fast", "de6b3756b49b5844509085d30114436f"},
    {"WST/atom1225/parallax", "d5953ea00fb71efe2bc4bd020e5675f0"},
    {"WST/atom1225/parallax-fast", "51533c4f87ae2dfd1d158c022d147013"},
    {"WST/quera256/parallax", "4f74b537b68cf4ff861b2bd701d3cabe"},
    {"WST/quera256/parallax-fast", "06ac8cdac96280b87b658caafb493cb4"},
};

constexpr ScheduleGolden kVariantScheduleGoldens[] = {
    {"HSB/atom1225/parallax-fast/no-home", "a516a166d481a777be8b86a42db4ab2f"},
    {"HSB/atom1225/parallax-fast/positions",
     "6de6d1ffb46e186485ba8a1f194329a8"},
    {"HSB/atom1225/parallax/no-home", "56956062503b4e826477a32428984023"},
    {"HSB/atom1225/parallax/positions", "de45485e0a2e624b2a0e9599d460a45e"},
    {"HSB/quera256/parallax-fast/no-home", "a53a713f9e064dd971f05ff927fa698b"},
    {"HSB/quera256/parallax-fast/positions",
     "b515cb8634f00b5cabf1338804a89965"},
    {"HSB/quera256/parallax/no-home", "80a0ad459fb3b3765f98b622396666a3"},
    {"HSB/quera256/parallax/positions", "09411dc4668715ca6bc23c43fa594a0a"},
    {"KNN/atom1225/parallax-fast/no-home", "e4c8f1635f028f9966f837c9d19173bd"},
    {"KNN/atom1225/parallax-fast/positions",
     "40c639d291343573324f559c1913f854"},
    {"KNN/atom1225/parallax/no-home", "2cb071693be2dfc34d5171b1d42024a0"},
    {"KNN/atom1225/parallax/positions", "0f9d313a79ef00c4f45bb0379bbec777"},
    {"KNN/quera256/parallax-fast/no-home", "9a0a2d7fbb7059acc5e9a6ba096af01c"},
    {"KNN/quera256/parallax-fast/positions",
     "3424c6eff9ce615804a2ca2c9ffc1bc4"},
    {"KNN/quera256/parallax/no-home", "038f8a3fd6c4abcfc7aec9c777585d70"},
    {"KNN/quera256/parallax/positions", "12b16ff9f8e994b193c9c3ddd9a41a24"},
    {"QGAN/atom1225/parallax-fast/no-home", "c4e9b4a51a4397eb95ee88a070891a42"},
    {"QGAN/atom1225/parallax-fast/positions",
     "0bc79b11873cab56deade02cd1927cc2"},
    {"QGAN/atom1225/parallax/no-home", "58e8eeecb91bd24d06f458ecf2722928"},
    {"QGAN/atom1225/parallax/positions", "805b3c5a47568536e6e871b8fe610fd9"},
    {"QGAN/quera256/parallax-fast/no-home", "7eabc0801feba7023a97344fd4bd49ae"},
    {"QGAN/quera256/parallax-fast/positions",
     "4347e1bbe5956cfdd104d232abdc1074"},
    {"QGAN/quera256/parallax/no-home", "9b0111dd63034fc797fb63590ab0a42e"},
    {"QGAN/quera256/parallax/positions", "64cf7fa9281d7b65fbb98116f17a44e9"},
    {"QV/atom1225/parallax-fast/no-home", "95525f02dea6fc2f9bb53c7842e5ab3a"},
    {"QV/atom1225/parallax-fast/positions", "2ea8b05193f4250f22bfb5ad6c3c97f5"},
    {"QV/atom1225/parallax/no-home", "230285ef225eb0765bcdf404a32f0eed"},
    {"QV/atom1225/parallax/positions", "d49cf07addeee8bfaf359267ec44db1c"},
    {"QV/quera256/parallax-fast/no-home", "b541c05e4147714227d8514e771519b8"},
    {"QV/quera256/parallax-fast/positions", "7274c9e165364f2be18cd659ffcda421"},
    {"QV/quera256/parallax/no-home", "97f8f109d6c48217cd83e95fc9cdb53e"},
    {"QV/quera256/parallax/positions", "e8bc26507dde2024ced6e99018378178"},
};

constexpr const char* kBaselineTechniques[] = {"graphine", "eldi"};

constexpr ScheduleGolden kBaselineScheduleGoldens[] = {
    {"ADD/atom1225/eldi", "9d306fa8968931283cd56451c72289de"},
    {"ADD/atom1225/graphine", "2f8bac06427d169a0410670d00c9ff9f"},
    {"ADD/quera256/eldi", "1450f233e72f0c40c3537aaafcab4f92"},
    {"ADD/quera256/graphine", "f9f3bb48476945f3f917b8c6c9b11214"},
    {"ADV/atom1225/eldi", "62ebd2b14cd01136662d9a63c7cc7944"},
    {"ADV/atom1225/graphine", "58b704196af1c8eb25be1057f20dd2c8"},
    {"ADV/quera256/eldi", "96ef21ca79912ce29ffbade85d4cea3b"},
    {"ADV/quera256/graphine", "043aed85f27490b52b95d744f7022ef3"},
    {"GCM/atom1225/eldi", "d25e07e8fc2c8142ef305f45fcb8be5d"},
    {"GCM/atom1225/graphine", "310b673673fc657f510995c22b510704"},
    {"GCM/quera256/eldi", "19bc96148363ebf4366d0cff118b67c6"},
    {"GCM/quera256/graphine", "b1f56a2a534f24cbff19a2302181e5e9"},
    {"HLF/atom1225/eldi", "ecdc7c43ed8812bf270bb379e8681d75"},
    {"HLF/atom1225/graphine", "9e7f9715770bb3ffa1ebb9ffb9f394fc"},
    {"HLF/quera256/eldi", "c08db132e36c7e284f4fc5c8b8deb91c"},
    {"HLF/quera256/graphine", "062a0a44837ca8e7eae67cad7ef9ab6c"},
    {"HSB/atom1225/eldi", "644157a56d189abd872052bcbfc16ab5"},
    {"HSB/atom1225/graphine", "42cf541632de336fc2916affd1a37d12"},
    {"HSB/quera256/eldi", "071e4cab41215e8643ea3204efaa86f9"},
    {"HSB/quera256/graphine", "5c2b2c2dc605c42f03513586398e79a7"},
    {"KNN/atom1225/eldi", "38abf6f10f9aff156ffb24f477660a2e"},
    {"KNN/atom1225/graphine", "acbc21fd6072b7d1f6bfa85d527bb5d9"},
    {"KNN/quera256/eldi", "efbbb461013683d24cebc615ddb79810"},
    {"KNN/quera256/graphine", "81a206cfbf49acaab1b8313ebf300852"},
    {"MLT/atom1225/eldi", "f047be15744e9c6ec37a6d0dfea19c17"},
    {"MLT/atom1225/graphine", "899ef15ce8ee0ffae19c742008cacf69"},
    {"MLT/quera256/eldi", "1e7f8341075c32c8da1ed882ef8e31a1"},
    {"MLT/quera256/graphine", "55a6a6d21e0476ea76c5986707ef6c16"},
    {"QAOA/atom1225/eldi", "3aa88d7c007eadd79e826d285d80ae11"},
    {"QAOA/atom1225/graphine", "cd2aff9a1a95ce3785d78bb94925ed24"},
    {"QAOA/quera256/eldi", "576296e3668f383be3d44ae0d9efd1a7"},
    {"QAOA/quera256/graphine", "a3fb37b5bb7177f2fffd2faa93e518c9"},
    {"QEC/atom1225/eldi", "473fdef780b82e03f317b6d9fe1735f8"},
    {"QEC/atom1225/graphine", "a3b221324a23ae20326def8fb7984bd0"},
    {"QEC/quera256/eldi", "387bd53477c0e96354322511cce36919"},
    {"QEC/quera256/graphine", "6b975bb6f8e9d9e9ba830051afa04e71"},
    {"QFT/atom1225/eldi", "b103634bb8e03745a1736482f684d061"},
    {"QFT/atom1225/graphine", "fdd2c5e13a135e8207774021d836c087"},
    {"QFT/quera256/eldi", "1e3127a4c7d85521b149c0fa2956eb19"},
    {"QFT/quera256/graphine", "70361f4013aea32bde0a713aa42eea51"},
    {"QGAN/atom1225/eldi", "3d3fec97a7931d3f43ff7031151a455c"},
    {"QGAN/atom1225/graphine", "a90774a830fc9fa4d8ea71b04703d5b7"},
    {"QGAN/quera256/eldi", "81896bd73be15147d3a44b80511e63bf"},
    {"QGAN/quera256/graphine", "88fbdfc7a18e94bd094ecae86b1298ec"},
    {"QV/atom1225/eldi", "7f333da4b3f9b077e0acbb5c96866d3d"},
    {"QV/atom1225/graphine", "e8d4080fbb71f1b594f08b251d37ed34"},
    {"QV/quera256/eldi", "56c150ab52b6a45c107c277a1878cf96"},
    {"QV/quera256/graphine", "b1866917387e7c61bcf2387380649396"},
    {"SAT/atom1225/eldi", "55b66da66fe49e6ab01cf6bcdbe6d30a"},
    {"SAT/atom1225/graphine", "100dea297d0e3472363bcd74d511293c"},
    {"SAT/quera256/eldi", "dc9e3ceda6fa392c277c82b2892b94e9"},
    {"SAT/quera256/graphine", "a1d2e0a0424f0ab9e42500f44d455dac"},
    {"SECA/atom1225/eldi", "c4278fb452162b98ef78033dabf9091c"},
    {"SECA/atom1225/graphine", "569c5724bc5fbeb4c62b05c92211ac48"},
    {"SECA/quera256/eldi", "decbd5358ded59488fa8b2ed0b365ea3"},
    {"SECA/quera256/graphine", "68fd7679a509aac469f96f936b257576"},
    {"SQRT/atom1225/eldi", "a1850b6fc0126e245dad53f44c848a0f"},
    {"SQRT/atom1225/graphine", "cb641b87384377409cd47b34a83ae421"},
    {"SQRT/quera256/eldi", "341922c1b445cc22a44301e0593bc4f1"},
    {"SQRT/quera256/graphine", "74d1fc3ef143461fa583ae75b5ca3453"},
    {"TFIM/atom1225/eldi", "348108a71e03e9e2cf6f8fcd7a876524"},
    {"TFIM/atom1225/graphine", "05b2fed3f3ab27e9d1d9df4630add9ea"},
    {"TFIM/quera256/eldi", "f90223b46b784efc034ad3051b825f02"},
    {"TFIM/quera256/graphine", "44e1ace07dac384c9152b4b5a14b0898"},
    {"VQE/atom1225/eldi", "4a0fa203f951d11c03a29117a6c93926"},
    {"VQE/atom1225/graphine", "cfee5e67a5c8a4bebcd2538d691ed152"},
    {"VQE/quera256/eldi", "374fd016ba71c010aa075eca277b8953"},
    {"VQE/quera256/graphine", "b03ee93b64cbde3985fbf0bcc9938229"},
    {"WST/atom1225/eldi", "7a55fc7661383bbc8351dba759c96e0c"},
    {"WST/atom1225/graphine", "0a04f4e99026b31c41612efcef9d14e5"},
    {"WST/quera256/eldi", "25b5ea3fe1e939194550fc7f0b41fcda"},
    {"WST/quera256/graphine", "441f30f0ddc15ee25f0f82010b12447f"},
};

/// A seeded random circuit: half U3, half CZ between uniformly drawn pairs.
pc::Circuit random_circuit(std::int32_t n_qubits, int n_gates,
                           std::uint64_t seed) {
  parallax::util::Rng rng(seed);
  pc::Circuit c(n_qubits, "random" + std::to_string(n_qubits));
  const auto n = static_cast<std::uint64_t>(n_qubits);
  for (int i = 0; i < n_gates; ++i) {
    if (rng.bernoulli(0.5)) {
      c.u3(static_cast<std::int32_t>(rng.next_below(n)), rng.uniform(-3, 3),
           rng.uniform(-3, 3), rng.uniform(-3, 3));
    } else {
      const auto a = static_cast<std::int32_t>(rng.next_below(n));
      auto b = static_cast<std::int32_t>(rng.next_below(n));
      while (b == a) b = static_cast<std::int32_t>(rng.next_below(n));
      c.cz(a, b);
    }
  }
  return c;
}

}  // namespace

TEST(Goldens, SuiteSchedulesAreByteStable) {
  namespace pb = parallax::bench_circuits;
  std::map<std::string, std::string> actual;
  for (const auto& info : pb::all_benchmarks()) {
    const pc::Circuit circuit = pb::make_benchmark(info.acronym, {});
    for (const char* technique : kScheduleTechniques) {
      const pp::Topology placement = anneal_once(circuit, technique);
      for (const NamedMachine& machine : golden_machines()) {
        actual[info.acronym + "/" + machine.name + "/" + technique] =
            schedule_digest(circuit, technique, placement, machine.config, {});
      }
    }
  }
  expect_goldens(actual, kSuiteScheduleGoldens);
}

TEST(Goldens, SchedulerVariantsAreByteStable) {
  namespace pb = parallax::bench_circuits;
  parallax::compiler::SchedulerOptions no_home;
  no_home.return_home = false;
  parallax::compiler::SchedulerOptions positions;
  positions.record_positions = true;
  std::map<std::string, std::string> actual;
  for (const char* acronym : {"QV", "QGAN", "HSB", "KNN"}) {
    const pc::Circuit circuit = pb::make_benchmark(acronym, {});
    for (const char* technique : kScheduleTechniques) {
      const pp::Topology placement = anneal_once(circuit, technique);
      for (const NamedMachine& machine : golden_machines()) {
        const std::string cell =
            std::string(acronym) + "/" + machine.name + "/" + technique;
        actual[cell + "/no-home"] = schedule_digest(
            circuit, technique, placement, machine.config, no_home);
        actual[cell + "/positions"] = schedule_digest(
            circuit, technique, placement, machine.config, positions);
      }
    }
  }
  expect_goldens(actual, kVariantScheduleGoldens);
}

// The baselines' static schedules (baselines::schedule_static): graphine
// routes SWAPs over the annealed placement, eldi over its compact grid
// placement, and both layer the result under the blockade. The graphine
// placement is annealed once per circuit and shared by both machines; eldi
// places without an anneal, so the preset reaches only graphine.
TEST(Goldens, BaselineSchedulesAreByteStable) {
  namespace pb = parallax::bench_circuits;
  std::map<std::string, std::string> actual;
  for (const auto& info : pb::all_benchmarks()) {
    const pc::Circuit circuit = pb::make_benchmark(info.acronym, {});
    const pp::Topology placement = anneal_once(circuit, "graphine");
    for (const NamedMachine& machine : golden_machines()) {
      for (const char* technique : kBaselineTechniques) {
        actual[info.acronym + "/" + machine.name + "/" + technique] =
            schedule_digest(circuit, technique, placement, machine.config, {});
      }
    }
  }
  expect_goldens(actual, kBaselineScheduleGoldens);
}

TEST(Goldens, RandomScheduleIsByteStable) {
  const pc::Circuit circuit = random_circuit(200, 4000, 0x5c4ed);
  const pp::Topology placement = anneal_once(circuit, "parallax-fast");
  EXPECT_EQ(schedule_digest(circuit, "parallax-fast", placement,
                            ph::HardwareConfig::atom_computing_1225(), {}),
            "e0e45d53a7b1781dba882cb4eb0779d8");
}

// --- wire-format goldens -----------------------------------------------------
//
// The Digest128 of every byte path a compile reaches users through: cache
// payloads (topology, result, cell), the shard cell codec and run files, the
// sweep spec and every serve frame. The inputs are built by hand from
// exactly representable doubles, so no compile and no libm call is involved:
// a failure here means the encoding itself moved.

namespace {

namespace wc = parallax::cache;
namespace wsh = parallax::shard;
namespace wsv = parallax::serve;
namespace wsw = parallax::sweep;

std::string wire_digest(const std::string& bytes) {
  return parallax::util::hash128(bytes.data(), bytes.size()).hex();
}

pp::Topology wire_topology() {
  pp::Topology topology;
  topology.positions = {{0.125, 0.75}, {0.5, 0.25}, {0.875, 0.5}};
  topology.interaction_radius = 0.375;
  return topology;
}

/// A three-qubit schedule: a U3, a CZ after a move, a barrier and a
/// measurement; the second layer records positions.
parallax::compiler::CompileResult wire_result() {
  parallax::compiler::CompileResult result;
  result.technique = "parallax";
  result.circuit = parallax::circuit::Circuit(3, "wire3");
  result.circuit.u3(0, 0.5, 0.25, -0.125);
  result.circuit.cz(0, 2);
  result.circuit.barrier();
  result.circuit.measure(1);
  result.topology.grid = parallax::geom::Grid(4, 7.5);
  result.topology.sites = {{0, 0}, {1, 2}, {3, 1}};
  result.topology.interaction_radius_um = 7.5;
  result.topology.blockade_radius_um = 18.75;
  parallax::compiler::Layer first;
  first.gates_begin = 0;
  first.gates_end = 1;
  first.duration_us = 0.25;
  parallax::compiler::Layer second;
  second.gates_begin = 1;
  second.gates_end = 2;
  second.move_distance_um = 3.5;
  second.return_distance_um = 3.25;
  second.aod_moves = 1;
  second.trap_changes = 2;
  second.duration_us = 206.75;
  second.positions = {{3.5, 0.0}, {7.5, 15.0}, {22.5, 7.5}};
  parallax::compiler::Layer third;
  third.gates_begin = 2;
  third.gates_end = 4;
  third.duration_us = 5.5;
  result.layers = {first, second, third};
  result.layer_gates = {0, 1, 2, 3};
  result.in_aod = {1, 0, 0};
  result.stats.u3_gates = 1;
  result.stats.cz_gates = 1;
  result.stats.swap_gates = 0;
  result.stats.layers = 3;
  result.stats.aod_moves = 1;
  result.stats.trap_changes = 2;
  result.stats.out_of_range_cz = 1;
  result.stats.slm_slm_cz = 0;
  result.stats.max_move_distance_um = 3.5;
  result.stats.total_move_distance_um = 6.75;
  result.runtime_us = 212.5;
  result.pass_timings = {{"schedule", 0.125, false}};  // not encoded
  return result;
}

std::vector<parallax::shots::ParallelPlan> wire_plans() {
  return {{1, 1, 1000, 212500.0}, {2, 4, 250, 53125.5}};
}

wc::CachedCell wire_cached_cell(bool flags) {
  wc::CachedCell cell;
  cell.result = wire_result();
  cell.has_success_probability = flags;
  cell.success_probability = flags ? 0.875 : 0.0;
  cell.has_shot_plans = flags;
  if (flags) cell.shot_plans = wire_plans();
  return cell;
}

/// A computed cell (from the cache, with shot plans) and an error cell.
std::vector<wsw::Cell> wire_cells() {
  wsw::Cell computed;
  computed.circuit = "wire3";
  computed.technique = "parallax";
  computed.machine = "quera256";
  computed.circuit_index = 0;
  computed.technique_index = 0;
  computed.machine_index = 1;
  computed.result = wire_result();
  computed.success_probability = 0.875;
  computed.shot_plans = wire_plans();
  computed.compile_seconds = 0.0625;
  computed.from_cache = true;
  computed.origin = "shard-0/2@host";
  wsw::Cell failed;
  failed.circuit = "wire3";
  failed.technique = "graphine";
  failed.machine = "atom1225";
  failed.circuit_index = 0;
  failed.technique_index = 1;
  failed.machine_index = 0;
  failed.compile_seconds = 1.5;
  failed.origin = "shard-1/2@host";
  failed.error = "compile failed";
  return {computed, failed};
}

wsh::SweepSpec wire_spec() {
  wsh::SweepSpec spec;
  spec.circuits = {{"wire3", wire_result().circuit}};
  spec.techniques = {"parallax", "graphine"};
  parallax::hardware::HardwareConfig machine;
  machine.name = "wire-machine";
  machine.grid_side = 8;
  spec.machines = {{"quera256", machine}};
  spec.options.compile.scheduler.record_positions = true;
  spec.options.compile.preset_topology = wire_topology();
  spec.options.compile.seed = 0x5EED;
  spec.options.shots = parallax::shots::ShotOptions{};
  return spec;
}

}  // namespace

TEST(Goldens, WireFormatsAreByteStable) {
  std::map<std::string, std::string> actual;
  // A format whose header carries a version and a checksum64 of the payload
  // gets a second digest of the payload alone, so a change to the header
  // (a version bump, a new checksum) shows as exactly that.
  constexpr std::size_t kShardHeaderBytes = 32;  // magic, version, kind,
                                                 // size, checksum64
  const auto with_header = [&](const std::string& name,
                               const std::string& bytes,
                               std::size_t header_bytes) {
    actual[name] = wire_digest(bytes);
    actual[name + "/payload"] = wire_digest(bytes.substr(header_bytes));
  };
  actual["topology"] = wire_digest(wc::serialize_topology(wire_topology()));
  actual["result"] = wire_digest(wc::serialize_result(wire_result()));
  actual["cell/flags-on"] =
      wire_digest(wc::serialize_cell(wire_cached_cell(true)));
  actual["cell/flags-off"] =
      wire_digest(wc::serialize_cell(wire_cached_cell(false)));

  const std::vector<wsw::Cell> cells = wire_cells();
  {
    wc::Writer writer;
    wsh::encode_cell(writer, cells[0]);
    actual["shard-cell"] = wire_digest(writer.bytes());
  }
  // The splice overload: labels and metadata from a cell whose result is
  // empty, sections from the scanned cache payload.
  const wc::ScannedCell scanned = wc::scan_cell(
      std::make_shared<const std::string>(
          wc::serialize_cell(wire_cached_cell(true))));
  EXPECT_EQ(scanned.result_end, 564u);
  EXPECT_EQ(scanned.shot_plans_begin, 574u);
  EXPECT_EQ(scanned.success_probability, 0.875);
  wsw::Cell labels = cells[0];
  labels.result = {};
  labels.shot_plans.clear();
  labels.success_probability = 0.0;
  {
    wc::Writer writer;
    wsh::encode_cell(writer, labels, scanned);
    actual["shard-cell/spliced"] = wire_digest(writer.bytes());
  }

  wsw::Result swept;
  swept.cells = cells;
  actual["canonical"] = wire_digest(wsh::canonical_bytes(swept));
  wsh::ShardRun run;
  run.spec = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  run.shard_index = 1;
  run.shard_count = 2;
  run.n_circuits = 1;
  run.n_techniques = 2;
  run.n_machines = 2;
  run.cells = cells;
  run.wall_seconds = 2.5;
  run.threads_used = 4;
  run.placement_cache_hits = 1;
  run.placement_cache_misses = 2;
  run.transpile_cache_hits = 3;
  run.transpile_cache_misses = 4;
  run.placement_disk_hits = 5;
  run.result_cache_hits = 6;
  run.result_cache_misses = 7;
  run.anneals = 8;
  with_header("shard-run", wsh::serialize_shard_run(run), kShardHeaderBytes);
  with_header("sweep-spec", wsh::serialize_sweep_spec(wire_spec()),
              kShardHeaderBytes);

  with_header("frame/cell", wsv::cell_frame(7, cells[0]),
              wsv::kFrameHeaderBytes);
  with_header("frame/cell/spliced", wsv::cell_frame(7, labels, scanned),
              wsv::kFrameHeaderBytes);
  wsv::Summary summary;
  summary.total_cells = 4;
  summary.executed_cells = 3;
  summary.failed_cells = 1;
  summary.cancelled_cells = 1;
  summary.result_cache_hits = 2;
  summary.result_cache_misses = 1;
  summary.placement_disk_hits = 1;
  summary.anneals = 1;
  summary.cancelled = true;
  summary.wall_seconds = 0.75;
  summary.error = "request cancelled";
  with_header("frame/done", wsv::done_frame(7, summary),
              wsv::kFrameHeaderBytes);
  wsv::SessionStats stats;
  stats.requests = 5;
  stats.cells_executed = 20;
  stats.cells_failed = 1;
  stats.result_cache_hits = 12;
  stats.result_cache_misses = 8;
  stats.placement_cache_hits = 6;
  stats.placement_cache_misses = 2;
  stats.anneals = 2;
  stats.threads = 4;
  stats.cache_enabled = true;
  stats.uptime_seconds = 30.5;
  stats.clients = {{1, 3, 12, 2, 0, 10.25, false},
                   {2, 2, 8, 0, 4096, 5.125, true}};
  with_header("frame/stats", wsv::stats_frame(8, stats),
              wsv::kFrameHeaderBytes);
  with_header("frame/error", wsv::error_frame(9, "unknown technique 'x'"),
              wsv::kFrameHeaderBytes);

  const std::map<std::string, std::string> expected = {
      {"topology", "dcd708d4815d4e30ba505a19a4d36eac"},
      {"result", "bb358c6282abe96911d8cb209fb5aefc"},
      {"cell/flags-on", "84559319d9110692c57d6aac87ceb47c"},
      {"cell/flags-off", "641d0f874a5e935f384304073669ed92"},
      {"shard-cell", "af981b945c8664e90ca044c8277f0bcf"},
      {"shard-cell/spliced", "af981b945c8664e90ca044c8277f0bcf"},
      {"canonical", "64e6a9c1c58d6fdb4d4ac7e560bd7fe6"},
      {"shard-run", "b0d990fa2b365bb8aefc584baddbf6ee"},
      {"shard-run/payload", "69c211571b0098de194a6eefb72037e5"},
      {"sweep-spec", "7f316c71bd2bfbe9db81e1a2db82ac99"},
      {"sweep-spec/payload", "d8fccf655e91eaa0531064366f21eb41"},
      {"frame/cell", "8e5950b9132e6afbacfacab8e8d34a80"},
      {"frame/cell/payload", "af981b945c8664e90ca044c8277f0bcf"},
      {"frame/cell/spliced", "8e5950b9132e6afbacfacab8e8d34a80"},
      {"frame/cell/spliced/payload", "af981b945c8664e90ca044c8277f0bcf"},
      {"frame/done", "fb8262c617449888b3ab28956020d0f9"},
      {"frame/done/payload", "96eebeacb7dd700ab5fc3df50c6fe9d4"},
      {"frame/stats", "4c33e0570c11ea69862307d84971af8a"},
      {"frame/stats/payload", "2a2db25eafe64636b1e6e4f4b96f243d"},
      {"frame/error", "fd2dcc446bbbaea566b2e37a084c5c15"},
      {"frame/error/payload", "02077acc2cbb1786791933ef66b3f1c1"},
  };
  EXPECT_EQ(actual.size(), expected.size());
  for (const auto& [name, digest] : expected) {
    EXPECT_EQ(actual[name], digest) << name;
  }
}

// --- work-counter goldens ----------------------------------------------------
//
// The work a compile does, counted, at master seed 42 (the command line's
// default): the anneal on TFIM-128 under each tuning, the windowed
// placement's windows, the schedule pass's move memo, and the cache traffic
// of a cold then a warm sweep. Counters are deterministic where wall clocks
// are not, so they are pinned exactly. They catch what the byte goldens
// cannot: a memo that stops replaying, or a sweep that stores a result
// twice, leaves every digest above unchanged. A change that moves a counter
// re-records it here and names it in CHANGES.md.

namespace {

constexpr std::uint64_t kCounterSeed = 42;

struct CounterGolden {
  const char* name;
  std::int64_t value;
};

using Counters = std::map<std::string, std::int64_t>;

void expect_counters(const Counters& actual,
                     std::span<const CounterGolden> goldens) {
  EXPECT_EQ(actual.size(), goldens.size());
  for (const CounterGolden& golden : goldens) {
    const auto it = actual.find(golden.name);
    ASSERT_TRUE(it != actual.end()) << golden.name;
    EXPECT_EQ(it->second, golden.value) << golden.name;
  }
}

/// The placement options `technique` tunes (the default tuning for null),
/// seeded the way the graphine-placement pass seeds `circuit`.
pp::GraphineOptions counter_placement(const char* technique,
                                      const pc::Circuit& circuit) {
  pl::CompileOptions options;
  if (technique != nullptr) {
    parallax::technique::Registry::global().apply_tuning(technique, options);
  }
  options.placement.seed = parallax::util::derive_seed(
      kCounterSeed, circuit.name(), parallax::util::kPlacementSeedSalt);
  return options.placement;
}

pc::Circuit counter_circuit(const char* acronym) {
  parallax::bench_circuits::GenOptions gen;
  gen.seed = kCounterSeed;
  return parallax::bench_circuits::make_benchmark(acronym, gen);
}

constexpr CounterGolden kAnnealCounters[] = {
    {"TFIM/default/chains", 1},
    {"TFIM/default/delta_evaluations", 0},
    {"TFIM/default/evaluations", 1002},
    {"TFIM/default/local_searches", 1},
    {"TFIM/default/restarts", 0},
    {"TFIM/parallax-fast/chains", 1},
    {"TFIM/parallax-fast/delta_evaluations", 15360},
    {"TFIM/parallax-fast/evaluations", 302},
    {"TFIM/parallax-fast/local_searches", 1},
    {"TFIM/parallax-fast/restarts", 0},
    {"TFIM/parallax-mc4/chains", 4},
    {"TFIM/parallax-mc4/delta_evaluations", 128000},
    {"TFIM/parallax-mc4/evaluations", 1208},
    {"TFIM/parallax-mc4/local_searches", 4},
    {"TFIM/parallax-mc4/restarts", 0},
    {"TFIM/parallax-race/chains", 1},
    {"TFIM/parallax-race/delta_evaluations", 15360},
    {"TFIM/parallax-race/entrant[delta]/delta_evaluations", 5120},
    {"TFIM/parallax-race/entrant[delta]/evaluations", 302},
    {"TFIM/parallax-race/entrant[delta]/winner", 1},
    {"TFIM/parallax-race/entrant[mc4]/delta_evaluations", 5120},
    {"TFIM/parallax-race/entrant[mc4]/evaluations", 1208},
    {"TFIM/parallax-race/entrant[mc4]/winner", 0},
    {"TFIM/parallax-race/entrant[nm]/delta_evaluations", 0},
    {"TFIM/parallax-race/entrant[nm]/evaluations", 300},
    {"TFIM/parallax-race/entrant[nm]/winner", 0},
    {"TFIM/parallax-race/entrant[restart]/delta_evaluations", 5120},
    {"TFIM/parallax-race/entrant[restart]/evaluations", 302},
    {"TFIM/parallax-race/entrant[restart]/winner", 0},
    {"TFIM/parallax-race/evaluations", 2112},
    {"TFIM/parallax-race/local_searches", 7},
    {"TFIM/parallax-race/restarts", 0},
    {"TFIM/windowed/windows", 4},
    {"TFIM/windowed/windows_annealed", 4},
};

constexpr CounterGolden kScheduleCounters[] = {
    {"HSB/atom1225/parallax-fast/aod_moves", 408},
    {"HSB/atom1225/parallax-fast/layers", 2790},
    {"HSB/atom1225/parallax-fast/move_evaluations", 2},
    {"HSB/atom1225/parallax-fast/move_replays", 406},
    {"HSB/atom1225/parallax/aod_moves", 204},
    {"HSB/atom1225/parallax/layers", 3064},
    {"HSB/atom1225/parallax/move_evaluations", 1},
    {"HSB/atom1225/parallax/move_replays", 203},
    {"HSB/quera256/parallax-fast/aod_moves", 408},
    {"HSB/quera256/parallax-fast/layers", 2790},
    {"HSB/quera256/parallax-fast/move_evaluations", 2},
    {"HSB/quera256/parallax-fast/move_replays", 406},
    {"HSB/quera256/parallax/aod_moves", 204},
    {"HSB/quera256/parallax/layers", 3064},
    {"HSB/quera256/parallax/move_evaluations", 1},
    {"HSB/quera256/parallax/move_replays", 203},
    {"KNN/atom1225/parallax-fast/aod_moves", 38},
    {"KNN/atom1225/parallax-fast/layers", 113},
    {"KNN/atom1225/parallax-fast/move_evaluations", 19},
    {"KNN/atom1225/parallax-fast/move_replays", 19},
    {"KNN/atom1225/parallax/aod_moves", 62},
    {"KNN/atom1225/parallax/layers", 117},
    {"KNN/atom1225/parallax/move_evaluations", 24},
    {"KNN/atom1225/parallax/move_replays", 38},
    {"KNN/quera256/parallax-fast/aod_moves", 38},
    {"KNN/quera256/parallax-fast/layers", 113},
    {"KNN/quera256/parallax-fast/move_evaluations", 19},
    {"KNN/quera256/parallax-fast/move_replays", 19},
    {"KNN/quera256/parallax/aod_moves", 62},
    {"KNN/quera256/parallax/layers", 117},
    {"KNN/quera256/parallax/move_evaluations", 24},
    {"KNN/quera256/parallax/move_replays", 38},
    {"QGAN/atom1225/parallax-fast/aod_moves", 32},
    {"QGAN/atom1225/parallax-fast/layers", 188},
    {"QGAN/atom1225/parallax-fast/move_evaluations", 29},
    {"QGAN/atom1225/parallax-fast/move_replays", 151},
    {"QGAN/atom1225/parallax/aod_moves", 78},
    {"QGAN/atom1225/parallax/layers", 161},
    {"QGAN/atom1225/parallax/move_evaluations", 41},
    {"QGAN/atom1225/parallax/move_replays", 237},
    {"QGAN/quera256/parallax-fast/aod_moves", 32},
    {"QGAN/quera256/parallax-fast/layers", 186},
    {"QGAN/quera256/parallax-fast/move_evaluations", 29},
    {"QGAN/quera256/parallax-fast/move_replays", 148},
    {"QGAN/quera256/parallax/aod_moves", 88},
    {"QGAN/quera256/parallax/layers", 163},
    {"QGAN/quera256/parallax/move_evaluations", 41},
    {"QGAN/quera256/parallax/move_replays", 263},
    {"QV/atom1225/parallax-fast/aod_moves", 537},
    {"QV/atom1225/parallax-fast/layers", 1252},
    {"QV/atom1225/parallax-fast/move_evaluations", 288},
    {"QV/atom1225/parallax-fast/move_replays", 4418},
    {"QV/atom1225/parallax/aod_moves", 444},
    {"QV/atom1225/parallax/layers", 1491},
    {"QV/atom1225/parallax/move_evaluations", 182},
    {"QV/atom1225/parallax/move_replays", 2769},
    {"QV/quera256/parallax-fast/aod_moves", 522},
    {"QV/quera256/parallax-fast/layers", 1268},
    {"QV/quera256/parallax-fast/move_evaluations", 288},
    {"QV/quera256/parallax-fast/move_replays", 4658},
    {"QV/quera256/parallax/aod_moves", 450},
    {"QV/quera256/parallax/layers", 1492},
    {"QV/quera256/parallax/move_evaluations", 182},
    {"QV/quera256/parallax/move_replays", 2884},
};

constexpr CounterGolden kSweepCounters[] = {
    {"cold/anneals", 8},
    {"cold/bytes_written", 1191040},
    {"cold/result_hits", 0},
    {"cold/result_misses", 8},
    {"cold/stores", 16},
    {"warm/anneals", 0},
    {"warm/bytes_written", 1191040},
    {"warm/result_hits", 8},
    {"warm/result_misses", 0},
    {"warm/stores", 16},
};

/// A cold then a warm sweep of WST/QAOA/TFIM/QV x {parallax, parallax-mc4}
/// on `threads` workers through one handle on a fresh cache directory.
/// The store counters are cumulative, so the warm ones equal the cold ones
/// exactly when the warm sweep stores nothing.
Counters sweep_counters(std::size_t threads) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("parallax_counters_" + std::to_string(::getpid()) + "_" +
       std::to_string(threads));
  fs::remove_all(dir);
  parallax::bench_circuits::GenOptions gen;
  gen.seed = kCounterSeed;
  const auto config = ph::HardwareConfig::quera_aquila_256();
  parallax::sweep::Options options;
  options.compile.seed = kCounterSeed;
  options.n_threads = threads;
  options.cache = parallax::cache::CompilationCache::open(
      {.directory = dir.string()});
  const auto circuits =
      parallax::sweep::benchmark_circuits({"WST", "QAOA", "TFIM", "QV"}, gen);
  Counters counters;
  for (const char* pass : {"cold", "warm"}) {
    const parallax::sweep::Result result = parallax::sweep::run(
        circuits, {"parallax", "parallax-mc4"}, {{config.name, config}},
        options);
    const parallax::cache::StoreStats store = options.cache->stats().store;
    const std::string prefix = std::string(pass) + "/";
    counters[prefix + "anneals"] = static_cast<std::int64_t>(result.anneals);
    counters[prefix + "result_hits"] =
        static_cast<std::int64_t>(result.result_cache_hits);
    counters[prefix + "result_misses"] =
        static_cast<std::int64_t>(result.result_cache_misses);
    counters[prefix + "stores"] = static_cast<std::int64_t>(store.stores);
    counters[prefix + "bytes_written"] =
        static_cast<std::int64_t>(store.bytes_written);
  }
  options.cache.reset();
  fs::remove_all(dir);
  return counters;
}

}  // namespace

TEST(Goldens, WorkCountersAreStable) {
  // The TFIM anneal under every tuning the perf snapshot compared, and the
  // windowed placement of the same graph (a quarter of its qubits a
  // window).
  const pc::Circuit tfim = pc::transpile(counter_circuit("TFIM"));
  const pc::InteractionGraph graph(tfim);
  Counters anneal;
  std::string race_winner;
  for (const char* technique :
       {static_cast<const char*>(nullptr), "parallax-fast", "parallax-mc4",
        "parallax-race"}) {
    const std::string prefix =
        std::string("TFIM/") + (technique ? technique : "default") + "/";
    pp::PlacementStats stats;
    (void)pp::graphine_place(graph, counter_placement(technique, tfim),
                             &stats);
    anneal[prefix + "evaluations"] = stats.evaluations;
    anneal[prefix + "delta_evaluations"] = stats.delta_evaluations;
    anneal[prefix + "local_searches"] = stats.local_searches;
    anneal[prefix + "restarts"] = stats.restarts;
    anneal[prefix + "chains"] = stats.chains;
    for (const auto& entrant : stats.entrants) {
      const std::string row = prefix + "entrant[" + entrant.name + "]/";
      anneal[row + "evaluations"] = entrant.evaluations;
      anneal[row + "delta_evaluations"] = entrant.delta_evaluations;
      anneal[row + "winner"] = entrant.winner ? 1 : 0;
    }
    if (!stats.portfolio_winner.empty()) race_winner = stats.portfolio_winner;
  }
  {
    pp::GraphineOptions windowed = counter_placement("parallax-fast", tfim);
    windowed.max_window_qubits = std::max(graph.n_qubits() / 4, 8);
    pp::PlacementStats stats;
    (void)pp::windowed_place(graph, windowed, &stats);
    anneal["TFIM/windowed/windows"] = stats.windows;
    anneal["TFIM/windowed/windows_annealed"] = stats.windows_annealed;
  }
  expect_counters(anneal, kAnnealCounters);
  EXPECT_EQ(race_winner, "delta");

  // The schedule pass's move memo: schedule_gates as the schedule pass
  // calls it, on the circuits and machines of the scheduler-variant
  // goldens.
  Counters schedule;
  for (const char* acronym : {"QV", "QGAN", "HSB", "KNN"}) {
    const pc::Circuit circuit = counter_circuit(acronym);
    for (const char* technique : kScheduleTechniques) {
      pl::CompileOptions options;
      parallax::technique::Registry::global().apply_tuning(technique,
                                                           options);
      options.seed = kCounterSeed;
      for (const NamedMachine& machine : golden_machines()) {
        parallax::compiler::ScheduleOutput output;
        pl::Pipeline pipeline(technique);
        pipeline.add(pl::passes::transpile())
            .add(pl::passes::graphine_placement())
            .add(pl::passes::discretize())
            .add(pl::passes::aod_selection())
            .add(pl::Pass("schedule", [&output](pl::CompileContext& ctx) {
              parallax::compiler::SchedulerOptions scheduler =
                  ctx.options.scheduler;
              scheduler.shuffle_seed = parallax::util::derive_seed(
                  ctx.options.seed, ctx.input.name(),
                  parallax::util::kShuffleSeedSalt);
              output = parallax::compiler::schedule_gates(
                  ctx.result.circuit, *ctx.machine, scheduler);
            }));
        (void)pipeline.run(circuit, machine.config, options);
        const std::string prefix =
            std::string(acronym) + "/" + machine.name + "/" + technique + "/";
        schedule[prefix + "layers"] =
            static_cast<std::int64_t>(output.stats.layers);
        schedule[prefix + "aod_moves"] =
            static_cast<std::int64_t>(output.stats.aod_moves);
        schedule[prefix + "move_evaluations"] =
            static_cast<std::int64_t>(output.move_evaluations);
        schedule[prefix + "move_replays"] =
            static_cast<std::int64_t>(output.move_replays);
      }
    }
  }
  expect_counters(schedule, kScheduleCounters);

  // A sweep's cache traffic does not depend on its thread count.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_counters(sweep_counters(threads), kSweepCounters);
  }
}
