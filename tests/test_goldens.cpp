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

#include <string>

#include "bench_circuits/registry.hpp"
#include "cache/fingerprint.hpp"
#include "circuit/interaction_graph.hpp"
#include "circuit/transpile.hpp"
#include "placement/graphine.hpp"
#include "technique/registry.hpp"
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
