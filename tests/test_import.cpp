// Import-layer tests: single-pass scan totals must agree with a full parse,
// the manifest text format must round-trip, and load_circuits must refuse a
// file whose bytes drifted since import — the digest in the manifest is the
// same identity the persistent cache keys on, so drift detection is what
// keeps sweeps honest about their inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cache/fingerprint.hpp"
#include "circuit/circuit.hpp"
#include "import/manifest.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"

#include "mutation.hpp"

namespace fs = std::filesystem;
namespace pc = parallax::circuit;
namespace pi = parallax::importer;
namespace pk = parallax::cache;
namespace pq = parallax::qasm;

namespace {

/// A fresh scratch directory per call (same idiom as test_cache.cpp).
fs::path fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("parallax_import_" + tag + "_" +
                        std::to_string(::getpid()) + "_" +
                        std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

pc::Circuit sample_circuit(std::int32_t n, const std::string& name) {
  pc::Circuit c(n, name);
  for (std::int32_t i = 0; i + 1 < n; ++i) {
    c.h(i);
    c.cz(i, i + 1);
  }
  c.u3(0, 0.25, -0.5, 1.75);
  c.measure_all();
  return c;
}

std::string write_sample(const fs::path& dir, const std::string& stem,
                         std::int32_t n) {
  const fs::path path = dir / (stem + ".qasm");
  pq::write_qasm_file(sample_circuit(n, stem), path.string());
  return path.string();
}

}  // namespace

TEST(Import, ScanTotalsMatchFullParse) {
  const fs::path dir = fresh_dir("scan");
  const std::string path = write_sample(dir, "ghzish", 6);

  const pi::ImportEntry entry = pi::import_file(path);
  const pq::ParseResult parsed = pq::parse_file(path);

  EXPECT_EQ(entry.name, "ghzish");
  EXPECT_EQ(entry.path, path);
  EXPECT_EQ(entry.n_qubits, parsed.circuit.n_qubits());
  EXPECT_EQ(entry.n_clbits, parsed.n_classical_bits);
  EXPECT_EQ(entry.n_gates, parsed.circuit.size());
  EXPECT_EQ(entry.n_bytes, fs::file_size(path));
  // The digest is the streaming content fingerprint of the raw bytes.
  std::ifstream raw(path, std::ios::binary);
  EXPECT_EQ(entry.digest, pk::fingerprint_stream(raw));
}

TEST(Import, ManifestRoundTrips) {
  const fs::path dir = fresh_dir("roundtrip");
  std::vector<pi::ImportEntry> entries;
  entries.push_back(pi::import_file(write_sample(dir, "alpha", 4)));
  entries.push_back(pi::import_file(write_sample(dir, "beta", 9)));

  const std::string text = pi::write_manifest(entries);
  const std::vector<pi::ImportEntry> reparsed = pi::parse_manifest(text);
  ASSERT_EQ(reparsed.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(reparsed[i].name, entries[i].name);
    EXPECT_EQ(reparsed[i].path, entries[i].path);
    EXPECT_EQ(reparsed[i].digest, entries[i].digest);
    EXPECT_EQ(reparsed[i].n_qubits, entries[i].n_qubits);
    EXPECT_EQ(reparsed[i].n_clbits, entries[i].n_clbits);
    EXPECT_EQ(reparsed[i].n_gates, entries[i].n_gates);
    EXPECT_EQ(reparsed[i].n_bytes, entries[i].n_bytes);
  }

  // And through the file wrappers.
  const fs::path manifest = dir / "circuits.manifest";
  pi::save_manifest(entries, manifest.string());
  const auto loaded = pi::load_manifest(manifest.string());
  ASSERT_EQ(loaded.size(), entries.size());
  EXPECT_EQ(loaded[1].digest, entries[1].digest);
}

TEST(Import, ManifestToleratesCommentsAndCrlf) {
  const fs::path dir = fresh_dir("crlf");
  const pi::ImportEntry entry = pi::import_file(write_sample(dir, "gamma", 3));
  std::string text = pi::write_manifest({entry});
  // Re-join with CRLF line endings and inject a comment line.
  std::string crlf = "# parallax-import v1\r\n# regenerated by hand\r\n";
  crlf += text.substr(text.find('\n') + 1);
  const auto reparsed = pi::parse_manifest(crlf);
  ASSERT_EQ(reparsed.size(), 1u);
  EXPECT_EQ(reparsed[0].digest, entry.digest);
}

TEST(Import, LoadCircuitsMatchesDirectParse) {
  const fs::path dir = fresh_dir("load");
  std::vector<pi::ImportEntry> entries;
  entries.push_back(pi::import_file(write_sample(dir, "delta", 5)));

  const auto specs = pi::load_circuits(entries);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].name, "delta");

  const pc::Circuit direct = pq::parse_file(entries[0].path).circuit;
  EXPECT_EQ(pk::fingerprint(specs[0].circuit).hex(),
            pk::fingerprint(direct).hex());
}

TEST(Import, LoadCircuitsRejectsDriftedFile) {
  const fs::path dir = fresh_dir("drift");
  std::vector<pi::ImportEntry> entries;
  const std::string path = write_sample(dir, "epsilon", 4);
  entries.push_back(pi::import_file(path));

  // Mutate the file after import: still valid QASM, different bytes.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "u3(0.1,0.2,0.3) q[0];\n";
  }
  try {
    (void)pi::load_circuits(entries);
    FAIL() << "expected ImportError";
  } catch (const pi::ImportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(entries[0].digest.hex()), std::string::npos) << what;
    EXPECT_NE(what.find("changed since"), std::string::npos) << what;
  }
}

TEST(Import, MalformedManifestsAreRejected) {
  // Missing header.
  EXPECT_THROW(pi::parse_manifest("name\tdeadbeef\t1\t0\t1\t10\tp.qasm\n"),
               pi::ImportError);
  // Unknown header version.
  EXPECT_THROW(pi::parse_manifest("# parallax-import v9\n"), pi::ImportError);
  // Truncated line.
  EXPECT_THROW(
      pi::parse_manifest("# parallax-import v1\nname\tdeadbeef\n"),
      pi::ImportError);
  // Bad digest.
  EXPECT_THROW(pi::parse_manifest("# parallax-import v1\n"
                                  "name\tnot-a-digest\t1\t0\t1\t10\tp.qasm\n"),
               pi::ImportError);
  // Non-numeric count.
  EXPECT_THROW(
      pi::parse_manifest("# parallax-import v1\n"
                         "name\t00000000000000000000000000000000\tx\t0\t1\t10"
                         "\tp.qasm\n"),
      pi::ImportError);
  // Empty manifest (header only) is fine.
  EXPECT_TRUE(pi::parse_manifest("# parallax-import v1\n").empty());
}

TEST(ImportFuzz, MutatedManifestsParseOrThrowImportError) {
  // A comment line, CRLF and LF endings, and every field kind; the contract
  // is a list of entries or an ImportError.
  const fs::path dir = fresh_dir("fuzz");
  std::vector<pi::ImportEntry> entries;
  entries.push_back(pi::import_file(write_sample(dir, "alpha", 4)));
  entries.push_back(pi::import_file(write_sample(dir, "beta", 7)));
  std::string text = pi::write_manifest(entries);
  text.insert(text.find('\n') + 1, "# imported twice\r\n");
  ASSERT_EQ(pi::parse_manifest(text).size(), 2u);
  const auto tally = parallax::fuzz::run_mutants<pi::ImportError>(
      text, 0x3A1F, 20000,
      [](const std::string& bytes) { (void)pi::parse_manifest(bytes); });
  for (const std::string& escape : tally.escapes) {
    ADD_FAILURE() << "outside the contract: " << escape;
  }
  EXPECT_GT(tally.decoded, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(Import, MissingFilesThrow) {
  EXPECT_THROW((void)pi::import_file("/nonexistent/never.qasm"),
               pi::ImportError);
  EXPECT_THROW((void)pi::load_manifest("/nonexistent/never.manifest"),
               pi::ImportError);
  pi::ImportEntry ghost;
  ghost.name = "ghost";
  ghost.path = "/nonexistent/ghost.qasm";
  EXPECT_THROW((void)pi::load_circuits({ghost}), pi::ImportError);
}
