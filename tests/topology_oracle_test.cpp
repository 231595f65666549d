// The pluggable DelayOracle subsystem: spec parsing, the quantized row
// store, bit-identity of the exact backend, and the landmark/ALT backend's
// certified-envelope guarantees under churn (attached and standalone).
#include "topology/oracle/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "topology/failures.hpp"
#include "topology/oracle/exact.hpp"
#include "topology/oracle/landmark.hpp"
#include "topology/oracle/rowstore.hpp"
#include "topology/shortest_paths.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace tacc::topo::oracle {
namespace {

const LinkDelayModel kDelay;

NetworkTopology make_net(TopologyFamily family, std::uint64_t seed,
                         std::size_t routers = 49, std::size_t devices = 24,
                         std::size_t servers = 4,
                         const AttachParams& attach = {}) {
  util::Rng rng(seed);
  GeneratorParams params;
  params.node_count = routers;
  const GeoGraph infra = generate(family, params, kDelay, rng);
  std::vector<Point2D> iot(devices);
  std::vector<Point2D> edges(servers);
  for (auto& p : iot) p = {rng.uniform(0.0, params.area_km),
                           rng.uniform(0.0, params.area_km)};
  for (auto& p : edges) p = {rng.uniform(0.0, params.area_km),
                             rng.uniform(0.0, params.area_km)};
  return build_network(infra, iot, edges, kDelay, attach);
}

// ---- Spec parsing ----------------------------------------------------------

TEST(OracleConfig, ParsesSpecsAndRoundTrips) {
  const OracleConfig def = parse_oracle_spec("");
  EXPECT_EQ(def, OracleConfig{});
  EXPECT_EQ(parse_oracle_spec("exact"), OracleConfig{});

  const OracleConfig landmark = parse_oracle_spec("landmark,k=12,eps=0.2");
  EXPECT_EQ(landmark.backend, OracleBackend::kLandmark);
  EXPECT_EQ(landmark.landmarks, 12u);
  EXPECT_DOUBLE_EQ(landmark.max_rel_error, 0.2);

  const OracleConfig compressed = parse_oracle_spec("exact,compress=1,hot=7");
  EXPECT_TRUE(compressed.compress);
  EXPECT_EQ(compressed.hot_rows, 7u);

  // Canonical round trip for both backends.
  EXPECT_EQ(parse_oracle_spec(to_string(landmark)), landmark);
  EXPECT_EQ(parse_oracle_spec(to_string(compressed)), compressed);
  const OracleConfig seeded = parse_oracle_spec("landmark,seed=9,k=3");
  EXPECT_EQ(parse_oracle_spec(to_string(seeded)), seeded);

  // compress= is an exact-only key: the landmark store is always bounded.
  EXPECT_THROW((void)parse_oracle_spec("landmark,compress=1"),
               std::invalid_argument);
  EXPECT_EQ(to_string(landmark).find("compress="), std::string::npos);
}

TEST(OracleConfig, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_oracle_spec("alt"), std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("exact,k=4"), std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("landmark,k=0"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("landmark,eps=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("landmark,eps=xyz"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("landmark,bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_oracle_spec("exact,hot=0"), std::invalid_argument);
}

// ---- QuantizedRowStore -----------------------------------------------------

TEST(QuantizedRowStore, HotRowsExactColdRowsWithinOneScaleStep) {
  QuantizedRowStore store(/*width=*/4, /*hot_capacity=*/2,
                          /*cold_capacity=*/8);
  const std::vector<double> a = {1.0, 2.5, 0.0, kUnreachable};
  const std::vector<double> b = {10.0, 0.25, 3.75, 9.5};
  const std::vector<double> c = {100.0, 50.0, 25.0, 12.5};
  store.put(0, a);
  store.put(1, b);
  const std::vector<double>* hot = store.get(1);
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(*hot, b);  // hot tier is bit-exact

  store.put(2, c);  // demotes row 0 to the quantized cold tier
  EXPECT_EQ(store.hot_size(), 2u);
  EXPECT_EQ(store.cold_size(), 1u);
  const std::vector<double>* cold = store.get(0);  // promotes back
  ASSERT_NE(cold, nullptr);
  const double scale = 2.5 / 65534.0;  // max finite of row a
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j] == kUnreachable) {
      EXPECT_EQ((*cold)[j], kUnreachable);
    } else {
      EXPECT_GE((*cold)[j], a[j]);
      EXPECT_LE((*cold)[j], a[j] + scale * 1.0001);
    }
  }
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    store.check_invariants();
  }
}

TEST(QuantizedRowStore, EvictsBeyondColdCapacityAndErases) {
  QuantizedRowStore store(/*width=*/2, /*hot_capacity=*/1,
                          /*cold_capacity=*/2);
  const std::vector<double> row = {1.0, 2.0};
  for (std::size_t r = 0; r < 5; ++r) store.put(r, row);
  // 1 hot + at most 2 cold survive; the oldest rows fell off entirely.
  EXPECT_EQ(store.hot_size(), 1u);
  EXPECT_LE(store.cold_size(), 2u);
  EXPECT_EQ(store.get(0), nullptr);
  EXPECT_TRUE(store.contains(4));
  store.erase(4);
  EXPECT_FALSE(store.contains(4));
  EXPECT_EQ(store.get(4), nullptr);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    store.check_invariants();
  }
}

TEST(QuantizedRowStore, RowsCyclingBetweenTiersStayWithinOneScaleStep) {
  // Each get() of a cold row promotes it and each put() of another row
  // demotes it again; the served values must not creep up per round trip.
  util::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    QuantizedRowStore store(/*width=*/8, /*hot_capacity=*/1,
                            /*cold_capacity=*/2);
    std::vector<double> truth(8);
    for (double& value : truth) value = rng.uniform(0.5, 20.0);
    const double scale =
        *std::max_element(truth.begin(), truth.end()) / 65534.0;
    store.put(0, truth);
    for (int cycle = 0; cycle < 6; ++cycle) {
      store.put(1, std::vector<double>(8, 1.0));  // demotes row 0
      const std::vector<double>* served = store.get(0);
      ASSERT_NE(served, nullptr);
      for (std::size_t j = 0; j < truth.size(); ++j) {
        EXPECT_GE((*served)[j], truth[j]);
        EXPECT_LE((*served)[j], truth[j] + scale * 1.0001)
            << "trial " << trial << " cycle " << cycle;
      }
    }
  }
}

// ---- ExactOracle -----------------------------------------------------------

/// One step of the recorded churn run: refresh()'s return, the cumulative
/// refresh counters, fingerprint(), rows_digest() and stats().row_fills.
struct GoldenStep {
  std::size_t refreshed;
  std::uint64_t rows_refreshed;
  std::uint64_t rows_saved;
  std::uint64_t fingerprint;
  std::uint64_t rows_digest;
  std::uint64_t row_fills;
};

/// Splitmix64 chain over every bound row's value bits and row_epoch().
/// Reads each row, so it fills lazy rows.
std::uint64_t rows_digest(const DelayOracle& oracle) {
  std::uint64_t state = 0x7ACC5EEDULL;
  std::uint64_t digest = 0;
  const auto mix = [&state, &digest](std::uint64_t value) {
    state ^= value;
    digest = util::splitmix64(state);
  };
  for (std::size_t i = 0; i < oracle.row_count(); ++i) {
    if (oracle.row_node(i) == kInvalidNode) continue;
    for (const double value : oracle.row(i)) {
      mix(std::bit_cast<std::uint64_t>(value));
    }
    mix(oracle.row_epoch(i));
  }
  return digest;
}

// Recorded from the standalone DelayMatrixCache (dense) and the compressed
// ExactOracle before the cache was folded into ExactOracle's row store:
// step 0 is the freshly bound state, then one row per churn step below.
constexpr std::array<GoldenStep, 31> kDenseGolden = {{
    {0, 0, 0, 0xCD9F339560F46DDAULL, 0xA5FBE67661141EAAULL, 0},
    {0, 0, 24, 0x855D7ADD48D991CAULL, 0xA5FBE67661141EAAULL, 0},
    {0, 0, 48, 0x42B9DDD8BC3CFEE4ULL, 0xA5FBE67661141EAAULL, 0},
    {0, 0, 72, 0x1D4B54ECE6704DC0ULL, 0xA5FBE67661141EAAULL, 0},
    {0, 0, 96, 0xF022D1907531627AULL, 0xA5FBE67661141EAAULL, 0},
    {3, 3, 117, 0x954B02870A5047A9ULL, 0x8B0CBD1F3027032FULL, 0},
    {0, 3, 141, 0xC2B388EC854D9E56ULL, 0x8B0CBD1F3027032FULL, 0},
    {0, 3, 165, 0x135FE9DA510FDD4DULL, 0x8B0CBD1F3027032FULL, 0},
    {0, 3, 189, 0x6C637AC2B4AE330EULL, 0x8B0CBD1F3027032FULL, 0},
    {0, 3, 213, 0xE843EA1743F83BCEULL, 0x8B0CBD1F3027032FULL, 0},
    {0, 3, 237, 0xE05B1B686E36D0F3ULL, 0x8B0CBD1F3027032FULL, 0},
    {0, 3, 261, 0xA1F8554A36AE1393ULL, 0x8B0CBD1F3027032FULL, 0},
    {0, 3, 285, 0xC1489BEB1A09A7C6ULL, 0x8B0CBD1F3027032FULL, 0},
    {0, 3, 309, 0x9297FB7EB43F6488ULL, 0x8B0CBD1F3027032FULL, 0},
    {1, 4, 332, 0xB81D830C085C4AA9ULL, 0x00A93A1C2A67112DULL, 0},
    {0, 4, 356, 0x73A581287D4602C0ULL, 0x00A93A1C2A67112DULL, 0},
    {2, 6, 378, 0x6938246A86819822ULL, 0x6722AF6D226C3B84ULL, 0},
    {0, 6, 402, 0x4080A74F2F93E206ULL, 0x6722AF6D226C3B84ULL, 0},
    {0, 6, 426, 0xBA81FB95BAC085FBULL, 0x6722AF6D226C3B84ULL, 0},
    {1, 7, 449, 0x012242198CE4CE56ULL, 0x0F00758F178B1411ULL, 0},
    {0, 7, 473, 0xA6540FA43CB232E0ULL, 0x0F00758F178B1411ULL, 0},
    {0, 7, 497, 0x215DF95E66A55079ULL, 0x0F00758F178B1411ULL, 0},
    {5, 12, 516, 0x1AC51F411E88F13CULL, 0xB4E82FAFA06FE9A4ULL, 0},
    {0, 12, 540, 0x321F7C0B7A33ED0DULL, 0xB4E82FAFA06FE9A4ULL, 0},
    {0, 12, 564, 0xFE0912BD23B8FD1DULL, 0xB4E82FAFA06FE9A4ULL, 0},
    {4, 16, 584, 0x93C9A27ADDEB8426ULL, 0x781CB94B120D6195ULL, 0},
    {2, 18, 606, 0x0593ED02DED88406ULL, 0xE2191FAE17CDF8D1ULL, 0},
    {0, 18, 630, 0x73D8B7EB54EA81FCULL, 0xE2191FAE17CDF8D1ULL, 0},
    {1, 19, 653, 0x5A545E00DCD05453ULL, 0x46D316375F040204ULL, 0},
    {0, 19, 677, 0x644077550C8888DAULL, 0x46D316375F040204ULL, 0},
    {0, 19, 701, 0x224DCF866C7CA82EULL, 0x46D316375F040204ULL, 0}
}};

constexpr std::array<GoldenStep, 31> kCompressedGolden = {{
    {0, 0, 0, 0x1C430B0BDC089B69ULL, 0xA5FBE67661141EAAULL, 24},
    {0, 0, 24, 0x8C7EA1DF20F9406BULL, 0xA5FBE67661141EAAULL, 24},
    {0, 0, 48, 0x1A0E2F1C01031ADAULL, 0xA5FBE67661141EAAULL, 24},
    {0, 0, 72, 0x768FECDFBADCFBD2ULL, 0xA5FBE67661141EAAULL, 24},
    {0, 0, 96, 0xD02FCC053093C2C8ULL, 0xA5FBE67661141EAAULL, 24},
    {3, 3, 117, 0xBF27EE494D6EE6BFULL, 0x8B0CBD1F3027032FULL, 27},
    {0, 3, 141, 0x562A26C29749FB04ULL, 0x8B0CBD1F3027032FULL, 27},
    {0, 3, 165, 0x168FCA7B1A0C00C1ULL, 0x8B0CBD1F3027032FULL, 27},
    {0, 3, 189, 0xEBA6D4C19C439D10ULL, 0x8B0CBD1F3027032FULL, 27},
    {0, 3, 213, 0xA314428CD730917FULL, 0x8B0CBD1F3027032FULL, 27},
    {0, 3, 237, 0x8E8CF26C6DBFCE91ULL, 0x8B0CBD1F3027032FULL, 27},
    {0, 3, 261, 0xE7DE3DC7F779053AULL, 0x8B0CBD1F3027032FULL, 27},
    {0, 3, 285, 0xE6D822EC287ED1E7ULL, 0x8B0CBD1F3027032FULL, 27},
    {0, 3, 309, 0x871405B46B07FA47ULL, 0x8B0CBD1F3027032FULL, 27},
    {1, 4, 332, 0x5CAB27578CE0B971ULL, 0x00A93A1C2A67112DULL, 28},
    {0, 4, 356, 0x5BB0DE01D05A697EULL, 0x00A93A1C2A67112DULL, 28},
    {2, 6, 378, 0x3328ED6DE6B9EFDAULL, 0x6722AF6D226C3B84ULL, 30},
    {0, 6, 402, 0x82FF97769BC849C0ULL, 0x6722AF6D226C3B84ULL, 30},
    {0, 6, 426, 0x670D9D8713FB05C8ULL, 0x6722AF6D226C3B84ULL, 30},
    {1, 7, 449, 0x968577F7B5CC0DE1ULL, 0x0F00758F178B1411ULL, 31},
    {0, 7, 473, 0xA21FEF6BDA4210F5ULL, 0x0F00758F178B1411ULL, 31},
    {0, 7, 497, 0x8D7B177CB789D7A7ULL, 0x0F00758F178B1411ULL, 31},
    {5, 12, 516, 0x1051457337B741E0ULL, 0xB4E82FAFA06FE9A4ULL, 36},
    {0, 12, 540, 0x68BB82720C499ADAULL, 0xB4E82FAFA06FE9A4ULL, 36},
    {0, 12, 564, 0x0C89D237221E8F7AULL, 0xB4E82FAFA06FE9A4ULL, 36},
    {4, 16, 584, 0xF8DBF58B5D53736AULL, 0x781CB94B120D6195ULL, 40},
    {2, 18, 606, 0x0249FFF86939BA6FULL, 0xE2191FAE17CDF8D1ULL, 42},
    {0, 18, 630, 0xEEBE3761EF9C87D6ULL, 0xE2191FAE17CDF8D1ULL, 42},
    {1, 19, 653, 0xB47527BDCCAE245DULL, 0x46D316375F040204ULL, 43},
    {0, 19, 677, 0xB088B5985B190851ULL, 0x46D316375F040204ULL, 43},
    {0, 19, 701, 0xFF4ECE0B84D39216ULL, 0x46D316375F040204ULL, 43}
}};

void expect_golden_churn(std::string_view spec, std::string_view name,
                         std::span<const GoldenStep> golden) {
  SCOPED_TRACE(std::string(spec));
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 7);
  incr::IncrementalDelayEngine engine(net);
  auto oracle = make_oracle(parse_oracle_spec(spec), engine);
  EXPECT_EQ(oracle->name(), name);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle->bind_row(i, net.iot_nodes[i]);
  }
  const auto expect_step = [&](std::size_t step, std::size_t refreshed) {
    SCOPED_TRACE("step " + std::to_string(step));
    const GoldenStep& want = golden[step];
    EXPECT_EQ(refreshed, want.refreshed);
    EXPECT_EQ(oracle->rows_refreshed(), want.rows_refreshed);
    EXPECT_EQ(oracle->rows_saved(), want.rows_saved);
    EXPECT_EQ(oracle->fingerprint(), want.fingerprint);
    EXPECT_EQ(rows_digest(*oracle), want.rows_digest);
    EXPECT_EQ(oracle->stats().row_fills, want.row_fills);
    if (name != "exact") return;
    // Dense rows are exact: check them against the engine's trees too.
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      const std::vector<double>& served = oracle->row(i);
      for (std::size_t j = 0; j < net.edge_count(); ++j) {
        EXPECT_EQ(served[j], engine.delay_ms(j, net.iot_nodes[i]));
      }
    }
  };
  ASSERT_EQ(golden.size(), 31u);
  expect_step(0, 0);

  const auto links = backbone_links(net);
  util::Rng rng(77);
  for (std::size_t step = 1; step < golden.size(); ++step) {
    const auto& [u, v] = links[rng.index(links.size())];
    if (net.link_failed(u, v)) {
      engine.restore_link(u, v);
    } else if (rng.uniform() < 0.5) {
      engine.fail_link(u, v);
    } else {
      engine.set_link_latency(u, v, rng.uniform(0.5, 6.0));
    }
    expect_step(step, oracle->refresh());
  }
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle->check_invariants();
  }
}

TEST(ExactOracle, BitIdenticalToDelayMatrixCacheThroughChurn) {
  expect_golden_churn("exact", "exact", kDenseGolden);
  expect_golden_churn("exact,compress=1", "exact+compress",
                      kCompressedGolden);
}

TEST(ExactOracle, CompressedModeStaysWithinQuantizationSlack) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 13);
  incr::IncrementalDelayEngine engine(net);
  OracleConfig config;
  config.compress = true;
  config.hot_rows = 2;  // force demotion traffic with 24 devices
  auto oracle = make_oracle(config, engine);
  EXPECT_EQ(oracle->name(), "exact+compress");
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle->bind_row(i, net.iot_nodes[i]);
  }

  // Every served row against the engine's current trees: unreachable stays
  // unreachable, finite values within one quantization step above.
  const auto expect_within_slack = [&] {
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      std::vector<double> truth(net.edge_count());
      double max_finite = 0.0;
      for (std::size_t j = 0; j < truth.size(); ++j) {
        truth[j] = engine.delay_ms(j, net.iot_nodes[i]);
        if (truth[j] != kUnreachable) {
          max_finite = std::max(max_finite, truth[j]);
        }
      }
      const double scale = max_finite / 65534.0;
      const std::vector<double>& served = oracle->row(i);
      for (std::size_t j = 0; j < truth.size(); ++j) {
        if (truth[j] == kUnreachable) {
          EXPECT_EQ(served[j], kUnreachable);
        } else {
          EXPECT_GE(served[j], truth[j]);
          EXPECT_LE(served[j], truth[j] + scale * 1.0001);
        }
      }
      // bounds_ms is computed live from the engine: always exact.
      const DelayBounds bounds = oracle->bounds_ms(i, 0);
      EXPECT_EQ(bounds.lo_ms, truth[0]);
      EXPECT_EQ(bounds.hi_ms, truth[0]);
      EXPECT_TRUE(bounds.certified);
    }
  };
  // Touch every row twice so most traffic comes from the cold tier.
  expect_within_slack();
  expect_within_slack();
  EXPECT_GT(oracle->stats().row_fills, 0u);

  // Fail backbone links until one moves some bound row's delays.
  const auto links = backbone_links(net);
  std::size_t refreshed = 0;
  for (std::size_t k = 0; k < links.size() && refreshed == 0; ++k) {
    engine.fail_link(links[k].first, links[k].second);
    refreshed = oracle->refresh();
  }
  ASSERT_GT(refreshed, 0u);
  expect_within_slack();
  expect_within_slack();
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle->check_invariants();
  }
}

TEST(ExactOracle, RefreshRewritesExactlyTheDirtyBoundRows) {
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 21);
  incr::IncrementalDelayEngine engine(net);
  ExactOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i, net.iot_nodes[i]);
  }
  EXPECT_EQ(oracle.bound_count(), net.iot_count());

  // Bound rows start identical to the batch precomputation.
  const DelayMatrix expected = compute_delay_matrix(net);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    for (std::size_t j = 0; j < net.edge_count(); ++j) {
      EXPECT_EQ(oracle.row(i)[j], expected.at(i, j));
    }
  }

  const auto links = backbone_links(net);
  engine.fail_link(links[0].first, links[0].second);
  const std::size_t refreshed = oracle.refresh();
  EXPECT_LE(refreshed, oracle.bound_count());
  EXPECT_EQ(oracle.rows_refreshed(), refreshed);
  EXPECT_EQ(oracle.rows_saved(), oracle.bound_count() - refreshed);
  {
    // Post-refresh the rows must be provably current (dirty-set empty, all
    // bound rows equal to the engine's trees).
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle.check_invariants();
  }

  const DelayMatrix degraded = compute_delay_matrix(net);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    for (std::size_t j = 0; j < net.edge_count(); ++j) {
      const double want = degraded.at(i, j);
      if (std::isinf(want)) {
        EXPECT_TRUE(std::isinf(oracle.row(i)[j]));
      } else {
        EXPECT_EQ(oracle.row(i)[j], want);
      }
    }
  }
  // Untouched rows keep their epoch; refreshed rows carry the new one.
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    EXPECT_TRUE(oracle.row_epoch(i) == 0 ||
                oracle.row_epoch(i) == engine.epoch());
  }
  EXPECT_EQ(oracle.materialize().iot_count(), net.iot_count());
}

TEST(ExactOracle, FingerprintTracksEpochAcrossRoundTrips) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 31);
  incr::IncrementalDelayEngine engine(net);
  ExactOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i, net.iot_nodes[i]);
  }
  const std::uint64_t fp0 = oracle.fingerprint();
  EXPECT_EQ(fp0, oracle.fingerprint());  // pure

  const auto links = backbone_links(net);
  engine.fail_link(links[0].first, links[0].second);
  oracle.refresh();
  const std::uint64_t fp1 = oracle.fingerprint();
  EXPECT_NE(fp0, fp1);

  engine.restore_link(links[0].first, links[0].second);
  oracle.refresh();
  // Values returned to the start state, but the epoch distinguishes the
  // mutation history — stale consumers keyed on the fingerprint must see a
  // change for each reconfiguration they slept through.
  EXPECT_NE(oracle.fingerprint(), fp0);
  EXPECT_NE(oracle.fingerprint(), fp1);
}

TEST(ExactOracle, UnbindAndRebindRecyclesRows) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 41);
  incr::IncrementalDelayEngine engine(net);
  ExactOracle oracle(engine);
  oracle.bind_row(0, net.iot_nodes[0]);
  oracle.bind_row(1, net.iot_nodes[1]);
  oracle.unbind_row(0);
  EXPECT_EQ(oracle.bound_count(), 1u);
  EXPECT_EQ(oracle.row_node(0), kInvalidNode);
  oracle.bind_row(0, net.iot_nodes[2]);  // slot reuse, different node
  EXPECT_EQ(oracle.bound_count(), 2u);
  const auto tree =
      dijkstra(net.graph, net.edge_nodes[0], net.router_count());
  EXPECT_EQ(oracle.row(0)[0], tree.distance_ms[net.iot_nodes[2]]);
}

TEST(ExactOracle, RefreshAllRecoversAfterOutOfBandRebuild) {
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 61);
  incr::IncrementalDelayEngine engine(net);
  ExactOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i, net.iot_nodes[i]);
  }
  const std::uint64_t refreshed_before = oracle.rows_refreshed();

  // Out-of-band topology edit the engine never saw: the rows are now
  // silently stale, and only the rebuild() + refresh_all() recovery hatch
  // brings them back.
  const auto links = backbone_links(net);
  net.graph.remove_edge(links[0].first, links[0].second);
  engine.rebuild();
  oracle.refresh_all();

  // refresh_all() counts every bound row toward rows_refreshed, exactly
  // once, regardless of how many actually changed value.
  EXPECT_EQ(oracle.rows_refreshed(), refreshed_before + oracle.bound_count());
  EXPECT_EQ(oracle.rows_saved(), 0u);

  const DelayMatrix expected = compute_delay_matrix(net);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    EXPECT_EQ(oracle.row_epoch(i), engine.epoch());
    for (std::size_t j = 0; j < net.edge_count(); ++j) {
      const double want = expected.at(i, j);
      if (std::isinf(want)) {
        EXPECT_TRUE(std::isinf(oracle.row(i)[j]));
      } else {
        EXPECT_EQ(oracle.row(i)[j], want);
      }
    }
  }
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle.check_invariants();
  }

  // A second refresh_all keeps accounting linear (no double counting of
  // rows that were already current).
  oracle.refresh_all();
  EXPECT_EQ(oracle.rows_refreshed(),
            refreshed_before + 2 * oracle.bound_count());
}

/// Distinct nodes the bound devices of `net` read through: the key rows a
/// dense ExactOracle holds.
std::size_t key_rows(const incr::IncrementalDelayEngine& engine,
                     const NetworkTopology& net) {
  std::vector<NodeId> keys;
  for (const NodeId device : net.iot_nodes) {
    keys.push_back(engine.read_through(device).node);
  }
  std::sort(keys.begin(), keys.end());
  return static_cast<std::size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
}

TEST(ExactOracle, ResidentBytesKeepRecycledRowAllocations) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 47);
  incr::IncrementalDelayEngine engine(net);
  ExactOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i, net.iot_nodes[i]);
  }
  ASSERT_EQ(oracle.bound_count(), 24u);
  const std::size_t bound_bytes = oracle.resident_bytes();
  // Unbound rows keep their values allocated for the next JOIN to refill
  // in place, so the memory stays held and must stay counted.
  for (std::size_t i = 0; i < 12; ++i) oracle.unbind_row(i);
  EXPECT_GE(oracle.resident_bytes(), bound_bytes);
  EXPECT_GE(bound_bytes,
            key_rows(engine, net) * net.edge_count() * sizeof(double) +
                net.iot_count() * RowStore::kDenseRowBytes);
}

// The single-homed devices of one anchor share its key row, so at the
// link_churn serving shape (2 000 devices x 32 servers over 64 routers) the
// dense store holds well under a quarter of one row per device.
TEST(ExactOracle, SharedKeyRowsStayFarBelowOneRowPerDevice) {
  NetworkTopology net = make_net(TopologyFamily::kWaxman, 53, 64, 2000, 32);
  incr::IncrementalDelayEngine engine(net);
  ExactOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i, net.iot_nodes[i]);
  }
  const std::size_t per_device_rows =
      net.iot_count() * net.edge_count() * sizeof(double);
  EXPECT_LE(key_rows(engine, net), 64u);
  EXPECT_LT(oracle.resident_bytes() * 4, per_device_rows);
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle.check_invariants();
  }
}

// Mixed churn through the dense ExactOracle: single-homed devices beside
// multi-homed ones, a device whose second link would be the shortest route
// to its anchor router (hosts never relay, so it carries none),
// access-link fail/restore/reweight (one-ulp included),
// backbone fail/restore/reweight, and unbind/rebind onto recycled slots.
// After every event and refresh() each bound slot must serve the engine's
// value bitwise, through both row() and delay_ms(), and carry the epoch of
// its bind or of the last refresh whose drained set held its node.
TEST(ExactOracle, MixedChurnServesEngineValuesAndEpochs) {
  util::Rng rng(0x3C4D);
  GeneratorParams params;
  params.node_count = 36;
  const GeoGraph infra =
      generate(TopologyFamily::kRandomGeometric, params, kDelay, rng);
  std::vector<Point2D> iot(24);
  std::vector<Point2D> edges(4);
  for (auto& p : iot) p = {rng.uniform(0.0, params.area_km),
                           rng.uniform(0.0, params.area_km)};
  for (auto& p : edges) p = {rng.uniform(0.0, params.area_km),
                             rng.uniform(0.0, params.area_km)};
  NetworkTopology net = build_network(infra, iot, edges, kDelay,
                                      AttachParams{.attach_count = 2});
  // Two devices in three keep one access link and read through their
  // anchor router; the rest stay multi-homed.
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    if (i % 3 == 0) continue;
    const NodeId device = net.iot_nodes[i];
    ASSERT_EQ(net.graph.degree(device), 2u);
    net.graph.remove_edge(device, net.graph.neighbors(device).back().to);
  }
  incr::IncrementalDelayEngine engine(net);
  ExactOracle oracle(engine);

  std::vector<NodeId> slot_node(net.iot_count(), kInvalidNode);
  std::vector<std::uint64_t> want_epoch(net.iot_count(), 0);
  std::vector<std::size_t> free_slots;
  const auto bind = [&](std::size_t slot, NodeId node) {
    oracle.bind_row(slot, node);
    slot_node[slot] = node;
    want_epoch[slot] = engine.epoch();
  };
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    bind(i, net.iot_nodes[i]);
  }

  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  std::size_t checks = 0;
  // Refreshes, then checks every bound slot against the engine.
  const auto refresh_and_check = [&](const std::string& what) {
    SCOPED_TRACE(what);
    for (std::size_t slot = 0; slot < slot_node.size(); ++slot) {
      if (slot_node[slot] != kInvalidNode &&
          engine.is_dirty(slot_node[slot])) {
        want_epoch[slot] = engine.epoch();
      }
    }
    (void)oracle.refresh();
    for (std::size_t slot = 0; slot < slot_node.size(); ++slot) {
      const NodeId node = slot_node[slot];
      if (node == kInvalidNode) continue;
      ASSERT_EQ(oracle.row_node(slot), node);
      const std::vector<double> served = oracle.row(slot);
      ASSERT_EQ(served.size(), net.edge_count());
      for (std::size_t j = 0; j < net.edge_count(); ++j) {
        const double want = engine.delay_ms(j, node);
        ASSERT_EQ(bits(served[j]), bits(want))
            << "row(" << slot << ")[" << j << "], node " << node;
        ASSERT_EQ(bits(oracle.delay_ms(slot, j)), bits(want))
            << "delay_ms(" << slot << ", " << j << "), node " << node;
      }
      ASSERT_EQ(oracle.row_epoch(slot), want_epoch[slot])
          << "slot " << slot << ", node " << node;
    }
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle.check_invariants();
    ++checks;
  };
  refresh_and_check("bound");

  // A single-homed device gains a nearly free second link to a router
  // other than its anchor and reads through itself from then on. With the
  // anchor's backbone links failed, the device would be the anchor's best
  // route to the servers, but hosts never relay: reweighting the device's
  // link to the anchor moves neither the anchor nor the device, whose own
  // route runs over the new link.
  std::size_t dual_slot = 0;
  while (engine.read_through(slot_node[dual_slot]).node ==
         slot_node[dual_slot]) {
    ++dual_slot;
  }
  const NodeId dual = slot_node[dual_slot];
  const Adjacency access = net.graph.neighbors(dual).front();
  const NodeId anchor = access.to;
  NodeId far_router = kInvalidNode;
  for (NodeId node = 0; node < net.graph.node_count(); ++node) {
    if (net.kinds[node] == NodeKind::kRouter && node != anchor &&
        net.graph.edge_props(node, anchor) == nullptr) {
      far_router = node;
      break;
    }
  }
  ASSERT_NE(far_router, kInvalidNode);
  engine.add_link(dual, far_router, EdgeProps{0.01, 100.0});
  ASSERT_EQ(engine.read_through(dual).node, dual);
  refresh_and_check("second link");
  std::vector<NodeId> anchor_routers;
  for (const Adjacency& adj : net.graph.neighbors(anchor)) {
    if (net.kinds[adj.to] == NodeKind::kRouter) {
      anchor_routers.push_back(adj.to);
    }
  }
  for (const NodeId router : anchor_routers) {
    engine.fail_link(anchor, router);
    refresh_and_check("isolate the anchor's backbone");
  }
  std::vector<double> dual_before(net.edge_count());
  std::vector<double> anchor_before(net.edge_count());
  for (std::size_t j = 0; j < net.edge_count(); ++j) {
    dual_before[j] = oracle.delay_ms(dual_slot, j);
    anchor_before[j] = engine.delay_ms(j, anchor);
  }
  engine.set_link_latency(dual, anchor, access.props.latency_ms * 0.5);
  refresh_and_check("reweight the device's link to the anchor");
  for (std::size_t j = 0; j < net.edge_count(); ++j) {
    EXPECT_EQ(bits(engine.delay_ms(j, anchor)), bits(anchor_before[j]));
    EXPECT_EQ(bits(oracle.delay_ms(dual_slot, j)),
              bits(dual_before[j]));
  }
  for (const NodeId router : anchor_routers) {
    engine.restore_link(anchor, router);
    refresh_and_check("restore the anchor's backbone");
  }

  const auto failed_access = [&](NodeId device) {
    return std::any_of(net.failed_links.begin(), net.failed_links.end(),
                       [device](const FailedLink& link) {
                         return link.u == device || link.v == device;
                       });
  };
  std::array<std::size_t, 8> kinds{};
  for (std::size_t event = 0; event < 400; ++event) {
    const std::string what = "event " + std::to_string(event);
    std::size_t slot = rng.index(slot_node.size());
    const NodeId device = slot_node[slot];
    const double roll = rng.uniform();
    if (roll < 0.3) {  // backbone
      const auto live = backbone_links(net);
      std::vector<FailedLink> failed_backbone;
      for (const FailedLink& link : net.failed_links) {
        if (net.kinds[link.u] == NodeKind::kRouter &&
            net.kinds[link.v] == NodeKind::kRouter) {
          failed_backbone.push_back(link);
        }
      }
      const double pick = rng.uniform();
      if (!failed_backbone.empty() && (pick < 0.3 || live.empty())) {
        const FailedLink& link =
            failed_backbone[rng.index(failed_backbone.size())];
        engine.restore_link(link.u, link.v);
        ++kinds[0];
      } else if (pick < 0.55) {
        const auto [u, v] = live[rng.index(live.size())];
        engine.fail_link(u, v);
        ++kinds[1];
      } else {
        const auto [u, v] = live[rng.index(live.size())];
        const double old_ms = net.graph.edge_props(u, v)->latency_ms;
        const bool ulp = rng.uniform() < 0.4;
        engine.set_link_latency(
            u, v, ulp ? std::nextafter(old_ms, kUnreachable)
                      : old_ms * rng.uniform(0.5, 2.0));
        ++kinds[ulp ? 2 : 3];
      }
    } else if (roll < 0.75 && device != kInvalidNode) {  // access link
      std::vector<FailedLink> failed_here;
      for (const FailedLink& link : net.failed_links) {
        if (link.u == device || link.v == device) failed_here.push_back(link);
      }
      const double pick = rng.uniform();
      if (!failed_here.empty() &&
          (pick < 0.4 || net.graph.degree(device) == 0)) {
        const FailedLink& link = failed_here[rng.index(failed_here.size())];
        engine.restore_link(link.u, link.v);
        ++kinds[4];
      } else if (net.graph.degree(device) == 0) {
        continue;
      } else {
        const Adjacency link = net.graph.neighbors(
            device)[rng.index(net.graph.degree(device))];
        if (pick < 0.6) {
          engine.fail_link(device, link.to);
          ++kinds[5];
        } else {
          const bool ulp = pick < 0.8;
          engine.set_link_latency(
              device, link.to,
              ulp ? std::nextafter(link.props.latency_ms, kUnreachable)
                  : link.props.latency_ms * rng.uniform(0.5, 2.0));
          ++kinds[ulp ? 6 : 3];
        }
      }
    } else if (device != kInvalidNode && !failed_access(device)) {  // leave
      oracle.unbind_row(slot);
      slot_node[slot] = kInvalidNode;
      engine.release_node(device);
      free_slots.push_back(slot);
      ++kinds[7];
    } else if (!free_slots.empty()) {  // join onto the last freed slot
      slot = free_slots.back();
      free_slots.pop_back();
      const Point2D pos{rng.uniform(0.0, params.area_km),
                        rng.uniform(0.0, params.area_km)};
      const NodeId node = engine.acquire_node(pos, NodeKind::kIotDevice);
      const std::size_t links = rng.uniform() < 0.3 ? 2 : 1;
      for (std::size_t k = 0; k < links; ++k) {
        NodeId router = kInvalidNode;
        while (router == kInvalidNode ||
               net.kinds[router] != NodeKind::kRouter ||
               net.graph.edge_props(node, router) != nullptr) {
          router = static_cast<NodeId>(rng.index(net.graph.node_count()));
        }
        engine.add_link(
            node, router,
            kDelay.access_link(euclidean_distance(pos, net.positions[router])));
      }
      bind(slot, node);
    } else {
      continue;
    }
    refresh_and_check(what);
    if (HasFatalFailure()) return;
  }
  for (std::size_t kind = 0; kind < kinds.size(); ++kind) {
    EXPECT_GT(kinds[kind], 5u) << "event kind " << kind << " barely ran";
  }
  EXPECT_GT(checks, 300u);
}

// ---- LandmarkOracle --------------------------------------------------------

/// Exact (device, server) delay via a fresh no-relay Dijkstra from the
/// device node.
double exact_delay(const NetworkTopology& net, std::size_t device,
                   std::size_t server) {
  const ShortestPathTree tree =
      dijkstra(net.graph, net.iot_nodes[device], net.router_count());
  return tree.distance_ms[net.edge_nodes[server]];
}

testing::AssertionResult envelopes_contain_exact(const DelayOracle& oracle,
                                                 const NetworkTopology& net,
                                                 double eps) {
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    const std::vector<double>& served = oracle.row(i);
    for (std::size_t j = 0; j < net.edge_count(); ++j) {
      const double exact = exact_delay(net, i, j);
      const DelayBounds bounds = oracle.bounds_ms(i, j);
      if (exact == kUnreachable) {
        if (served[j] != kUnreachable) {
          return testing::AssertionFailure()
                 << "(" << i << ", " << j << "): served " << served[j]
                 << " but exact is unreachable";
        }
        continue;
      }
      const double slack = 1e-9 * (1.0 + exact);
      if (bounds.lo_ms > exact + slack ||
          (bounds.hi_ms != kUnreachable && bounds.hi_ms + slack < exact)) {
        return testing::AssertionFailure()
               << "(" << i << ", " << j << "): envelope [" << bounds.lo_ms
               << ", " << bounds.hi_ms << "] excludes exact " << exact;
      }
      if (served[j] + slack < exact ||
          served[j] > (1.0 + eps) * exact + slack) {
        return testing::AssertionFailure()
               << "(" << i << ", " << j << "): served " << served[j]
               << " outside [exact, (1+eps)*exact] for exact " << exact;
      }
    }
  }
  return testing::AssertionSuccess();
}

TEST(LandmarkOracle, AttachedEnvelopesContainExactThroughChurn) {
  NetworkTopology net = make_net(TopologyFamily::kWaxman, 17);
  incr::IncrementalDelayEngine engine(net);
  OracleConfig config;
  config.backend = OracleBackend::kLandmark;
  config.landmarks = 6;
  config.max_rel_error = 0.15;
  auto oracle = make_oracle(config, engine);
  EXPECT_EQ(oracle->name(), "landmark");
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle->bind_row(i, net.iot_nodes[i]);
  }
  EXPECT_TRUE(envelopes_contain_exact(*oracle, net, config.max_rel_error));

  const auto links = backbone_links(net);
  util::Rng rng(18);
  for (int step = 0; step < 20; ++step) {
    const auto& [u, v] = links[rng.index(links.size())];
    if (net.link_failed(u, v)) {
      engine.restore_link(u, v);
    } else if (rng.uniform() < 0.4) {
      engine.fail_link(u, v);
    } else {
      engine.set_link_latency(u, v, rng.uniform(0.5, 6.0));
    }
    oracle->refresh();
    if (step % 5 == 0) {
      EXPECT_TRUE(
          envelopes_contain_exact(*oracle, net, config.max_rel_error));
      const contracts::ScopedFailureHandler guard(
          &contracts::throw_handler);
      oracle->check_invariants();
    }
  }
  // Link churn must never trigger a full landmark rebuild.
  EXPECT_EQ(oracle->stats().rebuilds, 0u);
  EXPECT_GT(oracle->stats().queries, 0u);
}

// With two access links per host the no-relay delay need not obey the
// triangle inequality ALT's lower bound rests on, so no entry may be served
// from an envelope: every one falls back to the exact value.
TEST(LandmarkOracle, MultiHomedEntriesFallBackToExact) {
  NetworkTopology net = make_net(TopologyFamily::kWaxman, 17, 49, 24, 4,
                                 AttachParams{.attach_count = 2});
  incr::IncrementalDelayEngine engine(net);
  OracleConfig config;
  config.backend = OracleBackend::kLandmark;
  config.landmarks = 6;
  config.max_rel_error = 0.15;
  auto oracle = make_oracle(config, engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle->bind_row(i, net.iot_nodes[i]);
  }
  const auto links = backbone_links(net);
  util::Rng rng(18);
  for (int step = 0; step < 10; ++step) {
    const auto& [u, v] = links[rng.index(links.size())];
    if (net.link_failed(u, v)) {
      engine.restore_link(u, v);
    } else {
      engine.fail_link(u, v);
    }
    oracle->refresh();
    EXPECT_TRUE(envelopes_contain_exact(*oracle, net, 0.0));
  }
  EXPECT_EQ(oracle->stats().bound_hits, 0u);
  EXPECT_GT(oracle->stats().exact_fallbacks, 0u);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  oracle->check_invariants();
}

TEST(LandmarkOracle, ZeroEpsServesExactValues) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 23);
  incr::IncrementalDelayEngine engine(net);
  OracleConfig config;
  config.backend = OracleBackend::kLandmark;
  config.max_rel_error = 0.0;  // only bit-tight envelopes may be served
  auto oracle = make_oracle(config, engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle->bind_row(i, net.iot_nodes[i]);
  }
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    const std::vector<double>& served = oracle->row(i);
    for (std::size_t j = 0; j < net.edge_count(); ++j) {
      const double exact = exact_delay(net, i, j);
      if (exact == kUnreachable) {
        EXPECT_EQ(served[j], kUnreachable);
      } else {
        EXPECT_NEAR(served[j], exact, 1e-9 * (1.0 + exact));
      }
    }
  }
}

TEST(LandmarkOracle, SelectionIsSeedDeterministic) {
  NetworkTopology net = make_net(TopologyFamily::kBarabasiAlbert, 29);
  incr::IncrementalDelayEngine engine_a(net);
  incr::IncrementalDelayEngine engine_b(net);
  OracleConfig config;
  config.backend = OracleBackend::kLandmark;
  config.landmarks = 5;
  config.seed = 99;
  const LandmarkOracle a(engine_a, config);
  const LandmarkOracle b(engine_b, config);
  EXPECT_EQ(a.landmark_nodes(), b.landmark_nodes());
  EXPECT_EQ(a.landmark_nodes().size(), 5u);

  config.seed = 100;
  const LandmarkOracle c(engine_b, config);
  // A different seed starts farthest-point sampling elsewhere; the sets are
  // allowed to coincide, but the first landmark is the seeded draw.
  EXPECT_EQ(c.landmark_nodes().size(), 5u);
}

TEST(LandmarkOracle, StandaloneMutationsInvalidateAndStayCertified) {
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 37);
  OracleConfig config;
  config.backend = OracleBackend::kLandmark;
  config.landmarks = 6;
  config.max_rel_error = 0.2;
  LandmarkOracle oracle(net, config);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i, net.iot_nodes[i]);
  }
  EXPECT_TRUE(envelopes_contain_exact(oracle, net, config.max_rel_error));
  const std::uint64_t epoch0 = oracle.epoch();

  const auto links = backbone_links(net);
  util::Rng rng(38);
  for (int step = 0; step < 12; ++step) {
    const auto& [u, v] = links[rng.index(links.size())];
    if (net.link_failed(u, v)) {
      const EdgeProps props = net.restore_link(u, v);
      oracle.apply_mutation(/*kind=*/0, u, v, 0.0, props.latency_ms);
    } else if (rng.uniform() < 0.4) {
      const EdgeProps props = net.fail_link(u, v);
      oracle.apply_mutation(/*kind=*/1, u, v, props.latency_ms,
                            kUnreachable);
    } else {
      const double ms = rng.uniform(0.5, 6.0);
      const EdgeProps props = net.set_link_latency(u, v, ms);
      oracle.apply_mutation(/*kind=*/2, u, v, props.latency_ms, ms);
    }
    oracle.refresh();
    EXPECT_TRUE(envelopes_contain_exact(oracle, net, config.max_rel_error));
  }
  EXPECT_GT(oracle.epoch(), epoch0);
  EXPECT_EQ(oracle.stats().rebuilds, 0u);
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle.check_invariants();
  }
}

TEST(LandmarkOracle, RefreshAllInvalidatesEverything) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 43);
  incr::IncrementalDelayEngine engine(net);
  OracleConfig config;
  config.backend = OracleBackend::kLandmark;
  auto oracle = make_oracle(config, engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle->bind_row(i, net.iot_nodes[i]);
  }
  for (std::size_t i = 0; i < net.iot_count(); ++i) (void)oracle->row(i);
  const std::uint64_t refreshed_before = oracle->rows_refreshed();
  oracle->refresh_all();
  EXPECT_EQ(oracle->rows_refreshed(),
            refreshed_before + oracle->bound_count());
  // Rows refill lazily and still serve certified values.
  EXPECT_TRUE(envelopes_contain_exact(*oracle, net, config.max_rel_error));
}

TEST(DelayOracle, EveryBackendCountsOneQueryPerEntryAndOnePerServerPerRow) {
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 31);
  incr::IncrementalDelayEngine engine(net);
  OracleConfig compressed;
  compressed.compress = true;
  OracleConfig landmark;
  landmark.backend = OracleBackend::kLandmark;
  for (const OracleConfig& config : {OracleConfig{}, compressed, landmark}) {
    auto oracle = make_oracle(config, engine);
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      oracle->bind_row(i, net.iot_nodes[i]);
    }
    std::uint64_t queries = oracle->stats().queries;
    const std::vector<double> served = oracle->row(0);
    EXPECT_EQ(oracle->stats().queries - queries, oracle->server_count())
        << oracle->name();
    for (std::size_t j = 0; j < oracle->server_count(); ++j) {
      queries = oracle->stats().queries;
      EXPECT_EQ(oracle->delay_ms(0, j), served[j]) << oracle->name();
      EXPECT_EQ(oracle->stats().queries - queries, 1u) << oracle->name();
    }
  }
}

// refreshed_rows() names exactly the bound rows whose nodes the drained
// dirty set held, once each, as many as refresh() returns, for both
// encodings.
TEST(DelayOracle, RefreshedRowsAreTheBoundRowsOfTheDrainedDirtyNodes) {
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 59);
  incr::IncrementalDelayEngine engine(net);
  OracleConfig compressed;
  compressed.compress = true;
  std::vector<std::unique_ptr<DelayOracle>> oracles;
  oracles.push_back(make_oracle(OracleConfig{}, engine));
  oracles.push_back(make_oracle(compressed, engine));
  for (const auto& oracle : oracles) {
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      oracle->bind_row(i, net.iot_nodes[i]);
    }
  }
  // Leave one slot unbound: its node's distances move too, but no row
  // reads them.
  for (const auto& oracle : oracles) oracle->unbind_row(3);

  const auto links = backbone_links(net);
  std::size_t reported = 0;
  for (std::size_t k = 0; k < links.size(); ++k) {
    // Alternate failures and reweights so paths keep moving.
    if (k % 2 == 0) {
      engine.fail_link(links[k].first, links[k].second);
    } else {
      engine.set_link_latency(links[k].first, links[k].second, 0.01);
    }
    // Both oracles drain one engine, so the expectation is taken before
    // the first refresh and the second refresh sees an empty dirty set.
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      if (i != 3 && engine.is_dirty(net.iot_nodes[i])) expected.push_back(i);
    }
    for (const auto& oracle : oracles) {
      const std::size_t refreshed = oracle->refresh();
      const std::span<const std::size_t> rows = oracle->refreshed_rows();
      EXPECT_EQ(rows.size(), refreshed) << oracle->name();
      std::vector<std::size_t> sorted(rows.begin(), rows.end());
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, expected) << oracle->name() << ", link " << k;
      reported += refreshed;
      expected.clear();
    }
  }
  EXPECT_GT(reported, 0u);

  // refresh_all() reports every bound row.
  for (const auto& oracle : oracles) {
    oracle->refresh_all();
    EXPECT_EQ(oracle->refreshed_rows().size(), oracle->bound_count());
  }
}

TEST(RowStore, BindUnbindRebindBookkeeping) {
  for (const RowEncoding encoding :
       {RowEncoding::kDense, RowEncoding::kBounded}) {
    RowStore store(encoding, /*width=*/2, /*hot_rows=*/1,
                   [](std::size_t, NodeId node, std::span<double> out) {
                     out[0] = node;
                     out[1] = 2.0 * node;
                     return std::uint64_t{3};
                   });
    store.bind(0, 5);
    store.bind(1, 7);
    EXPECT_EQ(store.bound_count(), 2u);
    EXPECT_EQ(store.row_of(5), 0u);
    store.bind(0, 9);  // rebind
    EXPECT_EQ(store.bound_count(), 2u);
    EXPECT_EQ(store.row_of(9), 0u);
    EXPECT_EQ(store.row_of(5), RowStore::kUnbound);
    EXPECT_EQ(store.row(0), (std::vector<double>{9.0, 18.0}));
    EXPECT_EQ(store.row_epoch(0), 3u);
    EXPECT_TRUE(store.unbind(1));
    EXPECT_FALSE(store.unbind(1));  // already unbound
    EXPECT_EQ(store.bound_count(), 1u);
    EXPECT_EQ(store.row_node(1), kInvalidNode);
    EXPECT_EQ(store.row_fills(),
              encoding == RowEncoding::kBounded ? 1u : 0u);
    {
      const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
      store.check_invariants(/*epoch=*/3);
      EXPECT_THROW(store.check_invariants(/*epoch=*/2),
                   contracts::ContractViolation);
    }
  }
}

}  // namespace
}  // namespace tacc::topo::oracle
