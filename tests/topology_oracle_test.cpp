// The pluggable DelayOracle subsystem: spec parsing, the quantized row
// store, bit-identity of the exact backend, and the landmark/ALT backend's
// certified-envelope guarantees under churn (attached and standalone).
#include "topology/oracle/oracle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "topology/failures.hpp"
#include "topology/incremental/cache.hpp"
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
                         std::size_t servers = 4) {
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
  return build_network(infra, iot, edges, kDelay);
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

// ---- ExactOracle -----------------------------------------------------------

TEST(ExactOracle, BitIdenticalToDelayMatrixCacheThroughChurn) {
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 7);
  NetworkTopology net2 = net;  // the reference drives an identical copy
  incr::IncrementalDelayEngine engine(net);
  incr::IncrementalDelayEngine reference_engine(net2);
  incr::DelayMatrixCache cache(reference_engine);
  auto oracle = make_oracle(OracleConfig{}, engine);
  EXPECT_EQ(oracle->name(), "exact");
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle->bind_row(i, net.iot_nodes[i]);
    cache.bind_row(i, net2.iot_nodes[i]);
  }
  EXPECT_EQ(oracle->fingerprint(), cache.fingerprint());

  const auto links = backbone_links(net);
  util::Rng rng(77);
  for (int step = 0; step < 30; ++step) {
    const auto& [u, v] = links[rng.index(links.size())];
    if (net.link_failed(u, v)) {
      engine.restore_link(u, v);
      reference_engine.restore_link(u, v);
    } else if (rng.uniform() < 0.5) {
      engine.fail_link(u, v);
      reference_engine.fail_link(u, v);
    } else {
      const double ms = rng.uniform(0.5, 6.0);
      engine.set_link_latency(u, v, ms);
      reference_engine.set_link_latency(u, v, ms);
    }
    EXPECT_EQ(oracle->refresh(), cache.refresh());
    EXPECT_EQ(oracle->rows_refreshed(), cache.rows_refreshed());
    EXPECT_EQ(oracle->rows_saved(), cache.rows_saved());
    EXPECT_EQ(oracle->fingerprint(), cache.fingerprint());
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      EXPECT_EQ(oracle->row(i), cache.row(i));
      EXPECT_EQ(oracle->row_epoch(i), cache.row_epoch(i));
    }
  }
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle->check_invariants();
  }
}

TEST(ExactOracle, CompressedModeStaysWithinQuantizationSlack) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 13);
  incr::IncrementalDelayEngine engine(net);
  OracleConfig config;
  config.compress = true;
  config.hot_rows = 2;  // force demotion traffic with 24 devices
  auto oracle = make_oracle(config, engine);
  EXPECT_EQ(oracle->name(), "exact+compress");

  incr::DelayMatrixCache reference(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle->bind_row(i, net.iot_nodes[i]);
    reference.bind_row(i, net.iot_nodes[i]);
  }
  // Touch every row twice so most traffic comes from the cold tier.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      const std::vector<double>& served = oracle->row(i);
      const std::vector<double>& truth = reference.row(i);
      double max_finite = 0.0;
      for (const double v : truth) {
        if (v != kUnreachable) max_finite = std::max(max_finite, v);
      }
      const double scale = max_finite / 65534.0;
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
  }
  EXPECT_GT(oracle->stats().row_fills, 0u);
  // Residency stays bounded by the store, not the device count.
  const auto links = backbone_links(net);
  engine.fail_link(links[0].first, links[0].second);
  oracle->refresh();
  reference.refresh();
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    const std::vector<double>& truth = reference.row(i);
    const std::vector<double>& served = oracle->row(i);
    for (std::size_t j = 0; j < truth.size(); ++j) {
      if (truth[j] == kUnreachable) {
        EXPECT_EQ(served[j], kUnreachable);
      }
    }
  }
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle->check_invariants();
  }
}

// ---- LandmarkOracle --------------------------------------------------------

/// Exact (device, server) delay via a fresh Dijkstra from the device node.
double exact_delay(const NetworkTopology& net, std::size_t device,
                   std::size_t server) {
  const ShortestPathTree tree = dijkstra(net.graph, net.iot_nodes[device]);
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

TEST(RowBindings, BindUnbindRebindBookkeeping) {
  RowBindings book;
  EXPECT_FALSE(book.bind(0, 5));
  EXPECT_FALSE(book.bind(1, 7));
  EXPECT_EQ(book.bound, 2u);
  EXPECT_EQ(book.row_of(5), 0u);
  EXPECT_TRUE(book.bind(0, 9));  // rebind
  EXPECT_EQ(book.row_of(9), 0u);
  EXPECT_EQ(book.row_of(5), RowBindings::kUnbound);
  EXPECT_TRUE(book.unbind(1));
  EXPECT_FALSE(book.unbind(1));  // already unbound
  EXPECT_EQ(book.bound, 1u);
  EXPECT_EQ(book.row_node(1), kInvalidNode);
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    book.check_invariants();
  }
}

}  // namespace
}  // namespace tacc::topo::oracle
