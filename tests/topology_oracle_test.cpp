// The DelayOracle: spec parsing, bit-identity with the engine's trees
// through churn, refresh accounting, shared key rows and the row
// bookkeeping.
#include "topology/oracle/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "topology/failures.hpp"
#include "topology/oracle/config.hpp"
#include "topology/shortest_paths.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace tacc::topo::oracle {

/// Friend of DelayOracle: the private key epochs.
struct DelayOracleTestPeer {
  static std::uint64_t& key_epoch(DelayOracle& oracle, std::uint32_t key) {
    return oracle.keys_[key].epoch;
  }
};

namespace {


/// Device `slot`'s delay to server `server` as the engine serves it: its
/// anchor's tree distance plus its access latency.
double device_delay(const incr::IncrementalDelayEngine& engine,
                    const NetworkTopology& net, std::size_t slot,
                    std::size_t server) {
  return engine.delay_ms(server, net.hosts.anchor[slot]) +
         net.hosts.access[slot].latency_ms;
}

NetworkTopology make_net(TopologyFamily family, std::uint64_t seed,
                         std::size_t routers = 49, std::size_t devices = 24,
                         std::size_t servers = 4) {
  util::Rng rng(seed);
  GeneratorParams params;
  params.node_count = routers;
  const GeoGraph infra = generate(family, params, rng);
  std::vector<Point2D> iot(devices);
  std::vector<Point2D> edges(servers);
  for (auto& p : iot) p = {rng.uniform(0.0, params.area_km),
                           rng.uniform(0.0, params.area_km)};
  for (auto& p : edges) p = {rng.uniform(0.0, params.area_km),
                             rng.uniform(0.0, params.area_km)};
  return build_network(infra, iot, edges);
}

// ---- Spec parsing ----------------------------------------------------------

TEST(OracleConfig, ParsesSpecsAndRoundTrips) {
  EXPECT_EQ(parse_oracle_spec(""), OracleConfig{});
  EXPECT_EQ(parse_oracle_spec("exact"), OracleConfig{});
}

TEST(OracleConfig, RejectsMalformedSpecs) {
  // "exact" is the whole grammar: no other backend, no keys.
  for (const char* spec :
       {"alt", "landmark", "landmark,k=4,eps=0.2", "exact,compress=1",
        "exact,hot=8", "exact,k=4", "exact,", "Exact"}) {
    EXPECT_THROW((void)parse_oracle_spec(spec), std::invalid_argument)
        << spec;
  }
}

// ---- DelayOracle -----------------------------------------------------------

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
std::uint64_t rows_digest(const DelayOracle& oracle) {
  std::uint64_t state = 0x7ACC5EEDULL;
  std::uint64_t digest = 0;
  const auto mix = [&state, &digest](std::uint64_t value) {
    state ^= value;
    digest = util::splitmix64(state);
  };
  for (std::size_t i = 0; i < oracle.row_count(); ++i) {
    if (!oracle.row_bound(i)) continue;
    for (const double value : oracle.row(i)) {
      mix(std::bit_cast<std::uint64_t>(value));
    }
    mix(oracle.row_epoch(i));
  }
  return digest;
}

// Recorded from the standalone DelayMatrixCache before the cache was folded
// into the oracle's row store: step 0 is the freshly bound state, then one
// row per churn step below.
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

TEST(ExactOracle, BitIdenticalToDelayMatrixCacheThroughChurn) {
  const auto& golden = kDenseGolden;
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 7);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i);
  }
  const auto expect_step = [&](std::size_t step, std::size_t refreshed) {
    SCOPED_TRACE("step " + std::to_string(step));
    const GoldenStep& want = golden[step];
    EXPECT_EQ(refreshed, want.refreshed);
    EXPECT_EQ(oracle.rows_refreshed(), want.rows_refreshed);
    EXPECT_EQ(oracle.rows_saved(), want.rows_saved);
    EXPECT_EQ(oracle.fingerprint(), want.fingerprint);
    EXPECT_EQ(rows_digest(oracle), want.rows_digest);
    EXPECT_EQ(oracle.stats().row_fills, want.row_fills);
    // Rows are exact: check them against the engine's trees too.
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      const std::vector<double>& served = oracle.row(i);
      for (std::size_t j = 0; j < net.edge_count(); ++j) {
        EXPECT_EQ(served[j], device_delay(engine, net, i, j));
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
    expect_step(step, oracle.refresh());
  }
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle.check_invariants();
  }
}

TEST(ExactOracle, RefreshRewritesExactlyTheDirtyBoundRows) {
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 21);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i);
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
  DelayOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i);
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
  DelayOracle oracle(engine);
  oracle.bind_row(0);
  oracle.bind_row(1);
  oracle.unbind_row(0);
  EXPECT_EQ(oracle.bound_count(), 1u);
  EXPECT_FALSE(oracle.row_bound(0));
  // Slot reuse by a different device: device 2's attachment.
  engine.detach_host(0);
  engine.attach_host(0, net.hosts.anchor[2], net.hosts.access[2],
                     net.iot_position(2));
  oracle.bind_row(0);
  EXPECT_EQ(oracle.bound_count(), 2u);
  const auto tree =
      dijkstra(net.graph, net.edge_nodes[0], net.router_count());
  EXPECT_EQ(oracle.row(0)[0], tree.distance_ms[net.hosts.anchor[2]] +
                                  net.hosts.access[2].latency_ms);
}

TEST(ExactOracle, RefreshAllRecoversAfterOutOfBandRebuild) {
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 61);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i);
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

/// Distinct anchors of the devices of `net`: the key rows the oracle holds
/// once every device is bound.
std::size_t key_rows(const NetworkTopology& net) {
  std::vector<NodeId> keys = net.hosts.anchor;
  std::sort(keys.begin(), keys.end());
  return static_cast<std::size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
}

TEST(ExactOracle, ResidentBytesKeepRecycledRowAllocations) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 47);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i);
  }
  ASSERT_EQ(oracle.bound_count(), 24u);
  const std::size_t bound_bytes = oracle.resident_bytes();
  // Unbound rows keep their values allocated for the next JOIN to refill
  // in place, so the memory stays held and must stay counted.
  for (std::size_t i = 0; i < 12; ++i) oracle.unbind_row(i);
  EXPECT_GE(oracle.resident_bytes(), bound_bytes);
  EXPECT_GE(bound_bytes,
            key_rows(net) * net.edge_count() * sizeof(double) +
                net.iot_count() * DelayOracle::kRowBytes);
}

// The devices of one anchor share its key row, so at the
// link_churn serving shape (2 000 devices x 32 servers over 64 routers) the
// dense store holds well under a quarter of one row per device.
TEST(ExactOracle, SharedKeyRowsStayFarBelowOneRowPerDevice) {
  NetworkTopology net = make_net(TopologyFamily::kWaxman, 53, 64, 2000, 32);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i);
  }
  const std::size_t per_device_rows =
      net.iot_count() * net.edge_count() * sizeof(double);
  EXPECT_LE(key_rows(net), 64u);
  EXPECT_LT(oracle.resident_bytes() * 4, per_device_rows);
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle.check_invariants();
  }
}

// Mixed churn through the DelayOracle: backbone fail/restore/reweight, an
// anchor router cut off the backbone, devices moving (to another router, or
// to the same one by a one-ulp latency change), leaving, and joining onto
// recycled slots. The engine reports no device's attachment, so every
// attach is followed by a rebind of the touched slot, as DynamicCluster
// does; a detached slot is refused by bind_row. After every event and
// refresh() each bound slot must serve the engine's value bitwise, through
// both row() and delay_ms(), and carry the epoch of its bind or of the
// last refresh that rewrote the key it reads through.
TEST(ExactOracle, MixedChurnServesEngineValuesAndEpochs) {
  util::Rng rng(0x3C4D);
  GeneratorParams params;
  params.node_count = 36;
  const GeoGraph infra =
      generate(TopologyFamily::kRandomGeometric, params, rng);
  std::vector<Point2D> iot(24);
  std::vector<Point2D> edges(4);
  for (auto& p : iot) p = {rng.uniform(0.0, params.area_km),
                           rng.uniform(0.0, params.area_km)};
  for (auto& p : edges) p = {rng.uniform(0.0, params.area_km),
                             rng.uniform(0.0, params.area_km)};
  NetworkTopology net = build_network(infra, iot, edges);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);

  std::vector<bool> bound(net.iot_count(), false);
  std::vector<std::uint64_t> want_epoch(net.iot_count(), 0);
  std::vector<std::size_t> free_slots;
  const auto bind = [&](std::size_t slot) {
    oracle.bind_row(slot);
    bound[slot] = true;
    want_epoch[slot] = engine.epoch();
  };
  // Attaches `slot` anew: the bound row is refused while the slot is
  // detached, and rebound after.
  const auto reattach = [&](std::size_t slot, NodeId router, double ms) {
    const NodeId old = oracle.row_key(slot);
    engine.detach_host(slot);
    EXPECT_THROW(oracle.bind_row(slot), std::invalid_argument);
    EXPECT_EQ(oracle.row_key(slot), old) << "a refused bind changed the row";
    engine.attach_host(slot, router, {ms, 1.0}, net.iot_position(slot));
    bind(slot);
  };
  for (std::size_t i = 0; i < net.iot_count(); ++i) bind(i);

  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  std::size_t checks = 0;
  // Refreshes, then checks every bound slot against the engine.
  const auto refresh_and_check = [&](const std::string& what) {
    SCOPED_TRACE(what);
    for (std::size_t slot = 0; slot < bound.size(); ++slot) {
      if (bound[slot] && engine.is_dirty(net.hosts.anchor[slot])) {
        want_epoch[slot] = engine.epoch();
      }
    }
    (void)oracle.refresh();
    for (std::size_t slot = 0; slot < bound.size(); ++slot) {
      ASSERT_EQ(oracle.row_bound(slot), bound[slot]) << "slot " << slot;
      if (!bound[slot]) continue;
      const std::vector<double> served = oracle.row(slot);
      ASSERT_EQ(served.size(), net.edge_count());
      for (std::size_t j = 0; j < net.edge_count(); ++j) {
        const double want = device_delay(engine, net, slot, j);
        ASSERT_EQ(bits(served[j]), bits(want))
            << "row(" << slot << ")[" << j << "]";
        ASSERT_EQ(bits(oracle.delay_ms(slot, j)), bits(want))
            << "delay_ms(" << slot << ", " << j << ")";
      }
      ASSERT_EQ(oracle.row_epoch(slot), want_epoch[slot]) << "slot " << slot;
    }
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle.check_invariants();
    ++checks;
  };
  refresh_and_check("bound");

  // Cut a device's anchor off the backbone. Hosts never relay: moving the
  // device nearer its anchor does not move the anchor.
  const NodeId anchor = net.hosts.anchor[0];
  std::vector<NodeId> anchor_routers;
  for (const Adjacency& adj : net.graph.neighbors(anchor)) {
    if (adj.to < net.router_count()) anchor_routers.push_back(adj.to);
  }
  for (const NodeId router : anchor_routers) {
    engine.fail_link(anchor, router);
    refresh_and_check("isolate the anchor's backbone");
  }
  std::vector<double> anchor_before(net.edge_count());
  engine.delay_row(anchor, anchor_before);
  reattach(0, anchor, net.hosts.access[0].latency_ms * 0.5);
  refresh_and_check("move the device nearer its anchor");
  std::vector<double> anchor_after(net.edge_count());
  engine.delay_row(anchor, anchor_after);
  EXPECT_EQ(anchor_after, anchor_before);
  for (const NodeId router : anchor_routers) {
    engine.restore_link(anchor, router);
    refresh_and_check("restore the anchor's backbone");
  }

  std::array<std::size_t, 8> kinds{};
  for (std::size_t event = 0; event < 400; ++event) {
    const std::string what = "event " + std::to_string(event);
    std::size_t slot = rng.index(bound.size());
    const double roll = rng.uniform();
    if (roll < 0.3) {  // backbone
      const auto live = backbone_links(net);
      const double pick = rng.uniform();
      if (!net.failed_links.empty() && (pick < 0.3 || live.empty())) {
        const FailedLink& link =
            net.failed_links[rng.index(net.failed_links.size())];
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
    } else if (roll < 0.75 && bound[slot]) {  // the device moves
      const double ms = net.hosts.access[slot].latency_ms;
      if (rng.uniform() < 0.4) {  // same anchor, one ulp further
        reattach(slot, net.hosts.anchor[slot],
                 std::nextafter(ms, kUnreachable));
        ++kinds[4];
      } else {
        const Point2D pos{rng.uniform(0.0, params.area_km),
                          rng.uniform(0.0, params.area_km)};
        const auto router =
            static_cast<NodeId>(rng.index(net.router_count()));
        reattach(slot, router,
                 access_link(euclidean_distance(pos, net.positions[router]))
                     .latency_ms);
        ++kinds[5];
      }
    } else if (bound[slot]) {  // leave
      oracle.unbind_row(slot);
      bound[slot] = false;
      engine.detach_host(slot);
      free_slots.push_back(slot);
      ++kinds[6];
    } else if (!free_slots.empty()) {  // join onto the last freed slot
      slot = free_slots.back();
      free_slots.pop_back();
      const Point2D pos{rng.uniform(0.0, params.area_km),
                        rng.uniform(0.0, params.area_km)};
      const auto router = static_cast<NodeId>(rng.index(net.router_count()));
      engine.attach_host(
          slot, router,
          access_link(euclidean_distance(pos, net.positions[router])), pos);
      bind(slot);
      ++kinds[7];
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

// The epoch contract: through a seeded backbone churn, one reweight in
// three by a single ulp, no bound row's served value changes without its
// row_epoch() rising. The converse is relaxed on purpose: a key that moves
// by less than a device's latency can show still bumps that device's epoch.
TEST(ExactOracle, NoServedValueMovesWithoutItsEpochRising) {
  NetworkTopology net =
      make_net(TopologyFamily::kRandomGeometric, 0xE90C, 36, 30, 4);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i);
  }
  util::Rng rng(0xE90C);
  std::vector<std::vector<double>> rows(net.iot_count());
  std::vector<std::uint64_t> epochs(net.iot_count());
  const auto snapshot = [&] {
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      rows[i] = oracle.row(i);
      epochs[i] = oracle.row_epoch(i);
    }
  };
  snapshot();
  std::size_t moved = 0;
  std::size_t bumped_unmoved = 0;
  for (std::size_t event = 0; event < 500; ++event) {
    const auto live = backbone_links(net);
    const double roll = rng.uniform();
    if (!net.failed_links.empty() && (roll < 0.25 || live.empty())) {
      const FailedLink& link =
          net.failed_links[rng.index(net.failed_links.size())];
      engine.restore_link(link.u, link.v);
    } else if (roll < 0.5) {
      const auto [u, v] = live[rng.index(live.size())];
      engine.fail_link(u, v);
    } else {
      const auto [u, v] = live[rng.index(live.size())];
      const double old_ms = net.graph.edge_props(u, v)->latency_ms;
      engine.set_link_latency(u, v,
                              roll < 0.67
                                  ? std::nextafter(old_ms, kUnreachable)
                                  : old_ms * rng.uniform(0.5, 2.0));
    }
    (void)oracle.refresh();
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      const std::vector<double>& served = oracle.row(i);
      bool changed = false;
      for (std::size_t j = 0; j < served.size(); ++j) {
        changed = changed || std::bit_cast<std::uint64_t>(served[j]) !=
                                 std::bit_cast<std::uint64_t>(rows[i][j]);
      }
      if (changed) {
        ++moved;
        ASSERT_GT(oracle.row_epoch(i), epochs[i])
            << "event " << event << ": row " << i
            << " serves new values at an old epoch";
      } else if (oracle.row_epoch(i) > epochs[i]) {
        ++bumped_unmoved;
      }
    }
    snapshot();
  }
  EXPECT_GT(moved, 500u);
  // One-ulp reweights move routers by less than most latencies show.
  EXPECT_GT(bumped_unmoved, 0u);
}

// A backbone fail, restore or reweight dirties keys only, never a device,
// and refresh() counts exactly the bound rows that read through the keys it
// rewrote: the sum of their refcounts.
TEST(DelayOracle, BackboneEventsDirtyKeysAndCountTheirRefcounts) {
  NetworkTopology net =
      make_net(TopologyFamily::kRandomGeometric, 0xD117, 36, 30, 4);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i);
  }
  util::Rng rng(0xD117);
  std::array<std::size_t, 3> kinds{};
  std::size_t refreshed_total = 0;
  for (std::size_t event = 0; event < 300; ++event) {
    const auto live = backbone_links(net);
    const double roll = rng.uniform();
    if (!net.failed_links.empty() && (roll < 0.3 || live.empty())) {
      const FailedLink& link =
          net.failed_links[rng.index(net.failed_links.size())];
      engine.restore_link(link.u, link.v);
      ++kinds[0];
    } else if (roll < 0.6) {
      const auto [u, v] = live[rng.index(live.size())];
      engine.fail_link(u, v);
      ++kinds[1];
    } else {
      const auto [u, v] = live[rng.index(live.size())];
      engine.set_link_latency(
          u, v, net.graph.edge_props(u, v)->latency_ms * rng.uniform(0.5, 2.0));
      ++kinds[2];
    }
    std::size_t dirty_rows = 0;
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      if (engine.is_dirty(oracle.row_key(i))) ++dirty_rows;
    }
    const std::size_t refreshed = oracle.refresh();
    std::size_t refcounts = 0;
    for (const std::uint32_t key : oracle.moved_keys()) {
      for (std::size_t i = 0; i < net.iot_count(); ++i) {
        if (oracle.row_key_slot(i) == key) ++refcounts;
      }
    }
    EXPECT_EQ(refreshed, refcounts) << "event " << event;
    EXPECT_EQ(refreshed, dirty_rows) << "event " << event;
    refreshed_total += refreshed;
  }
  for (const std::size_t kind : kinds) EXPECT_GT(kind, 50u);
  EXPECT_GT(refreshed_total, 0u);
  EXPECT_EQ(oracle.rows_refreshed(), refreshed_total);
}

TEST(DelayOracle, EveryBackendCountsOneQueryPerEntryAndOnePerServerPerRow) {
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 31);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i);
  }
  std::uint64_t queries = oracle.stats().queries;
  const std::vector<double> served = oracle.row(0);
  EXPECT_EQ(oracle.stats().queries - queries, oracle.server_count());
  for (std::size_t j = 0; j < oracle.server_count(); ++j) {
    queries = oracle.stats().queries;
    EXPECT_EQ(oracle.delay_ms(0, j), served[j]);
    EXPECT_EQ(oracle.stats().queries - queries, 1u);
  }
  // Rows are filled on bind and refresh, never on a read.
  EXPECT_EQ(oracle.stats().row_fills, 0u);
}

// The rows a refresh() counts are exactly the bound rows whose key the
// drained dirty set held: moved_keys() names those keys, once each, and
// refresh() returns the number of bound rows reading them.
TEST(DelayOracle, RefreshedRowsAreTheBoundRowsOfTheDrainedDirtyNodes) {
  NetworkTopology net = make_net(TopologyFamily::kRandomGeometric, 59);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    oracle.bind_row(i);
  }
  // Leave one slot unbound: its node's distances move too, but no row
  // reads them.
  oracle.unbind_row(3);

  const auto links = backbone_links(net);
  std::size_t reported = 0;
  for (std::size_t k = 0; k < links.size(); ++k) {
    // Alternate failures and reweights so paths keep moving.
    if (k % 2 == 0) {
      engine.fail_link(links[k].first, links[k].second);
    } else {
      engine.set_link_latency(links[k].first, links[k].second, 0.01);
    }
    std::vector<std::uint32_t> expected;
    std::size_t rows = 0;
    for (std::size_t i = 0; i < net.iot_count(); ++i) {
      if (i == 3 || !engine.is_dirty(oracle.row_key(i))) continue;
      expected.push_back(oracle.row_key_slot(i));
      ++rows;
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    const std::size_t refreshed = oracle.refresh();
    EXPECT_EQ(refreshed, rows) << "link " << k;
    const std::span<const std::uint32_t> moved = oracle.moved_keys();
    std::vector<std::uint32_t> sorted(moved.begin(), moved.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, expected) << "link " << k;
    reported += refreshed;
  }
  EXPECT_GT(reported, 0u);

  // refresh_all() lists every live key once.
  std::vector<std::uint32_t> live;
  for (std::size_t i = 0; i < net.iot_count(); ++i) {
    if (i != 3) live.push_back(oracle.row_key_slot(i));
  }
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());
  oracle.refresh_all();
  std::vector<std::uint32_t> moved(oracle.moved_keys().begin(),
                                   oracle.moved_keys().end());
  std::sort(moved.begin(), moved.end());
  EXPECT_EQ(moved, live);
}

TEST(DelayOracle, BindUnbindRebindBookkeeping) {
  using Peer = DelayOracleTestPeer;
  NetworkTopology net = make_net(TopologyFamily::kGrid, 43);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);
  // Move the engine past epoch 0, so the stamps below are the fill's.
  const auto links = backbone_links(net);
  engine.set_link_latency(links[0].first, links[0].second, 2.5);
  oracle.refresh();
  ASSERT_GT(engine.epoch(), 0u);

  oracle.bind_row(0);
  oracle.bind_row(1);
  EXPECT_EQ(oracle.bound_count(), 2u);
  EXPECT_EQ(oracle.row_key(0), net.hosts.anchor[0]);
  // Slot 0 attaches anew where device 2 sits, and is rebound in place.
  const NodeId third = net.hosts.anchor[2];
  const double latency = net.hosts.access[2].latency_ms;
  engine.detach_host(0);
  engine.attach_host(0, third, net.hosts.access[2], net.iot_position(2));
  oracle.bind_row(0);
  EXPECT_EQ(oracle.bound_count(), 2u);
  EXPECT_EQ(oracle.row_count(), 2u);
  EXPECT_EQ(oracle.row_key(0), third);
  std::vector<double> want(net.edge_count());
  engine.delay_row(third, want);
  for (double& value : want) value += latency;
  EXPECT_EQ(oracle.row(0), want);
  EXPECT_EQ(oracle.row_epoch(0), engine.epoch());

  oracle.unbind_row(1);
  oracle.unbind_row(1);  // already unbound: a no-op
  EXPECT_EQ(oracle.bound_count(), 1u);
  EXPECT_FALSE(oracle.row_bound(1));
  {
    const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
    oracle.check_invariants();
    // A key row stamped past the engine epoch claims a fill that never
    // happened.
    std::uint64_t& stamp = Peer::key_epoch(oracle, oracle.row_key_slot(0));
    stamp = engine.epoch() + 1;
    EXPECT_THROW(oracle.check_invariants(), contracts::ContractViolation);
    stamp = engine.epoch();
    oracle.check_invariants();
  }
}

TEST(DelayOracle, UnboundRowHasNoEpoch) {
  NetworkTopology net = make_net(TopologyFamily::kGrid, 45);
  incr::IncrementalDelayEngine engine(net);
  DelayOracle oracle(engine);
  oracle.bind_row(0);
  oracle.bind_row(1);
  oracle.unbind_row(0);
  const contracts::ScopedFailureHandler guard(&contracts::throw_handler);
  if (contracts::enabled()) {
    EXPECT_THROW((void)oracle.row_epoch(0), contracts::ContractViolation);
  } else {
    // The contract is compiled out; the checked lookup still refuses.
    EXPECT_THROW((void)oracle.row_epoch(0), std::out_of_range);
  }
  EXPECT_EQ(oracle.row_epoch(1), engine.epoch());
}

}  // namespace
}  // namespace tacc::topo::oracle
