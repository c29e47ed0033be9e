// The tsod network front end: a TsodServer over a ServeEngine must answer
// every query kind over loopback TCP bit-identically to the in-process
// engine; pipelined distance runs must coalesce into engine batches and
// come back in order; SIGTERM-style Shutdown() must drain — every request
// already sent (buffered or in flight at the engine) gets its response
// before the connection closes; protocol garbage must kill only its own
// connection; the connection cap must shed with kUnavailable at the door;
// engine shed and deadline statuses must reach the client as statuses;
// and the client must send a pipelined window in one write. The
// multi-connection hammer against a reloading engine is the TSan target
// (CI runs this suite under -fsanitize=thread).

#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "base/logging.h"
#include "base/socket.h"
#include "geodesic/dijkstra_solver.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "oracle/oracle_serde.h"
#include "oracle/pack_view.h"
#include "serve/engine.h"
#include "terrain/dataset.h"

namespace tso {
namespace {

struct NetFixture {
  StatusOr<Dataset> ds;
  std::unique_ptr<SeOracle> oracle;
  std::string flat_path;
  std::string pack2_path;
  std::string pack4_path;

  NetFixture()
      : ds(MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 24, 7)) {
    TSO_CHECK(ds.ok());
    DijkstraSolver solver(*ds->mesh);
    SeOracleOptions options;
    options.epsilon = 0.25;
    StatusOr<SeOracle> built =
        SeOracle::Build(*ds->mesh, ds->pois, solver, options, nullptr);
    TSO_CHECK(built.ok());
    oracle = std::make_unique<SeOracle>(std::move(*built));

    flat_path = ::testing::TempDir() + "/net_flat.tso";
    TSO_CHECK(SaveSeOracleFlat(*oracle, flat_path).ok());
    pack2_path = ::testing::TempDir() + "/net_pack2.tsop";
    pack4_path = ::testing::TempDir() + "/net_pack4.tsop";
    PackBuildOptions pack;
    pack.num_shards = 2;
    TSO_CHECK(SaveOraclePack(*oracle, pack, pack2_path).ok());
    pack.num_shards = 4;
    TSO_CHECK(SaveOraclePack(*oracle, pack, pack4_path).ok());
  }
};

NetFixture& Fixture() {
  static NetFixture* fx = new NetFixture();
  return *fx;
}

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Reads exactly one frame from a raw socket into `bytes` (header, payload,
// shared decoder) — for tests that bypass TsodClient or TsodServer.
StatusOr<WireFrame> ReadOneFrame(const Socket& socket, std::string* bytes) {
  bytes->assign(sizeof(WireHeader), '\0');
  TSO_RETURN_IF_ERROR(ReadFull(socket, bytes->data(), bytes->size()));
  WireHeader header;
  std::memcpy(&header, bytes->data(), sizeof(header));
  bytes->resize(sizeof(header) + header.payload_size);
  if (header.payload_size > 0) {
    TSO_RETURN_IF_ERROR(ReadFull(socket, bytes->data() + sizeof(header),
                                 header.payload_size));
  }
  WireFrame frame;
  size_t needed = 0;
  Status error;
  if (DecodeFrame(*bytes, &frame, &needed, &error) != DecodeResult::kFrame) {
    return error.ok() ? Status::Internal("incomplete frame") : error;
  }
  return frame;
}

StatusOr<WireResponse> ReadOneResponse(const Socket& socket) {
  std::string bytes;
  StatusOr<WireFrame> frame = ReadOneFrame(socket, &bytes);
  TSO_RETURN_IF_ERROR(frame.status());
  return ParseResponse(*frame);
}

StatusOr<WireRequest> ReadOneRequest(const Socket& socket) {
  std::string bytes;
  StatusOr<WireFrame> frame = ReadOneFrame(socket, &bytes);
  TSO_RETURN_IF_ERROR(frame.status());
  return ParseRequest(*frame);
}

TEST(TsodServer, EndToEndBitIdenticalAnswers) {
  NetFixture& fx = Fixture();
  const SeOracle& oracle = *fx.oracle;
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(fx.pack4_path).ok());
  TsodServer server(&engine, {});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);  // port 0 resolved to an ephemeral port

  TsodClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const uint32_t n = static_cast<uint32_t>(oracle.num_pois());

  // Every blocking Distance answer matches the engine bit for bit.
  for (uint32_t s = 0; s < n; s += 3) {
    for (uint32_t t = 0; t < n; t += 5) {
      StatusOr<double> got = client.Distance(s, t);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(BitsEqual(*got, *engine.Distance(s, t)));
    }
  }

  // Batch, kNN, and range round-trip through their own frame kinds.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < n; ++i) pairs.emplace_back(i, (i * 7 + 3) % n);
  StatusOr<std::vector<double>> batch = client.Batch(pairs);
  ASSERT_TRUE(batch.ok());
  StatusOr<std::vector<double>> want_batch = engine.Batch(pairs, 1);
  ASSERT_TRUE(want_batch.ok());
  ASSERT_EQ(batch->size(), want_batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    EXPECT_TRUE(BitsEqual((*batch)[i], (*want_batch)[i]));
  }

  StatusOr<std::vector<KnnResult>> knn = client.Knn(3, 5);
  ASSERT_TRUE(knn.ok());
  StatusOr<std::vector<KnnResult>> want_knn = engine.Knn(3, 5);
  ASSERT_TRUE(want_knn.ok());
  ASSERT_EQ(knn->size(), want_knn->size());
  for (size_t i = 0; i < knn->size(); ++i) {
    EXPECT_EQ((*knn)[i].poi, (*want_knn)[i].poi);
    EXPECT_TRUE(BitsEqual((*knn)[i].distance, (*want_knn)[i].distance));
  }

  const double radius = *engine.Distance(3, 4) * 1.5;
  StatusOr<std::vector<uint32_t>> range = client.Range(3, radius);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(*range, *engine.Range(3, radius));
  StatusOr<std::vector<uint32_t>> everything =
      client.Range(3, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(everything.ok());
  EXPECT_EQ(everything->size(), n - 1);

  // Application errors are status-coded responses on a live connection.
  StatusOr<double> bad = client.Distance(n + 100, 0);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // NaN fails every comparison, so a NaN radius must be rejected, not
  // answered as an empty range.
  EXPECT_EQ(
      client.Range(3, std::numeric_limits<double>::quiet_NaN()).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.Distance(0, 1).ok());  // same connection still serves

  StatusOr<WireServeStats> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_pois, oracle.num_pois());
  EXPECT_EQ(stats->num_shards, 4u);
  EXPECT_GT(stats->queries, 0u);
  EXPECT_EQ(stats->health, static_cast<uint8_t>(ServeHealth::kServing));

  StatusOr<uint8_t> health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, static_cast<uint8_t>(ServeHealth::kServing));

  server.Shutdown();
  EXPECT_GT(server.stats().frames, 0u);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

// Pipelined singles come back in request order with correct answers, and a
// burst of distance requests arriving together is coalesced into engine
// batch calls (one admission slot per run instead of one per request).
TEST(TsodServer, PipelinedDistancesAnswerInOrderAndCoalesce) {
  NetFixture& fx = Fixture();
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(fx.flat_path).ok());
  TsodServer server(&engine, {});
  ASSERT_TRUE(server.Start().ok());
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());

  TsodClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr size_t kPipelined = 100;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t i = 0; i < kPipelined; ++i) {
    pairs.emplace_back(static_cast<uint32_t>(i % n),
                       static_cast<uint32_t>((i * 13 + 7) % n));
  }
  for (const auto& [s, t] : pairs) {
    ASSERT_TRUE(client.SendDistance(s, t).ok());
  }
  for (const auto& [s, t] : pairs) {
    StatusOr<double> got = client.RecvDistance();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(BitsEqual(*got, *engine.Distance(s, t)));
  }

  // A single write carrying many requests lands as one readable burst, so
  // the server must see a coalescible run. Several rounds make a split
  // arrival (which would legally skip coalescing) vanishingly unlikely.
  auto raw = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(raw.ok());
  constexpr size_t kRounds = 5;
  constexpr size_t kBurst = 50;
  uint32_t id = 1;
  for (size_t round = 0; round < kRounds; ++round) {
    std::string out;
    std::vector<std::pair<uint32_t, uint32_t>> burst;
    for (size_t i = 0; i < kBurst; ++i) {
      const uint32_t s = static_cast<uint32_t>((round + i) % n);
      const uint32_t t = static_cast<uint32_t>((round + i * 3 + 1) % n);
      burst.emplace_back(s, t);
      AppendDistanceRequest(&out, id++, s, t, 0);
    }
    ASSERT_TRUE(WriteFull(*raw, out.data(), out.size()).ok());
    for (size_t i = 0; i < kBurst; ++i) {
      StatusOr<WireResponse> response = ReadOneResponse(*raw);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->request_id, id - kBurst + i);
      ASSERT_TRUE(response->status.ok());
      EXPECT_TRUE(BitsEqual(
          response->distance,
          *engine.Distance(burst[i].first, burst[i].second)));
    }
  }
  raw->Close();
  client.Close();
  server.Shutdown();
  const TsodServer::Stats stats = server.stats();
  EXPECT_GE(stats.frames, kPipelined + kRounds * kBurst);
  EXPECT_GE(stats.coalesced_batches, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// The TSan tentpole: several connections hammer the wire while the engine
// hot-reloads underneath the server. Every networked answer must succeed
// and match the precomputed truth bit for bit — a reload is invisible
// through the socket, and the session/listener threads race the reloader
// without data races.
TEST(TsodServer, MultiConnectionHammerSurvivesHotReloads) {
  NetFixture& fx = Fixture();
  const SeOracle& oracle = *fx.oracle;
  const uint32_t n = static_cast<uint32_t>(oracle.num_pois());
  std::vector<double> expected(static_cast<size_t>(n) * n);
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) {
      expected[static_cast<size_t>(s) * n + t] = *oracle.Distance(s, t);
    }
  }

  ServeEngine engine;
  ASSERT_TRUE(engine.Load(fx.pack2_path).ok());
  TsodServer server(&engine, {});
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      TsodClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        started.fetch_add(1, std::memory_order_release);
        return;
      }
      uint32_t x = static_cast<uint32_t>(c) * 2654435761u + 1;
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        x = x * 1664525u + 1013904223u;
        const uint32_t s = (x >> 16) % n;
        const uint32_t t = (x >> 4) % n;
        StatusOr<double> got = client.Distance(s, t);
        if (!got.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else if (!BitsEqual(*got,
                              expected[static_cast<size_t>(s) * n + t])) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        } else {
          answered.fetch_add(1, std::memory_order_relaxed);
        }
        if (first) {
          first = false;
          started.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  while (started.load(std::memory_order_acquire) < kClients) {
    std::this_thread::yield();
  }
  constexpr int kReloads = 50;
  for (int i = 0; i < kReloads; ++i) {
    const std::string& path = (i % 2 == 0) ? fx.pack4_path : fx.pack2_path;
    ASSERT_TRUE(engine.Load(path).ok()) << "reload " << i;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  server.Shutdown();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(engine.stats().reloads, 1u + kReloads);
}

// Drain semantics, part 1: a request that is *in flight at the engine*
// when Shutdown() begins still gets its response. The serve.query pause
// failpoint wedges the query mid-engine; Shutdown() must wait for it.
TEST(TsodServer, ShutdownDrainsInflightQuery) {
  NetFixture& fx = Fixture();
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(fx.flat_path).ok());
  const double want = *engine.Distance(0, 1);
  TsodServer server(&engine, {});
  ASSERT_TRUE(server.Start().ok());

  TsodClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(failpoint::Arm("serve.query", "pause").ok());
  ASSERT_TRUE(client.SendDistance(0, 1).ok());
  ASSERT_TRUE(client.Flush().ok());  // SendDistance only queues
  while (engine.stats().inflight == 0) std::this_thread::yield();

  std::thread shutdown_thread([&server]() { server.Shutdown(); });
  // Shutdown is now blocked joining the connection thread, which is parked
  // at the failpoint inside the engine. Release it.
  failpoint::Disarm("serve.query");
  shutdown_thread.join();

  StatusOr<double> got = client.RecvDistance();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(BitsEqual(*got, want));
  // After the drain the server closed the connection: the next read fails.
  EXPECT_FALSE(client.Distance(0, 1).ok());
}

// Drain semantics, part 2: requests already written by the client when
// Shutdown() begins — sitting in the kernel buffer, not yet decoded — are
// all answered before the connection closes.
TEST(TsodServer, ShutdownAnswersBufferedPipelinedRequests) {
  NetFixture& fx = Fixture();
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(fx.flat_path).ok());
  TsodServer server(&engine, {});
  ASSERT_TRUE(server.Start().ok());
  const uint32_t n = static_cast<uint32_t>(fx.oracle->num_pois());

  TsodClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // One blocking RPC first: the drain promise covers *accepted* sessions —
  // a connection still in the listener's accept queue at shutdown is
  // legitimately reset when the listener closes.
  ASSERT_TRUE(client.Distance(0, 1).ok());
  constexpr size_t kBuffered = 100;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t i = 0; i < kBuffered; ++i) {
    pairs.emplace_back(static_cast<uint32_t>(i % n),
                       static_cast<uint32_t>((i * 11 + 3) % n));
  }
  for (const auto& [s, t] : pairs) {
    ASSERT_TRUE(client.SendDistance(s, t).ok());
  }
  ASSERT_TRUE(client.Flush().ok());
  // Every request is in the server's kernel buffer (the flush returned).
  server.Shutdown();
  for (const auto& [s, t] : pairs) {
    StatusOr<double> got = client.RecvDistance();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(BitsEqual(*got, *engine.Distance(s, t)));
  }
  EXPECT_GE(server.stats().frames, kBuffered);
}

// Protocol garbage kills its own connection — one error frame, then EOF —
// while the server and other connections keep serving.
TEST(TsodServer, ProtocolErrorKillsOnlyItsConnection) {
  NetFixture& fx = Fixture();
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(fx.flat_path).ok());
  TsodServer server(&engine, {});
  ASSERT_TRUE(server.Start().ok());

  TsodClient healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(healthy.Distance(0, 1).ok());

  auto raw = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(raw.ok());
  const std::string garbage(sizeof(WireHeader), 'X');
  ASSERT_TRUE(WriteFull(*raw, garbage.data(), garbage.size()).ok());
  StatusOr<WireResponse> error = ReadOneResponse(*raw);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_FALSE(error->status.ok());
  // The connection is dead: the next read returns EOF (kUnavailable).
  char byte;
  EXPECT_EQ(ReadFull(*raw, &byte, 1).code(), StatusCode::kUnavailable);
  raw->Close();

  // The healthy connection and new connections are unaffected.
  EXPECT_TRUE(healthy.Distance(1, 2).ok());
  TsodClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(fresh.Distance(2, 3).ok());

  server.Shutdown();
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

// Admission at the door: past max_connections, an accepted socket gets one
// kUnavailable error frame and is closed without a session thread.
TEST(TsodServer, ConnectionCapShedsWithUnavailable) {
  NetFixture& fx = Fixture();
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(fx.flat_path).ok());
  TsodServerOptions options;
  options.max_connections = 1;
  TsodServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  TsodClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(first.Distance(0, 1).ok());  // the slot is provably taken

  auto second = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  StatusOr<WireResponse> shed = ReadOneResponse(*second);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status.code(), StatusCode::kUnavailable);
  char byte;
  EXPECT_EQ(ReadFull(*second, &byte, 1).code(), StatusCode::kUnavailable);
  second->Close();

  EXPECT_TRUE(first.Distance(1, 2).ok());  // the admitted session lives on
  server.Shutdown();
  EXPECT_EQ(server.stats().shed_connections, 1u);
  EXPECT_EQ(server.stats().accepted, 2u);
}

// Engine overload reaches the client as a status, not a dead connection:
// a shed comes back kUnavailable and a blown wire deadline
// kDeadlineExceeded through the frame's status field, and the same
// connection answers normally once the engine recovers.
TEST(TsodServer, OverloadStatusesCrossTheWire) {
  NetFixture& fx = Fixture();
  ServeOptions options;
  options.max_inflight = 1;
  ServeEngine engine(options);
  ASSERT_TRUE(engine.Load(fx.pack4_path).ok());
  TsodServer server(&engine, {});
  ASSERT_TRUE(server.Start().ok());

  // The blocker's query holds the single admission slot, paused inside the
  // engine, so the second connection's query must shed.
  TsodClient blocker;
  ASSERT_TRUE(blocker.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(failpoint::Arm("serve.query", "pause").ok());
  ASSERT_TRUE(blocker.SendDistance(0, 1).ok());
  ASSERT_TRUE(blocker.Flush().ok());
  while (engine.stats().inflight == 0) std::this_thread::yield();
  TsodClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_EQ(client.Distance(2, 3).status().code(), StatusCode::kUnavailable);
  failpoint::Disarm("serve.query");
  StatusOr<double> held = blocker.RecvDistance();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(engine.stats().shed, 1u);

  ASSERT_TRUE(failpoint::Arm("serve.query", "delay(1)").ok());
  EXPECT_EQ(client.Distance(2, 3, /*deadline_us=*/100).status().code(),
            StatusCode::kDeadlineExceeded);
  failpoint::Disarm("serve.query");
  EXPECT_EQ(engine.stats().deadline_exceeded, 1u);

  StatusOr<double> got = client.Distance(2, 3);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(BitsEqual(*got, *engine.Distance(2, 3)));
  EXPECT_TRUE(BitsEqual(*held, *engine.Distance(0, 1)));
  server.Shutdown();
}

// The client batches its sends: pipelined requests stay in the process
// until a flush writes them all at once, and responses that arrive in one
// write are handed out one at a time. A raw peer stands in for the server,
// so the net.write seam (armed to count, never to fire) sees only the
// client's writes until the peer answers.
TEST(TsodClient, PipelinedWindowLeavesInOneWrite) {
  StatusOr<Socket> listener = ListenTcpLoopback(0, 1);
  ASSERT_TRUE(listener.ok());
  StatusOr<uint16_t> port = BoundPort(*listener);
  ASSERT_TRUE(port.ok());
  TsodClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", *port).ok());
  StatusOr<Socket> peer = AcceptTcp(*listener);
  ASSERT_TRUE(peer.ok());

  ASSERT_TRUE(failpoint::Arm("net.write", "0*error").ok());
  ASSERT_TRUE(failpoint::Arm("net.read", "0*error").ok());
  const uint64_t writes = failpoint::Hits("net.write");
  constexpr uint32_t kPipelined = 100;
  for (uint32_t i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client.SendDistance(i, i + 1).ok());
  }
  EXPECT_EQ(failpoint::Hits("net.write") - writes, 0u);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(failpoint::Hits("net.write") - writes, 1u);
  ASSERT_TRUE(client.Flush().ok());  // nothing queued: no write
  EXPECT_EQ(failpoint::Hits("net.write") - writes, 1u);

  // The peer reads every request intact and answers them in one write.
  std::string answers;
  for (uint32_t i = 0; i < kPipelined; ++i) {
    StatusOr<WireRequest> request = ReadOneRequest(*peer);
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    EXPECT_EQ(request->kind, kWireKindDistance);
    EXPECT_EQ(request->request_id, i + 1);
    EXPECT_EQ(request->s, i);
    EXPECT_EQ(request->t, i + 1);
    AppendDistanceResponse(&answers, request->request_id, i + 0.5);
  }
  ASSERT_TRUE(WriteFull(*peer, answers.data(), answers.size()).ok());
  const uint64_t reads = failpoint::Hits("net.read");
  for (uint32_t i = 0; i < kPipelined; ++i) {
    StatusOr<double> got = client.RecvDistance();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, i + 0.5);
  }
  // The answers are one loopback segment, so one read takes them all.
  EXPECT_EQ(failpoint::Hits("net.read") - reads, 1u);
  EXPECT_EQ(client.RecvDistance().status().code(),
            StatusCode::kFailedPrecondition);
  failpoint::Disarm("net.write");
  failpoint::Disarm("net.read");

  // A synchronous call after the answered window takes the next id and
  // matches it.
  uint32_t health_id = 0;
  std::thread answer([&]() {
    StatusOr<WireRequest> request = ReadOneRequest(*peer);
    if (!request.ok()) return;
    health_id = request->request_id;
    std::string out;
    AppendHealthResponse(&out, request->request_id,
                         static_cast<uint8_t>(ServeHealth::kServing));
    (void)WriteFull(*peer, out.data(), out.size());
  });
  StatusOr<uint8_t> health = client.Health();
  answer.join();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(*health, static_cast<uint8_t>(ServeHealth::kServing));
  EXPECT_EQ(health_id, kPipelined + 1);
  EXPECT_TRUE(client.connected());
}

TEST(TsodServer, StartAndShutdownLifecycle) {
  NetFixture& fx = Fixture();
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(fx.flat_path).ok());
  TsodServer server(&engine, {});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
  server.Shutdown();
  server.Shutdown();  // idempotent
}

}  // namespace
}  // namespace tso
