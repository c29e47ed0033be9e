// Robustness and failure-injection tests across modules: corrupted oracle
// blobs must fail cleanly, the wire-frame decoder must survive arbitrary
// bytes, injected socket faults must surface as clean errors, loggers must
// honor levels, and degenerate inputs must be rejected rather than crash.

#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/timer.h"
#include "geodesic/dijkstra_solver.h"
#include "geodesic/mmp_solver.h"
#include "mesh/mesh_builder.h"
#include "mesh/mesh_io.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"
#include "oracle/pack_view.h"
#include "oracle/se_oracle.h"
#include "serve/engine.h"
#include "terrain/dataset.h"
#include "flat_reseal.h"

namespace tso {
namespace {

TEST(SerdeFuzz, RandomByteFlipsNeverCrash) {
  StatusOr<Dataset> ds =
      MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 10, 3);
  ASSERT_TRUE(ds.ok());
  MmpSolver solver(*ds->mesh);
  SeOracleOptions options;
  options.epsilon = 0.2;
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*ds->mesh, ds->pois, solver, options, nullptr);
  ASSERT_TRUE(oracle.ok());
  const std::string blob = SerializeSeOracleFlat(*oracle);

  Rng rng(99);
  int accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupt = blob;
    const size_t pos = rng.Uniform(corrupt.size());
    corrupt[pos] = static_cast<char>(rng.NextU64());
    // Odd trials keep the stale checksums (the CRC pass must reject any
    // changed byte); even trials reseal them so the flip reaches the
    // structural validation of the view and its guarded probes.
    if (trial % 2 == 0) ResealFlatChecksums(&corrupt);
    StatusOr<OracleView> loaded =
        OracleView::FromBytes(corrupt, {.verify_checksums = true});
    // Either a clean error, or — if the flip hit a distance payload, an
    // unused field or alignment padding — a structurally valid oracle.
    // Never a crash.
    if (loaded.ok()) {
      ++accepted;
      // Structure must still answer in-range queries without aborting.
      (void)loaded->Distance(0, 1);
    }
  }
  // Most flips land in structural fields and must be rejected... but flips
  // into double payloads are legitimately accepted; just require that a
  // decent fraction is caught.
  EXPECT_LT(accepted, 200);
}

TEST(SerdeFuzz, RandomTruncationsNeverCrash) {
  StatusOr<Dataset> ds =
      MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 8, 5);
  ASSERT_TRUE(ds.ok());
  MmpSolver solver(*ds->mesh);
  SeOracleOptions options;
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*ds->mesh, ds->pois, solver, options, nullptr);
  ASSERT_TRUE(oracle.ok());
  const std::string blob = SerializeSeOracleFlat(*oracle);
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t cut = rng.Uniform(blob.size());
    EXPECT_FALSE(OracleView::FromBytes(blob.substr(0, cut),
                                       {.verify_checksums = true})
                     .ok());
  }
}

/// Shared corpus for the mapped-format fuzz suites: one oracle, its flat
/// serialization, and a 4-shard pack of it.
struct FuzzCorpus {
  std::unique_ptr<SeOracle> oracle;
  std::string flat;
  std::string pack;

  FuzzCorpus() {
    StatusOr<Dataset> ds =
        MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 16, 4);
    TSO_CHECK(ds.ok());
    DijkstraSolver solver(*ds->mesh);
    SeOracleOptions options;
    options.epsilon = 0.25;
    StatusOr<SeOracle> built =
        SeOracle::Build(*ds->mesh, ds->pois, solver, options, nullptr);
    TSO_CHECK(built.ok());
    oracle = std::make_unique<SeOracle>(std::move(*built));
    flat = SerializeSeOracleFlat(*oracle);
    PackBuildOptions pack_options;
    pack_options.num_shards = 4;
    StatusOr<std::string> packed = SerializeOraclePack(*oracle, pack_options);
    TSO_CHECK(packed.ok());
    pack = *packed;
  }
};

FuzzCorpus& Corpus() {
  static FuzzCorpus* corpus = new FuzzCorpus();
  return *corpus;
}

TEST(FlatFuzz, RandomByteFlipsNeverCrash) {
  const std::string& blob = Corpus().flat;
  OracleView::Options verify;
  verify.verify_checksums = true;
  Rng rng(17);
  int accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = blob;
    corrupt[rng.Uniform(corrupt.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    StatusOr<OracleView> view = OracleView::FromBuffer(corrupt, verify);
    if (view.ok()) {
      // With checksums on, an accepted flip landed in unprotected padding:
      // queries must be exact, and must not crash.
      ++accepted;
      EXPECT_EQ(*view->Distance(0, 1), *Corpus().oracle->Distance(0, 1));
    }
  }
  // Almost the whole file is covered by a section or table CRC.
  EXPECT_LT(accepted, 300);
}

TEST(FlatFuzz, SectionTableFlipsAreAlwaysRejected) {
  const std::string& blob = Corpus().flat;
  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(blob);
  ASSERT_TRUE(info.ok());
  const size_t table_begin = sizeof(FlatHeader);
  const size_t table_end =
      table_begin + info->sections.size() * sizeof(FlatSectionEntry);
  // Every single-byte flip inside the section table must be caught by the
  // header's table CRC — even without the checksum option (it guards the
  // structural metadata every open depends on).
  for (size_t pos = table_begin; pos < table_end; pos += 3) {
    std::string corrupt = blob;
    corrupt[pos] ^= 0x01;
    EXPECT_FALSE(OracleView::FromBuffer(corrupt).ok()) << "offset " << pos;
  }
}

TEST(FlatFuzz, RandomTruncationsNeverCrash) {
  const std::string& blob = Corpus().flat;
  Rng rng(29);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t cut = rng.Uniform(blob.size());
    EXPECT_FALSE(OracleView::FromBuffer(blob.substr(0, cut)).ok());
  }
}

TEST(PackFuzz, RandomByteFlipsNeverCrash) {
  const std::string& blob = Corpus().pack;
  PackView::Options verify;
  verify.verify_checksums = true;
  Rng rng(31);
  int accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = blob;
    corrupt[rng.Uniform(corrupt.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    StatusOr<PackView> view = PackView::FromBuffer(corrupt, verify);
    if (view.ok()) {
      ++accepted;
      EXPECT_EQ(*view->Distance(0, 1), *Corpus().oracle->Distance(0, 1));
    }
  }
  EXPECT_LT(accepted, 300);
}

TEST(PackFuzz, DegradedOpenNeverCrashesAndNeverLies) {
  const std::string& blob = Corpus().pack;
  const SeOracle& oracle = *Corpus().oracle;
  PackView::Options degraded;
  degraded.verify_checksums = true;
  degraded.allow_degraded = true;
  Rng rng(37);
  const uint32_t n = static_cast<uint32_t>(oracle.num_pois());
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupt = blob;
    corrupt[rng.Uniform(corrupt.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    StatusOr<PackView> view = PackView::FromBuffer(corrupt, degraded);
    if (!view.ok()) continue;  // frame/routing damage: clean rejection
    // An accepted degraded open must answer every query either bit-exactly
    // or with an honest kUnavailable — a wrong answer is the one forbidden
    // outcome.
    for (uint32_t q = 0; q < 8; ++q) {
      const uint32_t s = (q * 5) % n;
      const uint32_t t = (q * 11 + 3) % n;
      StatusOr<double> got = view->Distance(s, t);
      if (got.ok()) {
        // Rescued probes answer from the reverse-orientation record, which
        // may differ in final ulps (opposite SSAD sources).
        const double truth = *oracle.Distance(s, t);
        EXPECT_NEAR(*got, truth, 1e-9 * (1.0 + truth)) << s << "," << t;
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kUnavailable)
            << got.status().ToString();
      }
    }
  }
}

TEST(PackFuzz, RoutingSectionFlipsAreSafe) {
  const std::string& blob = Corpus().pack;
  const SeOracle& oracle = *Corpus().oracle;
  StatusOr<PackFileInfo> info = ReadPackFileInfo(blob);
  ASSERT_TRUE(info.ok());
  // Find the node-routing section; flips inside it are the nastiest case —
  // they redirect probes rather than corrupt payloads.
  const FlatSectionEntry* routing = nullptr;
  for (const FlatSectionEntry& section : info->sections) {
    if (section.id == kPackShardOfNode) routing = &section;
  }
  ASSERT_NE(routing, nullptr);
  Rng rng(41);
  const uint32_t n = static_cast<uint32_t>(oracle.num_pois());
  for (int trial = 0; trial < 100; ++trial) {
    std::string corrupt = blob;
    corrupt[routing->offset + rng.Uniform(routing->size)] ^=
        static_cast<char>(1 + rng.Uniform(255));
    // Opened without checksums, so the flip reaches the query path: a
    // misrouted probe may miss (shards are disjoint — it can never hit a
    // wrong record), so the answer is exact or an error, never silently
    // wrong.
    StatusOr<PackView> view = PackView::FromBuffer(corrupt);
    if (!view.ok()) continue;  // structural routing validation caught it
    for (uint32_t q = 0; q < 8; ++q) {
      const uint32_t s = (q * 7) % n;
      const uint32_t t = (q * 3 + 1) % n;
      StatusOr<double> got = view->Distance(s, t);
      if (got.ok()) {
        EXPECT_EQ(*got, *oracle.Distance(s, t)) << s << "," << t;
      }
    }
  }
}

TEST(PackFuzz, RandomTruncationsNeverCrash) {
  const std::string& blob = Corpus().pack;
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t cut = rng.Uniform(blob.size());
    EXPECT_FALSE(PackView::FromBuffer(blob.substr(0, cut)).ok());
  }
}

// ---------------------------------------------------------------------------
// Wire-frame decoder fuzz: DecodeFrame + ParseRequest/ParseResponse face a
// hostile byte stream at the trust boundary of the tsod server. Arbitrary
// bytes must produce kFrame/kNeedMore/kError — never a crash, never an
// unbounded allocation. CI runs these under ASan/UBSan and in the
// fault-injection job.

TEST(WireFuzz, RandomHeadersNeverCrash) {
  Rng rng(51);
  for (int trial = 0; trial < 5000; ++trial) {
    std::string bytes(sizeof(WireHeader) + rng.Uniform(64), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.NextU64());
    WireFrame frame;
    size_t needed = 0;
    Status error;
    DecodeResult result = DecodeFrame(bytes, &frame, &needed, &error);
    if (result == DecodeResult::kFrame) {
      // Structurally valid by luck: payload parsing must also be safe.
      (void)ParseRequest(frame);
      (void)ParseResponse(frame);
    } else if (result == DecodeResult::kError) {
      EXPECT_FALSE(error.ok());
    } else {
      EXPECT_GT(needed, bytes.size());
    }
  }
}

TEST(WireFuzz, ByteFlipsOnValidFramesNeverCrash) {
  std::vector<std::string> corpus;
  {
    std::string bytes;
    AppendDistanceRequest(&bytes, 1, 3, 9, 500);
    corpus.push_back(bytes);
    bytes.clear();
    AppendBatchRequest(&bytes, 2, {{0, 1}, {2, 3}, {4, 5}}, 0);
    corpus.push_back(bytes);
    bytes.clear();
    AppendKnnRequest(&bytes, 3, 7, 5, 0);
    corpus.push_back(bytes);
    bytes.clear();
    AppendRangeRequest(&bytes, 4, 2, 10.5, 0);
    corpus.push_back(bytes);
    bytes.clear();
    AppendBatchResponse(&bytes, 5, {1.0, 2.0, 3.0});
    corpus.push_back(bytes);
    bytes.clear();
    AppendKnnResponse(&bytes, 6, {{1, 0.5}, {2, 1.5}});
    corpus.push_back(bytes);
    bytes.clear();
    AppendErrorResponse(&bytes, 7, kWireKindDistance,
                        Status::Unavailable("shed"));
    corpus.push_back(bytes);
  }
  Rng rng(53);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string corrupt = corpus[rng.Uniform(corpus.size())];
    corrupt[rng.Uniform(corrupt.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    WireFrame frame;
    size_t needed = 0;
    Status error;
    if (DecodeFrame(corrupt, &frame, &needed, &error) ==
        DecodeResult::kFrame) {
      (void)ParseRequest(frame);
      (void)ParseResponse(frame);
    }
  }
}

TEST(WireFuzz, TruncationsAlwaysReportNeedMore) {
  std::string bytes;
  AppendBatchRequest(&bytes, 1, {{1, 2}, {3, 4}, {5, 6}}, 42);
  Rng rng(57);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t cut = rng.Uniform(bytes.size());
    WireFrame frame;
    size_t needed = 0;
    Status error;
    EXPECT_EQ(DecodeFrame(std::string_view(bytes).substr(0, cut), &frame,
                          &needed, &error),
              DecodeResult::kNeedMore);
    EXPECT_GT(needed, cut);
  }
}

// A hostile length prefix must be rejected at the ceiling, and a large
// in-range prefix must only *report* the need — never allocate for it.
TEST(WireFuzz, HostileLengthPrefixesAreBounded) {
  std::string bytes;
  AppendStatsRequest(&bytes, 1);
  const uint32_t over = kWireMaxPayload + 1;
  std::memcpy(bytes.data() + 12, &over, sizeof(over));
  WireFrame frame;
  size_t needed = 0;
  Status error;
  EXPECT_EQ(DecodeFrame(bytes, &frame, &needed, &error),
            DecodeResult::kError);

  const uint32_t at_cap = kWireMaxPayload;
  std::memcpy(bytes.data() + 12, &at_cap, sizeof(at_cap));
  EXPECT_EQ(DecodeFrame(bytes, &frame, &needed, &error),
            DecodeResult::kNeedMore);
  EXPECT_EQ(needed, sizeof(WireHeader) + size_t{kWireMaxPayload});

  // A batch payload claiming a pair count far beyond its actual bytes must
  // be rejected by the guarded count read, not alloc'd then faulted.
  std::string hostile;
  AppendBatchRequest(&hostile, 2, {{1, 2}}, 0);
  // Varint-encode a huge count where the real count byte sits: rebuild the
  // payload by hand — deadline varint 0, then count 0xFFFFFFF (4-byte
  // varint), then too few pair bytes.
  std::string payload;
  payload.push_back('\0');  // deadline 0
  payload.push_back(static_cast<char>(0xff));
  payload.push_back(static_cast<char>(0xff));
  payload.push_back(static_cast<char>(0xff));
  payload.push_back(static_cast<char>(0x7f));  // count = 0xFFFFFFF
  payload.append(8, '\x01');                   // one pair's worth of bytes
  hostile.resize(sizeof(WireHeader));
  const uint32_t payload_size = static_cast<uint32_t>(payload.size());
  std::memcpy(hostile.data() + 12, &payload_size, sizeof(payload_size));
  hostile += payload;
  WireFrame hostile_frame;
  ASSERT_EQ(DecodeFrame(hostile, &hostile_frame, &needed, &error),
            DecodeResult::kFrame);
  EXPECT_FALSE(ParseRequest(hostile_frame).ok());
}

TEST(WireFuzz, RandomGarbageStreamsNeverCrash) {
  Rng rng(59);
  for (int trial = 0; trial < 500; ++trial) {
    std::string stream(rng.Uniform(256), '\0');
    for (char& c : stream) c = static_cast<char>(rng.NextU64());
    // Consume like the server does: decode frames off the front until the
    // stream is exhausted, short, or rejected.
    std::string_view rest = stream;
    for (;;) {
      WireFrame frame;
      size_t needed = 0;
      Status error;
      DecodeResult result = DecodeFrame(rest, &frame, &needed, &error);
      if (result != DecodeResult::kFrame) break;
      (void)ParseRequest(frame);
      rest.remove_prefix(frame.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Mesh ingest: ReadOff / ReadObj are the trust boundary for user meshes
// (`tso build-oracle --mesh`). Every malformed input must come back as a
// Status — never an exception, an abort or an unbounded allocation.

std::string WriteMeshFile(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

/// Reads `text` as `format` ("off" or "obj"); fails the test if the reader
/// throws.
StatusOr<TerrainMesh> ReadMeshText(const std::string& format,
                                   const std::string& text) {
  const std::string path = WriteMeshFile("meshfuzz." + format, text);
  StatusOr<TerrainMesh> mesh = Status::Internal("reader threw");
  EXPECT_NO_THROW(mesh = format == "off" ? ReadOff(path) : ReadObj(path))
      << text;
  return mesh;
}

void ExpectRejected(const std::string& format, const std::string& text,
                    const std::string& message_part) {
  StatusOr<TerrainMesh> mesh = ReadMeshText(format, text);
  ASSERT_FALSE(mesh.ok()) << text;
  EXPECT_EQ(mesh.status().code(), StatusCode::kInvalidArgument) << text;
  EXPECT_NE(mesh.status().message().find(message_part), std::string::npos)
      << mesh.status().ToString();
}

const char kObjTriangle[] = "v 0 0 0\nv 1 0 0\nv 0 1 0\n";

TEST(MeshFuzz, ObjFaceIndicesAreParsedWithoutExceptions) {
  ASSERT_TRUE(ReadMeshText("obj", std::string(kObjTriangle) + "f 1 2 3\n")
                  .ok());
  for (const char* face :
       {"f 1 2 x\n", "f 1 2 99999999999999999999\n", "f 1 2 4294967296\n",
        "f 0 1 2\n", "f -1 2 3\n", "f 1 2 3x\n", "f 1 2 /3\n"}) {
    ExpectRejected("obj", std::string(kObjTriangle) + face,
                   "bad vertex index in OBJ face 0");
  }
  // The largest index that fits a uint32 parses, then fails as a missing
  // vertex in mesh validation.
  ExpectRejected("obj", std::string(kObjTriangle) + "f 1 2 4294967295\n",
                 "references missing vertex");
}

TEST(MeshFuzz, OffCountsAreBoundedByTheFileSize) {
  ExpectRejected("off", "OFF\n999999999999 1 0\n0 0 0\n",
                 "OFF counts exceed the file size");
  ExpectRejected("off", "OFF\n3 999999999999 0\n0 0 0\n1 0 0\n0 1 0\n",
                 "OFF counts exceed the file size");
  ExpectRejected("off", "OFF\n18446744073709551615 18446744073709551615 0\n",
                 "OFF counts exceed the file size");
  ExpectRejected("off", "OFF\n-1 1 0\n", "bad OFF counts");
  ExpectRejected("off", "OFF\n99999999999999999999 1 0\n", "bad OFF counts");
}

TEST(MeshFuzz, BadOffVertexIsReportedByIndex) {
  const std::string face = "3 0 1 2\n";
  ExpectRejected("off", "OFF\n3 1 0\n0 0 0\n1 x 0\n0 1 0\n" + face,
                 "bad coordinate in OFF vertex 1");
  ExpectRejected("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0,\n" + face,
                 "bad coordinate in OFF vertex 2");
  ExpectRejected("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 0\n",
                 "not a triangle in OFF face 0");
  ExpectRejected("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n",
                 "bad vertex index in OFF face 0");
}

TEST(MeshFuzz, NonFiniteCoordinatesAreRejected) {
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "1e999", "-1e999"}) {
    ExpectRejected("off",
                   std::string("OFF\n3 1 0\n0 0 0\n") + bad +
                       " 0 0\n0 1 0\n3 0 1 2\n",
                   "non-finite coordinate in OFF vertex 1");
    ExpectRejected("obj",
                   std::string("v 0 0 0\nv 1 0 0\nv 0 1 ") + bad +
                       "\nf 1 2 3\n",
                   "non-finite coordinate in OBJ vertex 2");
  }
}

/// The writers' own output for a small grid mesh, as the fuzz corpus.
std::string WriterOutput(const std::string& format) {
  StatusOr<TerrainMesh> mesh = MeshFromFunction(
      5, 4, 1.5, [](double x, double y) { return 0.1 * x * y + 0.05 * x; });
  TSO_CHECK(mesh.ok());
  const std::string path = ::testing::TempDir() + "/meshfuzz_src." + format;
  TSO_CHECK((format == "off" ? WriteOff(*mesh, path) : WriteObj(*mesh, path))
                .ok());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Seeded 1–3 byte flips of the writer output: every trial returns a
/// Status (ReadMeshText fails the test on a throw).
void FuzzByteFlips(const std::string& format) {
  const std::string text = WriterOutput(format);
  ASSERT_TRUE(ReadMeshText(format, text).ok());
  Rng rng(2024);
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = text;
    for (uint64_t flips = 1 + rng.Uniform(3); flips > 0; --flips) {
      corrupt[rng.Uniform(corrupt.size())] = static_cast<char>(rng.NextU64());
    }
    if (!ReadMeshText(format, corrupt).ok()) ++rejected;
  }
  // A flip inside a digit can leave a valid mesh; not every flip can.
  EXPECT_GT(rejected, 0);
}

/// Seeded truncations of the writer output.
void FuzzTruncations(const std::string& format) {
  const std::string text = WriterOutput(format);
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    (void)ReadMeshText(format, text.substr(0, rng.Uniform(text.size())));
  }
  // A cut inside the first records leaves too few vertices or faces.
  EXPECT_FALSE(ReadMeshText(format, text.substr(0, 10)).ok());
}

TEST(MeshFuzz, OffByteFlipsReturnStatus) { FuzzByteFlips("off"); }
TEST(MeshFuzz, ObjByteFlipsReturnStatus) { FuzzByteFlips("obj"); }
TEST(MeshFuzz, OffTruncationsReturnStatus) { FuzzTruncations("off"); }
TEST(MeshFuzz, ObjTruncationsReturnStatus) { FuzzTruncations("obj"); }

// Socket-fault injection: the net.read / net.write failpoints fire inside
// ReadFull/ReadSome/WriteFull. An injected fault must surface as a clean
// Status on the affected connection; the server must keep serving fresh
// connections afterwards.

struct NetFaultFixture {
  std::unique_ptr<SeOracle> oracle;
  std::string flat_path;

  NetFaultFixture() {
    StatusOr<Dataset> ds =
        MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 12, 3);
    TSO_CHECK(ds.ok());
    DijkstraSolver solver(*ds->mesh);
    SeOracleOptions options;
    options.epsilon = 0.25;
    StatusOr<SeOracle> built =
        SeOracle::Build(*ds->mesh, ds->pois, solver, options, nullptr);
    TSO_CHECK(built.ok());
    oracle = std::make_unique<SeOracle>(std::move(*built));
    flat_path = ::testing::TempDir() + "/netfault_flat.tso";
    TSO_CHECK(SaveSeOracleFlat(*oracle, flat_path).ok());
  }
};

NetFaultFixture& NetFault() {
  static NetFaultFixture* fx = new NetFaultFixture();
  return *fx;
}

TEST(NetFailpoint, InjectedReadFaultSurfacesCleanly) {
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(NetFault().flat_path).ok());
  TsodServer server(&engine, {});
  ASSERT_TRUE(server.Start().ok());

  TsodClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Distance(0, 1).ok());

  // Exactly one read — server's or client's, whichever runs first — fails
  // with the injected kIoError. Either way the client observes a clean
  // failure, never a crash or a hang.
  ASSERT_TRUE(failpoint::Arm("net.read", "1*error(injected read)").ok());
  StatusOr<double> got = client.Distance(0, 1);
  EXPECT_FALSE(got.ok());
  failpoint::Disarm("net.read");
  EXPECT_GE(failpoint::Triggered("net.read"), 1u);

  // The server survived: a fresh connection serves correct answers.
  TsodClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  StatusOr<double> after = fresh.Distance(0, 1);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, *engine.Distance(0, 1));
  server.Shutdown();
}

TEST(NetFailpoint, InjectedWriteFaultSurfacesCleanly) {
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(NetFault().flat_path).ok());
  TsodServer server(&engine, {});
  ASSERT_TRUE(server.Start().ok());

  TsodClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Distance(0, 1).ok());

  // The next write is the client's request frame: it fails with the
  // injected error and the client closes its connection.
  ASSERT_TRUE(failpoint::Arm("net.write", "1*error(injected write)").ok());
  StatusOr<double> got = client.Distance(0, 1);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(client.connected());
  failpoint::Disarm("net.write");
  EXPECT_EQ(failpoint::Triggered("net.write"), 1u);

  TsodClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(fresh.Distance(0, 1).ok());
  server.Shutdown();
}

TEST(NetFailpoint, RepeatedFaultsNeverWedgeTheServer) {
  ServeEngine engine;
  ASSERT_TRUE(engine.Load(NetFault().flat_path).ok());
  TsodServer server(&engine, {});
  ASSERT_TRUE(server.Start().ok());

  for (int round = 0; round < 10; ++round) {
    const char* point = (round % 2 == 0) ? "net.read" : "net.write";
    ASSERT_TRUE(failpoint::Arm(point, "1*error(injected)").ok());
    TsodClient client;
    if (client.Connect("127.0.0.1", server.port()).ok()) {
      (void)client.Distance(0, 1);  // may fail — must not crash or hang
    }
    failpoint::Disarm(point);
  }
  failpoint::DisarmAll();

  TsodClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  StatusOr<double> got = client.Distance(0, 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *engine.Distance(0, 1));
  server.Shutdown();
  EXPECT_GT(server.stats().accepted, 0u);
}

TEST(Logging, LevelFiltering) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Emitting below the level must be a no-op (no way to capture stderr here,
  // but the call must be safe).
  TSO_LOG(Info) << "suppressed";
  TSO_LOG(Error) << "emitted to stderr (expected in test output)";
  SetLogLevel(prev);
}

TEST(Timer, MonotoneAndResettable) {
  WallTimer timer;
  const double t0 = timer.ElapsedSeconds();
  ASSERT_GE(t0, 0.0);
  double t1 = timer.ElapsedSeconds();
  EXPECT_GE(t1, t0);
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), t1 + 1.0);
  EXPECT_GT(timer.ElapsedMicros(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
}

TEST(SeOracle, SingletonPoiOracle) {
  StatusOr<Dataset> ds =
      MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 1, 7);
  ASSERT_TRUE(ds.ok());
  MmpSolver solver(*ds->mesh);
  SeOracleOptions options;
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*ds->mesh, ds->pois, solver, options, nullptr);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(*oracle->Distance(0, 0), 0.0);
  EXPECT_FALSE(oracle->Distance(0, 1).ok());
  // Round-trips too.
  StatusOr<OracleView> back = OracleView::FromBytes(
      SerializeSeOracleFlat(*oracle), {.verify_checksums = true});
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back->Distance(0, 0), 0.0);
}

TEST(SeOracle, TwoPoiOracle) {
  StatusOr<Dataset> ds =
      MakePaperDataset(PaperDataset::kSanFranciscoSmall, 300, 2, 9);
  ASSERT_TRUE(ds.ok());
  MmpSolver solver(*ds->mesh);
  SeOracleOptions options;
  options.epsilon = 0.1;
  StatusOr<SeOracle> oracle =
      SeOracle::Build(*ds->mesh, ds->pois, solver, options, nullptr);
  ASSERT_TRUE(oracle.ok());
  const double truth =
      solver.PointToPoint(ds->pois[0], ds->pois[1]).value();
  EXPECT_LE(std::abs(*oracle->Distance(0, 1) - truth), 0.1 * truth + 1e-9);
  // With two POIs the oracle stores the distance exactly (leaf-leaf pair).
  EXPECT_NEAR(*oracle->Distance(0, 1), truth, 1e-6 * (1.0 + truth));
}

TEST(Mesh, SingleTriangleWorldWorks) {
  StatusOr<TerrainMesh> mesh = TerrainMesh::FromSoup(
      {{0, 0, 0}, {10, 0, 0}, {0, 10, 0}}, {{0, 1, 2}});
  ASSERT_TRUE(mesh.ok());
  MmpSolver solver(*mesh);
  const double d = solver
                       .PointToPoint(SurfacePoint::AtVertex(*mesh, 0),
                                     SurfacePoint::AtVertex(*mesh, 1))
                       .value();
  EXPECT_NEAR(d, 10.0, 1e-12);
  // Interior points on the lone face.
  const SurfacePoint a = SurfacePoint::OnFace(0, {1.0, 1.0, 0.0});
  const SurfacePoint b = SurfacePoint::OnFace(0, {4.0, 3.0, 0.0});
  EXPECT_NEAR(solver.PointToPoint(a, b).value(), std::hypot(3.0, 2.0), 1e-9);
}

}  // namespace
}  // namespace tso
