// Unified command-line driver for the terrain-surface distance oracle.
//
//   tso build-oracle  — synthesize/load a terrain, build + save the oracle
//   tso pack          — reshard a saved oracle into a multi-shard oracle pack
//   tso query         — load a saved oracle/pack, answer POI-to-POI queries
//   tso serve         — tsod: serve an oracle over loopback TCP (wire proto)
//   tso client        — query a running tsod server over TCP
//   tso inspect       — print layout/checksums of an oracle or pack file
//
// This is the stable entry point for running the system outside the gtest
// harness. Measurements live under bench/: the paper-figure benches and the
// serving benchmarks (bench_throughput, in process and over loopback TCP).

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/atomic_file.h"
#include "base/crc32.h"
#include "base/mmap_file.h"
#include "dyn/dynamic_oracle.h"
#include "base/rng.h"
#include "base/timer.h"
#include "base/version.h"
#include "geodesic/solver_factory.h"
#include "mesh/mesh_io.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle/oracle_serde.h"
#include "oracle/oracle_view.h"
#include "oracle/pack_format.h"
#include "oracle/pack_view.h"
#include "oracle/se_oracle.h"
#include "query/batch.h"
#include "serve/engine.h"
#include "terrain/dataset.h"

namespace tso {
namespace {

struct Args {
  std::string dataset = "sf-small";
  std::string mesh_path;
  std::string oracle_path;
  std::string out_path = "oracle.bin";
  std::string solver = "mmp";
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  double epsilon = 0.25;
  uint64_t seed = 42;
  uint32_t vertices = 0;  // 0 = dataset default
  size_t pois = 0;        // 0 = dataset default
  uint32_t threads = 0;   // 0 = hardware concurrency
  uint32_t ssad_batch = 4;     // enhanced-edge sources per SSAD sweep
  uint32_t query_threads = 0;  // serve: threads for batches and kNN/range
  size_t random_queries = 0;
  uint32_t shards = 4;                // pack: shard count
  std::string policy = "poi-range";   // pack: poi-range | geo
  size_t churn = 0;        // --dynamic: seeded removes applied after mount
  uint64_t max_inflight = 0;   // serve: admission cap (0 = unlimited)
  uint64_t deadline_us = 0;    // serve/client: per-query budget (0 = none)
  uint32_t load_retries = 0;   // serve: transient Load retries
  std::string host = "127.0.0.1";  // client: server address
  std::string port_file;       // serve: write bound port; client: read it
  std::string check_against;   // client: in-process engine to compare with
  uint32_t port = 0;           // serve: listen port (0 = ephemeral)
  uint32_t max_connections = 64;  // serve: connection cap
  uint32_t knn_query = 0;      // client: --knn Q,K
  uint64_t knn_k = 0;
  uint32_t range_query = 0;    // client: --range Q,R
  double range_radius = 0;
  bool knn_set = false;
  bool range_set = false;
  bool batch = false;      // client: one Batch RPC instead of per-pair
  bool stats = false;      // client: print server stats
  bool health = false;     // client: print server health
  bool deep = false;       // inspect: per-section report for every shard
  bool dynamic = false;    // query/inspect: mount the dynamic layer
  bool out_set = false;               // --out given (pack defaults differ)
};

// Checked numeric flag parsers: unlike atof/strtoul, these reject empty
// values, trailing garbage ("--epsilon abc", "--vertices 12x"), sign
// mismatches, and out-of-range magnitudes, with a diagnostic naming the
// flag.
bool ParseDoubleFlag(const std::string& flag, const char* v, double* out) {
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "tso: invalid number '%s' for %s\n", v, flag.c_str());
    return false;
  }
  *out = d;
  return true;
}

bool ParseU64Flag(const std::string& flag, const char* v, uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long u = std::strtoull(v, &end, 10);
  // Requiring a leading digit rejects the whitespace/sign prefixes strtoull
  // would otherwise skip (" -1" silently wraps to 2^64-1).
  if (!std::isdigit(static_cast<unsigned char>(v[0])) || end == v ||
      *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "tso: invalid non-negative integer '%s' for %s\n", v,
                 flag.c_str());
    return false;
  }
  *out = u;
  return true;
}

bool ParseU32Flag(const std::string& flag, const char* v, uint32_t* out) {
  uint64_t u = 0;
  if (!ParseU64Flag(flag, v, &u)) return false;
  if (u > UINT32_MAX) {
    std::fprintf(stderr, "tso: value '%s' for %s is out of range\n", v,
                 flag.c_str());
    return false;
  }
  *out = static_cast<uint32_t>(u);
  return true;
}

bool ParseSizeFlag(const std::string& flag, const char* v, size_t* out) {
  uint64_t u = 0;
  if (!ParseU64Flag(flag, v, &u)) return false;
  *out = static_cast<size_t>(u);
  return true;
}

void Usage() {
  std::fprintf(stderr, R"(usage: tso <command> [options]

commands:
  build-oracle   build the SE oracle and save it to disk
  pack           reshard a saved oracle into a multi-shard oracle pack
  query          answer distance queries against a saved oracle or pack
                 (flat oracles and packs are memory-mapped, served zero-copy)
  serve          tsod: serve an oracle over loopback TCP speaking the tsod
                 wire protocol (docs/serving.md); SIGTERM drains gracefully
  client         query a running tsod server over TCP
  inspect        print the layout of a saved oracle or pack file (header,
                 sections, checksums; non-zero exit on any corruption)

Benchmarks are not CLI commands: see bench/ (bench_throughput measures the
engine in process and over loopback TCP).

build-oracle options:
  --dataset bh|ep|sf|sf-small   paper dataset stand-in (default sf-small)
  --mesh PATH                   build from an .off/.obj mesh instead
  --vertices N                  target vertex count (0 = dataset default)
  --pois N                      number of POIs (0 = dataset default)
  --epsilon E                   error parameter (default 0.25)
  --solver mmp|dijkstra|steiner geodesic engine (default mmp)
  --build-threads T             worker threads for every build phase
                                (0 = hardware concurrency; --threads is an
                                accepted alias)
  --ssad-batch K                enhanced-edge sources per SSAD sweep
                                (default 4; 1 disables multi-source batching;
                                clamped to the solver's native limit)
  --seed S                      RNG seed (default 42)
  --out PATH                    output flat oracle file (default oracle.bin)

pack options:
  --oracle PATH                 saved flat oracle file to reshard (required)
  --out PATH                    output pack file (default oracle.tsop)
  --shards N                    shard count (default 4)
  --policy poi-range|geo        POI-to-shard assignment (default poi-range)

query options:
  --oracle PATH                 saved oracle or pack file (required; format
                                is auto-detected by magic)
  --pair S,T                    POI id pair; repeatable
  --random N                    additionally run N random pairs
  --seed S                      seed for --random (and for --churn)
  --dynamic                     mount the log-structured dynamic layer on the
                                mapped file and answer through it (remove-only:
                                inserts need a mesh+solver); tombstoned ids
                                print as such instead of failing
  --churn N                     with --dynamic: tombstone N random live POIs
                                before answering (seeded by --seed)

serve options:
  --oracle PATH                 oracle or pack file to serve (required)
  --port N                      TCP port on 127.0.0.1 (default 0: pick an
                                ephemeral port and print it)
  --port-file PATH              write the bound port to PATH (atomically),
                                so scripts can wait for readiness
  --max-connections N           connection cap: excess connections get one
                                kUnavailable frame and are closed (def. 64)
  --query-threads T             threads for coalesced batches and kNN/range
                                (default 1)
  --max-inflight N              admission cap: shed queries beyond N in
                                flight with kUnavailable (0 = unlimited)
  --deadline-us U               default per-query deadline in microseconds
                                (0 = none); exceeded queries report
                                kDeadlineExceeded and are counted
  --load-retries R              retry transient Load failures up to R times
                                with doubling backoff (default 0)

client options:
  --host H --port N             server address (default 127.0.0.1)
  --port-file PATH              read the port from PATH (written by serve)
  --pair S,T / --random N       distance queries (as in query); --batch
                                sends them as one Batch RPC
  --knn Q,K                     k nearest POIs of Q
  --range Q,R                   POIs within geodesic radius R of Q
  --stats / --health            print server counters / health
  --deadline-us U               per-request deadline forwarded to the server
  --check-against PATH          also open PATH in-process and exit non-zero
                                unless every answer is bit-identical
  --seed S                      seed for --random

inspect options:
  --oracle PATH                 saved oracle or pack file (required)
  --deep                        for packs: print and verify the full inner
                                section table of every shard (default
                                prints one summary line per shard; both
                                modes verify every checksum)
  --dynamic                     additionally mount the dynamic layer and
                                report its stats (delta, oplog, epoch)
  --churn N                     with --dynamic: tombstone N random live POIs
                                first, so the reported delta/epoch state is
                                non-trivial (seeded by --seed)
)");
}

// The flags each command reads. Any other flag exits 2 with its name, so
// a flag meant for another command is never silently ignored; --help and
// -h are valid everywhere.
constexpr std::string_view kBuildOracleFlags[] = {
    "--dataset", "--mesh",       "--vertices",      "--pois",
    "--epsilon", "--solver",     "--build-threads", "--threads",
    "--seed",    "--ssad-batch", "--out"};
constexpr std::string_view kPackFlags[] = {"--oracle", "--out", "--shards",
                                           "--policy"};
constexpr std::string_view kQueryFlags[] = {"--oracle", "--pair",
                                            "--random", "--seed",
                                            "--dynamic", "--churn"};
constexpr std::string_view kServeFlags[] = {
    "--oracle",          "--port",          "--port-file",
    "--max-connections", "--query-threads", "--max-inflight",
    "--deadline-us",     "--load-retries"};
constexpr std::string_view kClientFlags[] = {
    "--host",   "--port",        "--port-file",    "--pair",  "--random",
    "--seed",   "--batch",       "--knn",          "--range", "--stats",
    "--health", "--deadline-us", "--check-against"};
constexpr std::string_view kInspectFlags[] = {
    "--oracle", "--deep", "--dynamic", "--churn", "--seed"};

bool ParseArgs(int argc, char** argv, std::span<const std::string_view> flags,
               Args* args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--help" && flag != "-h" &&
        std::find(flags.begin(), flags.end(), flag) == flags.end()) {
      std::fprintf(stderr, "tso %s: unknown flag %s (see tso --help)\n",
                   argv[1], flag.c_str());
      return false;
    }
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tso: missing value for %s\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (flag == "--dataset") {
      if (!(v = next())) return false;
      args->dataset = v;
    } else if (flag == "--mesh") {
      if (!(v = next())) return false;
      args->mesh_path = v;
    } else if (flag == "--oracle") {
      if (!(v = next())) return false;
      args->oracle_path = v;
    } else if (flag == "--out") {
      if (!(v = next())) return false;
      args->out_path = v;
      args->out_set = true;
    } else if (flag == "--shards") {
      if (!(v = next())) return false;
      if (!ParseU32Flag(flag, v, &args->shards)) return false;
    } else if (flag == "--policy") {
      if (!(v = next())) return false;
      args->policy = v;
      if (args->policy != "poi-range" && args->policy != "geo") {
        std::fprintf(stderr,
                     "tso: bad --policy '%s' (expected poi-range|geo)\n", v);
        return false;
      }
    } else if (flag == "--max-inflight") {
      if (!(v = next())) return false;
      if (!ParseU64Flag(flag, v, &args->max_inflight)) return false;
    } else if (flag == "--deadline-us") {
      if (!(v = next())) return false;
      if (!ParseU64Flag(flag, v, &args->deadline_us)) return false;
    } else if (flag == "--load-retries") {
      if (!(v = next())) return false;
      if (!ParseU32Flag(flag, v, &args->load_retries)) return false;
    } else if (flag == "--port") {
      if (!(v = next())) return false;
      if (!ParseU32Flag(flag, v, &args->port)) return false;
      if (args->port > 65535) {
        std::fprintf(stderr, "tso: --port %s out of range (0-65535)\n", v);
        return false;
      }
    } else if (flag == "--host") {
      if (!(v = next())) return false;
      args->host = v;
    } else if (flag == "--port-file") {
      if (!(v = next())) return false;
      args->port_file = v;
    } else if (flag == "--check-against") {
      if (!(v = next())) return false;
      args->check_against = v;
    } else if (flag == "--max-connections") {
      if (!(v = next())) return false;
      if (!ParseU32Flag(flag, v, &args->max_connections)) return false;
    } else if (flag == "--knn") {
      if (!(v = next())) return false;
      unsigned long long k = 0;
      int consumed = 0;
      if (std::sscanf(v, "%u,%llu%n", &args->knn_query, &k, &consumed) != 2 ||
          v[consumed] != '\0') {
        std::fprintf(stderr, "tso: bad --knn '%s' (expected Q,K)\n", v);
        return false;
      }
      args->knn_k = k;
      args->knn_set = true;
    } else if (flag == "--range") {
      if (!(v = next())) return false;
      int consumed = 0;
      if (std::sscanf(v, "%u,%lf%n", &args->range_query,
                      &args->range_radius, &consumed) != 2 ||
          v[consumed] != '\0') {
        std::fprintf(stderr, "tso: bad --range '%s' (expected Q,R)\n", v);
        return false;
      }
      args->range_set = true;
    } else if (flag == "--batch") {
      args->batch = true;
    } else if (flag == "--stats") {
      args->stats = true;
    } else if (flag == "--health") {
      args->health = true;
    } else if (flag == "--deep") {
      args->deep = true;
    } else if (flag == "--solver") {
      if (!(v = next())) return false;
      args->solver = v;
    } else if (flag == "--epsilon") {
      if (!(v = next())) return false;
      if (!ParseDoubleFlag(flag, v, &args->epsilon)) return false;
    } else if (flag == "--seed") {
      if (!(v = next())) return false;
      if (!ParseU64Flag(flag, v, &args->seed)) return false;
    } else if (flag == "--vertices") {
      if (!(v = next())) return false;
      if (!ParseU32Flag(flag, v, &args->vertices)) return false;
    } else if (flag == "--pois") {
      if (!(v = next())) return false;
      if (!ParseSizeFlag(flag, v, &args->pois)) return false;
    } else if (flag == "--threads" || flag == "--build-threads") {
      if (!(v = next())) return false;
      if (!ParseU32Flag(flag, v, &args->threads)) return false;
    } else if (flag == "--ssad-batch") {
      if (!(v = next())) return false;
      if (!ParseU32Flag(flag, v, &args->ssad_batch)) return false;
    } else if (flag == "--query-threads") {
      if (!(v = next())) return false;
      if (!ParseU32Flag(flag, v, &args->query_threads)) return false;
    } else if (flag == "--random") {
      if (!(v = next())) return false;
      if (!ParseSizeFlag(flag, v, &args->random_queries)) return false;
    } else if (flag == "--dynamic") {
      args->dynamic = true;
    } else if (flag == "--churn") {
      if (!(v = next())) return false;
      if (!ParseSizeFlag(flag, v, &args->churn)) return false;
    } else if (flag == "--pair") {
      if (!(v = next())) return false;
      uint32_t s = 0, t = 0;
      int consumed = 0;
      if (std::sscanf(v, "%u,%u%n", &s, &t, &consumed) != 2 ||
          v[consumed] != '\0') {
        std::fprintf(stderr, "tso: bad --pair '%s' (expected S,T)\n", v);
        return false;
      }
      args->pairs.emplace_back(s, t);
    } else if (flag == "--help" || flag == "-h") {
      Usage();
      std::exit(0);
    }
  }
  return true;
}

StatusOr<PaperDataset> ParseDataset(const std::string& name) {
  if (name == "bh") return PaperDataset::kBearHead;
  if (name == "ep") return PaperDataset::kEaglePeak;
  if (name == "sf") return PaperDataset::kSanFrancisco;
  if (name == "sf-small") return PaperDataset::kSanFranciscoSmall;
  return Status::InvalidArgument("unknown dataset: " + name +
                              " (expected bh|ep|sf|sf-small)");
}

StatusOr<SolverKind> ParseSolverKind(const std::string& name) {
  if (name == "mmp") return SolverKind::kMmpExact;
  if (name == "dijkstra") return SolverKind::kDijkstra;
  if (name == "steiner") return SolverKind::kSteiner;
  return Status::InvalidArgument("unknown solver: " + name +
                              " (expected mmp|dijkstra|steiner)");
}

StatusOr<Dataset> LoadOrSynthesize(const Args& args) {
  if (!args.mesh_path.empty()) {
    const bool obj = args.mesh_path.size() > 4 &&
                     args.mesh_path.rfind(".obj") == args.mesh_path.size() - 4;
    StatusOr<TerrainMesh> mesh =
        obj ? ReadObj(args.mesh_path) : ReadOff(args.mesh_path);
    if (!mesh.ok()) return mesh.status();
    const size_t pois = args.pois == 0 ? 50 : args.pois;
    return MakeDataset(args.mesh_path, *std::move(mesh), pois, args.seed);
  }
  StatusOr<PaperDataset> which = ParseDataset(args.dataset);
  if (!which.ok()) return which.status();
  return MakePaperDataset(*which, args.vertices, args.pois, args.seed);
}

StatusOr<SeOracle> BuildOracle(const Args& args, const Dataset& ds,
                               SeBuildStats* stats) {
  StatusOr<SolverKind> kind = ParseSolverKind(args.solver);
  if (!kind.ok()) return kind.status();
  StatusOr<std::unique_ptr<GeodesicSolver>> solver =
      MakeSolver(*kind, *ds.mesh);
  if (!solver.ok()) return solver.status();

  SeOracleOptions options;
  options.epsilon = args.epsilon;
  options.seed = args.seed;
  options.num_threads = args.threads;
  options.ssad_batch = args.ssad_batch;
  const TerrainMesh* mesh = ds.mesh.get();
  const SolverKind solver_kind = *kind;
  options.parallel_solver_factory = [mesh, solver_kind]() {
    StatusOr<std::unique_ptr<GeodesicSolver>> s =
        MakeSolver(solver_kind, *mesh);
    return s.ok() ? std::move(*s) : nullptr;
  };
  return SeOracle::Build(*ds.mesh, ds.pois, **solver, options, stats);
}

int CmdBuildOracle(const Args& args) {
  StatusOr<Dataset> ds = LoadOrSynthesize(args);
  if (!ds.ok()) {
    std::fprintf(stderr, "tso: dataset: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset %s: N=%zu vertices, n=%zu POIs\n", ds->name.c_str(),
              ds->N(), ds->n());

  SeBuildStats stats;
  StatusOr<SeOracle> oracle = BuildOracle(args, *ds, &stats);
  if (!oracle.ok()) {
    std::fprintf(stderr, "tso: build: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "built SE oracle: eps=%.3g height=%d node_pairs=%zu ssad_runs=%zu "
      "size=%.1f KiB in %.2fs\n",
      oracle->epsilon(), stats.height, stats.node_pairs, stats.ssad_runs,
      oracle->SizeBytes() / 1024.0, stats.total_seconds);
  std::printf("phase timing (threads=%u, ssad batch=%u, %zu enhanced "
              "sweeps):\n",
              stats.threads_used, stats.ssad_batch_used,
              stats.enhanced_sweeps);
  std::printf("  %-16s %10s\n", "phase", "seconds");
  std::printf("  %-16s %10.3f\n", "partition-tree", stats.tree_seconds);
  std::printf("  %-16s %10.3f\n", "enhanced-edges", stats.enhanced_seconds);
  std::printf("  %-16s %10.3f\n", "node-pairs", stats.pair_gen_seconds);
  std::printf("  %-16s %10.3f\n", "total", stats.total_seconds);
  if (stats.tree_speculative_ssads > 0) {
    std::printf("  tree speculation: %zu worker SSADs, %zu wasted\n",
                stats.tree_speculative_ssads, stats.tree_wasted_ssads);
  }

  Status saved = SaveSeOracleFlat(*oracle, args.out_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "tso: save: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("saved to %s (flat format)\n", args.out_path.c_str());
  return 0;
}

/// The one rejection every verb prints for a file that is neither format.
Status NotAnOracleFile(const std::string& path) {
  return Status::InvalidArgument(
      path + ": not an oracle file (expected TSOFLAT or TSOPACK magic)");
}

/// Sniffs the leading magic so each verb picks its reader (both magics are
/// sizeof(kFlatMagic) bytes); any other file is rejected here.
enum class FileKind { kFlat, kPack };
StatusOr<FileKind> SniffFileKind(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  char magic[sizeof(kFlatMagic)] = {};
  const size_t got = std::fread(magic, 1, sizeof(magic), f);
  std::fclose(f);
  const std::string_view head(magic, got);
  if (LooksLikeFlatOracle(head)) return FileKind::kFlat;
  if (LooksLikeOraclePack(head)) return FileKind::kPack;
  return NotAnOracleFile(path);
}

int CmdPack(const Args& args) {
  if (args.oracle_path.empty()) {
    std::fprintf(stderr, "tso: pack requires --oracle PATH\n");
    return 1;
  }
  // Open the source flat oracle (checksums verified: the pack writer reads
  // every pair), reshard its node-pair set, and write the pack. Answers are
  // bit-identical to the input for any shard count, so this is purely an
  // operational reshaping.
  StatusOr<FileKind> kind = SniffFileKind(args.oracle_path);
  if (!kind.ok()) {
    std::fprintf(stderr, "tso: %s\n", kind.status().ToString().c_str());
    return 1;
  }
  StatusOr<OracleView> oracle =
      OracleView::Open(args.oracle_path, {.verify_checksums = true});
  if (!oracle.ok()) {
    std::fprintf(stderr, "tso: load: %s\n", oracle.status().ToString().c_str());
    return 1;
  }
  PackBuildOptions options;
  options.num_shards = args.shards;
  options.policy =
      args.policy == "geo" ? PackPolicy::kGeo : PackPolicy::kPoiRange;
  const std::string out =
      args.out_set ? args.out_path : std::string("oracle.tsop");
  WallTimer timer;
  Status saved = SaveOraclePack(*oracle, options, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "tso: pack: %s\n", saved.ToString().c_str());
    return 1;
  }
  StatusOr<PackView> pack = PackView::Open(out);
  if (!pack.ok()) {
    std::fprintf(stderr, "tso: reopen: %s\n",
                 pack.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "packed %s -> %s: %u shards (%s policy), n=%zu POIs, %zu shard "
      "pair records, %.1f KiB in %.2fs\n",
      args.oracle_path.c_str(), out.c_str(), pack->num_shards(),
      args.policy.c_str(), pack->num_pois(),
      static_cast<size_t>(pack->meta().num_pairs_total),
      pack->SizeBytes() / 1024.0, timer.ElapsedSeconds());
  return 0;
}

/// Largest power-of-two divisor of `offset`, capped at 4096 — inspect's
/// "align" column. Cache-line placement starts mattering at 64 (the format
/// guarantees kFlatSectionAlign = 64 for every section).
uint64_t SectionAlignment(uint64_t offset) {
  if (offset == 0) return 4096;
  const uint64_t a = offset & (~offset + 1);  // lowest set bit
  return a > 4096 ? 4096 : a;
}

/// The dynamic layer mounted over a saved file plus whatever backing
/// representation must stay alive for it (FromSource does not own its base).
/// File mounts carry no mesh or geodesic solver, so they are remove-only:
/// tombstones and compact-free queries work, inserts do not.
struct DynamicMount {
  std::optional<PackView> pack;  // keep-alive: FromSource(pack)
  std::unique_ptr<DynamicSeOracle> dyn;
  const char* base_kind = "";
};

StatusOr<DynamicMount> MountDynamic(const std::string& path) {
  StatusOr<FileKind> kind = SniffFileKind(path);
  if (!kind.ok()) return kind.status();
  DynamicMount mount;
  DynamicOracleOptions options;
  if (*kind == FileKind::kFlat) {
    StatusOr<OracleView> view = OracleView::Open(path);
    if (!view.ok()) return view.status();
    StatusOr<std::unique_ptr<DynamicSeOracle>> dyn = DynamicSeOracle::
        FromView(*std::move(view), nullptr, nullptr, options);
    if (!dyn.ok()) return dyn.status();
    mount.dyn = std::move(*dyn);
    mount.base_kind = "mapped flat oracle";
    return mount;
  }
  StatusOr<PackView> pack = PackView::Open(path);
  if (!pack.ok()) return pack.status();
  mount.pack.emplace(*std::move(pack));
  StatusOr<std::unique_ptr<DynamicSeOracle>> dyn = DynamicSeOracle::
      FromSource(MakeSource(*mount.pack), nullptr, nullptr, options);
  if (!dyn.ok()) return dyn.status();
  mount.dyn = std::move(*dyn);
  mount.base_kind = "mapped oracle pack";
  return mount;
}

/// Tombstones `n` random live POIs (seeded), so --churn demos/inspections
/// exercise the delta + epoch machinery on top of a freshly mounted file.
Status ApplyChurn(DynamicSeOracle& dyn, size_t n, uint64_t seed) {
  Rng rng(seed ^ 0x853c49e6748fea9bULL);
  for (size_t i = 0; i < n; ++i) {
    if (dyn.num_live() == 0) break;
    // Rejection-sample a live id; ids are dense at mount so this is cheap.
    uint32_t id = 0;
    do {
      id = static_cast<uint32_t>(rng.Uniform(dyn.num_ids()));
    } while (!dyn.IsLive(id));
    TSO_RETURN_IF_ERROR(dyn.Remove(id));
  }
  return Status::Ok();
}

void PrintDynamicStats(const DynamicSeOracle& dyn) {
  const DynamicStats s = dyn.stats();
  std::printf(
      "  dynamic: %zu live POIs / %zu stable ids, delta %zu rows, "
      "oplog %zu pending, eps=%.3g\n",
      s.live_pois, s.num_ids, s.delta_size, s.oplog_depth, dyn.epsilon());
  std::printf(
      "  writes:  %llu inserts, %llu removes, %llu compactions, "
      "%llu publishes\n",
      static_cast<unsigned long long>(s.inserts),
      static_cast<unsigned long long>(s.removes),
      static_cast<unsigned long long>(s.compactions),
      static_cast<unsigned long long>(s.publishes));
  std::printf(
      "  epoch:   %llu retired = %llu reclaimed + %llu pending "
      "(%zu reader slots)\n",
      static_cast<unsigned long long>(s.epoch.retired),
      static_cast<unsigned long long>(s.epoch.reclaimed),
      static_cast<unsigned long long>(s.epoch.pending),
      s.epoch.reader_slots);
}

/// `tso query --dynamic`: answers through the mounted dynamic layer, where
/// a tombstoned endpoint is an expected NotFound (printed, not fatal).
int CmdQueryDynamic(const Args& args) {
  StatusOr<DynamicMount> mount = MountDynamic(args.oracle_path);
  if (!mount.ok()) {
    std::fprintf(stderr, "tso: mount: %s\n",
                 mount.status().ToString().c_str());
    return 1;
  }
  DynamicSeOracle& dyn = *mount->dyn;
  std::printf(
      "dynamic layer over %s: n=%zu POIs eps=%.3g (remove-only: no mesh)\n",
      mount->base_kind, dyn.num_live(), dyn.epsilon());
  if (args.churn > 0) {
    Status churned = ApplyChurn(dyn, args.churn, args.seed);
    if (!churned.ok()) {
      std::fprintf(stderr, "tso: churn: %s\n", churned.ToString().c_str());
      return 1;
    }
    std::printf("churn: tombstoned %zu POIs (%zu live)\n", args.churn,
                dyn.num_live());
  }

  std::vector<std::pair<uint32_t, uint32_t>> pairs = args.pairs;
  if (args.random_queries > 0) {
    Rng rng(args.seed);
    for (size_t i = 0; i < args.random_queries; ++i) {
      pairs.emplace_back(static_cast<uint32_t>(rng.Uniform(dyn.num_ids())),
                         static_cast<uint32_t>(rng.Uniform(dyn.num_ids())));
    }
  }
  if (pairs.empty() && args.churn == 0) {
    std::fprintf(stderr, "tso: nothing to do (use --pair S,T or --random N)\n");
    return 1;
  }
  for (const auto& [s, t] : pairs) {
    StatusOr<double> d = dyn.Distance(s, t);
    if (d.ok()) {
      std::printf("d(%u, %u) = %.6f\n", s, t, *d);
    } else if (d.status().code() == StatusCode::kNotFound) {
      std::printf("d(%u, %u) = tombstoned\n", s, t);
    } else {
      std::fprintf(stderr, "tso: query %u,%u: %s\n", s, t,
                   d.status().ToString().c_str());
      return 1;
    }
  }
  PrintDynamicStats(dyn);
  return 0;
}

/// Answers the query list against either mapped representation (OracleView
/// and PackView expose the same surface).
template <typename Oracle>
int RunQueryPairs(const Args& args, const Oracle& oracle) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs = args.pairs;
  if (args.random_queries > 0) {
    Rng rng(args.seed);
    for (size_t i = 0; i < args.random_queries; ++i) {
      pairs.emplace_back(
          static_cast<uint32_t>(rng.Uniform(oracle.num_pois())),
          static_cast<uint32_t>(rng.Uniform(oracle.num_pois())));
    }
  }
  if (pairs.empty()) {
    std::fprintf(stderr, "tso: nothing to do (use --pair S,T or --random N)\n");
    return 1;
  }
  for (const auto& [s, t] : pairs) {
    StatusOr<double> d = oracle.Distance(s, t);
    if (!d.ok()) {
      std::fprintf(stderr, "tso: query %u,%u: %s\n", s, t,
                   d.status().ToString().c_str());
      return 1;
    }
    std::printf("d(%u, %u) = %.6f\n", s, t, *d);
  }
  return 0;
}

int CmdQuery(const Args& args) {
  if (args.oracle_path.empty()) {
    std::fprintf(stderr, "tso: query requires --oracle PATH\n");
    return 1;
  }
  if (args.dynamic) return CmdQueryDynamic(args);
  StatusOr<FileKind> kind = SniffFileKind(args.oracle_path);
  if (!kind.ok()) {
    std::fprintf(stderr, "tso: %s\n", kind.status().ToString().c_str());
    return 1;
  }
  if (*kind == FileKind::kPack) {
    StatusOr<PackView> pack = PackView::Open(args.oracle_path);
    if (!pack.ok()) {
      std::fprintf(stderr, "tso: open: %s\n",
                   pack.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "mapped oracle pack (zero-copy): %u shards (%s policy), n=%zu POIs "
        "eps=%.3g (%.1f KiB shared read-only)\n",
        pack->num_shards(), PackPolicyName(pack->policy()), pack->num_pois(),
        pack->epsilon(), pack->SizeBytes() / 1024.0);
    return RunQueryPairs(args, *pack);
  }
  // Zero-copy serving: queries read the mapped file in place.
  StatusOr<OracleView> view = OracleView::Open(args.oracle_path);
  if (!view.ok()) {
    std::fprintf(stderr, "tso: open: %s\n", view.status().ToString().c_str());
    return 1;
  }
  const uint32_t from = view->converted_from();
  if (from != 0) {
    std::printf("converted v%u oracle to TSOFLAT v%u in memory: ", from,
                kFlatFormatVersion);
  } else {
    std::printf("mapped oracle (zero-copy): ");
  }
  std::printf("n=%zu POIs eps=%.3g height=%d (%.1f KiB %s)\n",
              view->num_pois(), view->epsilon(), view->height(),
              view->SizeBytes() / 1024.0,
              from != 0 ? "heap" : "shared read-only");
  return RunQueryPairs(args, *view);
}

void PrintEngineCounters(const ServeEngine::Stats& stats) {
  std::printf(
      "counters: queries=%llu shed=%llu deadline_exceeded=%llu reloads=%llu "
      "load_failures=%llu load_retries=%llu degraded_shards=%u health=%s\n",
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.reloads),
      static_cast<unsigned long long>(stats.load_failures),
      static_cast<unsigned long long>(stats.load_retries),
      stats.degraded_shards, ServeHealthName(stats.health));
}

/// SIGTERM/SIGINT → graceful drain. Plain flag store: everything else
/// happens on the main thread after its poll loop observes the signal.
volatile std::sig_atomic_t g_shutdown_signal = 0;
void HandleShutdownSignal(int sig) { g_shutdown_signal = sig; }

/// `tso serve`: the tsod daemon. Loads the oracle, serves the wire
/// protocol on loopback TCP until SIGTERM/SIGINT, then drains: in-flight
/// and already-pipelined requests are answered before the process exits 0.
int CmdServe(const Args& args) {
  if (args.oracle_path.empty()) {
    std::fprintf(stderr, "tso: serve requires --oracle PATH\n");
    return 1;
  }
  ServeOptions serve_options;
  serve_options.max_inflight = args.max_inflight;
  serve_options.default_deadline = std::chrono::microseconds(args.deadline_us);
  serve_options.load_retries = args.load_retries;
  ServeEngine engine(serve_options);
  Status loaded = engine.Load(args.oracle_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "tso: load: %s\n", loaded.ToString().c_str());
    return 1;
  }
  const ServeEngine::Stats opened = engine.stats();

  TsodServerOptions net_options;
  net_options.port = static_cast<uint16_t>(args.port);
  net_options.max_connections = args.max_connections;
  net_options.batch_threads =
      args.query_threads == 0 ? 1 : args.query_threads;
  TsodServer server(&engine, net_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "tso: listen: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf(
      "tsod: serving %s on 127.0.0.1:%u (%u shard%s, %llu POIs, health %s)\n",
      args.oracle_path.c_str(), server.port(), opened.num_shards,
      opened.num_shards == 1 ? "" : "s",
      static_cast<unsigned long long>(opened.num_pois),
      ServeHealthName(opened.health));
  std::fflush(stdout);
  if (!args.port_file.empty()) {
    // Atomic write: a reader polling for the file never sees a torn port.
    Status wrote = WriteFileAtomic(args.port_file,
                                   std::to_string(server.port()) + "\n");
    if (!wrote.ok()) {
      std::fprintf(stderr, "tso: port-file: %s\n", wrote.ToString().c_str());
      return 1;
    }
  }

  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  while (g_shutdown_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("tsod: signal %d received, draining connections\n",
              static_cast<int>(g_shutdown_signal));
  std::fflush(stdout);
  server.Shutdown();
  const TsodServer::Stats net_stats = server.stats();
  std::printf(
      "tsod: drained (connections=%llu frames=%llu coalesced_batches=%llu "
      "shed_connections=%llu protocol_errors=%llu)\n",
      static_cast<unsigned long long>(net_stats.accepted),
      static_cast<unsigned long long>(net_stats.frames),
      static_cast<unsigned long long>(net_stats.coalesced_batches),
      static_cast<unsigned long long>(net_stats.shed_connections),
      static_cast<unsigned long long>(net_stats.protocol_errors));
  PrintEngineCounters(engine.stats());
  return 0;
}

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// `tso client`: blocking RPCs against a running tsod server. With
/// --check-against PATH the same queries also run on an in-process
/// ServeEngine over PATH and every answer must be bit-identical (this is
/// the tsod-e2e CI job's correctness oracle).
int CmdClient(const Args& args) {
  uint32_t port = args.port;
  if (!args.port_file.empty()) {
    std::ifstream in(args.port_file);
    if (!(in >> port)) {
      std::fprintf(stderr, "tso: cannot read port from %s\n",
                   args.port_file.c_str());
      return 1;
    }
  }
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "tso: client requires --port N or --port-file\n");
    return 2;
  }
  TsodClient client;
  Status connected = client.Connect(args.host, static_cast<uint16_t>(port));
  if (!connected.ok()) {
    std::fprintf(stderr, "tso: connect: %s\n",
                 connected.ToString().c_str());
    return 1;
  }

  std::optional<ServeEngine> check;
  if (!args.check_against.empty()) {
    check.emplace();
    Status loaded = check->Load(args.check_against);
    if (!loaded.ok()) {
      std::fprintf(stderr, "tso: check-against: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
  }
  uint64_t mismatches = 0;

  std::vector<std::pair<uint32_t, uint32_t>> pairs = args.pairs;
  if (args.random_queries > 0) {
    uint64_t n = 0;
    if (check.has_value()) {
      n = check->stats().num_pois;
    } else {
      StatusOr<WireServeStats> remote = client.Stats();
      if (!remote.ok()) {
        std::fprintf(stderr, "tso: stats: %s\n",
                     remote.status().ToString().c_str());
        return 1;
      }
      n = remote->num_pois;
    }
    if (n == 0) {
      std::fprintf(stderr, "tso: --random: server reports 0 POIs\n");
      return 1;
    }
    Rng rng(args.seed);
    for (size_t i = 0; i < args.random_queries; ++i) {
      pairs.emplace_back(static_cast<uint32_t>(rng.Uniform(n)),
                         static_cast<uint32_t>(rng.Uniform(n)));
    }
  }

  if (args.batch && !pairs.empty()) {
    StatusOr<std::vector<double>> got =
        client.Batch(pairs, args.deadline_us);
    if (!got.ok()) {
      std::fprintf(stderr, "tso: batch: %s\n",
                   got.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < pairs.size(); ++i) {
      std::printf("d(%u, %u) = %.6f\n", pairs[i].first, pairs[i].second,
                  (*got)[i]);
    }
    if (check.has_value()) {
      StatusOr<std::vector<double>> want = check->Batch(pairs, 1);
      if (!want.ok() || want->size() != got->size()) {
        ++mismatches;
      } else {
        for (size_t i = 0; i < got->size(); ++i) {
          if (!BitsEqual((*got)[i], (*want)[i])) ++mismatches;
        }
      }
    }
  } else {
    for (const auto& [s, t] : pairs) {
      StatusOr<double> d = client.Distance(s, t, args.deadline_us);
      if (d.ok()) {
        std::printf("d(%u, %u) = %.6f\n", s, t, *d);
      } else {
        std::printf("d(%u, %u) = error: %s\n", s, t,
                    d.status().ToString().c_str());
      }
      if (check.has_value()) {
        StatusOr<double> want = check->Distance(s, t);
        const bool match =
            (d.ok() && want.ok() && BitsEqual(*d, *want)) ||
            (!d.ok() && !want.ok() &&
             d.status().code() == want.status().code());
        if (!match) ++mismatches;
      } else if (!d.ok()) {
        return 1;
      }
    }
  }

  if (args.knn_set) {
    StatusOr<std::vector<KnnResult>> got =
        client.Knn(args.knn_query, args.knn_k, args.deadline_us);
    if (!got.ok()) {
      std::fprintf(stderr, "tso: knn: %s\n",
                   got.status().ToString().c_str());
      return 1;
    }
    std::printf("knn(%u, %llu):", args.knn_query,
                static_cast<unsigned long long>(args.knn_k));
    for (const KnnResult& r : *got) {
      std::printf(" %u=%.6f", r.poi, r.distance);
    }
    std::printf("\n");
    if (check.has_value()) {
      StatusOr<std::vector<KnnResult>> want =
          check->Knn(args.knn_query, args.knn_k, 1);
      if (!want.ok() || want->size() != got->size()) {
        ++mismatches;
      } else {
        for (size_t i = 0; i < got->size(); ++i) {
          if ((*got)[i].poi != (*want)[i].poi ||
              !BitsEqual((*got)[i].distance, (*want)[i].distance)) {
            ++mismatches;
          }
        }
      }
    }
  }

  if (args.range_set) {
    StatusOr<std::vector<uint32_t>> got =
        client.Range(args.range_query, args.range_radius, args.deadline_us);
    if (!got.ok()) {
      std::fprintf(stderr, "tso: range: %s\n",
                   got.status().ToString().c_str());
      return 1;
    }
    std::printf("range(%u, %.6f): %zu POIs\n", args.range_query,
                args.range_radius, got->size());
    if (check.has_value()) {
      StatusOr<std::vector<uint32_t>> want =
          check->Range(args.range_query, args.range_radius, 1);
      if (!want.ok() || *want != *got) ++mismatches;
    }
  }

  if (args.stats) {
    StatusOr<WireServeStats> s = client.Stats();
    if (!s.ok()) {
      std::fprintf(stderr, "tso: stats: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "stats: queries=%llu shed=%llu deadline_exceeded=%llu reloads=%llu "
        "load_failures=%llu shards=%u degraded_shards=%u pois=%llu "
        "mapped_bytes=%llu dynamic=%d health=%s\n",
        static_cast<unsigned long long>(s->queries),
        static_cast<unsigned long long>(s->shed),
        static_cast<unsigned long long>(s->deadline_exceeded),
        static_cast<unsigned long long>(s->reloads),
        static_cast<unsigned long long>(s->load_failures), s->num_shards,
        s->degraded_shards, static_cast<unsigned long long>(s->num_pois),
        static_cast<unsigned long long>(s->mapped_bytes),
        s->dynamic ? 1 : 0,
        ServeHealthName(static_cast<ServeHealth>(s->health)));
  }

  if (args.health) {
    StatusOr<uint8_t> h = client.Health();
    if (!h.ok()) {
      std::fprintf(stderr, "tso: health: %s\n",
                   h.status().ToString().c_str());
      return 1;
    }
    std::printf("health=%s\n",
                ServeHealthName(static_cast<ServeHealth>(*h)));
  }

  if (check.has_value()) {
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "tso: client check FAILED: %llu answers differ from the "
                   "in-process engine over %s\n",
                   static_cast<unsigned long long>(mismatches),
                   args.check_against.c_str());
      return 1;
    }
    std::printf("check: all answers bit-identical to in-process engine\n");
  }
  return 0;
}

/// Pack inspection: verify the pack frame (header, section CRCs), then
/// recurse into each shard's own flat section table. Any corruption at
/// either level exits non-zero. `deep` expands each shard's inner section
/// table into the same per-section report the flat path prints (the
/// checksums are verified either way; --deep only changes the reporting).
int InspectPack(const std::string& path, const std::string& bytes,
                bool deep) {
  StatusOr<PackFileInfo> info = ReadPackFileInfo(bytes);
  if (!info.ok()) {
    std::fprintf(stderr, "tso: %s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: oracle pack format v%u, %zu bytes, %u shards (%s policy)\n",
              path.c_str(), info->header.version, bytes.size(),
              info->meta.num_shards,
              PackPolicyName(static_cast<PackPolicy>(info->meta.policy)));
  std::printf("  %-20s %10s %12s %10s %6s %10s  %s\n", "section", "offset",
              "bytes", "count", "align", "crc32", "status");
  bool all_ok = true;
  for (const FlatSectionEntry& e : info->sections) {
    const uint32_t actual = Crc32(bytes.data() + e.offset, e.size);
    const bool ok = actual == e.crc32;
    all_ok = all_ok && ok;
    std::printf("  %-20s %10llu %12llu %10llu %6llu   %08x  %s\n",
                PackSectionName(e.id),
                static_cast<unsigned long long>(e.offset),
                static_cast<unsigned long long>(e.size),
                static_cast<unsigned long long>(e.count),
                static_cast<unsigned long long>(SectionAlignment(e.offset)),
                e.crc32, ok ? "ok" : "CORRUPT");
  }
  if (!all_ok) {
    std::fprintf(stderr, "tso: checksum verification FAILED\n");
    return 1;
  }
  // Each shard is a standalone flat oracle: verify its inner section table
  // too, so a pack passes inspection only if every nested level does.
  for (uint32_t s = 0; s < info->meta.num_shards; ++s) {
    const FlatSectionEntry& e = info->sections[kPackFixedSectionCount + s];
    const std::string_view shard_bytes =
        std::string_view(bytes).substr(e.offset, e.size);
    StatusOr<FlatFileInfo> shard = ReadFlatFileInfo(shard_bytes);
    if (!shard.ok()) {
      std::fprintf(stderr, "tso: shard %u: %s\n", s,
                   shard.status().ToString().c_str());
      return 1;
    }
    size_t pairs = 0;
    if (deep) {
      std::printf("  shard %u (%llu bytes, flat oracle v%u):\n", s,
                  static_cast<unsigned long long>(e.size),
                  shard->header.version);
      std::printf("    %-20s %10s %12s %10s %6s %10s  %s\n", "section",
                  "offset", "bytes", "count", "align", "crc32", "status");
    }
    for (const FlatSectionEntry& se : shard->sections) {
      const uint32_t actual = Crc32(shard_bytes.data() + se.offset, se.size);
      const bool ok = actual == se.crc32;
      if (deep) {
        std::printf("    %-20s %10llu %12llu %10llu %6llu   %08x  %s\n",
                    FlatSectionName(se.id),
                    static_cast<unsigned long long>(se.offset),
                    static_cast<unsigned long long>(se.size),
                    static_cast<unsigned long long>(se.count),
                    static_cast<unsigned long long>(
                        SectionAlignment(se.offset)),
                    se.crc32, ok ? "ok" : "CORRUPT");
      }
      if (!ok) {
        std::fprintf(stderr, "tso: shard %u section %s: checksum FAILED\n", s,
                     FlatSectionName(se.id));
        return 1;
      }
      if (se.id == kFlatMeta && se.size == sizeof(FlatMeta)) {
        FlatMeta meta;
        std::memcpy(&meta, shard_bytes.data() + se.offset, sizeof(meta));
        pairs = meta.num_pairs;
      }
    }
    if (deep) {
      std::printf("    shard %u: %u sections, %zu node pairs "
                  "(checksums ok)\n",
                  s, shard->header.section_count, pairs);
    } else {
      std::printf("  shard %-3u %12llu bytes, %u sections, %zu node pairs "
                  "(checksums ok)\n",
                  s, static_cast<unsigned long long>(e.size),
                  shard->header.section_count, pairs);
    }
  }
  PackView::Options verify;
  verify.verify_checksums = true;
  StatusOr<PackView> pack = PackView::FromBuffer(bytes, verify);
  if (!pack.ok()) {
    std::fprintf(stderr, "tso: structural validation FAILED: %s\n",
                 pack.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "  pack: n=%zu POIs eps=%.3g height=%d shard_pair_records=%llu "
      "(all checksums ok)\n",
      pack->num_pois(), pack->epsilon(), pack->height(),
      static_cast<unsigned long long>(pack->meta().num_pairs_total));
  return 0;
}

/// The oracle's space report: bytes per stored pair of the pair index
/// (keys, distances and the pilots that place them in v4; the node-pair
/// records plus pilots in v2 and v3, or plus the FKS tables in v1), and the
/// file against the matrices the oracle competes with: a dense n × n and a
/// triangular n(n+1)/2 matrix of 8-byte distances.
void PrintSpace(const FlatFileInfo& info, const FlatMeta& meta,
                size_t file_bytes) {
  uint64_t index_bytes = 0;
  for (const FlatSectionEntry& e : info.sections) {
    if (e.id == kFlatPairs || e.id == kFlatPilots || e.id == kFlatPairKeys ||
        e.id == kFlatPairDistances ||
        (e.id >= kFlatHashBucketMul && e.id <= kFlatHashSlotUsed)) {
      index_bytes += e.size;
    }
  }
  const double n = static_cast<double>(meta.num_pois);
  const double dense_bytes = 8.0 * n * n;
  const double triangular_bytes = 4.0 * n * (n + 1.0);
  const auto ratio = [&](double matrix_bytes) {
    return matrix_bytes == 0.0 ? 0.0 : file_bytes / matrix_bytes;
  };
  std::printf("  space: %.2f bytes per pair (pair index %llu bytes, %llu "
              "pairs); file %.3fx a dense n^2 x 8-byte matrix (%.0f bytes), "
              "%.3fx a triangular n(n+1)/2 one (%.0f bytes)\n",
              meta.num_pairs == 0 ? 0.0
                                  : static_cast<double>(index_bytes) /
                                        static_cast<double>(meta.num_pairs),
              static_cast<unsigned long long>(index_bytes),
              static_cast<unsigned long long>(meta.num_pairs),
              ratio(dense_bytes), dense_bytes, ratio(triangular_bytes),
              triangular_bytes);
}

int InspectFile(const Args& args) {
  // Inspection reads the whole file so it can checksum every section;
  // serving maps it through OracleView::Open instead.
  std::ifstream in(args.oracle_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "tso: cannot open %s\n", args.oracle_path.c_str());
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();
  if (LooksLikeOraclePack(bytes)) {
    return InspectPack(args.oracle_path, bytes, args.deep);
  }
  if (!LooksLikeFlatOracle(bytes)) {
    std::fprintf(stderr, "tso: %s\n",
                 NotAnOracleFile(args.oracle_path).ToString().c_str());
    return 1;
  }

  StatusOr<FlatFileInfo> info = ReadFlatFileInfo(bytes);
  if (!info.ok()) {
    std::fprintf(stderr, "tso: %s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: flat oracle format v%u.%u, %zu bytes, %u sections\n",
              args.oracle_path.c_str(), info->header.version,
              info->header.minor_version, bytes.size(),
              info->header.section_count);
  std::printf("  %-20s %10s %12s %10s %6s %10s  %s\n", "section", "offset",
              "bytes", "count", "align", "crc32", "status");
  bool all_ok = true;
  for (const FlatSectionEntry& e : info->sections) {
    const uint32_t actual = Crc32(bytes.data() + e.offset, e.size);
    const bool ok = actual == e.crc32;
    all_ok = all_ok && ok;
    std::printf("  %-20s %10llu %12llu %10llu %6llu   %08x  %s\n",
                FlatSectionName(e.id),
                static_cast<unsigned long long>(e.offset),
                static_cast<unsigned long long>(e.size),
                static_cast<unsigned long long>(e.count),
                static_cast<unsigned long long>(SectionAlignment(e.offset)),
                e.crc32, ok ? "ok" : "CORRUPT");
  }
  if (!all_ok) {
    std::fprintf(stderr, "tso: checksum verification FAILED\n");
    return 1;
  }
  // Hot-structure layout notes: the probe pipeline's working set, with the
  // element sizes that determine how many land on one 64-byte line.
  FlatMeta flat_meta{};
  for (const FlatSectionEntry& e : info->sections) {
    if (e.id == kFlatMeta && e.size >= sizeof(FlatMeta)) {
      std::memcpy(&flat_meta, bytes.data() + e.offset, sizeof(FlatMeta));
    }
  }
  for (const FlatSectionEntry& e : info->sections) {
    if (e.id == kFlatTreeNodes) {
      std::printf("  layout: tree nodes    %2zu B/node  (%zu per 64B line, "
                  "section %s-aligned)\n",
                  sizeof(CompressedTreeNode), 64 / sizeof(CompressedTreeNode),
                  SectionAlignment(e.offset) >= 64 ? "line" : "NOT line");
    } else if (e.id == kFlatPairs) {
      std::printf("  layout: pair records  %2zu B/slot  (v1-v3 records, "
                  "split into keys and distances at open)\n",
                  sizeof(NodePair));
    } else if (e.id == kFlatPairKeys || e.id == kFlatPairDistances) {
      const uint64_t width = e.count == 0 ? 0 : e.size / e.count;
      std::printf("  layout: pair %-9s%2llu B/slot  (%llu per 64B line, "
                  "section %s-aligned%s)\n",
                  e.id == kFlatPairKeys ? "keys" : "distances",
                  static_cast<unsigned long long>(width),
                  static_cast<unsigned long long>(width == 0 ? 0 : 64 / width),
                  SectionAlignment(e.offset) >= 64 ? "line" : "NOT line",
                  e.id == kFlatPairKeys
                      ? (width == 4 ? "; 16-bit ids" : "; 32-bit ids")
                      : "; read on hits only");
    } else if (e.id == kFlatPilots) {
      std::printf("  layout: pilots        %2zu B/bucket (%llu buckets, %.1f "
                  "KiB: one pilot read per probe)\n",
                  sizeof(uint16_t), static_cast<unsigned long long>(e.count),
                  e.size / 1024.0);
    } else if (e.id == kFlatAncestors) {
      const uint32_t stride = flat_meta.ancestor_stride;
      std::printf("  layout: ancestor rows %2u ids/row (%u B, %s 64B lines, "
                  "section %s-aligned)\n",
                  stride, stride * 4,
                  (stride * 4) % 64 == 0 ? "whole" : "partial",
                  SectionAlignment(e.offset) >= 64 ? "line" : "NOT line");
    }
  }
  PrintSpace(*info, flat_meta, bytes.size());
  StatusOr<OracleView> view = OracleView::FromBuffer(bytes);
  if (!view.ok()) {
    std::fprintf(stderr, "tso: structural validation FAILED: %s\n",
                 view.status().ToString().c_str());
    return 1;
  }
  if (view->converted_from() != 0) {
    std::printf("  converted v%u oracle to TSOFLAT v%u in memory: %zu bytes "
                "as v%u\n",
                view->converted_from(), kFlatFormatVersion, view->SizeBytes(),
                kFlatFormatVersion);
  }
  std::printf(
      "  oracle: n=%zu POIs eps=%.3g height=%d node_pairs=%zu "
      "(all checksums ok)\n",
      view->num_pois(), view->epsilon(), view->height(),
      view->pair_set().size());
  return 0;
}

int CmdInspect(const Args& args) {
  if (args.oracle_path.empty()) {
    std::fprintf(stderr, "tso: inspect requires --oracle PATH\n");
    return 1;
  }
  const int rc = InspectFile(args);
  if (rc != 0 || !args.dynamic) return rc;

  // --dynamic: mount the log-structured layer on the (now validated) file
  // and report its delta/oplog/epoch state, optionally after seeded churn.
  StatusOr<DynamicMount> mount = MountDynamic(args.oracle_path);
  if (!mount.ok()) {
    std::fprintf(stderr, "tso: mount: %s\n",
                 mount.status().ToString().c_str());
    return 1;
  }
  DynamicSeOracle& dyn = *mount->dyn;
  std::printf("dynamic layer over %s (remove-only: no mesh):\n",
              mount->base_kind);
  if (args.churn > 0) {
    Status churned = ApplyChurn(dyn, args.churn, args.seed);
    if (!churned.ok()) {
      std::fprintf(stderr, "tso: churn: %s\n", churned.ToString().c_str());
      return 1;
    }
    std::printf("  churn: tombstoned %zu POIs\n", args.churn);
  }
  PrintDynamicStats(dyn);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    Usage();
    return 0;
  }
  if (cmd == "version" || cmd == "--version") {
    std::printf("tso %s\n", kVersionString);
    return 0;
  }
  // The command is resolved before its flags, so a removed command is
  // reported as such rather than as one of its old flags.
  struct Command {
    const char* name;
    int (*run)(const Args&);
    std::span<const std::string_view> flags;
  };
  const Command commands[] = {
      {"build-oracle", CmdBuildOracle, kBuildOracleFlags},
      {"pack", CmdPack, kPackFlags},
      {"query", CmdQuery, kQueryFlags},
      {"serve", CmdServe, kServeFlags},
      {"client", CmdClient, kClientFlags},
      {"inspect", CmdInspect, kInspectFlags},
  };
  for (const Command& c : commands) {
    if (cmd != c.name) continue;
    Args args;
    if (!ParseArgs(argc, argv, c.flags, &args)) return 2;
    return c.run(args);
  }
  std::fprintf(stderr, "tso: unknown command '%s'\n", cmd.c_str());
  Usage();
  return 2;
}

}  // namespace
}  // namespace tso

int main(int argc, char** argv) { return tso::Main(argc, argv); }
