// The crash-safety acceptance harness: a child process is forked, arms a
// crash failpoint at one stage of the artifact write protocol, and is
// killed by it (abort -> SIGABRT) mid-publish. The parent then proves the
// destination path still holds a COMPLETE artifact — byte-identical to the
// previous version for every stage up to the rename, or the complete new
// version once the rename has happened (the dirsync stage) — and that it
// still opens with full checksum verification and loads into a ServeEngine.
// A partially-visible file at the destination is the failure this harness
// exists to catch.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/atomic_file.h"
#include "base/failpoint.h"
#include "geodesic/dijkstra_solver.h"
#include "oracle/oracle_serde.h"
#include "oracle/pack_view.h"
#include "serve/engine.h"
#include "terrain/dataset.h"

namespace tso {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct CrashFixture {
  std::unique_ptr<SeOracle> oracle_a;  // the "previous" published artifact
  std::unique_ptr<SeOracle> oracle_b;  // the replacement being written

  CrashFixture() {
    for (int variant = 0; variant < 2; ++variant) {
      // Different POI seeds -> different oracles -> different bytes, so the
      // harness can tell old artifact from new by content.
      StatusOr<Dataset> ds = MakePaperDataset(PaperDataset::kSanFranciscoSmall,
                                              300, 12, 7 + variant);
      TSO_CHECK(ds.ok());
      DijkstraSolver solver(*ds->mesh);
      SeOracleOptions options;
      options.epsilon = 0.25;
      StatusOr<SeOracle> built =
          SeOracle::Build(*ds->mesh, ds->pois, solver, options, nullptr);
      TSO_CHECK(built.ok());
      (variant == 0 ? oracle_a : oracle_b) =
          std::make_unique<SeOracle>(std::move(*built));
    }
  }
};

CrashFixture& Fixture() {
  static CrashFixture* fx = new CrashFixture();
  return *fx;
}

/// Forks, runs `write_new` in the child with `stage` armed to crash, and
/// asserts the child died of SIGABRT. Returns false on fork failure.
template <typename WriteFn>
void CrashChildAt(const std::string& stage, WriteFn write_new) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: arm the crash, attempt the write. The failpoint aborts the
    // process partway through the protocol; if it somehow does not fire,
    // exit with a distinct code so the parent fails loudly.
    if (!failpoint::Arm(stage, "crash").ok()) _exit(41);
    (void)write_new();
    _exit(42);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child at stage " << stage << " exited normally with code "
      << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1)
      << " instead of crashing";
  EXPECT_EQ(WTERMSIG(wstatus), SIGABRT) << "stage " << stage;
}

/// Stages at which the child is killed, in protocol order. Every stage up
/// to (and including) the rename must leave the old artifact; a crash at
/// the dirsync stage happens after the rename, so the new artifact is the
/// one visible.
const char* const kAtomicStages[] = {"atomicfile.open", "atomicfile.write",
                                     "atomicfile.fsync", "atomicfile.rename",
                                     "atomicfile.dirsync"};

void RunHarness(const std::string& path, const std::string& old_bytes,
                const std::string& new_bytes, const char* serializer_stage,
                std::function<Status()> write_new,
                std::function<Status(const std::string&)> open_verified) {
  std::vector<std::string> stages = {serializer_stage};
  stages.insert(stages.end(), std::begin(kAtomicStages),
                std::end(kAtomicStages));

  for (const std::string& stage : stages) {
    SCOPED_TRACE(stage);
    // Reset: the previous artifact is durably published.
    ASSERT_TRUE(WriteFileAtomic(path, old_bytes).ok());
    std::remove((path + ".tmp").c_str());

    CrashChildAt(stage, write_new);
    if (::testing::Test::HasFatalFailure()) return;

    // The destination is never a torn file: complete old artifact for every
    // pre-rename stage, complete new artifact once the rename happened.
    const std::string recovered = ReadAll(path);
    if (stage == "atomicfile.dirsync") {
      EXPECT_EQ(recovered, new_bytes);
    } else {
      EXPECT_EQ(recovered, old_bytes);
    }

    // And it still opens under full checksum verification...
    Status opened = open_verified(path);
    EXPECT_TRUE(opened.ok()) << opened.ToString();
    // ...including through the serving tier.
    ServeEngine engine;
    Status loaded = engine.Load(path);
    EXPECT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_TRUE(engine.Distance(0, 1).ok());
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(CrashHarness, FlatOracleSurvivesCrashAtEveryStage) {
  CrashFixture& fx = Fixture();
  const std::string path = ::testing::TempDir() + "/crash_flat.tso";
  RunHarness(
      path, SerializeSeOracleFlat(*fx.oracle_a),
      SerializeSeOracleFlat(*fx.oracle_b), "flat.write.section",
      [&]() { return SaveSeOracleFlat(*fx.oracle_b, path); },
      [](const std::string& p) {
        OracleView::Options verify;
        verify.verify_checksums = true;
        return OracleView::Open(p, verify).status();
      });
}

TEST(CrashHarness, OraclePackSurvivesCrashAtEveryStage) {
  CrashFixture& fx = Fixture();
  const std::string path = ::testing::TempDir() + "/crash_pack.tsop";
  PackBuildOptions old_pack;  // 2-shard previous artifact
  old_pack.num_shards = 2;
  PackBuildOptions new_pack;  // 4-shard replacement
  new_pack.num_shards = 4;
  StatusOr<std::string> old_bytes = SerializeOraclePack(*fx.oracle_a, old_pack);
  StatusOr<std::string> new_bytes = SerializeOraclePack(*fx.oracle_b, new_pack);
  ASSERT_TRUE(old_bytes.ok());
  ASSERT_TRUE(new_bytes.ok());
  RunHarness(
      path, *old_bytes, *new_bytes, "pack.write.section",
      [&]() { return SaveOraclePack(*fx.oracle_b, new_pack, path); },
      [](const std::string& p) {
        PackView::Options verify;
        verify.verify_checksums = true;
        return PackView::Open(p, verify).status();
      });
}

}  // namespace
}  // namespace tso
