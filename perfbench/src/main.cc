// perfbench: runs one workload against the terrain-surface oracle stack and
// prints, as its last line, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Exit code 0 only when
// every operation was answered correctly.
//
//   perfbench --workload wire_p2p|dyn_churn --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "layers.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->seconds > 0 &&
         (args->workload == "wire_p2p" || args->workload == "dyn_churn");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (argc % 2 == 0 || !ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload wire_p2p|dyn_churn "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  perfbench::SpanLog log(args.trace);
  perfbench::Report rep;
  if (args.workload == "dyn_churn") {
    perfbench::RunDynChurn(args, &log, &rep);
  } else {
    perfbench::RunWire(args, &log, &rep);
  }
  if (args.trace) {
    perfbench::WriteSpans(log.spans(), args.out_dir + "/trace-" +
                                           args.workload + "-" +
                                           std::to_string(args.seed) + ".jsonl");
    rep.Metric("trace.spans", static_cast<double>(log.spans().size()), "count");
  }
  rep.PrintJson();
  return rep.correct() ? 0 : 1;
}
