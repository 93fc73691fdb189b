// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload chain|stencil|serving|wire --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--smoke] [--expect-offset N]
//
// Prints a metric table, a provenance record line ("perfbench-record
// {...}") and, last, one JSON object with the keys correct, attempted,
// failed and metrics. Exits 0 only when every checked operation passed.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "chain|stencil|serving|wire --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--smoke] [--expect-offset N]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds: glibc otherwise raises its mmap threshold
  // after the first large free, so how fast a set-up allocates would
  // depend on what this process freed before (set-up times were bimodal
  // between runs). Fixing them makes every repeat see the same allocator.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);

  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t v = 0;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      if (!parse_u64(argv[++i], opt.seed)) return usage("bad --seed");
    } else if (a == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds > 0)) return usage("bad --seconds");
    } else if (a == "--trace") {
      if (!parse_u64(argv[++i], v) || v > 1) return usage("bad --trace");
      opt.trace = v == 1;
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else if (a == "--expect-offset") {
      if (!parse_u64(argv[++i], opt.expect_offset)) {
        return usage("bad --expect-offset");
      }
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }

  perfbench::Report report;
  ttg::Config config;
  try {
    if (opt.workload == "chain") {
      config = perfbench::run_chain(opt, report);
    } else if (opt.workload == "stencil") {
      config = perfbench::run_stencil(opt, report);
    } else if (opt.workload == "serving") {
      config = perfbench::run_serving(opt, report);
    } else if (opt.workload == "wire") {
      config = perfbench::run_wire(opt, report);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.param("seed", static_cast<double>(opt.seed));
  return report.print(opt, config);
}
