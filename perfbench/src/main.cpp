// osprey_perfbench: runs one benchmark workload and prints its result as one
// JSON line on stdout (run.py wraps it into the driver's result line).
//
//   osprey_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir> [--out-dir <dir>]
//
// Human-readable tables (the traced run's self-time split) go to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      std::putchar('\\');
      std::putchar(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      std::printf("\\u%04x", ch);
    } else {
      std::putchar(ch);
    }
  }
  std::putchar('"');
}

int usage() {
  std::fprintf(stderr,
               "usage: osprey_perfbench --workload "
               "<ackley_campaign|deep_backlog|tenant_fair_capi> --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage();
    }
  }
  if (opt.work_dir.empty() || opt.seconds <= 0) return usage();

  perfbench::RunResult r;
  if (opt.workload == "ackley_campaign") {
    r = perfbench::run_ackley_campaign(opt);
  } else if (opt.workload == "deep_backlog") {
    r = perfbench::run_deep_backlog(opt);
  } else if (opt.workload == "tenant_fair_capi") {
    r = perfbench::run_tenant_fair_capi(opt);
  } else {
    return usage();
  }
  perfbench::remove_tree(opt.work_dir);

  const bool correct = r.violations.empty();
  std::printf("{\"workload\":");
  print_json_string(opt.workload);
  std::printf(",\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s", first ? "" : ",");
    print_json_string(name);
    std::printf(":{\"value\":%.17g,\"unit\":", m.value);
    print_json_string(m.unit);
    std::printf("}");
    first = false;
  }
  std::printf("},\"counts\":{");
  first = true;
  for (const auto& [name, n] : r.counts) {
    std::printf("%s", first ? "" : ",");
    print_json_string(name);
    std::printf(":%llu", static_cast<unsigned long long>(n));
    first = false;
  }
  std::printf("},\"violations\":[");
  first = true;
  for (const std::string& v : r.violations) {
    std::printf("%s", first ? "" : ",");
    print_json_string(v);
    first = false;
  }
  std::printf("]}\n");
  return correct ? 0 : 1;
}
