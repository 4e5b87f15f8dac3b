// The three benchmark workloads and the per-layer metric derivation they
// share. Each workload fills every end-to-end metric in an untraced run and
// every per-layer metric in a traced one (see perfbench/README.md).
#pragma once

#include <map>
#include <string>

#include "common.h"
#include "trace.h"

namespace perfbench {

RunResult run_ackley_campaign(const Options& opt);
RunResult run_deep_backlog(const Options& opt);
RunResult run_tenant_fair_capi(const Options& opt);

/// Which recorder span names play the logical roles the per-layer metrics
/// are defined over (the ME-side calls differ between EQSQL and the C API).
struct OpNames {
  std::string submit;
  std::string claim;
  std::string report;
  std::string result;
  std::string history_read;
};

/// Facts a traced segment knows beyond the recorder's tallies.
struct SegmentFacts {
  double wall_s = 0.0;
  std::uint64_t tasks = 0;          // results the ME now holds
  std::uint64_t claimed = 0;        // tasks claimed inside measured claims
  std::uint64_t commits = 0;        // WAL commits logged in the segment
  std::uint64_t wal_syncs = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t user_bytes = 0;     // payload + result bytes written
  int pool_workers = 0;
};

/// Fill the recorder-derived per-layer metrics (db.*, eqsql.*.self_us,
/// wal.*, commit.*, storage.device_reads / bytes, pool.idle_s and the
/// layer.*.self_us_per_task table) into `out`, and print the self-time
/// table to stderr.
void derive_layer_metrics(const std::map<std::string, trace::NameStats>& stats,
                          const OpNames& ops, const SegmentFacts& facts,
                          RunResult& out);

/// Set every per-layer metric a workload does not exercise to 0, so each
/// traced run reports the full per-layer set.
void fill_absent_layer_metrics(RunResult& out);

/// Copy the recorder's exact counts into out.counts (names prefixed with
/// "span." / "rows." / "bytes." / "device_reads.").
void record_span_counts(const std::map<std::string, trace::NameStats>& stats,
                        RunResult& out);

}  // namespace perfbench
