#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

namespace {

const trace::NameStats* find(const std::map<std::string, trace::NameStats>& s,
                             const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? nullptr : &it->second;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

double p50_us(const trace::NameStats* st) {
  if (!st || st->durations_ns.empty()) return 0.0;
  std::vector<std::int64_t> d = st->durations_ns;
  std::nth_element(d.begin(), d.begin() + static_cast<long>(d.size() / 2),
                   d.end());
  return static_cast<double>(d[d.size() / 2]) * 1e-3;
}

// Every per-layer metric name with its unit (BENCHMARK.json's per_layer).
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"db.rows_read_per_claimed_task", "rows"},
      {"db.store_us_per_claim", "us"},
      {"eqsql.claim.self_us", "us"},
      {"eqsql.submit.self_us", "us"},
      {"eqsql.report.self_us", "us"},
      {"eqsql.result.self_us", "us"},
      {"eqsql.history_read.self_us", "us"},
      {"eqsql.update_priorities_us_per_row", "us"},
      {"wal.syncs_per_commit", "ratio"},
      {"wal.sync_us_p50", "us"},
      {"wal.bytes_per_commit", "bytes"},
      {"commit.hook_us_per_commit", "us"},
      {"storage.cache_hit_ratio", "ratio"},
      {"storage.device_reads_per_history_read", "ratio"},
      {"storage.flushes", "count"},
      {"storage.compactions", "count"},
      {"storage.bytes_written_per_user_byte", "ratio"},
      {"notify.commits_seen", "count"},
      {"notify.work_signals", "count"},
      {"notify.result_signals", "count"},
      {"pool.queries_per_task", "ratio"},
      {"pool.idle_s", "s"},
      {"tenant.jain_weighted", "ratio"},
      {"tenant.rejected_submits", "count"},
      {"tenant.claimed.t0", "count"},
      {"tenant.claimed.t1", "count"},
      {"tenant.claimed.t2", "count"},
      {"tenant.claimed.t3", "count"},
      {"shard.completed_min_over_max", "ratio"},
      {"capi.submit_v2.busy_s", "s"},
      {"capi.query_task_v2.busy_s", "s"},
      {"capi.report.busy_s", "s"},
      {"capi.query_result.busy_s", "s"},
      {"obs.trace_events_retained", "count"},
      {"layer.eqsql.self_us_per_task", "us"},
      {"layer.capi.self_us_per_task", "us"},
      {"layer.db.self_us_per_task", "us"},
      {"layer.storage.self_us_per_task", "us"},
      {"layer.wal.self_us_per_task", "us"},
      {"layer.commit.self_us_per_task", "us"},
      {"layer.pool.self_us_per_task", "us"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kUnits;
}

}  // namespace

void derive_layer_metrics(const std::map<std::string, trace::NameStats>& stats,
                          const OpNames& ops, const SegmentFacts& facts,
                          RunResult& out) {
  auto self_us = [&](const std::string& name) {
    const trace::NameStats* st = find(stats, name);
    return st ? per(static_cast<double>(st->self_ns) * 1e-3,
                    static_cast<double>(st->count))
              : 0.0;
  };

  const trace::NameStats* claim = find(stats, ops.claim);
  out.set("db.rows_read_per_claimed_task",
          claim ? per(static_cast<double>(claim->store_rows),
                      static_cast<double>(facts.claimed))
                : 0.0,
          "rows");
  out.set("db.store_us_per_claim",
          claim ? per(static_cast<double>(claim->store_ns) * 1e-3,
                      static_cast<double>(claim->count))
                : 0.0,
          "us");
  out.set("eqsql.claim.self_us", self_us(ops.claim), "us");
  out.set("eqsql.submit.self_us", self_us(ops.submit), "us");
  out.set("eqsql.report.self_us", self_us(ops.report), "us");
  out.set("eqsql.result.self_us", self_us(ops.result), "us");
  out.set("eqsql.history_read.self_us", self_us(ops.history_read), "us");

  out.set("wal.syncs_per_commit",
          per(static_cast<double>(facts.wal_syncs),
              static_cast<double>(facts.commits)),
          "ratio");
  out.set("wal.sync_us_p50", p50_us(find(stats, "wal.device.sync")), "us");
  out.set("wal.bytes_per_commit",
          per(static_cast<double>(facts.wal_bytes),
              static_cast<double>(facts.commits)),
          "bytes");
  const trace::NameStats* hook = find(stats, "commit.hook");
  out.set("commit.hook_us_per_commit",
          hook ? per(static_cast<double>(hook->total_ns) * 1e-3,
                     static_cast<double>(hook->count))
               : 0.0,
          "us");

  const trace::NameStats* hist = find(stats, ops.history_read);
  out.set("storage.device_reads_per_history_read",
          hist ? per(static_cast<double>(hist->device_reads),
                     static_cast<double>(hist->count))
               : 0.0,
          "ratio");
  std::uint64_t storage_bytes = 0;
  if (const trace::NameStats* a = find(stats, "storage.device.append")) {
    storage_bytes = a->bytes;
  }
  out.set("storage.bytes_written_per_user_byte",
          per(static_cast<double>(storage_bytes),
              static_cast<double>(facts.user_bytes)),
          "ratio");

  if (facts.pool_workers > 0) {
    const trace::NameStats* run = find(stats, "pool.run");
    const double busy = run ? static_cast<double>(run->total_ns) * 1e-9 : 0.0;
    out.set("pool.idle_s", facts.pool_workers * facts.wall_s - busy, "s");
  }

  // Self time by layer. Every frame's self time lands in exactly one layer,
  // so the rows sum to the traced wall time spent inside recorded calls;
  // whatever a root call did outside its decorated children (SQL parse,
  // plan and execution, lock wait, C marshalling) is that root's self time.
  std::map<std::string, double> layer_self_us;
  double all_self_us = 0.0;
  for (const auto& [name, st] : stats) {
    const double us = static_cast<double>(st.self_ns) * 1e-3;
    layer_self_us[trace::layer_of(name)] += us;
    all_self_us += us;
  }
  for (const char* layer :
       {"eqsql", "capi", "db", "storage", "wal", "commit", "pool"}) {
    out.set(std::string("layer.") + layer + ".self_us_per_task",
            per(layer_self_us[layer], static_cast<double>(facts.tasks)), "us");
  }

  std::fprintf(stderr, "\nself time by layer (traced segment, %.2f s, %llu tasks)\n",
               facts.wall_s, static_cast<unsigned long long>(facts.tasks));
  std::fprintf(stderr, "  %-10s %12s %8s\n", "layer", "self_ms", "share");
  for (const auto& [layer, us] : layer_self_us) {
    std::fprintf(stderr, "  %-10s %12.2f %7.1f%%\n", layer.c_str(), us * 1e-3,
                 100.0 * per(us, all_self_us));
  }
  std::fprintf(stderr, "  %-28s %9s %12s %12s %10s\n", "span", "count",
               "total_ms", "self_ms", "self_us/op");
  for (const auto& [name, st] : stats) {
    std::fprintf(stderr, "  %-28s %9llu %12.2f %12.2f %10.2f\n", name.c_str(),
                 static_cast<unsigned long long>(st.count),
                 static_cast<double>(st.total_ns) * 1e-6,
                 static_cast<double>(st.self_ns) * 1e-6,
                 per(static_cast<double>(st.self_ns) * 1e-3,
                     static_cast<double>(st.count)));
  }
}

void fill_absent_layer_metrics(RunResult& out) {
  for (const auto& [name, unit] : layer_metric_units()) {
    if (!out.metrics.count(name)) out.set(name, 0.0, unit);
  }
}

void record_span_counts(const std::map<std::string, trace::NameStats>& stats,
                        RunResult& out) {
  for (const auto& [name, st] : stats) {
    out.counts["span." + name] = st.count;
    if (st.store_rows) out.counts["rows." + name] = st.store_rows;
    if (st.bytes) out.counts["bytes." + name] = st.bytes;
    if (st.device_reads) out.counts["device_reads." + name] = st.device_reads;
  }
}

}  // namespace perfbench
