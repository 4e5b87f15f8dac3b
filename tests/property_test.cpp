// Property-based tests: parameterized sweeps asserting invariants across
// configuration grids and seeded random operation sequences.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <string>

#include "osprey/eqsql/schema.h"
#include "osprey/json/json.h"
#include "osprey/me/gpr.h"
#include "osprey/me/task_runners.h"
#include "osprey/pool/sim_pool.h"

namespace osprey {
namespace {

constexpr WorkType kWork = 1;

// --- pool invariants across the configuration grid --------------------------------

struct PoolCase {
  int workers;
  int batch;
  int threshold;
  double sigma;
  std::uint64_t seed;
};

std::string case_name(const PoolCase& c) {
  return "w" + std::to_string(c.workers) + "_b" + std::to_string(c.batch) +
         "_t" + std::to_string(c.threshold) + "_s" + std::to_string(c.seed);
}

// Print a case by name: gtest's default byte dump of the struct includes its
// uninitialised padding, which would make the listed test names differ on
// every run.
void PrintTo(const PoolCase& c, std::ostream* os) { *os << case_name(c); }

class PoolPropertyTest : public ::testing::TestWithParam<PoolCase> {};

TEST_P(PoolPropertyTest, InvariantsHoldForAnyConfiguration) {
  const PoolCase& c = GetParam();
  sim::Simulation sim;
  db::Database db;
  db::sql::Connection conn(db);
  ASSERT_TRUE(eqsql::create_schema(conn).is_ok());
  eqsql::EQSQL api(db, sim);
  const int kTasks = 120;
  std::vector<std::string> payloads(kTasks, json::array_of({1.0, 2.0}).dump());
  auto ids = api.submit_tasks("prop", kWork, payloads).value();

  pool::SimPoolConfig config;
  config.name = "prop_pool";
  config.work_type = kWork;
  config.num_workers = c.workers;
  config.batch_size = c.batch;
  config.threshold = c.threshold;
  config.query_cost = 0.3;
  config.query_jitter = 0.1;
  config.idle_shutdown = 10.0;
  pool::SimWorkerPool pool(sim, api, config,
                           me::ackley_sim_runner(3.0, c.sigma), c.seed);
  ASSERT_TRUE(pool.start().is_ok());
  sim.run();

  // Every task completes exactly once.
  EXPECT_EQ(pool.tasks_completed(), static_cast<std::uint64_t>(kTasks));
  for (TaskId id : ids) {
    auto record = api.task_record(id).value();
    EXPECT_EQ(record.status, eqsql::TaskStatus::kComplete);
    ASSERT_TRUE(record.start_at && record.stop_at);
    EXPECT_LE(record.created_at, *record.start_at);
    EXPECT_LE(*record.start_at, *record.stop_at);
  }
  // Concurrency never exceeds the worker count, never goes negative, and
  // trace timestamps are non-decreasing.
  TimePoint last_time = -1;
  for (const pool::TracePoint& p : pool.trace().points()) {
    EXPECT_GE(p.running, 0);
    EXPECT_LE(p.running, c.workers);
    EXPECT_GE(p.time, last_time);
    last_time = p.time;
  }
  // Queues fully drained.
  EXPECT_EQ(api.queued_count(kWork).value(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, PoolPropertyTest,
    ::testing::Values(
        PoolCase{1, 1, 1, 0.0, 1}, PoolCase{4, 4, 1, 0.5, 2},
        PoolCase{4, 8, 1, 0.5, 3}, PoolCase{4, 4, 4, 0.5, 4},
        PoolCase{16, 16, 1, 1.0, 5}, PoolCase{16, 33, 7, 1.0, 6},
        PoolCase{33, 50, 1, 0.5, 7}, PoolCase{33, 33, 15, 0.5, 8},
        PoolCase{8, 16, 16, 2.0, 9}, PoolCase{64, 64, 1, 0.2, 10}),
    [](const ::testing::TestParamInfo<PoolCase>& info) {
      return case_name(info.param);
    });

TEST(PoolDeterminismTest, IdenticalSeedsGiveIdenticalTraces) {
  auto run_once = [] {
    sim::Simulation sim;
    db::Database db;
    db::sql::Connection conn(db);
    EXPECT_TRUE(eqsql::create_schema(conn).is_ok());
    eqsql::EQSQL api(db, sim);
    std::vector<std::string> payloads(80, json::array_of({1.0}).dump());
    EXPECT_TRUE(api.submit_tasks("d", kWork, payloads).ok());
    pool::SimPoolConfig config;
    config.work_type = kWork;
    config.num_workers = 8;
    config.batch_size = 12;
    config.threshold = 3;
    config.query_cost = 0.4;
    config.query_jitter = 0.2;
    config.idle_shutdown = 5.0;
    pool::SimWorkerPool pool(sim, api, config,
                             me::ackley_sim_runner(2.0, 0.7), 99);
    EXPECT_TRUE(pool.start().is_ok());
    sim.run();
    std::vector<std::pair<double, int>> trace;
    for (const auto& p : pool.trace().points()) {
      trace.emplace_back(p.time, p.running);
    }
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- EQSQL state-machine fuzz -------------------------------------------------------

class EqsqlFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EqsqlFuzzTest, RandomOperationSequencePreservesInvariants) {
  db::Database db;
  db::sql::Connection conn(db);
  ASSERT_TRUE(eqsql::create_schema(conn).is_ok());
  ManualClock clock;
  eqsql::EQSQL api(db, clock);
  eqsql::WaitRouting routing;
  routing.sleeper = [&clock](Duration d) { clock.advance(d); };
  api.set_wait_routing(std::move(routing));
  Rng rng(GetParam());

  // Shadow model of expected task states.
  enum class S { kQueued, kRunning, kComplete, kCanceled };
  std::map<TaskId, S> shadow;
  std::vector<TaskId> all_ids;

  for (int step = 0; step < 400; ++step) {
    clock.advance(1.0);
    switch (rng.uniform_int(0, 5)) {
      case 0: {  // submit
        auto id = api.submit_task("fuzz", kWork, "[1]",
                                  static_cast<Priority>(rng.uniform_int(-5, 5)));
        ASSERT_TRUE(id.ok());
        ASSERT_FALSE(shadow.count(id.value())) << "duplicate task id";
        shadow[id.value()] = S::kQueued;
        all_ids.push_back(id.value());
        break;
      }
      case 1: {  // claim up to 3
        auto handles = api.try_query_tasks(
            kWork, static_cast<int>(rng.uniform_int(1, 3)), "fuzz_pool");
        ASSERT_TRUE(handles.ok());
        for (const auto& h : handles.value()) {
          ASSERT_EQ(shadow.at(h.eq_task_id), S::kQueued)
              << "claimed a non-queued task";
          shadow[h.eq_task_id] = S::kRunning;
        }
        break;
      }
      case 2: {  // report a random running task
        std::vector<TaskId> running;
        for (const auto& [id, s] : shadow) {
          if (s == S::kRunning) running.push_back(id);
        }
        if (running.empty()) break;
        TaskId id = running[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1))];
        Status reported = api.report_task(id, kWork, "{\"y\":1}");
        ASSERT_TRUE(reported.is_ok());
        shadow[id] = S::kComplete;
        break;
      }
      case 3: {  // cancel a random known task
        if (all_ids.empty()) break;
        TaskId id = all_ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(all_ids.size()) - 1))];
        auto canceled = api.cancel_tasks({id});
        ASSERT_TRUE(canceled.ok());
        S& s = shadow.at(id);
        if (s == S::kQueued || s == S::kRunning) {
          EXPECT_EQ(canceled.value(), 1u);
          s = S::kCanceled;
        } else {
          EXPECT_EQ(canceled.value(), 0u);
        }
        break;
      }
      case 4: {  // reprioritize a random subset
        if (all_ids.empty()) break;
        std::vector<TaskId> subset;
        for (TaskId id : all_ids) {
          if (rng.bernoulli(0.3)) subset.push_back(id);
        }
        if (subset.empty()) break;
        auto updated = api.update_priorities(
            subset, {static_cast<Priority>(rng.uniform_int(-10, 10))});
        ASSERT_TRUE(updated.ok());
        // Only queued tasks get repositioned.
        std::size_t queued_in_subset = 0;
        for (TaskId id : subset) {
          if (shadow.at(id) == S::kQueued) ++queued_in_subset;
        }
        EXPECT_EQ(updated.value(), queued_in_subset);
        break;
      }
      case 5: {  // requeue the pool's running tasks (simulated pool failure)
        if (!rng.bernoulli(0.1)) break;  // rare event
        auto requeued = api.requeue_pool_tasks("fuzz_pool");
        ASSERT_TRUE(requeued.ok());
        std::size_t running_count = 0;
        for (auto& [id, s] : shadow) {
          if (s == S::kRunning) {
            s = S::kQueued;
            ++running_count;
          }
        }
        EXPECT_EQ(requeued.value(), running_count);
        break;
      }
    }
  }

  // Final cross-check: DB statuses match the shadow model exactly, and the
  // output queue contains precisely the queued tasks.
  std::int64_t queued_expected = 0;
  for (const auto& [id, s] : shadow) {
    auto status = api.task_status(id).value();
    switch (s) {
      case S::kQueued:
        EXPECT_EQ(status, eqsql::TaskStatus::kQueued) << id;
        ++queued_expected;
        break;
      case S::kRunning:
        EXPECT_EQ(status, eqsql::TaskStatus::kRunning) << id;
        break;
      case S::kComplete:
        EXPECT_EQ(status, eqsql::TaskStatus::kComplete) << id;
        break;
      case S::kCanceled:
        EXPECT_EQ(status, eqsql::TaskStatus::kCanceled) << id;
        break;
    }
  }
  EXPECT_EQ(api.queued_count(kWork).value(), queued_expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EqsqlFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- JSON round-trip fuzz -------------------------------------------------------------

json::Value random_json(Rng& rng, int depth) {
  if (depth <= 0 || rng.bernoulli(0.4)) {
    switch (rng.uniform_int(0, 4)) {
      case 0: return json::Value(nullptr);
      case 1: return json::Value(rng.bernoulli(0.5));
      case 2: return json::Value(rng.uniform_int(-1000000, 1000000));
      case 3: return json::Value(rng.uniform(-1e6, 1e6));
      default: {
        std::string s;
        int len = static_cast<int>(rng.uniform_int(0, 12));
        for (int i = 0; i < len; ++i) {
          s += static_cast<char>(rng.uniform_int(32, 126));
        }
        return json::Value(std::move(s));
      }
    }
  }
  if (rng.bernoulli(0.5)) {
    json::Array array;
    int n = static_cast<int>(rng.uniform_int(0, 5));
    for (int i = 0; i < n; ++i) array.push_back(random_json(rng, depth - 1));
    return json::Value(std::move(array));
  }
  json::Object object;
  int n = static_cast<int>(rng.uniform_int(0, 5));
  for (int i = 0; i < n; ++i) {
    object["k" + std::to_string(rng.uniform_int(0, 99))] =
        random_json(rng, depth - 1);
  }
  return json::Value(std::move(object));
}

class JsonFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonFuzzTest, DumpParseRoundTripIsIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    json::Value original = random_json(rng, 4);
    auto reparsed = json::parse(original.dump());
    ASSERT_TRUE(reparsed.ok()) << original.dump();
    EXPECT_EQ(reparsed.value(), original) << original.dump();
    // Pretty output parses to the same value too.
    EXPECT_EQ(json::parse(original.dump_pretty()).value(), original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzTest, ::testing::Values(1, 2, 3, 4));

// --- GPR properties ----------------------------------------------------------------

struct GprCase {
  me::KernelType kernel;
  int n;
  int dim;
  std::uint64_t seed;
};

std::string case_name(const GprCase& c) {
  return std::string(c.kernel == me::KernelType::kRBF ? "rbf" : "matern") +
         "_n" + std::to_string(c.n) + "_d" + std::to_string(c.dim);
}

// Print a case by name, for the same reason as PoolCase.
void PrintTo(const GprCase& c, std::ostream* os) { *os << case_name(c); }

class GprPropertyTest : public ::testing::TestWithParam<GprCase> {};

TEST_P(GprPropertyTest, PosteriorIsWellFormedOnRandomData) {
  const GprCase& c = GetParam();
  Rng rng(c.seed);
  auto x = me::uniform_samples(rng, c.n, c.dim, -10, 10);
  std::vector<double> y;
  y.reserve(x.size());
  for (const auto& p : x) y.push_back(me::rastrigin(p) + rng.normal(0, 0.1));

  me::GprConfig config;
  config.kernel = c.kernel;
  config.lengthscale = 3.0;
  config.noise = 1e-3;
  me::GPR model(config);
  ASSERT_TRUE(model.fit(x, y).is_ok());

  auto test_points = me::uniform_samples(rng, 50, c.dim, -12, 12);
  for (const auto& p : test_points) {
    me::Prediction pred = model.predict(p);
    EXPECT_TRUE(std::isfinite(pred.mean));
    EXPECT_GE(pred.variance, 0.0);  // posterior variance is non-negative
    EXPECT_TRUE(std::isfinite(pred.variance));
  }
  // Ranking covers 1..n exactly once.
  auto priorities = me::promising_first_priorities(model, test_points);
  std::set<Priority> unique_priorities(priorities.begin(), priorities.end());
  EXPECT_EQ(unique_priorities.size(), test_points.size());
  EXPECT_EQ(*unique_priorities.begin(), 1);
  EXPECT_EQ(*unique_priorities.rbegin(),
            static_cast<Priority>(test_points.size()));
}

INSTANTIATE_TEST_SUITE_P(
    KernelGrid, GprPropertyTest,
    ::testing::Values(GprCase{me::KernelType::kRBF, 30, 2, 1},
                      GprCase{me::KernelType::kRBF, 100, 4, 2},
                      GprCase{me::KernelType::kMatern52, 30, 2, 3},
                      GprCase{me::KernelType::kMatern52, 100, 4, 4},
                      GprCase{me::KernelType::kRBF, 60, 8, 5}),
    [](const ::testing::TestParamInfo<GprCase>& info) {
      return case_name(info.param);
    });

// --- SQL vs programmatic equivalence -------------------------------------------------

class SqlEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SqlEquivalenceTest, PriorityPopMatchesProgrammaticSelect) {
  db::Database db;
  db::sql::Connection conn(db);
  ASSERT_TRUE(conn.execute("CREATE TABLE q (id INTEGER PRIMARY KEY, "
                           "pri INTEGER NOT NULL)").ok());
  ASSERT_TRUE(conn.execute("CREATE INDEX ON q (pri)").ok());
  Rng rng(GetParam());
  for (std::int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(conn.execute("INSERT INTO q VALUES (?, ?)",
                             {db::Value(i), db::Value(rng.uniform_int(0, 20))})
                    .ok());
  }
  auto via_sql = conn.execute(
      "SELECT id FROM q ORDER BY pri DESC, id ASC LIMIT 10");
  ASSERT_TRUE(via_sql.ok());

  db::ScanOptions options;
  options.order_by = {{"pri", false}, {"id", true}};
  options.limit = 10;
  auto via_api = db.table("q")->select(options);
  ASSERT_TRUE(via_api.ok());

  ASSERT_EQ(via_sql.value().rows.size(), via_api.value().size());
  for (std::size_t i = 0; i < via_api.value().size(); ++i) {
    auto row = db.table("q")->get(via_api.value()[i]);
    EXPECT_EQ(via_sql.value().rows[i][0].as_int(), (*row)[0].as_int());
  }
}

TEST_P(SqlEquivalenceTest, CompositeIndexWalkMatchesSortPath) {
  // Two copies of one table: `walked` carries composite indexes, `sorted`
  // only its primary key, so its queries take the sort path (or the key's
  // own seek). Every query must return the same ids in the same order from
  // both: NULL and text cells, mixed ASC/DESC, equality prefixes (=, IS
  // NULL, IN), conjuncts the seek does not answer, with and without LIMIT.
  db::Database db;
  db::sql::Connection conn(db);
  for (const char* table : {"walked", "sorted"}) {
    ASSERT_TRUE(conn.execute(std::string("CREATE TABLE ") + table +
                             " (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, "
                             "c REAL, d INTEGER NOT NULL)")
                    .ok());
  }
  const std::vector<std::vector<db::OrderTerm>> specs = {
      {{"a", true}, {"b", false}, {"c", true}},
      {{"b", true}, {"c", false}},
      {{"d", false}, {"a", true}},
      {{"c", true}},
  };
  for (const auto& spec : specs) {
    ASSERT_TRUE(db.table("walked")->create_index(db::index_spec_string(spec))
                    .is_ok());
  }
  Rng rng(GetParam());
  const std::vector<std::string> columns = {"a", "b", "c", "d"};
  auto cell = [&](const std::string& column) -> db::Value {
    if (column != "d" && rng.uniform_int(0, 5) == 0) return db::Value();
    if (column == "a") return db::Value(rng.uniform_int(0, 3));
    if (column == "b") {
      return db::Value(std::string(1, static_cast<char>('p' + rng.uniform_int(0, 2))));
    }
    if (column == "c") {
      // Ints and reals mix in a REAL column: 2 and 2.0 tie.
      const std::int64_t pick = rng.uniform_int(0, 3);
      return pick == 0 ? db::Value(std::int64_t{2})
                       : db::Value(0.5 * static_cast<double>(pick + 2));
    }
    return db::Value(rng.uniform_int(0, 4));
  };
  auto both = [&](const std::string& sql_tail,
                  const std::vector<db::Value>& params) {
    for (const char* table : {"walked", "sorted"}) {
      ASSERT_TRUE(conn.execute(sql_tail.substr(0, sql_tail.find('#')) + table +
                                   sql_tail.substr(sql_tail.find('#') + 1),
                               params)
                      .ok());
    }
  };
  for (std::int64_t id = 1; id <= 300; ++id) {
    both("INSERT INTO # VALUES (?, ?, ?, ?, ?)",
         {db::Value(id), cell("a"), cell("b"), cell("c"), cell("d")});
  }
  for (int i = 0; i < 60; ++i) {
    const db::Value id(rng.uniform_int(1, 300));
    if (i % 3 == 0) {
      both("DELETE FROM # WHERE id = ?", {id});
    } else {
      const std::string& column = columns[static_cast<std::size_t>(
          rng.uniform_int(0, 3))];
      both("UPDATE # SET " + column + " = ? WHERE id = ?", {cell(column), id});
    }
  }

  std::size_t walks = 0;
  for (int q = 0; q < 300; ++q) {
    const auto& spec =
        specs[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.size())));
    std::vector<std::string> where;
    std::vector<db::Value> params;
    for (std::size_t j = 0; j < k; ++j) {
      const std::string& column = spec[j].column;
      const db::Value v = cell(column);
      if (rng.uniform_int(0, 4) == 0) {
        where.push_back(column + " IN (?, ?)");
        params.push_back(v);
        params.push_back(cell(column));
      } else if (v.is_null()) {
        where.push_back(column + (rng.uniform_int(0, 1) ? " IS NULL" : " = ?"));
        if (where.back().back() == '?') params.push_back(v);
      } else {
        where.push_back(column + " = ?");
        params.push_back(v);
      }
    }
    if (rng.uniform_int(0, 1) == 0) {  // a conjunct no seek answers
      const std::string& column =
          columns[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      where.push_back(column +
                      (rng.uniform_int(0, 1) ? " != ?" : " >= ?"));
      params.push_back(cell(column));
    }
    std::vector<std::string> order;
    const std::int64_t shape = rng.uniform_int(0, 3);
    for (std::size_t j = (shape == 3 ? 0 : k); j < spec.size(); ++j) {
      bool ascending = spec[j].ascending;
      if (shape == 1) ascending = !ascending;  // the backward walk
      if (shape == 3) ascending = rng.uniform_int(0, 1) == 0;
      order.push_back(spec[j].column + (ascending ? " ASC" : " DESC"));
    }
    if (shape == 2 && rng.uniform_int(0, 1) == 0) order.clear();
    std::string tail = " FROM #";
    for (std::size_t i = 0; i < where.size(); ++i) {
      tail += (i == 0 ? " WHERE " : " AND ") + where[i];
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      tail += (i == 0 ? " ORDER BY " : ", ") + order[i];
    }
    if (rng.uniform_int(0, 2) != 0) {
      tail += " LIMIT " + std::to_string(rng.uniform_int(0, 12));
    }
    std::vector<std::vector<std::int64_t>> results;
    const std::uint64_t scans = db.table("walked")->full_scans();
    for (const char* table : {"walked", "sorted"}) {
      const std::string sql = "SELECT id" + tail.substr(0, tail.find('#')) +
                              table + tail.substr(tail.find('#') + 1);
      auto r = conn.execute(sql, params);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.error().message;
      results.emplace_back();
      for (const db::Row& row : r.value().rows) {
        results.back().push_back(row[0].as_int());
      }
    }
    if (db.table("walked")->full_scans() == scans) ++walks;
    ASSERT_EQ(results[0], results[1]) << "query " << q << ":" << tail;
  }
  EXPECT_GT(walks, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlEquivalenceTest,
                         ::testing::Values(5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                                           15, 16));

}  // namespace
}  // namespace osprey
