// Tests for the ME layer: test functions, samplers, linear algebra, GPR,
// reprioritization, and the async/sync drivers end-to-end on the simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "osprey/eqsql/schema.h"
#include "osprey/json/json.h"
#include "osprey/me/async_driver.h"
#include "osprey/me/functions.h"
#include "osprey/me/gpr.h"
#include "osprey/me/sync_driver.h"
#include "osprey/me/task_runners.h"

namespace osprey::me {

// Print a surface by name: gtest's default byte dump of the struct holds
// pointers, which would make the listed test names differ on every run.
void PrintTo(const TestFunction& f, std::ostream* os) { *os << f.name; }

namespace {

// --- test functions -------------------------------------------------------------

class TestFunctionTest : public ::testing::TestWithParam<TestFunction> {};

TEST_P(TestFunctionTest, GlobalMinimumValue) {
  const TestFunction& f = GetParam();
  // Evaluate at the known minimizer.
  Point minimizer(4, f.name == "rosenbrock" || f.name == "levy" ? 1.0 : 0.0);
  EXPECT_NEAR(f.fn(minimizer), f.global_min, 1e-9) << f.name;
}

TEST_P(TestFunctionTest, PositiveAwayFromMinimum) {
  const TestFunction& f = GetParam();
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    Point p(4);
    for (double& x : p) x = rng.uniform(f.lo * 0.5, f.hi * 0.5);
    EXPECT_GE(f.fn(p), f.global_min - 1e-9) << f.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSurfaces, TestFunctionTest, ::testing::ValuesIn(test_functions()),
    [](const ::testing::TestParamInfo<TestFunction>& info) {
      return info.param.name;
    });

TEST(AckleyTest, KnownValues) {
  EXPECT_NEAR(ackley({0.0, 0.0, 0.0, 0.0}), 0.0, 1e-12);
  // Symmetric in sign.
  EXPECT_DOUBLE_EQ(ackley({1.0, -2.0}), ackley({-1.0, 2.0}));
  // Far from the origin the value approaches a + e ~ 22.718.
  EXPECT_GT(ackley({30.0, 30.0, 30.0, 30.0}), 19.0);
  EXPECT_LT(ackley({30.0, 30.0, 30.0, 30.0}), 22.72);
}

TEST(TestFunctionLookupTest, ByName) {
  EXPECT_TRUE(test_function("ackley").ok());
  EXPECT_EQ(test_function("nope").code(), ErrorCode::kNotFound);
}

// --- samplers --------------------------------------------------------------------

TEST(SamplerTest, UniformBoundsAndDeterminism) {
  Rng rng(1);
  auto points = uniform_samples(rng, 500, 4, -32.768, 32.768);
  ASSERT_EQ(points.size(), 500u);
  for (const Point& p : points) {
    ASSERT_EQ(p.size(), 4u);
    for (double x : p) {
      EXPECT_GE(x, -32.768);
      EXPECT_LE(x, 32.768);
    }
  }
  Rng rng2(1);
  EXPECT_EQ(uniform_samples(rng2, 500, 4, -32.768, 32.768), points);
}

TEST(SamplerTest, LatinHypercubeStratifiesEachDimension) {
  Rng rng(2);
  const int n = 100;
  auto points = latin_hypercube(rng, n, 3, 0.0, 1.0);
  for (int d = 0; d < 3; ++d) {
    std::vector<bool> stratum_hit(n, false);
    for (const Point& p : points) {
      int s = std::min(n - 1, static_cast<int>(p[static_cast<std::size_t>(d)] * n));
      EXPECT_FALSE(stratum_hit[static_cast<std::size_t>(s)])
          << "stratum " << s << " hit twice in dim " << d;
      stratum_hit[static_cast<std::size_t>(s)] = true;
    }
  }
}

// --- linalg ----------------------------------------------------------------------

TEST(LinalgTest, CholeskyOfKnownMatrix) {
  Matrix a(2, 2);
  a.at(0, 0) = 4;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 3;
  ASSERT_TRUE(cholesky_inplace(a).is_ok());
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(a.at(0, 1), 0.0);  // upper triangle zeroed
}

TEST(LinalgTest, CholeskyRejectsNonSpd) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky_inplace(a).is_ok());
}

TEST(LinalgTest, CholeskySolveRoundTrip) {
  // Build SPD A = B B^T + n I, pick x, compute b = A x, solve, compare.
  Rng rng(7);
  const std::size_t n = 20;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0;
      for (std::size_t k = 0; k < n; ++k) {
        // Deterministic pseudo-random B entries.
        double bi = std::sin(static_cast<double>(i * n + k + 1));
        double bj = std::sin(static_cast<double>(j * n + k + 1));
        sum += bi * bj;
      }
      a.at(i, j) = sum + (i == j ? 1.0 : 0.0);
    }
  }
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-2, 2);
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += a.at(i, j) * x_true[j];
  }
  ASSERT_TRUE(cholesky_inplace(a).is_ok());
  std::vector<double> x = cholesky_solve(a, b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-8);
  }
}

// --- GPR -------------------------------------------------------------------------

TEST(GprTest, InterpolatesTrainingDataWithLowNoise) {
  GprConfig config;
  config.lengthscale = 1.0;
  config.noise = 1e-8;
  GPR model(config);
  std::vector<Point> x{{0.0}, {1.0}, {2.0}, {3.0}};
  std::vector<double> y{1.0, 2.0, 0.5, -1.0};
  ASSERT_TRUE(model.fit(x, y).is_ok());
  for (std::size_t i = 0; i < x.size(); ++i) {
    Prediction p = model.predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 1e-4);
    EXPECT_LT(p.variance, 1e-4);
  }
}

TEST(GprTest, UncertaintyGrowsAwayFromData) {
  GPR model(GprConfig{KernelType::kRBF, 0.5, 1.0, 1e-6, true});
  std::vector<Point> x{{0.0}, {1.0}};
  std::vector<double> y{0.0, 1.0};
  ASSERT_TRUE(model.fit(x, y).is_ok());
  EXPECT_LT(model.predict({0.5}).variance, model.predict({5.0}).variance);
}

TEST(GprTest, MeanRevertsToPriorFarAway) {
  GprConfig config;
  config.lengthscale = 0.5;
  GPR model(config);
  std::vector<Point> x{{0.0}, {1.0}};
  std::vector<double> y{10.0, 12.0};
  ASSERT_TRUE(model.fit(x, y).is_ok());
  // Far from data, prediction reverts to the (de-normalized) prior mean.
  EXPECT_NEAR(model.predict({100.0}).mean, 11.0, 1e-6);
}

TEST(GprTest, Matern52AlsoFits) {
  GprConfig config;
  config.kernel = KernelType::kMatern52;
  config.lengthscale = 1.0;
  config.noise = 1e-8;
  GPR model(config);
  std::vector<Point> x{{0.0}, {1.0}, {2.0}};
  std::vector<double> y{0.0, 1.0, 4.0};
  ASSERT_TRUE(model.fit(x, y).is_ok());
  EXPECT_NEAR(model.predict({1.0}).mean, 1.0, 1e-3);
}

TEST(GprTest, RejectsBadInput) {
  GPR model;
  EXPECT_FALSE(model.fit({}, {}).is_ok());
  EXPECT_FALSE(model.fit({{1.0}}, {1.0, 2.0}).is_ok());
  EXPECT_FALSE(model.fit({{1.0}, {1.0, 2.0}}, {1.0, 2.0}).is_ok());
  GprConfig bad;
  bad.lengthscale = -1;
  EXPECT_FALSE(GPR(bad).fit({{1.0}}, {1.0}).is_ok());
}

TEST(GprTest, DuplicatePointsSurviveViaJitter) {
  GprConfig config;
  config.noise = 0.0;  // forces the jitter retry path
  GPR model(config);
  std::vector<Point> x{{1.0}, {1.0}, {2.0}};
  std::vector<double> y{3.0, 3.0, 5.0};
  EXPECT_TRUE(model.fit(x, y).is_ok());
}

TEST(GprTest, LearnsSmoothFunction) {
  // y = sin(x) on [0, 6]; the GPR should predict held-out points well.
  GprConfig config;
  config.lengthscale = 1.0;
  config.noise = 1e-6;
  GPR model(config);
  std::vector<Point> x;
  std::vector<double> y;
  for (int i = 0; i <= 24; ++i) {
    double xi = i * 0.25;
    x.push_back({xi});
    y.push_back(std::sin(xi));
  }
  ASSERT_TRUE(model.fit(x, y).is_ok());
  for (double test : {0.13, 1.7, 3.33, 5.9}) {
    EXPECT_NEAR(model.predict({test}).mean, std::sin(test), 0.01) << test;
  }
}

TEST(GprTest, LengthscaleSearchImprovesLikelihood) {
  std::vector<Point> x;
  std::vector<double> y;
  for (int i = 0; i < 30; ++i) {
    double xi = i * 0.2;
    x.push_back({xi});
    y.push_back(std::sin(xi));
  }
  GprConfig config;
  config.noise = 1e-4;
  config.lengthscale = 0.01;  // badly wrong starting point
  GPR fixed(config);
  ASSERT_TRUE(fixed.fit(x, y).is_ok());
  auto searched = GPR::fit_lengthscale_search(x, y, config, 0.01, 10.0);
  ASSERT_TRUE(searched.ok());
  EXPECT_GT(searched.value().log_marginal_likelihood(),
            fixed.log_marginal_likelihood());
  EXPECT_GT(searched.value().config().lengthscale, 0.1);
}

TEST(GprTest, PrioritiesRankPromisingFirst) {
  // Fit on a bowl; remaining points closer to the minimum must get higher
  // priorities.
  GprConfig config;
  config.lengthscale = 2.0;
  GPR model(config);
  std::vector<Point> x;
  std::vector<double> y;
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    Point p{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    y.push_back(sphere(p));
    x.push_back(std::move(p));
  }
  ASSERT_TRUE(model.fit(x, y).is_ok());
  std::vector<Point> remaining{{0.1, 0.1}, {4.5, 4.5}, {2.0, 2.0}};
  std::vector<Priority> priorities = promising_first_priorities(model, remaining);
  ASSERT_EQ(priorities.size(), 3u);
  EXPECT_GT(priorities[0], priorities[2]);  // near-minimum beats mid
  EXPECT_GT(priorities[2], priorities[1]);  // mid beats far corner
  // Ranks are exactly 1..n.
  std::vector<Priority> sorted = priorities;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<Priority>{1, 2, 3}));
}

// --- drivers end-to-end ------------------------------------------------------------

struct DriverHarness {
  DriverHarness() {
    db::sql::Connection conn(db);
    EXPECT_TRUE(eqsql::create_schema(conn).is_ok());
    api = std::make_unique<eqsql::EQSQL>(db, sim);
  }

  pool::SimPoolConfig pool_config(const PoolId& name, int workers) {
    pool::SimPoolConfig c;
    c.name = name;
    c.work_type = 1;
    c.num_workers = workers;
    c.batch_size = workers;
    c.threshold = 1;
    c.query_cost = 0.2;
    c.query_jitter = 0.0;
    c.idle_shutdown = 10.0;
    return c;
  }

  sim::Simulation sim;
  db::Database db;
  std::unique_ptr<eqsql::EQSQL> api;
};

TEST(AsyncDriverTest, RunsPaperWorkflowShape) {
  DriverHarness h;
  AsyncDriverConfig config;
  config.work_type = 1;
  config.retrain_after = 25;
  config.gpr.lengthscale = 8.0;
  config.gpr.noise = 1e-4;
  AsyncGprDriver driver(h.sim, *h.api, config);

  Rng rng(11);
  auto samples = uniform_samples(rng, 150, 4, -32.768, 32.768);
  ASSERT_TRUE(driver.run(samples).is_ok());

  pool::SimWorkerPool pool(h.sim, *h.api, h.pool_config("p1", 16),
                           ackley_sim_runner(3.0, 0.5));
  ASSERT_TRUE(pool.start().is_ok());
  h.sim.run();

  EXPECT_TRUE(driver.finished());
  EXPECT_EQ(driver.completed(), 150u);
  EXPECT_GE(driver.retrains().size(), 3u);
  // Retrains see growing training sets and shrinking remaining sets
  // ("at the next reprioritization 650 uncompleted tasks ... and so on").
  for (std::size_t i = 1; i < driver.retrains().size(); ++i) {
    EXPECT_GT(driver.retrains()[i].train_size,
              driver.retrains()[i - 1].train_size);
    EXPECT_LT(driver.retrains()[i].reprioritized,
              driver.retrains()[i - 1].reprioritized);
  }
  // Priorities span 1..n_remaining.
  const RetrainRecord& first = driver.retrains().front();
  Priority max_priority = 0;
  for (const auto& [id, p] : first.assignments) {
    max_priority = std::max(max_priority, p);
  }
  EXPECT_EQ(static_cast<std::size_t>(max_priority), first.reprioritized);
  // The optimizer found something decent on Ackley (random 4-D values
  // average ~21).
  EXPECT_LT(driver.best_value(), 21.0);
  // Best-so-far trajectory is monotone decreasing.
  for (std::size_t i = 1; i < driver.best_trajectory().size(); ++i) {
    EXPECT_LT(driver.best_trajectory()[i].value,
              driver.best_trajectory()[i - 1].value);
  }
}

TEST(AsyncDriverTest, RemoteExecutorDelaysApplication) {
  DriverHarness h;
  AsyncDriverConfig config;
  config.retrain_after = 20;
  // Remote executor: deliver priorities after 30 simulated seconds, as a
  // FaaS round trip would.
  AsyncGprDriver driver(
      h.sim, *h.api, config,
      [&h, &config](const std::vector<Point>& x, const std::vector<double>& y,
                    const std::vector<Point>& remaining,
                    std::function<void(std::vector<Priority>)> done) {
        GPR model(config.gpr);
        if (!model.fit(x, y).is_ok()) {
          done({});
          return;
        }
        auto priorities = promising_first_priorities(model, remaining);
        h.sim.schedule_in(30.0, [done = std::move(done),
                                 priorities = std::move(priorities)] {
          done(priorities);
        });
      });
  Rng rng(13);
  ASSERT_TRUE(driver.run(uniform_samples(rng, 80, 4, -32, 32)).is_ok());
  pool::SimWorkerPool pool(h.sim, *h.api, h.pool_config("p1", 8),
                           ackley_sim_runner(3.0, 0.5));
  ASSERT_TRUE(pool.start().is_ok());
  h.sim.run();
  EXPECT_TRUE(driver.finished());
  ASSERT_GE(driver.retrains().size(), 1u);
  // The retrain window has nonzero duration in simulated time.
  EXPECT_GE(driver.retrains()[0].finished_at - driver.retrains()[0].started_at,
            30.0);
  EXPECT_EQ(driver.completed(), 80u);
}

TEST(SyncDriverTest, GenerationsRunToBudget) {
  DriverHarness h;
  SyncDriverConfig config;
  config.generation_size = 20;
  config.generations = 4;
  config.candidate_pool = 300;
  config.gpr.lengthscale = 8.0;
  config.gpr.noise = 1e-4;
  SyncGprDriver driver(h.sim, *h.api, config);
  ASSERT_TRUE(driver.run().is_ok());
  pool::SimWorkerPool pool(h.sim, *h.api, h.pool_config("p1", 8),
                           ackley_sim_runner(3.0, 0.5));
  ASSERT_TRUE(pool.start().is_ok());
  h.sim.run();
  EXPECT_TRUE(driver.finished());
  EXPECT_EQ(driver.completed(), 80u);
  EXPECT_EQ(driver.generation(), 4);
  EXPECT_LT(driver.best_value(), 21.0);
}

TEST(AsyncDriverTest, RejectsEmptySampleSet) {
  DriverHarness h;
  me::AsyncGprDriver driver(h.sim, *h.api, me::AsyncDriverConfig{});
  EXPECT_EQ(driver.run({}).code(), ErrorCode::kInvalidArgument);
}

TEST(AsyncDriverTest, FailedGprKeepsOriginalOrderAndFinishes) {
  // Degenerate targets (all identical, zero noise) can stress the fit; the
  // driver must survive a failing/empty reprioritization and still finish.
  DriverHarness h;
  me::AsyncDriverConfig config;
  config.retrain_after = 10;
  me::AsyncGprDriver driver(
      h.sim, *h.api, config,
      [](const std::vector<me::Point>&, const std::vector<double>&,
         const std::vector<me::Point>&,
         std::function<void(std::vector<Priority>)> done) {
        done({});  // executor reports "no new priorities"
      });
  Rng rng(3);
  ASSERT_TRUE(driver.run(me::uniform_samples(rng, 40, 2, -1, 1)).is_ok());
  pool::SimWorkerPool pool(h.sim, *h.api, h.pool_config("p", 8),
                           ackley_sim_runner(2.0, 0.3));
  ASSERT_TRUE(pool.start().is_ok());
  h.sim.run();
  EXPECT_TRUE(driver.finished());
  EXPECT_EQ(driver.completed(), 40u);
  // Retrain records exist but carry no assignments.
  ASSERT_FALSE(driver.retrains().empty());
  EXPECT_TRUE(driver.retrains().front().assignments.empty());
}

TEST(SyncDriverTest, RejectsInvalidGenerationConfig) {
  DriverHarness h;
  me::SyncDriverConfig config;
  config.generation_size = 0;
  me::SyncGprDriver driver(h.sim, *h.api, config);
  EXPECT_EQ(driver.run().code(), ErrorCode::kInvalidArgument);
}

TEST(TaskRunnerTest, MalformedPayloadYieldsErrorResult) {
  auto runner = ackley_sim_runner(1.0, 0.0);
  Rng rng(1);
  eqsql::TaskHandle handle{1, 1, "{not json"};
  pool::TaskOutcome outcome = runner(handle, rng);
  auto parsed = osprey::json::parse(outcome.result);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().contains("error"));
  eqsql::TaskHandle bad_type{2, 1, R"(["a","b"])"};
  outcome = runner(bad_type, rng);
  EXPECT_TRUE(osprey::json::parse(outcome.result).value().contains("error"));
}

}  // namespace
}  // namespace osprey::me
