// Multi-tenant front door tests (ROADMAP item 4, DESIGN.md §5.13):
// registry admission/quota/fair-scheduling units, EQSQL end-to-end
// admission and weighted-fair claims, quota edge cases (quota 0, shrink
// below depth, exactly-at-limit submit racing a claim), the zipfian
// convergence property test, tenant-bound auth tokens, and per-shard
// tenancy through ShardCluster/ShardRouter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "osprey/core/clock.h"
#include "osprey/core/rng.h"
#include "osprey/eqsql/db_api.h"
#include "osprey/eqsql/service.h"
#include "osprey/faas/auth.h"
#include "osprey/net/network.h"
#include "osprey/shard/cluster.h"
#include "osprey/shard/key.h"
#include "osprey/shard/router.h"
#include "osprey/tenant/registry.h"

namespace osprey::tenant {
namespace {

constexpr WorkType kWork = 1;

// --- registry units ----------------------------------------------------------

TEST(TenantRegistryTest, RegistrationValidatesAndRejectsDuplicates) {
  TenantRegistry registry;
  EXPECT_EQ(registry.register_tenant("").code(), ErrorCode::kInvalidArgument);
  TenantConfig bad;
  bad.weight = 0.0;
  EXPECT_EQ(registry.register_tenant("a", bad).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(registry.register_tenant("a").is_ok());
  EXPECT_EQ(registry.register_tenant("a").code(), ErrorCode::kConflict);
  EXPECT_TRUE(registry.registered("a"));
  EXPECT_FALSE(registry.registered("b"));
  EXPECT_EQ(registry.tenant_count(), 1u);
}

TEST(TenantRegistryTest, UnknownTenantIsDeniedEmptyTenantAlwaysAdmitted) {
  TenantRegistry registry;
  EXPECT_EQ(registry.admit("ghost", 1).code(), ErrorCode::kPermissionDenied);
  // The untenanted legacy principal bypasses identity and quota.
  EXPECT_TRUE(registry.admit("", 100000).is_ok());
}

TEST(TenantRegistryTest, QuotaZeroAdmitsNothing) {
  TenantRegistry registry;
  TenantConfig none;
  none.submit_quota = 0;
  ASSERT_TRUE(registry.register_tenant("frozen", none).is_ok());
  EXPECT_EQ(registry.admit("frozen", 1).code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(registry.stats_for("frozen").value().rejected, 1u);
}

TEST(TenantRegistryTest, QuotaBoundsInFlightAndUnadmitCompensates) {
  TenantRegistry registry;
  TenantConfig config;
  config.submit_quota = 3;
  ASSERT_TRUE(registry.register_tenant("a", config).is_ok());
  EXPECT_TRUE(registry.admit("a", 2).is_ok());
  // A batch crossing the bound is rejected whole, not truncated.
  EXPECT_EQ(registry.admit("a", 2).code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(registry.admit("a", 1).is_ok());
  EXPECT_EQ(registry.admit("a", 1).code(), ErrorCode::kResourceExhausted);
  // A failed submit transaction hands its slots back.
  registry.unadmit("a", 1);
  EXPECT_TRUE(registry.admit("a", 1).is_ok());
  const TenantStats stats = registry.stats_for("a").value();
  EXPECT_EQ(stats.queued, 3);
  // unadmit compensates the admitted counter too (4 admits, 1 rolled back).
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 3u);
}

TEST(TenantRegistryTest, QueueDepthBoundIsSeparateFromQuota) {
  TenantRegistry registry;
  TenantConfig config;
  config.submit_quota = kUnlimited;
  config.max_queue_depth = 2;
  ASSERT_TRUE(registry.register_tenant("a", config).is_ok());
  ASSERT_TRUE(registry.admit("a", 2).is_ok());
  EXPECT_EQ(registry.admit("a", 1).code(), ErrorCode::kResourceExhausted);
  // A claim moves queued -> running: queue depth frees, quota does not.
  registry.on_claimed("a", 1);
  EXPECT_TRUE(registry.admit("a", 1).is_ok());
  const TenantStats stats = registry.stats_for("a").value();
  EXPECT_EQ(stats.queued, 2);
  EXPECT_EQ(stats.running, 1);
}

TEST(TenantRegistryTest, ExactlyAtLimitSubmitRacingAClaim) {
  // The edge the admission lock must make atomic: a tenant exactly at its
  // in-flight quota submits while a worker claims one of its tasks. The
  // claim moves queued -> running (no quota slot freed), so the submit must
  // still be rejected; only completion frees the slot.
  TenantRegistry registry;
  TenantConfig config;
  config.submit_quota = 2;
  ASSERT_TRUE(registry.register_tenant("a", config).is_ok());
  ASSERT_TRUE(registry.admit("a", 2).is_ok());
  registry.on_claimed("a", 1);
  EXPECT_EQ(registry.admit("a", 1).code(), ErrorCode::kResourceExhausted);
  registry.on_finished("a", 1, /*from_queue=*/false, 1.0, 1.0);
  EXPECT_TRUE(registry.admit("a", 1).is_ok());
}

TEST(TenantRegistryTest, QuotaShrinkBelowDepthRefusesUntilDrain) {
  TenantRegistry registry;
  TenantConfig config;
  config.submit_quota = 4;
  ASSERT_TRUE(registry.register_tenant("a", config).is_ok());
  ASSERT_TRUE(registry.admit("a", 4).is_ok());
  // Shrink below the live depth: existing tasks untouched, new refused.
  config.submit_quota = 2;
  ASSERT_TRUE(registry.set_config("a", config).is_ok());
  EXPECT_EQ(registry.stats_for("a").value().queued, 4);
  EXPECT_EQ(registry.admit("a", 1).code(), ErrorCode::kResourceExhausted);
  // Draining to 3 is still over the new bound; 1 below it admits again.
  registry.on_finished("a", 1, /*from_queue=*/true, 1.0, 0.0);
  EXPECT_EQ(registry.admit("a", 1).code(), ErrorCode::kResourceExhausted);
  registry.on_finished("a", 2, /*from_queue=*/true, 1.0, 0.0);
  EXPECT_TRUE(registry.admit("a", 1).is_ok());
  EXPECT_EQ(registry.set_config("ghost", config).code(),
            ErrorCode::kNotFound);
}

TEST(TenantRegistryTest, StrideSchedulingServesWeightsExactly) {
  TenantRegistry registry;
  TenantConfig heavy;
  heavy.weight = 3.0;
  ASSERT_TRUE(registry.register_tenant("heavy", heavy).is_ok());
  ASSERT_TRUE(registry.register_tenant("light").is_ok());  // weight 1
  const std::vector<TenantId> backlogged = {"heavy", "light"};
  std::map<TenantId, int> served;
  for (int i = 0; i < 400; ++i) {
    const TenantId next = registry.pick_next(backlogged);
    registry.charge(next, 1);
    ++served[next];
  }
  // Stride scheduling is deterministic: 3:1 exactly over any aligned window.
  EXPECT_EQ(served["heavy"], 300);
  EXPECT_EQ(served["light"], 100);
  EXPECT_EQ(registry.pick_next({}), "");
}

TEST(TenantRegistryTest, ReturningFromIdleTenantCannotBankService) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.register_tenant("busy").is_ok());
  ASSERT_TRUE(registry.register_tenant("idle").is_ok());
  // "busy" runs alone for a long stretch (the claim loop is always
  // pick_next + charge, which advances the global virtual time); "idle"
  // banks nothing meanwhile.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(registry.pick_next({"busy"}), "busy");
    registry.charge("busy", 1);
  }
  const std::vector<TenantId> both = {"busy", "idle"};
  // The returning tenant's pass is floored at the global virtual time: it
  // gets at most one catch-up claim, then alternates, instead of a
  // 1000-claim monopoly.
  std::map<TenantId, int> served;
  for (int i = 0; i < 20; ++i) {
    const TenantId next = registry.pick_next(both);
    registry.charge(next, 1);
    ++served[next];
  }
  EXPECT_GE(served["busy"], 9);
  EXPECT_GE(served["idle"], 9);
}

TEST(TenantRegistryTest, SyncDepthsRebuildsRecoveredState) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.register_tenant("a").is_ok());
  registry.sync_depths("a", 5, 2);
  const TenantStats stats = registry.stats_for("a").value();
  EXPECT_EQ(stats.queued, 5);
  EXPECT_EQ(stats.running, 2);
}

TEST(TenantRegistryTest, AdmissionIsAtomicUnderConcurrentSubmitAndClaim) {
  // Threads hammer the admit / claim / finish cycle against a tight quota;
  // the in-flight bound must never be crossed and the final accounting must
  // balance. (The TSan tier of the suite gives this teeth.)
  TenantRegistry registry;
  TenantConfig config;
  config.submit_quota = 8;
  ASSERT_TRUE(registry.register_tenant("a", config).is_ok());
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<bool> overran{false};
  auto worker = [&] {
    for (int i = 0; i < 2000; ++i) {
      if (registry.admit("a", 1).is_ok()) {
        admitted.fetch_add(1);
        const TenantStats s = registry.stats_for("a").value();
        if (s.queued + s.running > 8) overran.store(true);
        registry.on_claimed("a", 1);
        registry.on_finished("a", 1, /*from_queue=*/false, 0.1, 0.1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(overran.load());
  const TenantStats stats = registry.stats_for("a").value();
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.completed, admitted.load());
}

// --- EQSQL end to end --------------------------------------------------------

class TenantEqsqlTest : public ::testing::Test {
 protected:
  TenantEqsqlTest() : service_(clock_) {
    EXPECT_TRUE(service_.start().is_ok());
    EXPECT_TRUE(service_.enable_tenants().is_ok());
  }

  eqsql::EQSQL& as(const TenantId& tenant) {
    auto api = service_.connect_as(tenant);
    EXPECT_TRUE(api.ok());
    handles_.push_back(std::move(api).take());
    return *handles_.back();
  }

  ManualClock clock_;
  eqsql::EmewsService service_;
  std::vector<std::unique_ptr<eqsql::EQSQL>> handles_;
};

TEST_F(TenantEqsqlTest, ConnectAsChecksIdentityAtTheAuthBoundary) {
  EXPECT_EQ(service_.connect_as("ghost").code(),
            ErrorCode::kPermissionDenied);
  ASSERT_TRUE(service_.tenants()->register_tenant("a").is_ok());
  EXPECT_TRUE(service_.connect_as("a").ok());
  // Empty tenant degrades to a plain (untenanted) connect.
  EXPECT_TRUE(service_.connect_as("").ok());
}

TEST_F(TenantEqsqlTest, ConnectAsWithoutTenancyIsUnavailable) {
  ManualClock clock;
  eqsql::EmewsService bare(clock);
  ASSERT_TRUE(bare.start().is_ok());
  EXPECT_EQ(bare.connect_as("a").code(), ErrorCode::kUnavailable);
}

TEST_F(TenantEqsqlTest, OverQuotaSubmitIsRejectedBeforeTheDatabase) {
  TenantConfig config;
  config.submit_quota = 2;
  ASSERT_TRUE(service_.tenants()->register_tenant("a", config).is_ok());
  eqsql::EQSQL& api = as("a");
  ASSERT_TRUE(api.submit_task("e", kWork, "p1").ok());
  ASSERT_TRUE(api.submit_task("e", kWork, "p2").ok());
  auto rejected = api.submit_task("e", kWork, "p3");
  EXPECT_EQ(rejected.code(), ErrorCode::kResourceExhausted);
  // The front door held: the third task never touched the queue.
  EXPECT_EQ(api.queued_count(kWork).value(), 2);
}

TEST_F(TenantEqsqlTest, OverQuotaBatchIsRejectedWholeNotTruncated) {
  TenantConfig config;
  config.submit_quota = 2;
  ASSERT_TRUE(service_.tenants()->register_tenant("a", config).is_ok());
  eqsql::EQSQL& api = as("a");
  auto rejected = api.submit_tasks("e", kWork, {"p1", "p2", "p3"});
  EXPECT_EQ(rejected.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(api.queued_count(kWork).value(), 0);
  ASSERT_TRUE(api.submit_tasks("e", kWork, {"p1", "p2"}).ok());
}

TEST_F(TenantEqsqlTest, TenantTravelsWithTheTaskRecord) {
  ASSERT_TRUE(service_.tenants()->register_tenant("a").is_ok());
  eqsql::EQSQL& tenant_api = as("a");
  eqsql::EQSQL& legacy_api = as("");
  const TaskId tenanted = tenant_api.submit_task("e", kWork, "x").value();
  const TaskId untenanted = legacy_api.submit_task("e", kWork, "y").value();
  EXPECT_EQ(tenant_api.task_record(tenanted).value().tenant, "a");
  // Untenanted rows stay NULL — byte-compatible with pre-tenancy tables.
  EXPECT_EQ(legacy_api.task_record(untenanted).value().tenant, "");
}

TEST_F(TenantEqsqlTest, SubmitAsOverridesTheAmbientPrincipal) {
  ASSERT_TRUE(service_.tenants()->register_tenant("a").is_ok());
  ASSERT_TRUE(service_.tenants()->register_tenant("b").is_ok());
  eqsql::EQSQL& api = as("a");
  const TaskId id = api.submit_task_as("b", "e", kWork, "x").value();
  EXPECT_EQ(api.task_record(id).value().tenant, "b");
  EXPECT_EQ(service_.tenants()->stats_for("b").value().queued, 1);
  EXPECT_EQ(service_.tenants()->stats_for("a").value().queued, 0);
}

TEST_F(TenantEqsqlTest, ClaimsInterleaveWeightedFairAcrossTenants) {
  TenantConfig heavy;
  heavy.weight = 3.0;
  ASSERT_TRUE(service_.tenants()->register_tenant("heavy", heavy).is_ok());
  ASSERT_TRUE(service_.tenants()->register_tenant("light").is_ok());
  eqsql::EQSQL& heavy_api = as("heavy");
  eqsql::EQSQL& light_api = as("light");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(heavy_api.submit_task("e", kWork, "h").ok());
    ASSERT_TRUE(light_api.submit_task("e", kWork, "l").ok());
  }
  // Priority-only ordering would hand all 40 FIFO "heavy" tasks first;
  // stride scheduling interleaves 3:1 inside every claim batch.
  auto batch = heavy_api.try_query_tasks(kWork, 40, "pool");
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 40u);
  int heavy_claims = 0;
  for (const auto& handle : batch.value()) {
    if (handle.payload == "h") ++heavy_claims;
  }
  EXPECT_EQ(heavy_claims, 30);
  EXPECT_EQ(service_.tenants()->stats_for("heavy").value().claimed, 30u);
  EXPECT_EQ(service_.tenants()->stats_for("light").value().claimed, 10u);
}

TEST_F(TenantEqsqlTest, FairClaimKeepsPriorityOrderWithinATenant) {
  ASSERT_TRUE(service_.tenants()->register_tenant("a").is_ok());
  eqsql::EQSQL& api = as("a");
  ASSERT_TRUE(api.submit_task("e", kWork, "low", 1).ok());
  ASSERT_TRUE(api.submit_task("e", kWork, "high", 9).ok());
  auto batch = api.try_query_tasks(kWork, 2, "pool");
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 2u);
  EXPECT_EQ(batch.value()[0].payload, "high");
  EXPECT_EQ(batch.value()[1].payload, "low");
}

TEST_F(TenantEqsqlTest, CompletionFreesQuotaAndAccruesCost) {
  TenantConfig config;
  config.submit_quota = 1;
  ASSERT_TRUE(service_.tenants()->register_tenant("a", config).is_ok());
  eqsql::EQSQL& api = as("a");
  clock_.set(10.0);
  const TaskId id = api.submit_task("e", kWork, "x").value();
  EXPECT_EQ(api.submit_task("e", kWork, "y").code(),
            ErrorCode::kResourceExhausted);
  clock_.set(12.0);
  ASSERT_EQ(api.try_query_tasks(kWork, 1, "pool").value().size(), 1u);
  clock_.set(17.0);
  ASSERT_TRUE(api.report_task(id, kWork, "done").is_ok());
  // The slot is free again and the 5s runtime landed in the cost meter.
  EXPECT_TRUE(api.submit_task("e", kWork, "y").ok());
  const TenantStats stats = service_.tenants()->stats_for("a").value();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_DOUBLE_EQ(stats.cost_task_seconds, 5.0);
}

TEST_F(TenantEqsqlTest, CancelFreesQuotaForQueuedAndRunningTasks) {
  TenantConfig config;
  config.submit_quota = 2;
  ASSERT_TRUE(service_.tenants()->register_tenant("a", config).is_ok());
  eqsql::EQSQL& api = as("a");
  const TaskId queued = api.submit_task("e", kWork, "x").value();
  const TaskId running = api.submit_task("e", kWork, "y").value();
  ASSERT_EQ(api.try_query_tasks(kWork, 1, "pool").value().size(), 1u);
  EXPECT_EQ(api.submit_task("e", kWork, "z").code(),
            ErrorCode::kResourceExhausted);
  ASSERT_EQ(api.cancel_tasks({queued, running}).value(), 2u);
  const TenantStats stats = service_.tenants()->stats_for("a").value();
  EXPECT_EQ(stats.queued + stats.running, 0);
  EXPECT_EQ(stats.completed, 2u);
  ASSERT_TRUE(api.submit_tasks("e", kWork, {"x", "y"}).ok());
  // A task listed twice is canceled once and frees exactly one slot.
  const TaskId twice = api.experiment_tasks("e").value().back();
  ASSERT_EQ(api.cancel_tasks({twice, twice}).value(), 1u);
  EXPECT_EQ(service_.tenants()->stats_for("a").value().completed, 3u);
  EXPECT_TRUE(api.submit_task("e", kWork, "w").ok());
  EXPECT_EQ(api.submit_task("e", kWork, "v").code(),
            ErrorCode::kResourceExhausted);
}

TEST_F(TenantEqsqlTest, RequeueMovesRunningBackToQueuedAccounting) {
  ASSERT_TRUE(service_.tenants()->register_tenant("a").is_ok());
  eqsql::EQSQL& api = as("a");
  const TaskId id = api.submit_task("e", kWork, "x").value();
  ASSERT_EQ(api.try_query_tasks(kWork, 1, "pool").value().size(), 1u);
  EXPECT_EQ(service_.tenants()->stats_for("a").value().running, 1);
  ASSERT_EQ(api.requeue_tasks({id}).value(), 1u);
  const TenantStats stats = service_.tenants()->stats_for("a").value();
  EXPECT_EQ(stats.queued, 1);
  EXPECT_EQ(stats.running, 0);
}

TEST_F(TenantEqsqlTest, RestoreResyncsQuotaDepthsFromTheTaskTable) {
  TenantConfig config;
  config.submit_quota = 2;
  ASSERT_TRUE(service_.tenants()->register_tenant("a", config).is_ok());
  eqsql::EQSQL& api = as("a");
  ASSERT_TRUE(api.submit_task("e", kWork, "x").ok());
  ASSERT_TRUE(api.submit_task("e", kWork, "y").ok());
  const json::Value snapshot = service_.checkpoint();

  // A fresh service restoring the snapshot rebuilds the in-memory depths
  // from the tenant column — the quota holds across the crash.
  ManualClock clock;
  eqsql::EmewsService recovered(clock);
  ASSERT_TRUE(recovered.enable_tenants().is_ok());
  ASSERT_TRUE(recovered.tenants()->register_tenant("a", config).is_ok());
  ASSERT_TRUE(recovered.restore(snapshot).is_ok());
  EXPECT_EQ(recovered.tenants()->stats_for("a").value().queued, 2);
  auto handle = recovered.connect_as("a");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle.value()->submit_task("e", kWork, "z").code(),
            ErrorCode::kResourceExhausted);
}

// --- the zipfian convergence property test -----------------------------------

TEST(TenantPropertyTest, WeightedFairSharesConvergeUnderZipfianLoad) {
  // Five tenants with weights 5..1 under a zipfian submit mix (tenant 0
  // dominating arrivals). While every tenant stays backlogged, claim shares
  // must converge to the configured weights — arrival skew must not leak
  // into service skew. Several seeds, one deterministic verdict each.
  for (const std::uint64_t seed : {0x5eedull, 0xbeefull, 0xfa11ull}) {
    ManualClock clock;
    eqsql::EmewsService service(clock);
    ASSERT_TRUE(service.start().is_ok());
    ASSERT_TRUE(service.enable_tenants().is_ok());
    const std::vector<double> weights = {5, 4, 3, 2, 1};
    std::vector<std::unique_ptr<eqsql::EQSQL>> apis;
    for (std::size_t t = 0; t < weights.size(); ++t) {
      TenantConfig config;
      config.weight = weights[t];
      ASSERT_TRUE(service.tenants()
                      ->register_tenant("t" + std::to_string(t), config)
                      .is_ok());
      auto api = service.connect_as("t" + std::to_string(t));
      ASSERT_TRUE(api.ok());
      apis.push_back(std::move(api).take());
    }
    // Zipf(s=1) arrivals over the 5 tenants, enough that nobody drains
    // during the measured window.
    Rng rng(seed);
    std::vector<int> submitted(weights.size(), 0);
    const double harmonic = 1 + 1.0 / 2 + 1.0 / 3 + 1.0 / 4 + 1.0 / 5;
    for (int i = 0; i < 3000; ++i) {
      double u = rng.uniform(0.0, harmonic);
      std::size_t t = 0;
      for (; t + 1 < weights.size(); ++t) {
        u -= 1.0 / (t + 1);
        if (u <= 0) break;
      }
      ASSERT_TRUE(apis[t]->submit_task("zipf", kWork, "p").ok());
      ++submitted[t];
    }
    ASSERT_GT(*std::min_element(submitted.begin(), submitted.end()), 50)
        << "zipf tail too thin to measure";
    const double total_weight = 15.0;
    // Claim one at a time (the notify-driven worker cadence) until the
    // first tenant drains — the weighted-share prediction only holds while
    // every tenant is backlogged.
    std::map<std::string, int> served;
    int claims = 0;
    for (bool all_backlogged = true; all_backlogged;) {
      auto batch = apis[0]->try_query_tasks(kWork, 1, "pool");
      ASSERT_TRUE(batch.ok());
      ASSERT_EQ(batch.value().size(), 1u);
      const TaskId id = batch.value()[0].eq_task_id;
      ++served[apis[0]->task_record(id).value().tenant];
      ++claims;
      for (std::size_t t = 0; t < weights.size(); ++t) {
        if (service.tenants()
                ->stats_for("t" + std::to_string(t))
                .value()
                .queued == 0) {
          all_backlogged = false;
        }
      }
    }
    ASSERT_GT(claims, 100);
    for (std::size_t t = 0; t < weights.size(); ++t) {
      const double expected = claims * weights[t] / total_weight;
      const double got = served["t" + std::to_string(t)];
      // Stride scheduling tracks the ideal within one stride per tenant;
      // allow 10% relative slack for window-edge effects.
      EXPECT_NEAR(got, expected, expected * 0.10 + 2.0)
          << "tenant t" << t << " seed " << seed << " claims " << claims;
    }
  }
}

// --- faas principals ---------------------------------------------------------

TEST(TenantAuthTest, TokensCarryTheTenantBinding) {
  ManualClock clock;
  faas::AuthService auth(clock);
  const faas::Token bound = auth.issue("alice", "acme", 100.0);
  const faas::Principal principal = auth.validate_principal(bound).value();
  EXPECT_EQ(principal.user, "alice");
  EXPECT_EQ(principal.tenant, "acme");
  // validate() still resolves the user alone (v1 callers).
  EXPECT_EQ(auth.validate(bound).value(), "alice");
  // Legacy tokens resolve to the untenanted principal.
  const faas::Token legacy = auth.issue("bob", 100.0);
  EXPECT_EQ(auth.validate_principal(legacy).value().tenant, "");
  clock.advance(200.0);
  EXPECT_EQ(auth.validate_principal(bound).code(),
            ErrorCode::kPermissionDenied);
}

// --- per-shard tenancy -------------------------------------------------------

class TenantShardTest : public ::testing::Test {
 protected:
  TenantShardTest() : cluster_(clock_, network_, make_config()) {
    for (shard::ShardId s = 0; s < 2; ++s) {
      EXPECT_TRUE(
          cluster_.create_leader(s, "lead" + std::to_string(s), "bebop")
              .ok());
    }
    EXPECT_TRUE(cluster_.enable_tenants().is_ok());
    router_ = std::make_unique<shard::ShardRouter>(cluster_);
  }

  static shard::ShardClusterConfig make_config() {
    shard::ShardClusterConfig config;
    config.spec.shard_count = 2;
    config.spec.scheme = shard::ShardScheme::kRange;
    config.spec.range_width = 1;  // work type t owns shard t % 2
    return config;
  }

  ManualClock clock_;
  net::Network network_ = net::Network::testbed();
  shard::ShardCluster cluster_;
  std::unique_ptr<shard::ShardRouter> router_;
};

TEST_F(TenantShardTest, QuotasAccountPerShard) {
  TenantConfig config;
  config.submit_quota = 2;
  ASSERT_TRUE(cluster_.register_tenant("a", config).is_ok());
  router_->set_tenant_context();
  // Work types 10 and 11 own different shards; the quota applies to each
  // shard's slice independently (share-nothing accounting).
  for (const WorkType type : {10, 11}) {
    ASSERT_TRUE(router_->submit_task_as("a", "e", type, "p1").ok());
    ASSERT_TRUE(router_->submit_task_as("a", "e", type, "p2").ok());
    EXPECT_EQ(router_->submit_task_as("a", "e", type, "p3").code(),
              ErrorCode::kResourceExhausted);
  }
  // The merged view sums the per-shard slices.
  const std::vector<TenantStats> merged = router_->tenant_stats();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].tenant, "a");
  EXPECT_EQ(merged[0].queued, 4);
  EXPECT_EQ(merged[0].rejected, 2u);
}

TEST_F(TenantShardTest, UnknownTenantRejectedAtEveryShard) {
  router_->set_tenant_context();
  EXPECT_EQ(router_->submit_task_as("ghost", "e", 10, "p").code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(router_->submit_task_as("ghost", "e", 11, "p").code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(TenantShardTest, ConfigChangesFanOutToAllShards) {
  ASSERT_TRUE(cluster_.register_tenant("a").is_ok());
  router_->set_tenant_context();
  TenantConfig shrunk;
  shrunk.submit_quota = 0;
  ASSERT_TRUE(cluster_.set_tenant_config("a", shrunk).is_ok());
  EXPECT_EQ(router_->submit_task_as("a", "e", 10, "p").code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(router_->submit_task_as("a", "e", 11, "p").code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(cluster_.register_tenant("a").code(), ErrorCode::kConflict);
  // Tenancy must be on before any per-tenant call.
  shard::ShardCluster bare(clock_, network_, make_config());
  EXPECT_EQ(bare.register_tenant("x").code(), ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace osprey::tenant
