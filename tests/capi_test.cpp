// Tests for the C API (§II-B1e multi-language boundary). Everything here
// goes through the extern "C" surface only — the way a Python/R/Julia FFI
// binding would.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

// Some cases call the deprecated v1 entry points on purpose (v1 behaviour
// through the v2 internals), so the v1 deprecation warnings are opted out of.
#define OSPREY_ALLOW_DEPRECATED
#include "osprey/capi/osprey_c.h"

namespace {

class CApiTest : public ::testing::Test {
 protected:
  CApiTest() {
    service_ = osprey_service_create();
    EXPECT_EQ(osprey_service_start(service_), OSPREY_OK);
    client_ = osprey_client_connect(service_);
    EXPECT_NE(client_, nullptr);
  }
  ~CApiTest() override {
    osprey_client_destroy(client_);
    osprey_service_destroy(service_);
  }

  osprey_service* service_ = nullptr;
  osprey_client* client_ = nullptr;
};

TEST_F(CApiTest, ErrorNamesMatchProtocolStrings) {
  EXPECT_STREQ(osprey_error_name(OSPREY_OK), "OK");
  EXPECT_STREQ(osprey_error_name(OSPREY_E_TIMEOUT), "TIMEOUT");
  EXPECT_STREQ(osprey_error_name(OSPREY_E_PERMISSION_DENIED),
               "PERMISSION_DENIED");
}

TEST_F(CApiTest, ServiceLifecycle) {
  EXPECT_EQ(osprey_service_start(service_), OSPREY_E_CONFLICT);  // running
  EXPECT_EQ(osprey_service_stop(service_), OSPREY_OK);
  EXPECT_EQ(osprey_service_stop(service_), OSPREY_E_CONFLICT);
  EXPECT_EQ(osprey_service_start(service_), OSPREY_OK);
  EXPECT_EQ(osprey_service_start(nullptr), OSPREY_E_INVALID_ARGUMENT);
}

TEST_F(CApiTest, FullTaskCycleThroughCApi) {
  int64_t task_id = 0;
  ASSERT_EQ(osprey_submit_task(client_, "exp_c", 1, "[1.5, 2.5]", 3, "tag0",
                               &task_id),
            OSPREY_OK);
  EXPECT_GT(task_id, 0);

  int status = -1;
  ASSERT_EQ(osprey_task_status(client_, task_id, &status), OSPREY_OK);
  EXPECT_EQ(status, OSPREY_TASK_QUEUED);

  int64_t queued = 0;
  ASSERT_EQ(osprey_queued_count(client_, 1, &queued), OSPREY_OK);
  EXPECT_EQ(queued, 1);

  // Worker side: claim, execute, report.
  int64_t claimed_id = 0;
  char payload[256];
  ASSERT_EQ(osprey_query_task(client_, 1, "c_pool", 0.01, 1.0, &claimed_id,
                              payload, sizeof(payload)),
            OSPREY_OK);
  EXPECT_EQ(claimed_id, task_id);
  EXPECT_STREQ(payload, "[1.5, 2.5]");
  ASSERT_EQ(osprey_task_status(client_, task_id, &status), OSPREY_OK);
  EXPECT_EQ(status, OSPREY_TASK_RUNNING);

  ASSERT_EQ(osprey_report_task(client_, claimed_id, 1, "{\"y\": 4.25}"),
            OSPREY_OK);

  // ME side: retrieve the result.
  char result[256];
  ASSERT_EQ(osprey_query_result(client_, task_id, 0.01, 1.0, result,
                                sizeof(result)),
            OSPREY_OK);
  EXPECT_STREQ(result, "{\"y\": 4.25}");
  ASSERT_EQ(osprey_task_status(client_, task_id, &status), OSPREY_OK);
  EXPECT_EQ(status, OSPREY_TASK_COMPLETE);
}

TEST_F(CApiTest, QueryTaskTimesOut) {
  int64_t id = 0;
  char payload[64];
  EXPECT_EQ(osprey_query_task(client_, 1, "p", 0.005, 0.02, &id, payload,
                              sizeof(payload)),
            OSPREY_E_TIMEOUT);
}

TEST_F(CApiTest, BufferTooSmallFailsWithoutOverflow) {
  int64_t task_id = 0;
  ASSERT_EQ(osprey_submit_task(client_, "exp", 1,
                               "[1234567890, 1234567890, 1234567890]", 0,
                               nullptr, &task_id),
            OSPREY_OK);
  int64_t claimed = 0;
  char tiny[4];
  EXPECT_EQ(osprey_query_task(client_, 1, "p", 0.005, 0.05, &claimed, tiny,
                              sizeof(tiny)),
            OSPREY_E_INVALID_ARGUMENT);

  // The refused claim hands its task back rather than leaking the lease: a
  // retry with a large buffer claims the same id and payload. Both keyings
  // (here the one-shard service and two exp-id shards, whose claim
  // scatters) and both claim entry points (v1 osprey_query_task_wait, v2).
  osprey_service* sharded = osprey_service_create();
  ASSERT_EQ(osprey_service_configure_shards(sharded, 2, OSPREY_SHARD_KEY_EXP_ID,
                                            OSPREY_SHARD_HASH),
            OSPREY_OK);
  ASSERT_EQ(osprey_service_start(sharded), OSPREY_OK);
  osprey_client* sharded_client = osprey_client_connect(sharded);
  ASSERT_NE(sharded_client, nullptr);
  const char* kPayload = "[1234567890, 1234567890, 1234567890]";
  for (osprey_client* client : {client_, sharded_client}) {
    for (bool v2 : {false, true}) {
      SCOPED_TRACE(std::string(client == client_ ? "one shard" : "exp-id") +
                   (v2 ? ", v2" : ", v1"));
      osprey_task_spec_t task;
      osprey_task_spec_init(&task);
      task.exp_id = "exp";
      task.eq_type = 2;
      task.payload = kPayload;
      ASSERT_EQ(osprey_submit_task_v2(client, &task, &task_id), OSPREY_OK);
      osprey_claim_spec_t spec;
      osprey_claim_spec_init(&spec);
      spec.eq_type = 2;
      spec.wait.strategy = OSPREY_WAIT_POLL;
      spec.wait.poll_delay = 0.005;
      spec.wait.timeout = 0.05;
      auto claim = [&](char* buffer, size_t size) {
        return v2 ? osprey_query_task_v2(client, &spec, &claimed, buffer, size)
                  : osprey_query_task_wait(client, 2, nullptr, &spec.wait,
                                           &claimed, buffer, size);
      };
      EXPECT_EQ(claim(tiny, sizeof(tiny)), OSPREY_E_INVALID_ARGUMENT);
      char payload[64];
      ASSERT_EQ(claim(payload, sizeof(payload)), OSPREY_OK);
      EXPECT_EQ(claimed, task_id);
      EXPECT_STREQ(payload, kPayload);
      ASSERT_EQ(osprey_report_task(client, claimed, 2, "{}"), OSPREY_OK);
    }
  }
  osprey_client_destroy(sharded_client);
  osprey_service_destroy(sharded);
}

TEST_F(CApiTest, CancelAndReprioritizeBatches) {
  int64_t ids[3];
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(osprey_submit_task(client_, "exp", 1, "[1]", 0, nullptr,
                                 &ids[i]),
              OSPREY_OK);
  }
  // Element-wise priorities: invert the order.
  int priorities[3] = {1, 2, 3};
  size_t updated = 0;
  ASSERT_EQ(osprey_update_priorities(client_, ids, 3, priorities, 3, &updated),
            OSPREY_OK);
  EXPECT_EQ(updated, 3u);
  // Highest priority pops first.
  int64_t claimed = 0;
  char payload[32];
  ASSERT_EQ(osprey_query_task(client_, 1, "p", 0.005, 0.5, &claimed, payload,
                              sizeof(payload)),
            OSPREY_OK);
  EXPECT_EQ(claimed, ids[2]);

  size_t canceled = 0;
  ASSERT_EQ(osprey_cancel_tasks(client_, ids, 3, &canceled), OSPREY_OK);
  // cancel covers both queued tasks and the running (claimed) one.
  EXPECT_EQ(canceled, 3u);
  int status = -1;
  ASSERT_EQ(osprey_task_status(client_, ids[2], &status), OSPREY_OK);
  EXPECT_EQ(status, OSPREY_TASK_CANCELED);
}

TEST_F(CApiTest, NullArgumentsRejected) {
  int64_t id = 0;
  EXPECT_EQ(osprey_submit_task(nullptr, "e", 1, "[1]", 0, nullptr, &id),
            OSPREY_E_INVALID_ARGUMENT);
  EXPECT_EQ(osprey_submit_task(client_, nullptr, 1, "[1]", 0, nullptr, &id),
            OSPREY_E_INVALID_ARGUMENT);
  EXPECT_EQ(osprey_submit_task(client_, "e", 1, "[1]", 0, nullptr, nullptr),
            OSPREY_E_INVALID_ARGUMENT);
  EXPECT_EQ(osprey_report_task(client_, 1, 1, nullptr),
            OSPREY_E_INVALID_ARGUMENT);
  EXPECT_EQ(osprey_client_connect(nullptr), nullptr);
}

TEST_F(CApiTest, TwoClientsShareTheQueue) {
  // A producer client and a consumer client, as two language runtimes
  // sharing one EMEWS service would.
  osprey_client* producer = osprey_client_connect(service_);
  osprey_client* consumer = osprey_client_connect(service_);
  ASSERT_NE(producer, nullptr);
  ASSERT_NE(consumer, nullptr);
  int64_t task_id = 0;
  ASSERT_EQ(osprey_submit_task(producer, "x", 7, "[9]", 0, nullptr, &task_id),
            OSPREY_OK);
  int64_t claimed = 0;
  char payload[32];
  ASSERT_EQ(osprey_query_task(consumer, 7, "w", 0.005, 0.5, &claimed, payload,
                              sizeof(payload)),
            OSPREY_OK);
  EXPECT_EQ(claimed, task_id);
  osprey_client_destroy(producer);
  osprey_client_destroy(consumer);
}

// --- LSM storage engine through the C surface (DESIGN.md §5.12) -----------

TEST(CApiStorageTest, OptionsInitMatchesEngineDefaults) {
  osprey_storage_options options;
  std::memset(&options, 0xff, sizeof(options));
  osprey_storage_options_init(&options);
  EXPECT_EQ(options.memtable_bytes, 256u * 1024u);
  EXPECT_EQ(options.block_bytes, 16u * 1024u);
  EXPECT_EQ(options.cache_blocks, 256u);
  EXPECT_EQ(options.compact_fanout, 4u);
  EXPECT_EQ(options.bloom_bits_per_key, 10u);
  osprey_storage_options_init(nullptr);  // must not crash
}

TEST(CApiStorageTest, CampaignSpillsAndStatsReportIt) {
  osprey_service* service = osprey_service_create();
  osprey_storage_options options;
  osprey_storage_options_init(&options);
  options.memtable_bytes = 512;  // tiny: even a small campaign spills
  ASSERT_EQ(osprey_service_enable_storage(service, nullptr, &options),
            OSPREY_OK);
  ASSERT_EQ(osprey_service_start(service), OSPREY_OK);
  osprey_client* client = osprey_client_connect(service);
  ASSERT_NE(client, nullptr);

  for (int i = 0; i < 48; ++i) {
    int64_t id = 0;
    ASSERT_EQ(osprey_submit_task(client, "storage_exp", 1,
                                 "[0.125, 0.25, 0.375, 0.5, 0.625, 0.75]", i,
                                 nullptr, &id),
              OSPREY_OK);
  }
  // Drain a few through the full cycle so the run path reads back rows that
  // spilled to sorted runs.
  for (int i = 0; i < 8; ++i) {
    int64_t claimed = 0;
    char payload[128];
    ASSERT_EQ(osprey_query_task(client, 1, "w", 0.005, 1.0, &claimed, payload,
                                sizeof(payload)),
              OSPREY_OK);
    ASSERT_EQ(osprey_report_task(client, claimed, 1, "{\"y\": 1.0}"),
              OSPREY_OK);
  }

  osprey_storage_stats stats;
  ASSERT_EQ(osprey_storage_stats_snapshot(service, &stats), OSPREY_OK);
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.spilled_rows, 0u);
  EXPECT_GT(stats.runs, 0u);
  EXPECT_GT(stats.run_bytes, 0u);
  EXPECT_EQ(stats.flush_failures, 0u);
  EXPECT_EQ(stats.read_errors, 0u);

  osprey_client_destroy(client);
  osprey_service_destroy(service);
}

TEST(CApiStorageTest, EnableGuardsAgainstConflictsAndNulls) {
  osprey_service* service = osprey_service_create();

  // Stats before enable: the engine is unavailable, not zero.
  osprey_storage_stats stats;
  EXPECT_EQ(osprey_storage_stats_snapshot(service, &stats),
            OSPREY_E_UNAVAILABLE);

  ASSERT_EQ(osprey_service_enable_storage(service, nullptr, nullptr),
            OSPREY_OK);
  // Double-enable, and resharding once storage is wired to the layout.
  EXPECT_EQ(osprey_service_enable_storage(service, nullptr, nullptr),
            OSPREY_E_CONFLICT);
  EXPECT_EQ(osprey_service_configure_shards(service, 2,
                                            OSPREY_SHARD_KEY_WORK_TYPE,
                                            OSPREY_SHARD_HASH),
            OSPREY_E_CONFLICT);

  EXPECT_EQ(osprey_service_enable_storage(nullptr, nullptr, nullptr),
            OSPREY_E_INVALID_ARGUMENT);
  EXPECT_EQ(osprey_storage_stats_snapshot(service, nullptr),
            OSPREY_E_INVALID_ARGUMENT);
  EXPECT_EQ(osprey_storage_stats_snapshot(nullptr, &stats),
            OSPREY_E_INVALID_ARGUMENT);
  osprey_service_destroy(service);

  // Enabling after start is a conflict too.
  osprey_service* started = osprey_service_create();
  ASSERT_EQ(osprey_service_start(started), OSPREY_OK);
  EXPECT_EQ(osprey_service_enable_storage(started, nullptr, nullptr),
            OSPREY_E_CONFLICT);
  osprey_service_destroy(started);
}

TEST(CApiStorageTest, ShardedServiceStoresRunsInRealPerShardDirectories) {
  const char* dir = "/tmp/osprey_capi_storage_test";
  std::system("rm -rf /tmp/osprey_capi_storage_test");

  osprey_service* service = osprey_service_create();
  ASSERT_EQ(osprey_service_configure_shards(service, 2,
                                            OSPREY_SHARD_KEY_WORK_TYPE,
                                            OSPREY_SHARD_HASH),
            OSPREY_OK);
  osprey_storage_options options;
  osprey_storage_options_init(&options);
  options.memtable_bytes = 512;
  ASSERT_EQ(osprey_service_enable_storage(service, dir, &options), OSPREY_OK);
  ASSERT_EQ(osprey_service_start(service), OSPREY_OK);
  osprey_client* client = osprey_client_connect(service);
  ASSERT_NE(client, nullptr);

  // Two work types that hash to different shards under 2-way hashing.
  for (int i = 0; i < 32; ++i) {
    int64_t id = 0;
    ASSERT_EQ(osprey_submit_task(client, "exp", 1 + (i % 2),
                                 "[0.5, 1.5, 2.5, 3.5]", 0, nullptr, &id),
              OSPREY_OK);
  }
  osprey_storage_stats stats;
  ASSERT_EQ(osprey_storage_stats_snapshot(service, &stats), OSPREY_OK);
  EXPECT_GT(stats.flushes, 0u);

  // The per-shard directories exist on the real filesystem with content.
  struct stat st;
  EXPECT_EQ(stat("/tmp/osprey_capi_storage_test/shard-0", &st), 0);
  EXPECT_EQ(stat("/tmp/osprey_capi_storage_test/shard-1", &st), 0);

  osprey_client_destroy(client);
  osprey_service_destroy(service);
  std::system("rm -rf /tmp/osprey_capi_storage_test");
}

}  // namespace
