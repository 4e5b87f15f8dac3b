/* The library builds the v1 surface it still ships. */
#define OSPREY_ALLOW_DEPRECATED

#include "osprey/capi/osprey_c.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "osprey/eqsql/service.h"
#include "osprey/shard/key.h"
#include "osprey/shard/router.h"
#include "osprey/storage/engine.h"
#include "osprey/tenant/registry.h"

using osprey::ErrorCode;
using osprey::Status;

/* A sharded service is a vector of independent EmewsService instances, one
 * per shard, routed by the same ShardSpec the C++ ShardRouter uses. The
 * default is one shard, whose id encoding is the identity — an unconfigured
 * service is byte-compatible with the pre-sharding C API. */
struct osprey_service {
  osprey::RealClock clock;
  osprey::shard::ShardSpec spec;
  /* Declared before shards: each shard's storage engine (when enabled)
   * holds a reference to its device, so the devices must outlive them. */
  std::vector<std::unique_ptr<osprey::db::wal::LogDevice>> devices;
  std::vector<std::unique_ptr<osprey::eqsql::EmewsService>> shards;
  bool started = false;
  /* Start of the next exp-id scatter claim's shard rotation. */
  std::atomic<std::uint64_t> rotation{0};
};

struct osprey_client {
  osprey_service* service = nullptr;
  std::vector<std::unique_ptr<osprey::eqsql::EQSQL>> apis;
};

namespace {

namespace shard = osprey::shard;

int to_c_error(ErrorCode code) { return static_cast<int>(code); }

int copy_string(const std::string& value, char* buffer, size_t buffer_size) {
  if (!buffer || buffer_size == 0 || value.size() + 1 > buffer_size) {
    return OSPREY_E_INVALID_ARGUMENT;  // refuse to truncate
  }
  std::memcpy(buffer, value.c_str(), value.size() + 1);
  return OSPREY_OK;
}

osprey::eqsql::WaitSpec to_wait_spec(const osprey_wait_spec* wait) {
  osprey::eqsql::WaitSpec spec;
  if (!wait) return spec;
  switch (wait->strategy) {
    case OSPREY_WAIT_NOTIFY:
      spec.strategy = osprey::eqsql::WaitStrategy::kNotify;
      break;
    case OSPREY_WAIT_POLL:
      spec.strategy = osprey::eqsql::WaitStrategy::kPoll;
      break;
    default:
      spec.strategy = osprey::eqsql::WaitStrategy::kAuto;
      break;
  }
  spec.timeout = wait->timeout;
  spec.poll_delay = wait->poll_delay;
  spec.poll_backoff = wait->poll_backoff;
  spec.poll_max_delay = wait->poll_max_delay;
  return spec;
}

/* The API handle owning a global task id, or nullptr when the id's shard
 * bits exceed the configured count. Writes the shard-local id to *local. */
osprey::eqsql::EQSQL* api_for_task(osprey_client* client, int64_t task_id,
                                   osprey::TaskId* local) {
  const shard::ShardId s = shard::shard_of_task(task_id);
  if (s >= client->apis.size()) return nullptr;
  *local = shard::local_task_id(task_id);
  return client->apis[s].get();
}

/* Read a caller's size-prefixed struct at the ABI the caller compiled
 * against: start from this library's defaults, then overlay the caller's
 * leading min(their size, ours) bytes. Fields the caller predates keep
 * their defaults; fields the caller has that we don't are ignored. */
template <typename T>
T read_versioned(const T* caller, void (*init)(T*)) {
  T local;
  init(&local);
  if (caller && caller->struct_size > 0) {
    std::memcpy(&local, caller, std::min(caller->struct_size, sizeof(T)));
    local.struct_size = sizeof(T);
  }
  return local;
}

/* The one claim path both osprey_query_task_wait (v1) and
 * osprey_query_task_v2 resolve to. */
int query_one_task(osprey_client* client, int eq_type, const char* worker_pool,
                   const osprey::eqsql::WaitSpec& spec, int64_t* task_id_out,
                   char* payload_buf, size_t payload_buf_size) {
  namespace eqsql = osprey::eqsql;
  if (!client || !task_id_out) return OSPREY_E_INVALID_ARGUMENT;
  const osprey::PoolId pool = worker_pool ? worker_pool : "default";
  const auto count = static_cast<uint32_t>(client->apis.size());
  eqsql::TaskHandle handle;
  shard::ShardId s = shard::shard_of_work_type(client->service->spec, eq_type);
  if (client->service->spec.key == shard::ShardKeyKind::kWorkType ||
      count == 1) {
    auto tasks = client->apis[s]->query_task(eq_type, 1, pool, spec);
    if (!tasks.ok()) return to_c_error(tasks.code());
    handle = std::move(tasks.value().front());
  } else {
    /* Experiment keying spreads a work type over every shard: each probe
     * tries them in rotation order, and notify mode blocks on the union of
     * their work channels. */
    std::vector<eqsql::Notifier*> notifiers;
    for (auto& api : client->apis) notifiers.push_back(api->notifier());
    std::unique_ptr<shard::UnionWaiter> channel;
    if (spec.strategy != eqsql::WaitStrategy::kPoll &&
        std::find(notifiers.begin(), notifiers.end(), nullptr) ==
            notifiers.end()) {
      channel = std::make_unique<shard::UnionWaiter>(notifiers, eq_type);
    }
    Status claimed = eqsql::wait_until(
        spec, client->service->clock, &osprey::RealClock::sleep_for,
        channel.get(),
        [&]() -> osprey::Result<eqsql::ProbeOutcome> {
          for (shard::ShardId candidate : shard::rotation_order(
                   client->service->rotation.fetch_add(1), count)) {
            auto tasks =
                client->apis[candidate]->try_query_tasks(eq_type, 1, pool);
            if (!tasks.ok()) return tasks.error();
            if (tasks.value().empty()) continue;
            handle = std::move(tasks.value().front());
            s = candidate;
            return eqsql::ProbeOutcome::kDone;
          }
          return eqsql::ProbeOutcome::kNotYet;
        },
        [&] { return "no task of type " + std::to_string(eq_type); });
    if (!claimed.is_ok()) return to_c_error(claimed.code());
  }
  int copied = copy_string(handle.payload, payload_buf, payload_buf_size);
  if (copied != OSPREY_OK) {
    /* The claim has committed, but the caller cannot take the payload and
     * never learns the id: return the task to its queue, or its lease is
     * lost. */
    auto requeued = client->apis[s]->requeue_tasks({handle.eq_task_id});
    return requeued.ok() ? copied : to_c_error(requeued.code());
  }
  *task_id_out = shard::global_task_id(handle.eq_task_id, s);
  return OSPREY_OK;
}

/* The v1 queue-stats entry points read the v2 snapshot: every shard (-1)
 * or one. */
int queue_stats_v1(osprey_client* client, int32_t shard,
                   osprey_queue_stats* stats_out) {
  if (!stats_out) return OSPREY_E_INVALID_ARGUMENT;
  osprey_stats_v2_t v2;
  osprey_stats_v2_init(&v2);
  const int rc = osprey_stats_v2(client, shard, &v2);
  if (rc != OSPREY_OK) return rc;
  *stats_out = {v2.output_queue, v2.input_queue, v2.queued,
                v2.running,      v2.complete,    v2.canceled};
  return OSPREY_OK;
}

osprey::tenant::TenantConfig to_tenant_config(
    const osprey_tenant_config_t* config) {
  osprey_tenant_config_t c =
      read_versioned(config, osprey_tenant_config_init);
  osprey::tenant::TenantConfig out;
  out.submit_quota = c.submit_quota;
  out.max_queue_depth = c.max_queue_depth;
  out.weight = c.weight;
  return out;
}

}  // namespace

extern "C" {

const char* osprey_error_name(int code) {
  return osprey::error_code_name(static_cast<ErrorCode>(code));
}

osprey_service* osprey_service_create(void) {
  auto* service = new osprey_service();
  service->shards.push_back(
      std::make_unique<osprey::eqsql::EmewsService>(service->clock));
  return service;
}

void osprey_service_destroy(osprey_service* service) { delete service; }

int osprey_service_configure_shards(osprey_service* service,
                                    uint32_t shard_count, int key_kind,
                                    int scheme) {
  if (!service || shard_count == 0 || shard_count > shard::kMaxShards) {
    return OSPREY_E_INVALID_ARGUMENT;
  }
  if (key_kind != OSPREY_SHARD_KEY_WORK_TYPE &&
      key_kind != OSPREY_SHARD_KEY_EXP_ID) {
    return OSPREY_E_INVALID_ARGUMENT;
  }
  if (scheme != OSPREY_SHARD_HASH && scheme != OSPREY_SHARD_RANGE) {
    return OSPREY_E_INVALID_ARGUMENT;
  }
  /* Resharding would orphan the per-shard storage devices; storage is
   * wired to a specific shard layout, so configure shards first. */
  if (service->started || !service->devices.empty()) return OSPREY_E_CONFLICT;
  service->spec.shard_count = shard_count;
  service->spec.key = key_kind == OSPREY_SHARD_KEY_EXP_ID
                          ? shard::ShardKeyKind::kExpId
                          : shard::ShardKeyKind::kWorkType;
  service->spec.scheme = scheme == OSPREY_SHARD_RANGE
                             ? shard::ShardScheme::kRange
                             : shard::ShardScheme::kHash;
  service->shards.clear();
  for (uint32_t s = 0; s < shard_count; ++s) {
    service->shards.push_back(
        std::make_unique<osprey::eqsql::EmewsService>(service->clock));
  }
  return OSPREY_OK;
}

uint32_t osprey_shard_count(const osprey_service* service) {
  if (!service) return 0;
  return static_cast<uint32_t>(service->shards.size());
}

int osprey_shard_of(const osprey_service* service, int eq_type,
                    const char* exp_id, uint32_t* shard_out) {
  if (!service || !shard_out) return OSPREY_E_INVALID_ARGUMENT;
  *shard_out = shard::shard_for(service->spec, eq_type, exp_id ? exp_id : "");
  return OSPREY_OK;
}

int osprey_shard_of_task(const osprey_service* service, int64_t task_id,
                         uint32_t* shard_out) {
  if (!service || !shard_out) return OSPREY_E_INVALID_ARGUMENT;
  const shard::ShardId s = shard::shard_of_task(task_id);
  if (s >= service->shards.size()) return OSPREY_E_INVALID_ARGUMENT;
  *shard_out = s;
  return OSPREY_OK;
}

int osprey_service_start(osprey_service* service) {
  if (!service) return OSPREY_E_INVALID_ARGUMENT;
  for (auto& s : service->shards) {
    Status started = s->start();
    if (!started.is_ok()) return to_c_error(started.code());
  }
  service->started = true;
  return OSPREY_OK;
}

int osprey_service_stop(osprey_service* service) {
  if (!service) return OSPREY_E_INVALID_ARGUMENT;
  for (auto& s : service->shards) {
    Status stopped = s->stop();
    if (!stopped.is_ok()) return to_c_error(stopped.code());
  }
  service->started = false;
  return OSPREY_OK;
}

int osprey_service_enable_notifications(osprey_service* service) {
  if (!service) return OSPREY_E_INVALID_ARGUMENT;
  for (auto& s : service->shards) {
    Status enabled = s->enable_notifications();
    if (!enabled.is_ok()) return to_c_error(enabled.code());
  }
  return OSPREY_OK;
}

void osprey_storage_options_init(osprey_storage_options* options) {
  if (!options) return;
  const osprey::storage::StorageOptions defaults;
  options->memtable_bytes = defaults.memtable_bytes;
  options->block_bytes = defaults.block_bytes;
  options->cache_blocks = defaults.cache_blocks;
  options->compact_fanout = defaults.compact_fanout;
  options->bloom_bits_per_key = defaults.bloom_bits_per_key;
}

int osprey_service_enable_storage(osprey_service* service,
                                  const char* directory,
                                  const osprey_storage_options* options) {
  if (!service) return OSPREY_E_INVALID_ARGUMENT;
  if (service->started || !service->devices.empty()) return OSPREY_E_CONFLICT;

  osprey::storage::StorageOptions opts;
  if (options) {
    opts.memtable_bytes = options->memtable_bytes;
    opts.block_bytes = options->block_bytes;
    opts.cache_blocks = options->cache_blocks;
    opts.compact_fanout = options->compact_fanout;
    opts.bloom_bits_per_key = options->bloom_bits_per_key;
  }

  if (directory) {
    if (mkdir(directory, 0755) != 0 && errno != EEXIST) {
      return OSPREY_E_UNAVAILABLE;
    }
  }
  for (size_t s = 0; s < service->shards.size(); ++s) {
    std::unique_ptr<osprey::db::wal::LogDevice> device;
    if (directory) {
      std::string dir = directory;
      if (service->shards.size() > 1) {
        dir += "/shard-" + std::to_string(s);
        if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
          return OSPREY_E_UNAVAILABLE;
        }
      }
      device = std::make_unique<osprey::db::wal::FileLogDevice>(dir);
    } else {
      device = std::make_unique<osprey::db::wal::SimLogDevice>(
          std::make_shared<osprey::db::wal::SimDisk>());
    }
    /* Park the device in the service before handing out a reference: the
     * engine keeps it for the shard's lifetime, success or not. */
    service->devices.push_back(std::move(device));
    Status enabled =
        service->shards[s]->enable_storage(*service->devices.back(), opts);
    if (!enabled.is_ok()) return to_c_error(enabled.code());
  }
  return OSPREY_OK;
}

int osprey_storage_stats_snapshot(const osprey_service* service,
                                  osprey_storage_stats* stats_out) {
  if (!service || !stats_out) return OSPREY_E_INVALID_ARGUMENT;
  osprey::storage::StorageStats total;
  bool any = false;
  /* stats() is logically const but declared on the mutable engine handle. */
  for (auto& shard_service : const_cast<osprey_service*>(service)->shards) {
    osprey::storage::StorageEngine* engine = shard_service->storage();
    if (!engine) continue;
    any = true;
    total.merge(engine->stats());
  }
  if (!any) return OSPREY_E_UNAVAILABLE;
  stats_out->memtable_bytes = total.memtable_bytes;
  stats_out->memtable_rows = total.memtable_rows;
  stats_out->spilled_rows = total.spilled_rows;
  stats_out->runs = total.runs;
  stats_out->run_bytes = total.run_bytes;
  stats_out->zombie_runs = total.zombie_runs;
  stats_out->flushes = total.flushes;
  stats_out->flush_failures = total.flush_failures;
  stats_out->compactions = total.compactions;
  stats_out->cache_hits = total.cache_hits;
  stats_out->cache_misses = total.cache_misses;
  stats_out->read_errors = total.read_errors;
  return OSPREY_OK;
}

void osprey_wait_spec_init(osprey_wait_spec* spec) {
  if (!spec) return;
  const osprey::eqsql::WaitSpec defaults;
  spec->strategy = OSPREY_WAIT_AUTO;
  spec->timeout = defaults.timeout;
  spec->poll_delay = defaults.poll_delay;
  spec->poll_backoff = defaults.poll_backoff;
  spec->poll_max_delay = defaults.poll_max_delay;
}

osprey_client* osprey_client_connect(osprey_service* service) {
  if (!service) return nullptr;
  auto client = std::make_unique<osprey_client>();
  client->service = service;
  for (auto& s : service->shards) {
    auto api = s->connect();
    if (!api.ok()) return nullptr;
    client->apis.push_back(std::move(api).take());
  }
  return client.release();
}

void osprey_client_destroy(osprey_client* client) { delete client; }

int osprey_submit_task(osprey_client* client, const char* exp_id, int eq_type,
                       const char* payload, int priority, const char* tag,
                       int64_t* task_id_out) {
  /* Thin wrapper over the v2 entry point: an untenanted spec. */
  osprey_task_spec_t spec;
  osprey_task_spec_init(&spec);
  spec.exp_id = exp_id;
  spec.eq_type = eq_type;
  spec.priority = priority;
  spec.payload = payload;
  spec.tag = tag;
  return osprey_submit_task_v2(client, &spec, task_id_out);
}

int osprey_query_task(osprey_client* client, int eq_type,
                      const char* worker_pool, double delay, double timeout,
                      int64_t* task_id_out, char* payload_buf,
                      size_t payload_buf_size) {
  osprey_wait_spec wait;
  osprey_wait_spec_init(&wait);
  wait.strategy = OSPREY_WAIT_POLL;
  wait.poll_delay = delay;
  wait.timeout = timeout;
  return osprey_query_task_wait(client, eq_type, worker_pool, &wait,
                                task_id_out, payload_buf, payload_buf_size);
}

int osprey_report_task(osprey_client* client, int64_t task_id, int eq_type,
                       const char* result) {
  if (!client || !result) return OSPREY_E_INVALID_ARGUMENT;
  osprey::TaskId local = 0;
  osprey::eqsql::EQSQL* api = api_for_task(client, task_id, &local);
  if (!api) return OSPREY_E_INVALID_ARGUMENT;
  return to_c_error(api->report_task(local, eq_type, result).code());
}

int osprey_query_result(osprey_client* client, int64_t task_id, double delay,
                        double timeout, char* result_buf,
                        size_t result_buf_size) {
  if (!client) return OSPREY_E_INVALID_ARGUMENT;
  osprey::TaskId local = 0;
  osprey::eqsql::EQSQL* api = api_for_task(client, task_id, &local);
  if (!api) return OSPREY_E_INVALID_ARGUMENT;
  auto result = api->query_result(local, {delay, timeout});
  if (!result.ok()) return to_c_error(result.code());
  return copy_string(result.value(), result_buf, result_buf_size);
}

int osprey_query_task_wait(osprey_client* client, int eq_type,
                           const char* worker_pool,
                           const osprey_wait_spec* wait, int64_t* task_id_out,
                           char* payload_buf, size_t payload_buf_size) {
  return query_one_task(client, eq_type, worker_pool, to_wait_spec(wait),
                        task_id_out, payload_buf, payload_buf_size);
}

int osprey_query_result_wait(osprey_client* client, int64_t task_id,
                             const osprey_wait_spec* wait, char* result_buf,
                             size_t result_buf_size) {
  if (!client) return OSPREY_E_INVALID_ARGUMENT;
  osprey::TaskId local = 0;
  osprey::eqsql::EQSQL* api = api_for_task(client, task_id, &local);
  if (!api) return OSPREY_E_INVALID_ARGUMENT;
  auto result = api->query_result(local, to_wait_spec(wait));
  if (!result.ok()) return to_c_error(result.code());
  return copy_string(result.value(), result_buf, result_buf_size);
}

int osprey_peek_result(osprey_client* client, int64_t task_id,
                       char* result_buf, size_t result_buf_size) {
  if (!client) return OSPREY_E_INVALID_ARGUMENT;
  osprey::TaskId local = 0;
  osprey::eqsql::EQSQL* api = api_for_task(client, task_id, &local);
  if (!api) return OSPREY_E_INVALID_ARGUMENT;
  auto result = api->peek_result(local);
  if (!result.ok()) return to_c_error(result.code());
  return copy_string(result.value(), result_buf, result_buf_size);
}

int osprey_stats(osprey_client* client, osprey_queue_stats* stats_out) {
  return queue_stats_v1(client, -1, stats_out);
}

int osprey_shard_stats(osprey_client* client, uint32_t shard,
                       osprey_queue_stats* stats_out) {
  if (!client || shard >= client->apis.size()) return OSPREY_E_INVALID_ARGUMENT;
  return queue_stats_v1(client, static_cast<int32_t>(shard), stats_out);
}

int osprey_task_status(osprey_client* client, int64_t task_id,
                       int* status_out) {
  if (!client || !status_out) return OSPREY_E_INVALID_ARGUMENT;
  osprey::TaskId local = 0;
  osprey::eqsql::EQSQL* api = api_for_task(client, task_id, &local);
  if (!api) return OSPREY_E_INVALID_ARGUMENT;
  auto status = api->task_status(local);
  if (!status.ok()) return to_c_error(status.code());
  *status_out = static_cast<int>(status.value());
  return OSPREY_OK;
}

int osprey_cancel_tasks(osprey_client* client, const int64_t* task_ids,
                        size_t count, size_t* canceled_out) {
  if (!client || (!task_ids && count > 0)) return OSPREY_E_INVALID_ARGUMENT;
  std::vector<std::vector<osprey::TaskId>> per_shard(client->apis.size());
  for (size_t i = 0; i < count; ++i) {
    const shard::ShardId s = shard::shard_of_task(task_ids[i]);
    if (s >= client->apis.size()) return OSPREY_E_INVALID_ARGUMENT;
    per_shard[s].push_back(shard::local_task_id(task_ids[i]));
  }
  size_t total = 0;
  for (size_t s = 0; s < per_shard.size(); ++s) {
    if (per_shard[s].empty()) continue;
    auto canceled = client->apis[s]->cancel_tasks(per_shard[s]);
    if (!canceled.ok()) return to_c_error(canceled.code());
    total += canceled.value();
  }
  if (canceled_out) *canceled_out = total;
  return OSPREY_OK;
}

int osprey_update_priorities(osprey_client* client, const int64_t* task_ids,
                             size_t count, const int* priorities,
                             size_t priorities_count, size_t* updated_out) {
  if (!client || (!task_ids && count > 0) || !priorities ||
      priorities_count == 0) {
    return OSPREY_E_INVALID_ARGUMENT;
  }
  if (priorities_count != 1 && priorities_count != count) {
    return OSPREY_E_INVALID_ARGUMENT;
  }
  std::vector<std::vector<osprey::TaskId>> ids(client->apis.size());
  std::vector<std::vector<osprey::Priority>> prios(client->apis.size());
  for (size_t i = 0; i < count; ++i) {
    const shard::ShardId s = shard::shard_of_task(task_ids[i]);
    if (s >= client->apis.size()) return OSPREY_E_INVALID_ARGUMENT;
    ids[s].push_back(shard::local_task_id(task_ids[i]));
    prios[s].push_back(priorities[priorities_count == 1 ? 0 : i]);
  }
  size_t total = 0;
  for (size_t s = 0; s < ids.size(); ++s) {
    if (ids[s].empty()) continue;
    auto updated = client->apis[s]->update_priorities(ids[s], prios[s]);
    if (!updated.ok()) return to_c_error(updated.code());
    total += updated.value();
  }
  if (updated_out) *updated_out = total;
  return OSPREY_OK;
}

int osprey_queued_count(osprey_client* client, int eq_type,
                        int64_t* count_out) {
  if (!client || !count_out) return OSPREY_E_INVALID_ARGUMENT;
  if (client->service->spec.key == shard::ShardKeyKind::kWorkType) {
    const shard::ShardId s =
        shard::shard_of_work_type(client->service->spec, eq_type);
    auto count = client->apis[s]->queued_count(eq_type);
    if (!count.ok()) return to_c_error(count.code());
    *count_out = count.value();
    return OSPREY_OK;
  }
  int64_t total = 0;
  for (auto& api : client->apis) {
    auto count = api->queued_count(eq_type);
    if (!count.ok()) return to_c_error(count.code());
    total += count.value();
  }
  *count_out = total;
  return OSPREY_OK;
}

/* --- the v2 surface -------------------------------------------------------- */

void osprey_task_spec_init(osprey_task_spec_t* spec) {
  if (!spec) return;
  std::memset(spec, 0, sizeof(*spec));
  spec->struct_size = sizeof(*spec);
}

int osprey_submit_task_v2(osprey_client* client,
                          const osprey_task_spec_t* caller_spec,
                          int64_t* task_id_out) {
  if (!client || !caller_spec || !task_id_out) return OSPREY_E_INVALID_ARGUMENT;
  const osprey_task_spec_t spec =
      read_versioned(caller_spec, osprey_task_spec_init);
  if (!spec.exp_id || !spec.payload) return OSPREY_E_INVALID_ARGUMENT;
  const shard::ShardId s =
      shard::shard_for(client->service->spec, spec.eq_type, spec.exp_id);
  const osprey::TenantId tenant = spec.tenant ? spec.tenant : "";
  auto id = client->apis[s]->submit_task_as(tenant, spec.exp_id, spec.eq_type,
                                            spec.payload, spec.priority,
                                            spec.tag ? spec.tag : "");
  if (!id.ok()) return to_c_error(id.code());
  *task_id_out = shard::global_task_id(id.value(), s);
  return OSPREY_OK;
}

void osprey_claim_spec_init(osprey_claim_spec_t* spec) {
  if (!spec) return;
  std::memset(spec, 0, sizeof(*spec));
  spec->struct_size = sizeof(*spec);
  osprey_wait_spec_init(&spec->wait);
}

int osprey_query_task_v2(osprey_client* client,
                         const osprey_claim_spec_t* caller_spec,
                         int64_t* task_id_out, char* payload_buf,
                         size_t payload_buf_size) {
  if (!client || !caller_spec || !task_id_out) return OSPREY_E_INVALID_ARGUMENT;
  const osprey_claim_spec_t spec =
      read_versioned(caller_spec, osprey_claim_spec_init);
  return query_one_task(client, spec.eq_type, spec.worker_pool,
                        to_wait_spec(&spec.wait), task_id_out, payload_buf,
                        payload_buf_size);
}

void osprey_stats_v2_init(osprey_stats_v2_t* stats) {
  if (!stats) return;
  std::memset(stats, 0, sizeof(*stats));
  stats->struct_size = sizeof(*stats);
}

int osprey_stats_v2(osprey_client* client, int32_t shard_index,
                    osprey_stats_v2_t* stats_out) {
  if (!client || !stats_out) return OSPREY_E_INVALID_ARGUMENT;
  if (shard_index >= 0 &&
      static_cast<size_t>(shard_index) >= client->apis.size()) {
    return OSPREY_E_INVALID_ARGUMENT;
  }
  /* The caller's struct_size bounds what we write back: build the full
   * current-ABI snapshot locally, then copy their prefix. */
  const size_t caller_size = stats_out->struct_size;
  osprey::eqsql::QueueStats queue;
  osprey::storage::StorageStats storage;
  bool storage_enabled = false;
  for (size_t s = 0; s < client->apis.size(); ++s) {
    if (shard_index >= 0 && s != static_cast<size_t>(shard_index)) continue;
    auto stats = client->apis[s]->stats();
    if (!stats.ok()) return to_c_error(stats.code());
    queue.merge(stats.value());
    osprey::storage::StorageEngine* engine =
        client->service->shards[s]->storage();
    if (!engine) continue;
    storage_enabled = true;
    storage.merge(engine->stats());
  }
  osprey_stats_v2_t total;
  osprey_stats_v2_init(&total);
  total.output_queue = queue.output_queue;
  total.input_queue = queue.input_queue;
  total.queued = queue.queued;
  total.running = queue.running;
  total.complete = queue.complete;
  total.canceled = queue.canceled;
  total.storage_enabled = storage_enabled ? 1 : 0;
  total.storage_memtable_bytes = storage.memtable_bytes;
  total.storage_memtable_rows = storage.memtable_rows;
  total.storage_spilled_rows = storage.spilled_rows;
  total.storage_runs = storage.runs;
  total.storage_run_bytes = storage.run_bytes;
  total.storage_zombie_runs = storage.zombie_runs;
  total.storage_flushes = storage.flushes;
  total.storage_flush_failures = storage.flush_failures;
  total.storage_compactions = storage.compactions;
  total.storage_cache_hits = storage.cache_hits;
  total.storage_cache_misses = storage.cache_misses;
  total.storage_read_errors = storage.read_errors;
  std::memcpy(stats_out, &total,
              std::min(caller_size, sizeof(osprey_stats_v2_t)));
  stats_out->struct_size = caller_size;
  return OSPREY_OK;
}

/* --- multi-tenancy --------------------------------------------------------- */

void osprey_tenant_config_init(osprey_tenant_config_t* config) {
  if (!config) return;
  std::memset(config, 0, sizeof(*config));
  config->struct_size = sizeof(*config);
  const osprey::tenant::TenantConfig defaults;
  config->submit_quota = defaults.submit_quota;
  config->max_queue_depth = defaults.max_queue_depth;
  config->weight = defaults.weight;
}

int osprey_service_enable_tenants(osprey_service* service) {
  if (!service) return OSPREY_E_INVALID_ARGUMENT;
  for (auto& s : service->shards) {
    Status enabled = s->enable_tenants();
    if (!enabled.is_ok()) return to_c_error(enabled.code());
  }
  return OSPREY_OK;
}

int osprey_tenant_register(osprey_service* service, const char* tenant,
                           const osprey_tenant_config_t* config) {
  if (!service || !tenant) return OSPREY_E_INVALID_ARGUMENT;
  const osprey::tenant::TenantConfig cpp_config = to_tenant_config(config);
  for (auto& s : service->shards) {
    if (!s->tenants()) return OSPREY_E_UNAVAILABLE;
    Status registered = s->tenants()->register_tenant(tenant, cpp_config);
    if (!registered.is_ok()) return to_c_error(registered.code());
  }
  return OSPREY_OK;
}

int osprey_tenant_set_config(osprey_service* service, const char* tenant,
                             const osprey_tenant_config_t* config) {
  if (!service || !tenant || !config) return OSPREY_E_INVALID_ARGUMENT;
  const osprey::tenant::TenantConfig cpp_config = to_tenant_config(config);
  for (auto& s : service->shards) {
    if (!s->tenants()) return OSPREY_E_UNAVAILABLE;
    Status set = s->tenants()->set_config(tenant, cpp_config);
    if (!set.is_ok()) return to_c_error(set.code());
  }
  return OSPREY_OK;
}

int osprey_tenant_stats_v2(osprey_client* client,
                           osprey_tenant_stats_row_t* rows, size_t max_rows,
                           size_t* count_out) {
  if (!client || !count_out || (!rows && max_rows > 0)) {
    return OSPREY_E_INVALID_ARGUMENT;
  }
  /* Merge per-shard registry snapshots by tenant id: counters and depths
   * sum; the config shown is the (identical) per-shard policy. */
  std::map<osprey::TenantId, osprey::tenant::TenantStats> merged;
  bool any = false;
  for (auto& shard_service : client->service->shards) {
    osprey::tenant::TenantRegistry* registry = shard_service->tenants();
    if (!registry) continue;
    any = true;
    for (const osprey::tenant::TenantStats& s : registry->stats()) {
      auto [it, inserted] = merged.emplace(s.tenant, s);
      if (!inserted) it->second.merge(s);
    }
  }
  if (!any) return OSPREY_E_UNAVAILABLE;
  *count_out = merged.size();

  /* rows[0].struct_size is the caller's compiled row size — the stride we
   * walk their array with and the bound on what we write per row. */
  const size_t stride = max_rows > 0 ? rows[0].struct_size : 0;
  if (max_rows > 0 && stride == 0) return OSPREY_E_INVALID_ARGUMENT;
  size_t written = 0;
  auto* base = reinterpret_cast<char*>(rows);
  for (const auto& [tenant, stats] : merged) {
    if (written >= max_rows) break;
    osprey_tenant_stats_row_t row;
    std::memset(&row, 0, sizeof(row));
    row.struct_size = stride;
    std::strncpy(row.tenant, tenant.c_str(), sizeof(row.tenant) - 1);
    row.submit_quota = stats.config.submit_quota;
    row.max_queue_depth = stats.config.max_queue_depth;
    row.weight = stats.config.weight;
    row.queued = stats.queued;
    row.running = stats.running;
    row.admitted = stats.admitted;
    row.rejected = stats.rejected;
    row.claimed = stats.claimed;
    row.completed = stats.completed;
    row.cost_task_seconds = stats.cost_task_seconds;
    std::memcpy(base + written * stride, &row,
                std::min(stride, sizeof(row)));
    ++written;
  }
  return OSPREY_OK;
}

}  // extern "C"
